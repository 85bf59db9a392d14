"""The per-monomial image tables of ``translate``, ``antipode`` and the
derivative actions against the per-call computations they replaced.

``translate`` and ``antipode`` are checked against the independent kernels
of ``test_taylor_kernels.py``.  The derivative actions are checked against
the chain of ``CFunction`` operations below, which restates the earlier
``qfunc`` code that re-derived every image on each call.  Every check runs
from emptied tables, so a later variant, index or ordering reads the rows
an earlier one stored, and again warm on a rescaled input, so a row that
kept its first caller's coefficient shows.  The inputs are multi-term
polynomials whose coefficients are signed, Laurent, rational and Gaussian.
"""

import random

import pytest

import qspace
from qspace.cfunc import CFunction, E3_VARS, _monomials, space_vars
from qspace.hopf import TRANSLATE_VARIANTS, antipode, translate
from qspace.ncalgebra import reorder_transform
from qspace.qfunc import VARIANTS, act_inverse_partial, act_partial_closed
from qspace.scalars import LAM, ONE, qpow
from qspace.spaces import CALCULI, E3, LINE, PM_LABEL_SWAP, SUBSTITUTION
from test_lincomb import assert_read_only
from test_scalar_oracle import field_property, gen_scalar
from test_taylor_kernels import _old_antipode, _old_translate

TABLES = tuple(qspace.tables()[name] for name in (
    "hopf.translate_rows", "hopf.antipode_rows", "qfunc.act_rows"))
INDICES = {LINE: ("0", "1"), E3: ("0", "+", "3", "-")}
# the monomials the inputs draw from; degree 4 reaches two steps of the
# x3 series of the antipode and of the inverse '-' action
_DEGREE = {LINE: 5, E3: 4}


# -- the earlier derivative actions, on whole polynomials -----------------------


def _d_minus(f, x, s):
    lam_xp = CFunction.var(f.vars, x[0], 1, s * LAM)
    return (f.scale_var("x3", 4 * s).jackson_d(x[1], 4 * s)
            + f.jackson_d("x3", 2 * s).jackson_d("x3", 2 * s) * lam_xp)


def _d_minus_inverse(f, x, s):
    out = CFunction.zero(f.vars)
    for k in range(f.degree("x3") // 2 + 1):
        g = f.scale_var("x3", -4 * s * (k + 1))
        for _ in range(k + 1):
            g = g.jackson_antiderivative(x[1], 4 * s)
        for _ in range(2 * k):
            g = g.jackson_d("x3", 2 * s)
        out = out + g * CFunction.var(f.vars, x[0], k, qpow(2 * s * k * (k + 1)) * (-s * LAM) ** k)
    return out


_OLD_LEFT = {
    LINE: {"0": lambda f, x, s: f.classical_d("x0"),
           "1": lambda f, x, s: f.jackson_d("x1", s)},
    E3: {
        "0": lambda f, x, s: f.classical_d("x0"),
        "+": lambda f, x, s: f.jackson_d(x[0], 4 * s),
        "3": lambda f, x, s: f.scale_var(x[0], 4 * s).jackson_d("x3", 2 * s),
        "-": _d_minus,
    },
}
_OLD_LEFT_INVERSE = {
    LINE: {"0": lambda f, x, s: f.classical_antiderivative("x0"),
           "1": lambda f, x, s: f.jackson_antiderivative("x1", s)},
    E3: {
        "0": lambda f, x, s: f.classical_antiderivative("x0"),
        "+": lambda f, x, s: f.jackson_antiderivative(x[0], 4 * s),
        "3": lambda f, x, s: f.scale_var(x[0], -4 * s).jackson_antiderivative("x3", 2 * s),
        "-": _d_minus_inverse,
    },
}


def _old_act(actions, index, variant, f, space, rep):
    hatted, right = CALCULI[variant][:2]
    s, mirrored = SUBSTITUTION[variant]
    back = None
    if space == E3 and (rep == "standard") == hatted:
        there, back = "to_reversed", "to_standard"
        if rep != "standard":
            there, back = back, there
        f = reorder_transform(space, f, there)
    action = actions[space][PM_LABEL_SWAP.get(index, index) if mirrored else index]
    out = action(f, ("xm", "xp") if mirrored else ("xp", "xm"), s)
    if right:
        out = -out
    return out if back is None else reorder_transform(space, out, back)


# -- the differential check ------------------------------------------------------


def _same(got, want, label):
    assert got == want, label
    assert str(got) == str(want), label


def _cases(space, f):
    """(label, the tabled call, the reference call) for every variant,
    index and ordering, on f."""
    for variant in TRANSLATE_VARIANTS:
        yield (("translate", variant), lambda g, v=variant: translate(space, v, g),
               _old_translate(space, variant, f))
        yield (("antipode", variant), lambda g, v=variant: antipode(space, v, g),
               _old_antipode(space, variant, f))
    for variant in VARIANTS:
        for index in INDICES[space]:
            for rep in ("standard", "reversed"):
                yield (("act", index, variant, rep),
                       lambda g, i=index, v=variant, r=rep: act_partial_closed(i, v, g, space, r),
                       _old_act(_OLD_LEFT, index, variant, f, space, rep))
            yield (("inverse", index, variant),
                   lambda g, i=index, v=variant: act_inverse_partial(i, v, g, space),
                   _old_act(_OLD_LEFT_INVERSE, index, variant, f, space, "standard"))


def check_tables_against_the_per_call_path(space, f, k):
    """Every tabled map on f from emptied tables, then warm on k f."""
    cases = list(_cases(space, f))
    qspace.clear_tables()
    for label, call, want in cases:
        _same(call(f), want, (space, label, "cold", str(f)))
    kf = f.scale(k)
    for label, call, want in cases:
        _same(call(kf), want.scale(k), (space, label, "warm", str(f), str(k)))


def _poly(space, draw_int):
    """A polynomial of one to four terms on the space's low monomials, each
    coefficient a random scalar (test_scalar_oracle.gen_scalar)."""
    vars_ = space_vars(space)
    monos = _monomials(vars_, _DEGREE[space], False)
    terms = {}
    for _ in range(draw_int(1, 4)):
        terms[monos[draw_int(0, len(monos) - 1)]] = gen_scalar(draw_int)
    return CFunction(vars_, terms)


def _inputs():
    from hypothesis import strategies as st

    def build(draw):
        draw_int = lambda lo, hi: draw(st.integers(lo, hi))  # noqa: E731
        space = (LINE, E3)[draw_int(0, 1)]
        return space, _poly(space, draw_int), gen_scalar(draw_int)

    return st.composite(build)()


@field_property(_inputs, examples=40)
def test_image_tables_property(case):
    space, f, k = case
    if k:
        check_tables_against_the_per_call_path(space, f, k)


@pytest.mark.parametrize("space", [LINE, E3])
def test_image_tables_on_seeded_inputs(space):
    rng = random.Random(36)
    for _ in range(3):
        k = gen_scalar(rng.randint) or ONE
        check_tables_against_the_per_call_path(space, _poly(space, rng.randint), k)


# -- shared entries and early checks --------------------------------------------


def test_returned_values_do_not_share_the_tables():
    f = CFunction(E3_VARS, {(1, 1, 2, 0): qpow(1) + 2, (0, 0, 3, 1): -ONE})
    calls = (
        lambda: translate(E3, "L", f),
        lambda: antipode(E3, "Lbar", f),
        lambda: act_partial_closed("-", "left_bar", f, E3),
        lambda: act_inverse_partial("-", "right", f, E3),
    )
    qspace.clear_tables()
    for call in calls:
        want = call()
        shown = str(want)
        assert_read_only(call())
        assert call() == want and str(call()) == shown
    assert all(TABLES)
    # every caller shares the tables' entries, so they are immutable
    for table in TABLES:
        for entry in table.values():
            with pytest.raises(TypeError):
                entry[0] = ((0,) * 4, ONE)


@pytest.mark.parametrize("f", [None, CFunction.zero(E3_VARS)], ids=["None", "zero"])
def test_a_bogus_index_is_rejected_before_any_work(f):
    for variant in VARIANTS:
        for rep in ("standard", "reversed"):
            with pytest.raises(ValueError, match=r"^unknown derivative index 'bogus' for euclid3$"):
                act_partial_closed("bogus", variant, f, E3, rep)
        with pytest.raises(ValueError, match=r"^unknown derivative index '\+' for line$"):
            act_inverse_partial("+", variant, f, LINE)
