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

The public calls also store their whole answers, and so does ``qexp``: a
stored answer is checked against the cold one computed again from emptied
tables, over inputs that a table keyed without its variant, index or space
would confuse.
"""

import random
from fractions import Fraction

import pytest

import qspace
from qspace.cfunc import CFunction, E3_VARS, _monomials, space_vars
from qspace.hopf import TRANSLATE_VARIANTS, antipode, translate
from qspace.ncalgebra import reorder_transform
from qspace.pairexp import EXP_VARIANTS, TensorSeries, qexp
from qspace.qfunc import VARIANTS, act_inverse_partial, act_partial_closed
from qspace.scalars import LAM, ONE, qpow, scalar
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


# -- the stored answers against cold ones ---------------------------------------


def _tabled_calls(space, f):
    """(label, call) for every call of f that a result table stores: the
    translations, the antipodes and the derivative actions."""
    for variant in TRANSLATE_VARIANTS:
        yield ("translate", space, variant), lambda v=variant: translate(space, v, f)
        yield ("antipode", space, variant), lambda v=variant: antipode(space, v, f)
    for variant in VARIANTS:
        for index in INDICES[space]:
            for rep in ("standard", "reversed"):
                yield (("act", space, index, variant, rep),
                       lambda i=index, v=variant, r=rep: act_partial_closed(i, v, f, space, r))
            yield (("inverse", space, index, variant),
                   lambda i=index, v=variant: act_inverse_partial(i, v, f, space))


# every exponential a result table stores, on both spaces
_EXP_CALLS = [(("qexp", space, variant, degree), lambda a=(space, variant, degree): qexp(*a))
              for space in (LINE, E3) for variant in EXP_VARIANTS for degree in (1, 2)]


def check_stored_answers_against_cold_ones(calls):
    """Every call from emptied tables, one after another, and again: the
    second answer is the stored one itself.  Then each is asked alone after
    clear_tables, and the cold answer must equal the stored one.  calls
    share inputs across variants, indices and spaces, so a table keyed
    without one of them hands a later call an earlier call's answer."""
    qspace.clear_tables()
    stored = [(label, call, call()) for label, call in calls]
    for label, call, got in stored:
        assert call() is got, label
    for label, call, got in stored:
        qspace.clear_tables()
        cold = call()
        if isinstance(got, TensorSeries):
            assert (cold.space, cold.variant, cold.terms) == (got.space, got.variant, got.terms), label
        else:
            assert cold == got, label
        assert str(cold) == str(got), label


def _x0_poly(draw_int):
    """A polynomial in x0 alone on the euclid3 variables, which both spaces
    read: the input a table keyed without its space would confuse."""
    return CFunction(E3_VARS, {(draw_int(0, 3), 0, 0, 0): gen_scalar(draw_int)
                               for _ in range(draw_int(1, 2))})


def _stored_inputs():
    from hypothesis import strategies as st

    def build(draw):
        draw_int = lambda lo, hi: draw(st.integers(lo, hi))  # noqa: E731
        space = (LINE, E3)[draw_int(0, 1)]
        return space, _poly(space, draw_int), _x0_poly(draw_int)

    return st.composite(build)()


@field_property(_stored_inputs, examples=20)
def test_stored_answers_equal_cold_ones(case):
    space, f, x0_poly = case
    calls = [*_tabled_calls(space, f), *_tabled_calls(LINE, x0_poly), *_tabled_calls(E3, x0_poly)]
    check_stored_answers_against_cold_ones(calls)


@pytest.mark.parametrize("number", [2, Fraction(-3, 2)], ids=["int", "Fraction"])
def test_a_plain_number_coefficient_is_a_key_like_its_scalar(number):
    # the raw constructor keeps a plain number as it is given; the input
    # equals and hashes like the one built with the equal scalar, so every
    # tabled map answers both alike, from either table entry
    for space, exps in ((LINE, (0, 1)), (E3, (1, 0, 2, 0))):
        vars_ = space_vars(space)
        plain = CFunction(vars_, {exps: number, (0,) * len(vars_): 1})
        same = CFunction(vars_, {exps: scalar(number), (0,) * len(vars_): ONE})
        assert plain == same and hash(plain) == hash(same)
        for (label, call), (_label, call_same) in zip(_tabled_calls(space, plain),
                                                      _tabled_calls(space, same)):
            qspace.clear_tables()
            assert call() == call_same(), label
            qspace.clear_tables()
            assert call_same() == call() and str(call()) == str(call_same()), label
        check_stored_answers_against_cold_ones(_tabled_calls(space, plain))


def test_stored_exponentials_equal_cold_ones():
    check_stored_answers_against_cold_ones(_EXP_CALLS)


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
