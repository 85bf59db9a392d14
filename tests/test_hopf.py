import itertools

import pytest

from qspace.cfunc import CFunction, E3_VARS, LINE_VARS, space_vars
from qspace.cfunc import _monomials
from qspace.hopf import (
    TRANSLATE_VARIANTS,
    _IDENTITY_SETUPS,
    _dword_seq,
    _exp_word_actions,
    antipode,
    antipode_on_y_legs,
    doubled_vars,
    taylor_identity_check,
    time_taylor,
    translate,
    translated_antipoded_monomial,
)
from qspace.pairexp import qexp
from qspace.qfunc import act_partial_closed
from qspace.scalars import GaussianRational, LAM, LAMP, ONE, ZERO, qpow, scalar


def test_line_translation_example():
    f = CFunction.monomial(LINE_VARS, (0, 2))
    got = translate("line", "L", f)
    dv = doubled_vars("line")
    want = (
        CFunction.monomial(dv, (0, 0, 0, 2))
        + CFunction.monomial(dv, (0, 1, 0, 1), ONE + qpow(-1))
        + CFunction.monomial(dv, (0, 2, 0, 0))
    )
    assert got == want


def test_euclid3_translation_example():
    f = CFunction.var(E3_VARS, "xp")
    got = translate("euclid3", "Lbar", f)
    dv = doubled_vars("euclid3")
    want = CFunction.var(dv, "yp") + CFunction.var(dv, "xp")
    assert got == want


@pytest.mark.parametrize("space", ["line", "euclid3"])
@pytest.mark.parametrize("variant", ["L", "Lbar"])
def test_counit_law(space, variant):
    vars_ = space_vars(space)
    for e in itertools.product(range(3), repeat=len(vars_)):
        if sum(e) > 3:
            continue
        f = CFunction.monomial(vars_, e, scalar(3))
        t = translate(space, variant, f)
        for y in [v for v in t.vars if v.startswith("y")]:
            t = t.subs_scalar(y, ZERO)
        assert t.restrict(vars_) == f, e


def test_translation_classical_limit_is_shift():
    # at q = 1 the translation is the binomial shift f(x + y)
    f = CFunction.monomial(LINE_VARS, (1, 2))
    t = translate("line", "Lbar", f)
    got = t.eval_coeffs_exact(1)
    dv = doubled_vars("line")
    # (x0 + y0)(x1 + y1)^2 expanded
    expanded = {}
    for a in (0, 1):
        for b in (0, 1, 2):
            key = [0] * 4
            key[dv.index("x0")] = a
            key[dv.index("y0")] = 1 - a
            key[dv.index("x1")] = b
            key[dv.index("y1")] = 2 - b
            expanded[tuple(key)] = GaussianRational([1, 1][a] * [1, 2, 1][b])
    assert got == expanded


def test_line_antipode_examples():
    x1 = CFunction.monomial(LINE_VARS, (0, 1))
    assert antipode("line", "L", x1) == x1.scale(scalar(-1))
    sq = CFunction.monomial(LINE_VARS, (0, 2))
    assert antipode("line", "L", sq) == sq.scale(qpow(-1))
    assert antipode("line", "Lbar", sq) == sq.scale(qpow(1))
    const = CFunction.constant(LINE_VARS, 4)
    assert antipode("line", "L", const) == const


def test_line_antipode_pair_inverts():
    for e in itertools.product(range(4), repeat=2):
        if sum(e) > 5:
            continue
        f = CFunction.monomial(LINE_VARS, e)
        assert antipode("line", "Lbar", antipode("line", "L", f)) == f
        assert antipode("line", "L", antipode("line", "Lbar", f)) == f


def test_euclid3_antipode_values():
    # values pinned by the counit law
    xp = CFunction.monomial(E3_VARS, (0, 1, 0, 0))
    assert antipode("euclid3", "Lbar", xp) == xp.scale(scalar(-1))
    x3sq = CFunction.monomial(E3_VARS, (0, 0, 2, 0))
    want = x3sq.scale(qpow(2)) + CFunction.monomial(
        E3_VARS, (0, 1, 0, 1), qpow(1) * LAM * LAMP
    )
    assert antipode("euclid3", "Lbar", x3sq) == want
    xpxm = CFunction.monomial(E3_VARS, (0, 1, 0, 1))
    assert antipode("euclid3", "Lbar", xpxm) == xpxm


def test_antipode_law_via_translation():
    # translating, antipoding the y-legs, and equating the legs returns the
    # value at the origin
    for variant in ("Lbar", "L"):
        for e in itertools.product(range(3), repeat=4):
            if not 0 < sum(e) <= 2:
                continue
            f = CFunction.monomial(E3_VARS, e)
            t = translate("euclid3", variant, f)
            ta = antipode_on_y_legs("euclid3", variant, t)
            # set y-legs equal to x-legs and check everything cancels
            merged = ta
            for xv, yv in zip(space_vars("euclid3"), ("y0", "yp", "y3", "ym")):
                rolled = {}
                vi = merged.vars.index(xv)
                yi = merged.vars.index(yv)
                for exps, c in merged.terms.items():
                    key = list(exps)
                    key[vi] += key[yi]
                    key[yi] = 0
                    key = tuple(key)
                    rolled[key] = rolled.get(key, ZERO) + c
                merged = CFunction(merged.vars, rolled)
            assert merged.is_zero(), (variant, e)


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_composite_legs_match_the_antipode_of_the_translation(space):
    # the replaced composition: translate the monomial, then antipode the
    # y-legs of the translated function
    want_vars = space_vars(space)
    for variant in TRANSLATE_VARIANTS:
        for e in _monomials(want_vars, 4, False):
            t = translate(space, variant, CFunction.monomial(want_vars, e))
            got = translated_antipoded_monomial(space, variant, e)
            assert got == antipode_on_y_legs(space, variant, t), (variant, e)


def test_time_taylor():
    g = CFunction.var(E3_VARS, "x0")
    assert time_taylor(g, scalar(3)) == g + CFunction.constant(E3_VARS, 3)
    sq = CFunction.monomial(E3_VARS, (2, 0, 0, 0))
    got = time_taylor(sq, ONE)
    want = sq + CFunction.monomial(E3_VARS, (1, 0, 0, 0), scalar(2)) + CFunction.constant(E3_VARS, 1)
    assert got == want
    spatial = CFunction.monomial(E3_VARS, (0, 1, 2, 0))
    assert time_taylor(spatial, scalar(5)) == spatial


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_taylor_identities_degree_two(space):
    assert taylor_identity_check(space, max_degree=2).passed


def _apply_exp_word(space, exps, action_variant, g, rep):
    """Oracle: one exponential derivative word applied to g from scratch,
    one closed-form action per derivative factor (the per-word loop the
    prefix-shared table replaced)."""
    vars_ = space_vars(space)
    order = list(_dword_seq(space, action_variant in ("left_bar", "right")))
    if action_variant.startswith("left"):
        order = order[::-1]  # rightmost factor first
    for idx, var in order:
        n = exps[vars_.index(var)]
        for _ in range(n):
            g = act_partial_closed(idx, action_variant, g, space, rep=rep)
    return g


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_prefix_shared_word_actions_match_words_applied_from_scratch(space):
    want = space_vars(space)
    targets = [CFunction.monomial(want, e) for e in _monomials(want, 3, False)]
    # one multi-term target with a non-unit coefficient
    targets.append(CFunction.monomial(want, (1,) * 2 + (0,) * (len(want) - 2))
                   + CFunction.monomial(want, (0,) * (len(want) - 1) + (3,), qpow(2))
                   - CFunction.monomial(want, (0,) * (len(want) - 2) + (1, 0)))
    for exp_variant, _tvariant, avariant, rep in _IDENTITY_SETUPS:
        exp = qexp(space, exp_variant, 3)
        for g in targets:
            got = _exp_word_actions(space, exp, avariant, rep)(g)
            words = [exps for exps, _w, _c in exp if sum(exps) <= g.degree()]
            assert list(got) == words
            for exps in words:
                scratch = _apply_exp_word(space, exps, avariant, g, rep)
                assert CFunction(want, got[exps]) == scratch, (exp_variant, g, exps)
