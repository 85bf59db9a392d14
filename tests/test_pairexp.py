import itertools
import random

import pytest

import qspace
from qspace import pairexp, scalars
from qspace.cfunc import CFunction, E3_VARS, LINE_VARS, _monomials, space_vars
from qspace.ncalgebra import (
    NCElement, PurityError, _RuleSet, act, lift, normal_form, rewrite_strategy,
)
from qspace.pairexp import (
    EXP_VARIANTS,
    _norm_factor,
    classical_factorial,
    coord_word_element,
    deriv_word_element,
    kronecker_check,
    pair,
    qexp,
)
from qspace.reports import VerificationReport
from qspace.scalars import ONE, _add_term, qfact, qpow, scalar
from qspace.spaces import CALCULI, GRADE, HAT_D_TOKENS, SPACES
from test_lincomb import assert_read_only

# the exponential term table, a live read-only view
EXP_TERMS = qspace.tables()["pairexp.exp_terms"]


def test_pairing_examples():
    u = normal_form("line", ("d1", "d1"))
    v = lift("line", CFunction.monomial(LINE_VARS, (0, 2)))
    assert pair("line", "L_Rbar", u, v) == ONE + qpow(1)

    one_u = NCElement.one("line")
    one_v = lift("line", CFunction.constant(LINE_VARS, 1))
    assert pair("line", "L_Rbar", one_u, one_v) == ONE

    d1 = NCElement.generator("line", "d1")
    x1 = lift("line", CFunction.monomial(LINE_VARS, (0, 1)))
    assert pair("line", "L_Rbar", d1, x1, order="coord_first") == -ONE


def test_line_pairing_table():
    for m0 in range(3):
        for m1 in range(4):
            exps = (m0, m1)
            xw = coord_word_element("line", exps, False)
            dw = deriv_word_element("line", exps, False)
            dwh = deriv_word_element("line", exps, True)
            want = classical_factorial(m0) * qfact(m1, 1)
            wanth = classical_factorial(m0) * qfact(m1, -1)
            sgn = scalar(-1) if (m0 + m1) % 2 else ONE
            assert pair("line", "L_Rbar", dw, xw) == want
            assert pair("line", "Lbar_R", dwh, xw) == wanth
            assert pair("line", "L_Rbar", dw, xw, order="coord_first") == sgn * want
            assert pair("line", "Lbar_R", dwh, xw, order="coord_first") == sgn * wanth


def test_euclid3_pairing_diagonal_and_offdiagonal():
    # diagonal values: m0! [[m+]]_{q^4}! [[m3]]_{q^2}! [[m-]]_{q^4}!
    exps = (1, 1, 2, 1)
    xw = coord_word_element("euclid3", exps, False)
    dw = deriv_word_element("euclid3", exps, False)
    want = classical_factorial(1) * qfact(1, 4) * qfact(2, 2) * qfact(1, 4)
    assert pair("euclid3", "L_Rbar", dw, xw) == want
    # mismatched words vanish
    other = coord_word_element("euclid3", (0, 2, 1, 1), False)
    assert pair("euclid3", "L_Rbar", dw, other).is_zero()


def test_pair_rejects_impure_arguments():
    mixed = normal_form("euclid3", ("xp", "dp"))
    coord = lift("euclid3", CFunction.monomial(E3_VARS, (0, 1, 0, 0)))
    with pytest.raises(PurityError):
        pair("euclid3", "L_Rbar", mixed, coord)


def test_qexp_degree_zero_and_one():
    e0 = qexp("line", "x_d", 0)
    assert len(e0.terms) == 1
    exps, dword, coeff = e0.terms[0]
    assert exps == (0, 0) and coeff == ONE and dword == NCElement.one("line")

    e1 = qexp("line", "x_d", 1)
    by_exps = {t[0]: t for t in e1.terms}
    assert set(by_exps) == {(0, 0), (1, 0), (0, 1)}
    assert by_exps[(0, 1)][2] == ONE
    assert by_exps[(0, 1)][1] == NCElement.generator("line", "d1")


def test_qexp_quadratic_coefficient():
    e2 = qexp("line", "x_d", 2)
    coeff = next(t[2] for t in e2.terms if t[0] == (0, 2))
    assert coeff == ONE / (ONE + qpow(1))


def test_qexp_classical_limit():
    for exps, _d, coeff in qexp("line", "x_d", 4):
        want = ONE / (classical_factorial(exps[0]) * classical_factorial(exps[1]))
        assert coeff.eval_exact(1) == want.eval_exact(1)


def test_flipped_variant_signs():
    # derivative-first exponentials carry one sign per total degree
    e = qexp("line", "d_x", 2)
    by_exps = {t[0]: t[2] for t in e.terms}
    assert by_exps[(0, 1)] == -ONE
    assert by_exps[(0, 2)] == ONE / (ONE + qpow(1))
    assert by_exps[(1, 1)] == ONE


@pytest.mark.parametrize("variant", ["x_d", "x_dhat", "d_x", "dhat_x"])
def test_kronecker_line(variant):
    assert kronecker_check("line", variant, 4).passed


@pytest.mark.parametrize("variant", ["x_d", "x_dhat", "d_x", "dhat_x"])
def test_kronecker_euclid3(variant):
    assert kronecker_check("euclid3", variant, 2).passed


# -- the grade skip of the Kronecker check ---------------------------------------


def test_every_rule_keeps_the_grade():
    """Both sides of every rewrite alternative of the 8 rule sets have one
    grade: the premise of the pairings kronecker_check skips."""
    def grade(toks):
        return tuple(sum(GRADE[t][i] for t in toks) for i in range(3))

    count = 0
    for key in itertools.product(SPACES, ("u", "h"), (False, True)):
        for lhs, alts in _RuleSet(*key).pair_rules.items():
            for _c, repl in alts:
                assert grade(repl) == grade(lhs), (key, lhs, repl)
                count += 1
    assert count == 188


@pytest.mark.parametrize("variant", EXP_VARIANTS)
@pytest.mark.parametrize("space, degree", [("euclid3", 3), ("line", 4)])
def test_graded_kronecker_matches_the_full_loop(space, degree, variant):
    """The check's earlier loop, which pairs every term of the target's
    degree, is the oracle: every pairing the grade skips is zero, the grade
    skips some, and the reports agree."""
    vars_ = space_vars(space)
    mode = pairexp._EXP_MODE[variant]
    rep = VerificationReport(f"qexp-kronecker-{variant}", space)
    skipped = 0
    for target in _monomials(vars_, degree, False):
        v = coord_word_element(space, target, reversed_order=CALCULI[mode][0])
        want_grade = tuple(-g for g in pairexp._grade(vars_, target))
        acc = {}
        for exps, dword, coeff in qexp(space, variant, degree):
            if sum(exps) != sum(target):
                continue
            val = act(dword, v, mode).constant_term()
            if pairexp._grade(HAT_D_TOKENS[space], exps) != want_grade:
                assert not val, (target, exps)
                skipped += 1
            if val:
                _add_term(acc, exps, coeff * val)
        acc = CFunction(vars_, acc)
        want = CFunction.monomial(vars_, target)
        rep.compare(f"{variant}:{target}", acc, want)
    assert skipped
    assert kronecker_check(space, variant, degree).to_json() == rep.to_json()


def test_hatted_words_follow_reversed_basis_order():
    # the hatted derivative word for mixed exponents is ordered through the
    # indices reversely, which shows up in the normal form
    dw = deriv_word_element("euclid3", (0, 1, 1, 0), True)
    explicit = normal_form("euclid3", ("dp", "d3")).scale(qpow(12))
    assert dw == explicit


# -- the term table -------------------------------------------------------------

_CALLS = [(space, variant, degree) for space in ("line", "euclid3")
          for variant in EXP_VARIANTS for degree in range(6)]


def _direct(space, variant, degree):
    """The exponential term by term: the factorial product, its reciprocal,
    the normal-ordered word and the sign of the flipped variants."""
    hat = variant in ("x_dhat", "dhat_x")
    flipped = variant in ("d_x", "dhat_x")
    out = []
    for exps in _monomials(space_vars(space), degree, True):
        c = ONE / _norm_factor(space, exps, hat)
        if flipped and sum(exps) % 2:
            c = -c
        out.append((exps, deriv_word_element(space, exps, hat), c))
    return out


def _data(terms):
    return [(exps, dict(dword.terms), coeff, str(coeff)) for exps, dword, coeff in terms]


@pytest.fixture(scope="module")
def direct():
    return {call: _data(_direct(*call)) for call in _CALLS}


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_qexp_table_matches_the_direct_construction(direct, order):
    calls = list(_CALLS)
    if order == "descending":
        calls.reverse()
    elif order == "shuffled":
        random.Random(16).shuffle(calls)
    for _ in range(2):  # a cold table, then a table filled by the first pass
        qspace.clear_tables()
        for call in calls:
            assert _data(qexp(*call).terms) == direct[call], call
        for call in calls:
            assert _data(qexp(*call).terms) == direct[call], call


def test_qexp_builds_no_factorial_product(direct, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("qexp built a factorial product")

    monkeypatch.setattr(pairexp, "_norm_factor", forbidden)
    monkeypatch.setattr(pairexp, "qfact", forbidden)
    qspace.clear_tables()
    for call in _CALLS:
        assert _data(qexp(*call).terms) == direct[call], call


def test_changing_a_returned_series_leaves_the_table_alone(direct):
    call = ("euclid3", "dhat_x", 3)
    series = qexp(*call)
    shown = str(series)
    for _exps, dword, _coeff in series:
        assert_read_only(dword)
    # every call hands out the stored series itself, read-only as an
    # element is: its terms are a tuple, and no attribute can be rebound or
    # deleted
    assert qexp(*call) is series and type(series.terms) is tuple
    with pytest.raises(AttributeError):
        series.terms.pop()
    for name in (*type(series).__slots__, "planted"):
        with pytest.raises(AttributeError):
            setattr(series, name, ())
        with pytest.raises(AttributeError):
            delattr(series, name)
    assert qexp(*call) is series and str(qexp(*call)) == shown
    # the series to a lower and to a higher degree bound, each built on its
    # own, share the term table's derivative words themselves
    words = {exps: dword for exps, dword, _coeff in series}
    for other in (qexp(*call[:2], 2), qexp(*call[:2], 4)):
        shared = [dword is words[exps] for exps, dword, _coeff in other if exps in words]
        assert other is not series and len(shared) >= 4 and all(shared)
    assert _data(qexp(*call).terms) == direct[call]
    assert _data(qexp(*call[:2], 2).terms) == direct[call[:2] + (2,)]


def test_table_stays_within_its_limit(direct, monkeypatch):
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 5)
    qspace.clear_tables()
    for call in (("euclid3", "x_dhat", 5), ("line", "d_x", 5)):
        # the table is emptied many times during the build; the prefixes
        # of the entries made in this call are not lost
        assert _data(qexp(*call).terms) == direct[call], call
        assert len(EXP_TERMS) <= 5


def test_rewrite_strategy_empties_the_table(direct):
    qexp("line", "x_d", 3)
    assert EXP_TERMS
    with rewrite_strategy("rightmost"):
        assert not EXP_TERMS
        assert _data(qexp("line", "x_d", 3).terms) == direct[("line", "x_d", 3)]
    assert not EXP_TERMS


def test_an_unknown_pairing_order_is_rejected():
    dp = normal_form("euclid3", ("dp",))
    xp = normal_form("euclid3", ("xp",))
    assert pair("euclid3", "L_Rbar", dp, xp, order="deriv_first") == ONE
    with pytest.raises(ValueError, match="unknown pairing order"):
        pair("euclid3", "L_Rbar", dp, xp, order="deriv-first")
