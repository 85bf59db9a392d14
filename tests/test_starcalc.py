import contextlib
import io
import itertools

import pytest

from qspace import scalars, starcalc
from qspace.cfunc import CFunction, E3_VARS, LINE_VARS, _monomials
from qspace.cli import main
from qspace.ncalgebra import lift, lower, reorder_transform
from qspace.reports import VerificationReport
from qspace.starcalc import StarContext, star, star_checks
from qspace.scalars import LAM, ONE, _add_term, qbinom, qnum, qpow

CTX = StarContext("euclid3")
CTX_REV = StarContext("euclid3", "reversed")


def mono(exps, coeff=ONE):
    return CFunction.monomial(E3_VARS, exps, coeff)


def test_unit():
    g = mono((1, 0, 2, 1))
    assert star(CTX, CFunction.constant(E3_VARS, 1), g) == g
    assert star(CTX, g, CFunction.constant(E3_VARS, 1)) == g


def test_printed_products():
    xm, xp, x3 = mono((0, 0, 0, 1)), mono((0, 1, 0, 0)), mono((0, 0, 1, 0))
    assert star(CTX, xm, xp) == mono((0, 1, 0, 1)) + mono((0, 0, 2, 0), LAM)
    assert star(CTX, x3, xp) == mono((0, 1, 1, 0), qpow(2))


def test_line_star_is_plain_product():
    ctx = StarContext("line")
    f = CFunction.monomial(LINE_VARS, (1, 2))
    g = CFunction.monomial(LINE_VARS, (0, 3))
    assert star(ctx, f, g) == f * g


def test_oracle_degree_zero_and_three():
    assert star_checks(0)[0].passed
    assert star_checks(3)[0].passed


def test_time_centrality():
    x0 = mono((1, 0, 0, 0))
    for e in itertools.product(range(3), repeat=4):
        if sum(e) > 3:
            continue
        f = mono(e)
        assert star(CTX, x0, f) == star(CTX, f, x0) == x0 * f


def test_associativity_sample():
    monos = [e for e in itertools.product(range(3), repeat=4) if 0 < sum(e) <= 2]
    for ef, eg, eh in itertools.islice(itertools.product(monos, repeat=3), 400):
        f, g, h = mono(ef), mono(eg), mono(eh)
        assert star(CTX, star(CTX, f, g), h) == star(CTX, f, star(CTX, g, h))


def test_classical_limit():
    for ef in itertools.product(range(3), repeat=4):
        if sum(ef) > 2:
            continue
        for eg in itertools.product(range(3), repeat=4):
            if sum(ef) + sum(eg) > 4:
                continue
            f, g = mono(ef), mono(eg)
            assert star(CTX, f, g).eval_coeffs_exact(1) == (f * g).eval_coeffs_exact(1)


def test_ordering_transport_intertwines_products():
    monos = [e for e in itertools.product(range(3), repeat=4) if sum(e) <= 3]
    for ef in monos:
        for eg in monos:
            if sum(ef) + sum(eg) > 3:
                continue
            f, g = mono(ef), mono(eg)
            uf = reorder_transform("euclid3", f, "to_reversed")
            ug = reorder_transform("euclid3", g, "to_reversed")
            lhs = star(CTX_REV, uf, ug)
            rhs = reorder_transform("euclid3", star(CTX, f, g), "to_reversed")
            assert lhs == rhs, (ef, eg)


def test_star_leg_table_gives_the_same_products_cold_and_warm():
    # xm^n * xp^n contracts in the standard ordering, xp^n * xm^n in the
    # reversed one; both factor orders in both orderings share leg exponents
    # (n, n), so a table key without the ordering would hand one ordering
    # the other's legs
    cases = [
        (ctx, mono((0, 0, 0, n)), mono((0, n, 0, 0)))
        for n in range(9)
        for ctx in (CTX, CTX_REV)
    ]
    cases += [(ctx, g, f) for ctx, f, g in cases]
    starcalc._STAR_LEGS.clear()
    warm = [star(ctx, f, g) for ctx, f, g in cases]
    cold = []
    for ctx, f, g in cases:
        starcalc._STAR_LEGS.clear()
        cold.append(star(ctx, f, g))
    assert warm == cold
    assert [star(ctx, f, g) for ctx, f, g in cases] == cold
    assert star(CTX, mono((0, 0, 0, 1)), mono((0, 1, 0, 0))) == (
        mono((0, 1, 0, 1)) + mono((0, 0, 2, 0), LAM)
    )


def test_star_leg_entries_cannot_be_changed():
    # every caller shares the table's entries, so they are immutable
    starcalc._STAR_LEGS.clear()
    want = star(CTX, mono((0, 0, 0, 2)), mono((0, 2, 0, 0)))
    assert starcalc._STAR_LEGS
    for entry in starcalc._STAR_LEGS.values():
        with pytest.raises(TypeError):
            entry[0] = ONE
    assert star(CTX, mono((0, 0, 0, 2)), mono((0, 2, 0, 0))) == want


def _direct_legs(nf, ng, a, lam):
    """A pair's legs written out from their own base q^a and lambda: the
    standard ordering's formula (q^4, lambda), and the reversed one's as it
    was built before its legs became images (q^-4, -lambda)."""
    legs = []
    fall = lam_k = ONE
    for k in range(min(nf, ng) + 1):
        if k:
            fall = fall * qnum(ng - k + 1, a)
            lam_k = lam_k * lam
        legs.append(qbinom(nf, k, a) * fall * lam_k)
    return tuple(legs)


_LEG_PAIRS = [(nf, ng) for nf in range(13) for ng in range(13)]


def test_reversed_legs_are_the_q_inverse_images_of_the_direct_formula():
    standard = {p: _direct_legs(*p, 4, LAM) for p in _LEG_PAIRS}
    reversed_ = {p: _direct_legs(*p, -4, -LAM) for p in _LEG_PAIRS}
    # reversed first, on an emptied table: each entry makes its standard twin
    starcalc._STAR_LEGS.clear()
    assert {p: starcalc._star_legs(*p, True) for p in _LEG_PAIRS} == reversed_
    assert {p: starcalc._star_legs(*p, False) for p in _LEG_PAIRS} == standard
    # standard first, so each reversed entry reflects a stored one
    starcalc._STAR_LEGS.clear()
    assert {p: starcalc._star_legs(*p, False) for p in _LEG_PAIRS} == standard
    assert {p: starcalc._star_legs(*p, True) for p in _LEG_PAIRS} == reversed_
    assert len(starcalc._STAR_LEGS) == 2 * len(_LEG_PAIRS)
    for (nf, ng, rev), legs in starcalc._STAR_LEGS.items():
        assert type(legs) is tuple and len(legs) == min(nf, ng) + 1
        assert legs == (reversed_ if rev else standard)[(nf, ng)]


def test_reversed_legs_hold_when_every_store_empties_the_table(monkeypatch):
    # with one-entry memos, storing the reversed entry drops the standard
    # twin it was made from
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 1)
    starcalc._STAR_LEGS.clear()
    for nf, ng in [(3, 5), (5, 3), (8, 8), (0, 4), (12, 12)]:
        assert starcalc._star_legs(nf, ng, True) == _direct_legs(nf, ng, -4, -LAM)
        assert list(starcalc._STAR_LEGS) == [(nf, ng, True)]


def test_reversed_star_after_the_standard_one_makes_no_multi_term_product(monkeypatch):
    # a pinned work count: from emptied memos, the standard product of xm^8
    # and xp^8 builds its legs with 28 products of two multi-term
    # polynomials; the reversed one then reflects those legs and multiplies
    # none (building its own from base q^-4 and -lambda would make 28 more).
    # A first run fills the per-space tables, which no memo reset empties
    argvs = (["star", "xm^8", "xp^8"], ["star", "xp^8", "xm^8", "--reversed"])
    exact = scalars._pmul
    count = [0]

    def counted(a, b):
        if scalars._plen(a) > 1 and scalars._plen(b) > 1:
            count[0] += 1
        return exact(a, b)

    def run(argv):
        count[0] = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return count[0]

    monkeypatch.setattr(scalars, "_pmul", counted)
    for argv in argvs:
        run(argv)
    scalars._clear_memos()
    assert [run(argv) for argv in argvs] == [28, 0]


def _full_loop_reports(max_degree):
    """The three star reports by the earlier loops: each pair's engine round
    trip in both orderings, and every triple, x0 or not, by bilinearity from
    the pair table."""
    space = "euclid3"

    def roundtrip(ordering, f, g):
        if ordering == "standard":
            return lower(space, lift(space, f) * lift(space, g))
        fu = reorder_transform(space, f, "to_standard")
        gu = reorder_transform(space, g, "to_standard")
        prod = lower(space, lift(space, fu) * lift(space, gu))
        return reorder_transform(space, prod, "to_reversed")

    def combine(parts):
        out = {}
        for c, p in parts:
            for k, a in p.terms.items():
                _add_term(out, k, c * a)
        return CFunction(E3_VARS, out)

    monos = _monomials(E3_VARS, max_degree)
    pairs = [(ef, eg) for ef in monos for eg in monos if sum(ef) + sum(eg) <= max_degree]
    oracle = VerificationReport("star-oracle", space)
    for ordering in ("standard", "reversed"):
        ctx = StarContext(space, ordering)
        for ef, eg in pairs:
            got = star(ctx, mono(ef), mono(eg))
            want = roundtrip(ordering, mono(ef), mono(eg))
            if got != want:
                oracle.record(f"{ordering}:{ef}*{eg}", str(got), str(want))
    pair = {(ef, eg): star(CTX, mono(ef), mono(eg)) for ef, eg in pairs}
    assoc = VerificationReport("star-associativity", space)
    associators = 0
    for (ef, eg), fg in pair.items():
        for eh in [e for e in monos if sum(ef) + sum(eg) + sum(e) <= max_degree]:
            lhs = combine((c, pair[(m, eh)]) for m, c in fg.terms.items())
            rhs = combine((c, pair[(ef, m)]) for m, c in pair[(eg, eh)].terms.items())
            associators += 1
            if lhs != rhs:
                assoc.record(f"{ef},{eg},{eh}", str(lhs), str(rhs))
    limit = VerificationReport("star-classical-limit", space)
    for (ef, eg), fg in pair.items():
        if fg.eval_coeffs_exact(1) != (mono(ef) * mono(eg)).eval_coeffs_exact(1):
            limit.record(f"{ef},{eg}", "", "")
    return [oracle, assoc, limit], associators


def test_star_checks_match_the_full_loops():
    # a triple is twelve exponents of sum <= 3: C(15, 3) = 455 of them, of
    # which star_checks loops over the C(12, 3) = 220 free of x0
    old, associators = _full_loop_reports(3)
    assert associators == 455
    assert all(r.passed for r in old)  # every associator is zero, x0 or not
    assert [r.to_json() for r in star_checks(3)] == [r.to_json() for r in old]


def test_star_checks_report_a_non_central_time_coordinate(monkeypatch):
    # a product whose first factor holds x0^a picks up q^(2a): x0 is then no
    # longer central, which only the x0-pair check can see, since the
    # triples looped over are x0-free
    exact = starcalc._star_e3

    def skewed(f, g, reversed_order):
        out = {}
        for e, c in f.terms.items():
            part = exact(CFunction(f.vars, {e: c}), g, reversed_order)
            for k, v in part.terms.items():
                _add_term(out, k, v * qpow(2 * e[0]))
        return CFunction(f.vars, out)

    monkeypatch.setattr(starcalc, "_star_e3", skewed)
    oracle, assoc, limit = star_checks(4)
    monos = _monomials(E3_VARS, 4)
    skewed_pairs = [f"x0:{e1},{e2}" for e1 in monos for e2 in monos
                    if e1[0] and sum(e1) + sum(e2) <= 4]
    assert len(skewed_pairs) == 165
    assert [f.indices for f in assoc.failures] == skewed_pairs
    assert not oracle.passed and len(oracle.failures) == 330
    assert limit.passed  # q^(2a) is 1 at q = 1
