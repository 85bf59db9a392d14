import contextlib
import io
import itertools
import random
from fractions import Fraction

import pytest

import qspace
from qspace import scalars, starcalc
from qspace.cfunc import CFunction, E3_VARS, LINE_VARS, _monomials
from qspace.cli import main
from qspace.ncalgebra import lift, lower, reorder_transform, rewrite_strategy
from qspace.reports import VerificationReport
from qspace.starcalc import StarContext, star, star_checks
from qspace.scalars import I, LAM, ONE, Q, QScalar, _add_term, _apply_rows, _term_pairs
from qspace.scalars import qbinom, qnum, qpow, scalar

# the star-leg and star-row tables, live read-only views
STAR_LEGS = qspace.tables()["starcalc.star_legs"]
STAR_ROWS = qspace.tables()["starcalc.star_rows"]
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
    qspace.clear_tables()
    warm = [star(ctx, f, g) for ctx, f, g in cases]
    cold = []
    for ctx, f, g in cases:
        qspace.clear_tables()
        cold.append(star(ctx, f, g))
    assert warm == cold
    assert [star(ctx, f, g) for ctx, f, g in cases] == cold
    assert star(CTX, mono((0, 0, 0, 1)), mono((0, 1, 0, 0))) == (
        mono((0, 1, 0, 1)) + mono((0, 0, 2, 0), LAM)
    )


def test_star_leg_entries_cannot_be_changed():
    # every caller shares the tables' entries, so they are immutable: the
    # legs, each pair's rows and each row
    f, g = mono((0, 1, 2, 2)), mono((1, 2, 1, 1))
    qspace.clear_tables()
    want = star(CTX, f, g)
    assert STAR_LEGS and STAR_ROWS
    for entry in STAR_LEGS.values():
        with pytest.raises(TypeError):
            entry[0] = ONE
    for rows in STAR_ROWS.values():
        assert type(rows) is tuple
        with pytest.raises(TypeError):
            rows[0] = ((0, 0, 0, 0), ONE)
        with pytest.raises(TypeError):
            rows[0][1] = ONE
    assert star(CTX, f, g) == want


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
    qspace.clear_tables()
    assert {p: starcalc._star_legs(*p, True) for p in _LEG_PAIRS} == reversed_
    assert {p: starcalc._star_legs(*p, False) for p in _LEG_PAIRS} == standard
    # standard first, so each reversed entry reflects a stored one
    qspace.clear_tables()
    assert {p: starcalc._star_legs(*p, False) for p in _LEG_PAIRS} == standard
    assert {p: starcalc._star_legs(*p, True) for p in _LEG_PAIRS} == reversed_
    assert len(STAR_LEGS) == 2 * len(_LEG_PAIRS)
    for (nf, ng, rev), legs in STAR_LEGS.items():
        assert type(legs) is tuple and len(legs) == min(nf, ng) + 1
        assert legs == (reversed_ if rev else standard)[(nf, ng)]


def test_legs_match_the_direct_formula_up_to_twenty():
    # every pair with exponents up to 20, in both orderings, each from an
    # emptied table.  The direct formula's fall_k lambda^k depends on ng
    # only, so it is multiplied out once per ng
    for a, lam, reversed_order in ((4, LAM, False), (-4, -LAM, True)):
        for ng in range(21):
            tails = [ONE]
            for k in range(1, ng + 1):
                tails.append(tails[-1] * qnum(ng - k + 1, a) * lam)
            for nf in range(21):
                want = tuple(qbinom(nf, k, a) * tails[k] for k in range(min(nf, ng) + 1))
                qspace.clear_tables()
                assert starcalc._star_legs(nf, ng, reversed_order) == want, (nf, ng, a)


def test_reversed_legs_hold_when_every_store_empties_the_table(monkeypatch):
    # with one-entry memos, storing the reversed entry drops the standard
    # twin it was made from
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 1)
    qspace.clear_tables()
    for nf, ng in [(3, 5), (5, 3), (8, 8), (0, 4), (12, 12)]:
        assert starcalc._star_legs(nf, ng, True) == _direct_legs(nf, ng, -4, -LAM)
        assert list(STAR_LEGS) == [(nf, ng, True)]


def _count_multi_term_products(monkeypatch):
    """A one-item list that counts the products of two multi-term
    polynomials from here on."""
    exact = scalars._pmul
    count = [0]

    def counted(a, b):
        if scalars._plen(a) > 1 and scalars._plen(b) > 1:
            count[0] += 1
        return exact(a, b)

    monkeypatch.setattr(scalars, "_pmul", counted)
    return count


def test_reversed_star_after_the_standard_one_makes_no_multi_term_product(monkeypatch):
    # a pinned work count: from emptied memos, the standard product of xm^8
    # and xp^8 builds its legs by linear q-number passes, with no product of
    # two multi-term polynomials (28 while the legs were multiplied out);
    # the reversed one then reflects those legs and multiplies none.
    # A first run loads the command's layers; the rule sets and the parser's
    # name table are then emptied with the other tables
    argvs = (["star", "xm^8", "xp^8"], ["star", "xp^8", "xm^8", "--reversed"])
    count = _count_multi_term_products(monkeypatch)

    def run(argv):
        count[0] = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return count[0]

    for argv in argvs:
        run(argv)
    qspace.clear_tables()
    assert [run(argv) for argv in argvs] == [0, 0]


def test_standard_legs_make_no_multi_term_product(monkeypatch):
    count = _count_multi_term_products(monkeypatch)
    for nf, ng in _LEG_PAIRS:
        qspace.clear_tables()
        legs = starcalc._star_legs(nf, ng, False)
        assert len(legs) == min(nf, ng) + 1
    assert count == [0]


def _engine_star(ordering, f, g):
    """The star product by the rewrite engine: lower(lift f * lift g) in the
    standard ordering, conjugated by the ordering transport in the reversed
    one."""
    space = "euclid3"
    if ordering == "standard":
        return lower(space, lift(space, f) * lift(space, g))
    fu = reorder_transform(space, f, "to_standard")
    gu = reorder_transform(space, g, "to_standard")
    prod = lower(space, lift(space, fu) * lift(space, gu))
    return reorder_transform(space, prod, "to_reversed")


def _full_loop_reports(max_degree):
    """The three star reports by the earlier loops: each pair's engine round
    trip in both orderings, and every triple, x0 or not, by bilinearity from
    the pair table."""
    space = "euclid3"

    def combine(parts):
        out = {}
        for c, p in parts:
            for k, a in p.terms.items():
                _add_term(out, k, c * a)
        return CFunction(E3_VARS, out)

    monos = _monomials(E3_VARS, max_degree, False)
    pairs = [(ef, eg) for ef in monos for eg in monos if sum(ef) + sum(eg) <= max_degree]
    oracle = VerificationReport("star-oracle", space)
    for ordering in ("standard", "reversed"):
        ctx = StarContext(space, ordering)
        for ef, eg in pairs:
            got = star(ctx, mono(ef), mono(eg))
            want = _engine_star(ordering, mono(ef), mono(eg))
            oracle.compare(f"{ordering}:{ef}*{eg}", got, want)
    pair = {(ef, eg): star(CTX, mono(ef), mono(eg)) for ef, eg in pairs}
    assoc = VerificationReport("star-associativity", space)
    associators = 0
    for (ef, eg), fg in pair.items():
        for eh in [e for e in monos if sum(ef) + sum(eg) + sum(e) <= max_degree]:
            lhs = combine((c, pair[(m, eh)]) for m, c in fg.terms.items())
            rhs = combine((c, pair[(ef, m)]) for m, c in pair[(eg, eh)].terms.items())
            associators += 1
            assoc.compare(f"{ef},{eg},{eh}", lhs, rhs)
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
    monos = _monomials(E3_VARS, 4, False)
    skewed_pairs = [f"x0:{e1},{e2}" for e1 in monos for e2 in monos
                    if e1[0] and sum(e1) + sum(e2) <= 4]
    assert len(skewed_pairs) == 165
    assert [f.indices for f in assoc.failures] == skewed_pairs
    assert not oracle.passed and len(oracle.failures) == 330
    assert limit.passed  # q^(2a) is 1 at q = 1


def _per_call_rows(ef, eg, reversed_order):
    """The rows of the unit monomials x^ef and x^eg as star products built
    them on every call before the row table: each row's key and its leg
    times q^(2w) made afresh."""
    i3 = E3_VARS.index("x3")
    if reversed_order:
        fi, gi, sign = E3_VARS.index("xp"), E3_VARS.index("xm"), -1
    else:
        fi, gi, sign = E3_VARS.index("xm"), E3_VARS.index("xp"), 1
    nf, ng = ef[fi], eg[gi]
    e = [x + y for x, y in zip(ef, eg)]
    rows = []
    for k, leg in enumerate(starcalc._star_legs(nf, ng, reversed_order)):
        w = 2 * sign * (ef[i3] * (ng - k) + (nf - k) * eg[i3])
        key = list(e)
        key[fi] -= k
        key[gi] -= k
        key[i3] += 2 * k
        rows.append((tuple(key), leg * QScalar.q_power(2 * w)))
    return tuple(rows)


def _per_call_star(f, g, reversed_order):
    """The star product applying the per-call rows of each term pair."""
    rows = _apply_rows(_term_pairs(f.terms, g.terms), lambda p: _per_call_rows(*p, reversed_order))
    return CFunction(E3_VARS, rows)


# every monomial pair of total degree <= 6, the pairs of `verify star --degree 6`
_MONOS_6 = _monomials(E3_VARS, 6, False)
_PAIRS_6 = [(ef, eg) for ef in _MONOS_6 for eg in _MONOS_6 if sum(ef) + sum(eg) <= 6]


def test_star_rows_match_the_per_call_formula_up_to_degree_six():
    # x3 powers included, and both orderings of each pair one after the
    # other: a table key without the ordering would hand the second
    # ordering the first one's rows
    assert len(_PAIRS_6) == 3003
    qspace.clear_tables()
    for ef, eg in _PAIRS_6:
        for ctx, rev in ((CTX, False), (CTX_REV, True)):
            want = _per_call_rows(ef, eg, rev)
            assert star(ctx, mono(ef), mono(eg)).terms == dict(want), (ef, eg, rev)
            assert STAR_ROWS.get((ef, eg, rev)) == want, (ef, eg, rev)


# Fraction and Gaussian coefficients, with and without q
_SEEDED_COEFFS = (
    scalar(Fraction(2, 3)),
    scalar(Fraction(-5, 7)) + I,
    (ONE + 2 * I) / (ONE + Q),
    qpow(-2) * Fraction(3, 4) - I,
)


def test_star_matches_the_engine_on_seeded_pairs_of_degree_five_and_six():
    # beyond the suite's default degree 4: three-term factors of degree 3
    # by degree 2 or 3, so every term pair has degree 5 or 6
    rng = random.Random(4606)
    of_degree = {d: [e for e in _MONOS_6 if sum(e) == d] for d in (2, 3)}

    def poly(d):
        terms = [mono(rng.choice(of_degree[d]), rng.choice(_SEEDED_COEFFS)) for _ in range(3)]
        return sum(terms[1:], terms[0])

    for n in range(6):
        f, g = poly(3), poly(2 + n % 2)
        for ordering in ("standard", "reversed"):
            got = star(StarContext("euclid3", ordering), f, g)
            assert got == _engine_star(ordering, f, g), (str(f), str(g), ordering)


def test_x3_free_rows_hold_the_legs_themselves():
    # q^0 times a leg is the leg, so an x3-free pair's rows share the leg
    # table's objects: star "xm^100" "xp^100" holds one copy of its legs
    xp, x3, xm = map(E3_VARS.index, ("xp", "x3", "xm"))
    pairs = [(ef, eg) for ef, eg in _PAIRS_6 if not ef[x3] and not eg[x3]]
    pairs.append(((0, 0, 0, 30), (0, 30, 0, 0)))
    qspace.clear_tables()
    for ef, eg in pairs:
        # the legs' key: the contracted exponents of f and of g
        for ctx, rev, fi, gi in ((CTX, False, xm, xp), (CTX_REV, True, xp, xm)):
            star(ctx, mono(ef), mono(eg))
            legs = STAR_LEGS[(ef[fi], eg[gi], rev)]
            rows = STAR_ROWS[(ef, eg, rev)]
            assert len(rows) == len(legs)
            assert all(c is leg for (_, c), leg in zip(rows, legs)), (ef, eg, rev)


def test_star_is_the_per_call_product_cold_warm_and_under_rightmost():
    f = mono((0, 1, 2, 2), scalar(Fraction(1, 2))) + mono((1, 0, 1, 3), 2 + 3 * I) - mono((0, 2, 0, 1))
    g = mono((0, 3, 1, 1), (ONE - 2 * I) / (ONE + Q)) + mono((0, 2, 2, 0)) + mono((2, 1, 0, 0), qpow(3))
    for ctx, rev in ((CTX, False), (CTX_REV, True)):
        want = _per_call_star(f, g, rev)
        qspace.clear_tables()
        cold = star(ctx, f, g)
        warm = star(ctx, f, g)
        with rewrite_strategy("rightmost"):
            assert not STAR_ROWS
            rightmost = [star(ctx, f, g), star(ctx, f, g)]
        assert [cold, warm, *rightmost] == [want] * 4
        assert {str(p) for p in (cold, warm, *rightmost)} == {str(want)}
