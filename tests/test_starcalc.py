import itertools

import pytest

from qspace.cfunc import CFunction, E3_VARS, LINE_VARS
from qspace.ncalgebra import reorder_transform
from qspace import starcalc
from qspace.starcalc import StarContext, star, star_oracle_check
from qspace.scalars import LAM, ONE, qpow

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
    assert star_oracle_check(0).passed
    assert star_oracle_check(3).passed


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
