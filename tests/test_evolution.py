import math
import sys
import threading
from fractions import Fraction

import pytest

from qspace.cfunc import CFunction, E3_VARS, LINE_VARS, LatticeFunction
from qspace.evolution import (
    Hamiltonian,
    OperatorSeries,
    _at,
    _compose_sides,
    _dyson_sides,
    _element,
    _integrate_time_poly,
    _unitarity_sides,
    build_U,
    compose_check,
    dyson_check,
    free_hamiltonian,
    heisenberg_check,
    heisenberg_evolve,
    ibp_check,
    ibp_check_numeric,
    integrate_whole_e3,
    integrate_whole_line,
    schrodinger_residual,
    schrodinger_wave_check,
    sesquilinear_line,
    unitarity_check,
)
from qspace.hopf import time_taylor
from qspace.ncalgebra import NCElement, normal_form
from qspace.reports import VerificationReport
from qspace.scalars import GaussianRational, I, ONE, QScalar, _add_term, scalar, qpow


def _mul_truncated(a, b, order):
    """The product of two operator series, truncated at the given order."""
    out = [NCElement.zero(a.space) for _ in range(order + 1)]
    for i, ca in enumerate(a.coeffs):
        if i > order or ca.is_zero():
            continue
        for j, cb in enumerate(b.coeffs):
            if i + j > order or cb.is_zero():
                continue
            out[i + j] = out[i + j] + ca * cb
    return OperatorSeries(a.space, out)


def _conjugate_series(a):
    """Coefficient-wise conjugation; the time symbol is real."""
    return OperatorSeries(a.space, [c.conjugate() for c in a.coeffs])


def test_hamiltonian_guards():
    with pytest.raises(ValueError):
        Hamiltonian(NCElement.generator("line", "x0"))
    # an anti-hermitian operator flagged hermitian is rejected
    with pytest.raises(ValueError):
        Hamiltonian(NCElement.generator("line", "d1"), hermitian=True)


def test_free_hamiltonians_are_hermitian():
    for space in ("line", "euclid3"):
        H = free_hamiltonian(space)
        assert H.op.conjugate() == H.op


def test_build_U_examples():
    H = free_hamiltonian("line")
    U0 = build_U(H, 0)
    assert U0.coeffs == [NCElement.one("line")]
    U2 = build_U(H, 2)
    # coefficient of t^2 is -H^2/2
    want = (H.op * H.op).scale(QScalar.from_rational(Fraction(-1, 2)))
    assert U2.coeff(2) == want
    # forward times inverse is the identity through the order
    prod = _mul_truncated(build_U(H, 3), build_U(H, 3, "inverse"), 3)
    assert prod.coeff(0) == NCElement.one("line")
    for n in range(1, 4):
        assert prod.coeff(n).is_zero()


def test_schrodinger_residual_passes_and_zero_generator():
    for space in ("line", "euclid3"):
        H = free_hamiltonian(space)
        assert schrodinger_residual(build_U(H, 3), H).passed
    H0 = Hamiltonian(NCElement.zero("line"))
    U = build_U(H0, 3)
    assert all(U.coeff(n).is_zero() for n in range(1, 4))
    assert schrodinger_residual(U, H0).passed


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_compose_unitarity_dyson(space):
    H = free_hamiltonian(space)
    assert compose_check(H, 4).passed
    assert unitarity_check(H, 4).passed
    assert dyson_check(H, 4).passed


def test_compose_at_time_points():
    H = free_hamiltonian("line")
    # generic rational points, and the degenerate middle point t'' = t'
    assert compose_check(H, 3, t_points=(scalar(2), scalar(1), scalar(Fraction(1, 2)))).passed
    assert compose_check(H, 3, t_points=(scalar(2), scalar(Fraction(1, 2)),
                                         scalar(Fraction(1, 2)))).passed


def test_heisenberg_printed_coefficient():
    H = Hamiltonian(normal_form("line", ("d1", "d1")), hermitian=True)
    O = NCElement.generator("line", "x1")
    series = heisenberg_evolve(O, H, 3)
    want = (
        NCElement.generator("line", "d1").scale(I * (ONE + qpow(1)))
        + normal_form("line", ("x1", "d1", "d1")).scale(I * (qpow(2) - ONE))
    )
    assert series.coeff(1) == want
    assert heisenberg_check(O, H, 3).passed
    # classical limit: 2 i d1
    assert series.coeff(1).eval_coeffs_exact(1) == {
        (0, 0, 0, 1, 0): GaussianRational(0, 2)
    }


def test_heisenberg_constant_for_the_generator():
    H = Hamiltonian(normal_form("line", ("d1", "d1")), hermitian=True)
    series = heisenberg_evolve(H.op, H, 4)
    assert series.coeff(0) == H.op
    assert all(series.coeff(n).is_zero() for n in range(1, 5))


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_wave_equation(space):
    H = free_hamiltonian(space)
    phi0 = (
        CFunction.monomial(LINE_VARS, (0, 3))
        if space == "line"
        else CFunction.monomial(E3_VARS, (0, 1, 0, 1))
    )
    assert schrodinger_wave_check(H, phi0, 3).passed


def test_integrate_whole_line_zero_and_variants():
    zero = LatticeFunction.from_callable(lambda x: 0.0, 1.1, 50)
    assert integrate_whole_line(zero, "L", 1e-12) == 0
    bump = LatticeFunction.from_callable(lambda x: math.exp(-abs(x) ** 2), 1.1, 400)
    vL = integrate_whole_line(bump, "L", 1e-12)
    vRb = integrate_whole_line(bump, "Rbar", 1e-12)
    assert abs(vL + vRb) < 1e-12
    q0 = 1.1
    direct = (q0 - 1) * sum(
        q0 ** k * 2 * math.exp(-(q0 ** k) ** 2) for k in range(-900, 300)
    )
    assert abs(vL.real - direct) < 1e-9


def test_lattice_samples_equal_pointwise_evaluation():
    # the coefficients are evaluated once per call; every sample must still
    # be the very float eval_float gives at its point
    q0, cutoff, window = 1.1, 40, 25
    f = CFunction(LINE_VARS, {
        (0, 0): scalar(Fraction(5, 7)),
        (0, 1): qpow(2) - ONE,
        (0, 3): QScalar.q_power(1) + 2 - I * qpow(-1) / 3,
        (0, 4): qpow(-3) / (ONE + qpow(1)),
    })
    lat = LatticeFunction.from_cfunction(f, "x1", q0, cutoff, window)
    assert len(lat.samples) == 2 * (2 * cutoff + 1)
    for (sign, k), v in lat.samples.items():
        want = f.eval_float(q0, {"x1": sign * q0 ** k}) if abs(k) <= window else 0j
        assert v == want, (sign, k)
    with pytest.raises(ValueError):
        LatticeFunction.from_cfunction(f * CFunction.monomial(LINE_VARS, (1, 0)), "x1", q0, 5)


def test_integrate_whole_e3_separable():
    q0 = 1.1
    leg = LatticeFunction.from_callable(lambda x: math.exp(-x * x), q0, 300)
    vL = integrate_whole_e3(leg, leg, leg, "L", 1e-12)
    vRb = integrate_whole_e3(leg, leg, leg, "Rbar", 1e-12)
    assert abs(vL + vRb) < 1e-9
    one_axis = (q0 ** 2 - 1) * sum(
        q0 ** (2 * k) * 2 * math.exp(-(q0 ** (2 * k)) ** 2) for k in range(-450, 150)
    )
    want = (q0 ** -6 / 4) * one_axis ** 3
    assert abs(vL.real - want) < 1e-8


def test_ibp_trivial_and_symbolic():
    one = CFunction.constant(LINE_VARS, 1)
    rep = ibp_check(one, one, scalar(1), scalar(2))
    assert rep.passed
    f = CFunction.monomial(LINE_VARS, (0, 1))
    g = CFunction.monomial(LINE_VARS, (0, 1)) + CFunction.monomial(LINE_VARS, (1, 0), scalar(3))
    assert ibp_check(f, g, scalar(Fraction(1, 3)), scalar(2)).passed


def test_ibp_numeric():
    assert ibp_check_numeric(1.1, 1e-12).passed


def test_sesquilinear_degeneracy_and_time_invariance():
    zero = CFunction.zero(LINE_VARS)
    comb, per = sesquilinear_line(zero, zero, "1", 1.1, 1e-10)
    assert comb == 0 and all(v == 0 for v in per.values())
    f = CFunction.monomial(LINE_VARS, (0, 2))
    comb1, per1 = sesquilinear_line(f, f, "1", 1.1, 1e-10)
    shifted = time_taylor(f, scalar(2))
    comb2, _ = sesquilinear_line(shifted, shifted, "1", 1.1, 1e-10)
    assert abs(comb1 - comb2) < 1e-10
    # the printed minus identities force the averaged form to vanish while
    # the per-geometry integrals are nonzero
    assert abs(comb1) < 1e-10
    assert abs(per1["L"]) > 1.0
    assert abs(per1["L"] + per1["Rbar"]) < 1e-9 * abs(per1["L"])


def test_sesquilinear_primed_and_hermiticity_question():
    # the primed forms swap the conjugation; with the degenerate averages the
    # symmetry question reduces to comparing the per-geometry integrals
    f = CFunction.monomial(LINE_VARS, (0, 1))
    g = CFunction.monomial(LINE_VARS, (0, 2))
    comb, per = sesquilinear_line(f, g, "1p", 1.1, 1e-10)
    assert abs(comb) < 1e-10
    comb2, per2 = sesquilinear_line(g, f, "1", 1.1, 1e-10)
    # real integrands: the L-geometry values agree under the swap
    assert abs(per["L"] - per2["L"]) < 1e-9 * max(1.0, abs(per["L"]))


def test_build_U_rejects_unknown_direction():
    H = free_hamiltonian("line")
    with pytest.raises(ValueError, match="direction"):
        build_U(H, 2, "backwards")
    with pytest.raises(ValueError):
        build_U(H, -1)


def test_power_table_and_product_cache():
    # a generator that is not hermitian, so conj(H^a) H^b and H^a H^b differ
    H = Hamiltonian(normal_form("line", ("x1", "d1", "d1")))
    assert H.op.conjugate() != H.op
    power = NCElement.one("line")
    for n in range(4):
        assert H.power(n) == power
        power = power * H.op
    for a in range(3):
        for b in range(3):
            want = H.power(a) * H.power(b)
            conj = H.power(a).conjugate() * H.power(b)
            assert conj != want or a == 0
            assert H.product(a, b) == want
            assert H.product(a, b, conjugate=True) == conj
            assert H.product(a, b) == want
    with pytest.raises(AttributeError):
        H.op = NCElement.zero("line")


def test_negative_powers_and_products_are_rejected():
    H = free_hamiltonian("line")
    H.power(3)
    for call in (lambda: H.power(-1), lambda: H.product(-1, 0), lambda: H.product(0, -2),
                 lambda: H.product(-1, 1, conjugate=True)):
        with pytest.raises(ValueError):
            call()
    # nothing was cached under a negative index
    assert not any(a < 0 or b < 0 for a, b, _ in H._products)
    assert H.power(3) == H.op * H.op * H.op


def test_a_power_that_is_not_an_int_is_rejected():
    H = free_hamiltonian("line")
    for n in (1.0, 0.5, Fraction(2)):
        with pytest.raises(TypeError, match="power of a Hamiltonian must be an int"):
            H.power(n)
    assert len(H._powers) == 1  # nothing was built past H^0
    assert H.power(2) == H.op * H.op
    H.product(1, 0)
    for a, b in ((1.0, 0), (1, 0.0)):  # also where (1, 0) is cached
        with pytest.raises(TypeError, match="powers of a Hamiltonian must be ints"):
            H.product(a, b)


def test_threads_share_the_power_and_product_tables():
    # four threads meet at a barrier, then fill one fresh Hamiltonian's
    # tables at once; a lost update would leave a wrong or duplicated power
    serial = free_hamiltonian("line")
    want_power, want_product = serial.power(4), serial.product(2, 2)
    want = {"power": want_power, "product": want_product}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            H = free_hamiltonian("line")
            barrier = threading.Barrier(4, timeout=30)
            results, errors = [], []

            def work(first_power):
                try:
                    barrier.wait()
                    calls = [("power", lambda: H.power(4)), ("product", lambda: H.product(2, 2))]
                    for name, call in calls if first_power else calls[::-1]:
                        results.append((name, call()))
                except Exception as exc:  # reported by the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(k % 2 == 0,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert len(H._powers) == 5
            for n in range(1, 5):
                assert H._powers[n] == H._powers[n - 1] * H.op
            assert len(results) == 8
            assert all(r == want[name] for name, r in results)
            assert H.power(4) == want_power and H.product(2, 2) == want_product
    finally:
        sys.setswitchinterval(interval)


# -- the term-by-term checks, restated as oracles ----------------------------
#
# The evolution checks multiply cached products of powers of H under summed
# scalars.  The functions below restate the checks they replaced: every
# coefficient is a scaled power built as power * H, and every time monomial
# of a product series multiplies those scaled elements pair by pair.  Each
# returns its report with the expansions it compared.


def _oracle_build_U(H, order, direction="forward"):
    unit = I if direction == "inverse" else -I
    coeffs = [NCElement.one(H.space)]
    power = NCElement.one(H.space)
    fac = ONE
    phase = ONE
    for n in range(1, order + 1):
        power = power * H.op
        fac = fac * scalar(n)
        phase = phase * unit
        coeffs.append(power.scale(phase / fac))
    return OperatorSeries(H.space, coeffs)


def _oracle_binomial(n, k):
    out = 1
    for j in range(1, k + 1):
        out = out * (n - j + 1) // j
    return out


def _oracle_expand_two_times(space, series, sign_second, order):
    out = {}
    for n, c in enumerate(series.coeffs):
        if n > order or c.is_zero():
            continue
        for j in range(n + 1):
            coeff = scalar(_oracle_binomial(n, j) * (sign_second ** (n - j)))
            _add_term(out, (j, n - j), c.scale(coeff))
    return out


def _oracle_mul_bivariate(space, A, B, order):
    out = {}
    for (a1, a2), ca in A.items():
        for (b1, b2), cb in B.items():
            if a1 + a2 + b1 + b2 > order:
                continue
            _add_term(out, (a1 + b1, a2 + b2), ca * cb)
    return out


def _oracle_compose(H, order, t_points=None):
    rep = VerificationReport("composition", H.space)
    U = _oracle_build_U(H, order)
    A = _oracle_expand_two_times(H.space, U, -1, order)
    B = _oracle_expand_two_times(H.space, U, -1, order)
    lhs = {}
    for (a1, a2), ca in A.items():
        for (b1, b2), cb in B.items():
            if a1 + a2 + b1 + b2 > order:
                continue
            _add_term(lhs, (a1, a2 + b1, b2), ca * cb)
    rhs = {}
    for (a, b), c in _oracle_expand_two_times(H.space, U, -1, order).items():
        rhs[(a, 0, b)] = c
    keys = set(lhs) | set(rhs)
    zero = NCElement.zero(H.space)
    for k in sorted(keys):
        if lhs.get(k, zero) != rhs.get(k, zero):
            rep.record(f"compose t^{k[0]} t''^{k[1]} t'^{k[2]}",
                       str(lhs.get(k, zero)), str(rhs.get(k, zero)))
    C = _oracle_expand_two_times(H.space, U, -1, order)
    D = {(b, a): c for (a, b), c in C.items()}
    prod = _oracle_mul_bivariate(H.space, C, D, order)
    one = NCElement.one(H.space)
    for k, v in prod.items():
        want = one if k == (0, 0) else NCElement.zero(H.space)
        if v != want:
            rep.record(f"inverse law t^{k[0]} t'^{k[1]}", str(v), str(want))
    if (0, 0) not in prod:
        rep.record("inverse law constant term", "0", "1")
    points = None
    if t_points is not None:
        t, t2, t1 = t_points

        def at(poly, values):
            acc = NCElement.zero(H.space)
            for key, c in poly.items():
                s = ONE
                for exp, val in zip(key, values):
                    for _ in range(exp):
                        s = s * val
                acc = acc + c.scale(s)
            return acc

        lnum = at(lhs, (t, t2, t1))
        rnum = at(rhs, (t, t2, t1))
        if lnum != rnum:
            rep.record(f"composition at {t_points}", str(lnum), str(rnum))
        points = (lnum, rnum)
    return rep, lhs, rhs, prod, points


def _oracle_unitarity(H, order):
    rep = VerificationReport("unitarity", H.space)
    U = _oracle_build_U(H, order)
    prod = _mul_truncated(_conjugate_series(U), U, order)
    for n in range(order + 1):
        want = NCElement.one(H.space) if n == 0 else NCElement.zero(H.space)
        if prod.coeff(n) != want:
            rep.record(f"t^{n}", str(prod.coeff(n)), str(want))
    return rep, prod.coeffs


def _oracle_dyson(H, order):
    rep = VerificationReport("dyson", H.space)
    U = _oracle_build_U(H, order)
    power = NCElement.one(H.space)
    phase = ONE
    tpoly = [ONE]
    iterated = [NCElement.one(H.space)]
    for n in range(1, order + 1):
        power = power * H.op
        phase = phase / I
        tpoly = _integrate_time_poly(tpoly)
        coeff = power.scale(phase * tpoly[n])
        iterated.append(coeff)
        if coeff != U.coeff(n):
            rep.record(f"iterated integral t^{n}", str(coeff), str(U.coeff(n)))
    approx = OperatorSeries(H.space, [NCElement.one(H.space)])
    for _ in range(order):
        new_coeffs = [NCElement.one(H.space)]
        for n, c in enumerate(approx.coeffs):
            if n + 1 > order:
                break
            new_coeffs.append((H.op * c).scale(-I / scalar(n + 1)))
        approx = OperatorSeries(H.space, new_coeffs)
    for n in range(order + 1):
        if approx.coeff(n) != U.coeff(n):
            rep.record(f"integral equation t^{n}", str(approx.coeff(n)), str(U.coeff(n)))
    return rep, iterated, approx.coeffs, U.coeffs


def _realized(H, poly, conjugate=False):
    """An expansion turned into elements, zero entries left out as the
    oracles leave them out."""
    out = {k: _element(H, terms, conjugate) for k, terms in poly.items()}
    return {k: v for k, v in out.items() if v}


def _failures(rep):
    return sorted((f.indices, f.lhs, f.rhs) for f in rep.failures)


_POINTS = (scalar(2), scalar(-1), scalar(Fraction(1, 3)))


@pytest.mark.parametrize("space", ["line", "euclid3"])
@pytest.mark.parametrize("order", range(6))
def test_checks_match_term_by_term_oracles(space, order):
    H = free_hamiltonian(space)
    assert build_U(H, order).coeffs == _oracle_build_U(H, order).coeffs
    assert build_U(H, order, "inverse").coeffs == _oracle_build_U(H, order, "inverse").coeffs

    rep, lhs, rhs, prod, points = _oracle_compose(H, order, _POINTS)
    new_lhs, new_rhs, new_inverse, _one = _compose_sides(order)
    assert _realized(H, new_lhs) == lhs
    assert _realized(H, new_rhs) == rhs
    assert _realized(H, new_inverse) == prod
    assert (_realized(H, _at(new_lhs, _POINTS)).get((), NCElement.zero(space)),
            _realized(H, _at(new_rhs, _POINTS)).get((), NCElement.zero(space))) == points
    assert compose_check(H, order, t_points=_POINTS).to_json() == rep.to_json()

    rep, coeffs = _oracle_unitarity(H, order)
    new_prod, _one = _unitarity_sides(order)
    assert _realized(H, new_prod, conjugate=True) == {
        (n,): c for n, c in enumerate(coeffs) if c
    }
    assert unitarity_check(H, order).to_json() == rep.to_json()

    rep, iterated, integral, U = _oracle_dyson(H, order)
    assert _dyson_sides(H, order) == (iterated, integral, U)
    assert dyson_check(H, order).to_json() == rep.to_json()


def test_compose_oracle_matches_at_degenerate_time_points():
    H = free_hamiltonian("euclid3")
    points = (scalar(Fraction(1, 2)), scalar(Fraction(1, 2)), scalar(Fraction(1, 2)))
    rep = compose_check(H, 3, t_points=points)
    assert rep.passed
    assert rep.to_json() == _oracle_compose(H, 3, points)[0].to_json()


# -- planted faults ------------------------------------------------------------


@pytest.fixture
def faulty_product(monkeypatch):
    """Make NCElement products drop the term of one long word pair: a word
    of H times a word of H^2, for the free Hamiltonian on the given space.
    Products H^n * H, which build the power table, never meet that pair."""
    def plant(space):
        H = free_hamiltonian(space)
        pair = (max(H.op.terms), max((H.op * H.op).terms))
        plain = NCElement.__mul__

        def mul(self, other):
            if not isinstance(other, NCElement):
                return plain(self, other)
            out = NCElement(self.space)
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    if (k1, k2) != pair:
                        out = out + plain(NCElement(self.space, {k1: c1}),
                                          NCElement(self.space, {k2: c2}))
            return out

        monkeypatch.setattr(NCElement, "__mul__", mul)
        return free_hamiltonian(space)

    return plant


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_planted_fault_fails_every_product_check(space, faulty_product):
    H = faulty_product(space)
    compose = compose_check(H, 4)
    oracle = _oracle_compose(H, 4)[0]
    assert compose.status == oracle.status == "fail"
    assert _failures(compose) == _failures(oracle)
    for check, restated in ((unitarity_check, _oracle_unitarity), (dyson_check, _oracle_dyson)):
        rep = check(H, 4)
        assert rep.status == "fail"
        assert _failures(rep) == _failures(restated(H, 4)[0])
