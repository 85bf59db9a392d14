"""The q-integrals on the lattice, float and exact.

The float Jackson sum is compared by repr with the eight-branch form it was
first written in, restated below as the oracle; the whole-line, whole-e3 and
sesquilinear float values are compared with the reprs they had when the four
integration geometries were first put in one table.  The exact lattice sums
of polynomials agree with that float path at q0 = 1.1, 1.2 and 1.3, and with
the closed geometric sums.  A broken scaling makes both integration-by-parts
checks fail, each with its recorded sides and in the suite's recorded
text report, and so does a wrong lattice weight."""

import math
import random
from fractions import Fraction

import pytest

from qspace import cfunc, evolution, suites
from qspace.cfunc import (
    CFunction,
    LatticeFunction,
    LINE_VARS,
    NonConvergentSum,
    _geometric_sum,
    jackson_integral_numeric,
    jackson_weight,
    lattice_sum,
)
from qspace.cli import main
from qspace.evolution import (
    _GEOMETRIES,
    _ibp_sides,
    conjugate_function,
    ibp_check,
    ibp_check_numeric,
    integrate_whole_e3,
    integrate_whole_line,
    sesquilinear_line,
)
from qspace.scalars import I, ONE, ZERO, qnum, qpow, scalar

BOUNDS = ("0_x", "x_inf", "x_0", "minusinf_x")
BASES = (1, -1, 2, -2, 3, -3)


def _jackson_oracle(f, a, bounds, tol, k0=0):
    """The Jackson sum with each (sign of a, bounds) case written out."""
    if a == 0:
        raise ValueError("Jackson integral base exponent must be nonzero")
    q0 = f.q0
    aa = abs(a)
    qa = q0 ** aa
    if bounds in ("0_x", "x_inf"):
        sign = 1
    elif bounds in ("x_0", "minusinf_x"):
        sign = -1
    else:
        raise ValueError(f"unknown bounds {bounds!r}")

    def down(k):
        kk = k0 - aa * k
        x = sign * q0 ** kk
        return x * f.value(sign, kk)

    def up(k):
        kk = k0 + aa * k
        x = sign * q0 ** kk
        return x * f.value(sign, kk)

    kmax = 2 * f.cutoff
    if a > 0:
        if bounds == "0_x":
            return -(1 - qa) * _geometric_sum(down, 1, kmax, tol)
        if bounds == "x_inf":
            return -(1 - qa) * _geometric_sum(up, 0, kmax, tol)
        if bounds == "x_0":
            return (1 - qa) * _geometric_sum(down, 1, kmax, tol)
        return (1 - qa) * _geometric_sum(up, 0, kmax, tol)
    qia = 1 - qa ** -1
    if bounds == "0_x":
        return qia * _geometric_sum(down, 0, kmax, tol)
    if bounds == "x_inf":
        return qia * _geometric_sum(up, 1, kmax, tol)
    if bounds == "x_0":
        return -qia * _geometric_sum(down, 0, kmax, tol)
    return -qia * _geometric_sum(up, 1, kmax, tol)


def _outcome(fn, *args, **kwargs):
    """The repr of the value, or the type and message of the exception."""
    try:
        return repr(fn(*args, **kwargs))
    except (ValueError, ArithmeticError) as exc:
        return (type(exc), str(exc))


def _sampled(h, q0, cutoff, window=None):
    """The float samples of a one-variable polynomial, h.eval_float at each
    lattice point +-q0^k, and zero outside |k| <= window."""
    window = cutoff if window is None else window

    def value(x):
        if abs(math.log(abs(x), q0)) > window + 0.5:
            return 0.0
        return h.eval_float(q0, {"x1": x})

    return LatticeFunction.from_callable(value, q0, cutoff)


def _lattices():
    q0 = 1.1
    gauss = LatticeFunction.from_callable(
        lambda x: math.exp(-x * x) * (1 + x / 3) + 0.5j * math.exp(-2 * x * x), q0, 300
    )
    h = CFunction(LINE_VARS, {
        (0, 0): scalar(Fraction(2, 3)),
        (0, 1): qpow(1) - I,
        (0, 3): qpow(-2) / 7,
    })
    rational = _sampled(h, q0, 120, window=25)
    return {"gaussian": gauss, "rational": rational}


@pytest.mark.parametrize("bounds", BOUNDS)
def test_jackson_sum_matches_the_eight_branch_oracle(bounds):
    for name, lat in _lattices().items():
        for a in BASES:
            for k0 in (0, 3, -4, 17):
                got = _outcome(jackson_integral_numeric, lat, a, bounds, 1e-12, k0=k0)
                want = _outcome(_jackson_oracle, lat, a, bounds, 1e-12, k0=k0)
                assert got == want, (name, a, k0)
                assert isinstance(got, str), (name, a, k0)  # every sum converges


@pytest.mark.parametrize("bounds", BOUNDS)
def test_jackson_sum_too_short_lattice_fails_like_the_oracle(bounds):
    short = LatticeFunction.from_callable(lambda x: 1.0, 1.1, 10)
    for a in BASES:
        got = _outcome(jackson_integral_numeric, short, a, bounds, 1e-12, k0=2)
        assert got == _outcome(_jackson_oracle, short, a, bounds, 1e-12, k0=2), a
        assert got[0] is NonConvergentSum, a


def test_jackson_sum_argument_errors_match_the_oracle():
    lat = _lattices()["rational"]
    for a, bounds in ((0, "0_x"), (0, "up"), (1, "up"), (-2, "0_inf")):
        got = _outcome(jackson_integral_numeric, lat, a, bounds, 1e-12)
        assert got == _outcome(_jackson_oracle, lat, a, bounds, 1e-12)
        assert got[0] is ValueError


LINE_PINS = {
    ("gaussian", "L"): "(1.8596689824139085+0j)",
    ("gaussian", "Lbar"): "(1.6906081658308254+0j)",
    ("gaussian", "R"): "(-1.6906081658308254+0j)",
    ("gaussian", "Rbar"): "(-1.8596689824139085+0j)",
    ("rational", "L"): "(731.7788509946487+0j)",
    ("rational", "Lbar"): "(665.2535009042256+0j)",
    ("rational", "R"): "(-665.2535009042256+0j)",
    ("rational", "Rbar"): "(-731.7788509946487+0j)",
}


def test_whole_line_integrals_pinned():
    q0 = 1.1
    h = CFunction(LINE_VARS, {
        (0, 0): scalar(Fraction(2, 3)), (0, 1): qpow(1) - I, (0, 2): qpow(-2) / 5,
    })
    lattices = {
        "gaussian": LatticeFunction.from_callable(lambda x: math.exp(-x * x), q0, 400),
        "rational": _sampled(h, q0, 200, window=30),
    }
    for (name, variant), want in LINE_PINS.items():
        assert repr(integrate_whole_line(lattices[name], variant, 1e-12)) == want


E3_PINS = {
    "L": "(0.9311157612050086+0j)",
    "Lbar": "(1.649528369036104+0j)",
    "R": "(-1.649528369036104+0j)",
    "Rbar": "(-0.9311157612050086+0j)",
}


def test_whole_e3_integrals_pinned():
    # three different legs, so the axis order shows in the rounding
    q0 = 1.1
    legs = (
        LatticeFunction.from_callable(lambda x: math.exp(-x * x), q0, 300),
        LatticeFunction.from_callable(lambda x: math.exp(-2 * x * x) * (1 + x), q0, 300),
        LatticeFunction.from_callable(lambda x: 1 / (1 + x ** 4), q0, 300),
    )
    for variant, want in E3_PINS.items():
        assert repr(integrate_whole_e3(*legs, variant, 1e-12)) == want


_PER = {
    "L": "(17984.982348118592+3884.445431559092j)",
    "Lbar": "(16349.983952835079+3531.314028690078j)",
    "R": "(-16349.983952835079-3531.314028690078j)",
    "Rbar": "(-17984.982348118592-3884.445431559092j)",
}
_PER_PRIMED = {
    "L": "(17984.982348118592-3884.445431559092j)",
    "Lbar": "(16349.983952835079-3531.314028690078j)",
    "R": "(-16349.983952835079+3531.314028690078j)",
    "Rbar": "(-17984.982348118592+3884.445431559092j)",
}


_F = CFunction(LINE_VARS, {(0, 1): ONE + I, (0, 2): qpow(1)})
_G = CFunction(LINE_VARS, {(0, 0): scalar(3), (0, 1): qpow(-1) * I})


def _integrand(f, g, form):
    """conj(f) g, or f conj(g) for a primed form."""
    if form.endswith("p"):
        return f * conjugate_function("line", g)
    return conjugate_function("line", f) * g


@pytest.mark.parametrize("form, per_geometry", [
    ("1", _PER), ("2", _PER), ("1p", _PER_PRIMED), ("2p", _PER_PRIMED),
])
def test_sesquilinear_values_pinned(form, per_geometry):
    # the float path keeps its reprs; the exact values agree with them
    lat = _sampled(_integrand(_F, _G, form), 1.1, 200, window=30)
    floats = {v: integrate_whole_line(lat, v, 1e-10) for v in _GEOMETRIES}
    assert {k: repr(v) for k, v in floats.items()} == per_geometry
    comb, per = sesquilinear_line(_F, _G, form)
    assert comb == 0
    assert list(per) == list(per_geometry)
    for v, value in per.items():
        assert abs(value.eval_float(1.1) - floats[v]) <= 1e-14 * abs(floats[v]), v


def _closed_window_sum(h, window, signs):
    """Sum of q^k h(s q^k) over |k| <= window by the closed geometric sums:
    each monomial c x^n gives c s^n (r^(w+1) - r^-w)/(r - 1), r = q^(n+1)."""
    total = ZERO
    for (_, n), c in h.terms.items():
        r = qpow(n + 1)
        geometric = (r ** (window + 1) - r ** -window) / (r - 1)
        total = total + c * sum((s ** n for s in signs), ZERO) * geometric
    return total


@pytest.mark.parametrize("form", ["1", "1p"])
def test_lattice_sum_matches_the_closed_geometric_sums(form):
    h = _integrand(_F, _G, form)
    for signs in ((1,), (-1,), (1, -1)):
        for window in (0, 3, 30):
            got = lattice_sum(h, "x1", range(-window, window + 1), signs)
            assert got == _closed_window_sum(h, window, signs), (signs, window)
    assert lattice_sum(h, "x1", range(0)) == 0


def test_lattice_sum_takes_one_variable_only():
    h = CFunction(LINE_VARS, {(0, 2): ONE, (1, 1): scalar(3)})
    with pytest.raises(ValueError, match="single variable"):
        lattice_sum(h, "x1", range(-2, 3))


def _per_point_lattice_sum(h, name, ks, signs):
    """The lattice sum point by point, as it was first written: q^k times
    h(s q^k) through value_at, for every k in ks and axis sign s."""
    return sum((qpow(k) * h.value_at(name, s * qpow(k)) for k in ks for s in signs), ZERO)


def _random_coefficient(rng):
    """A rational or Gaussian-rational number, times a power of q and now
    and then over a polynomial in q."""
    c = scalar(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)))
    if rng.random() < 0.5:
        c = c + I * Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    c = c * qpow(rng.randint(-6, 6))
    if rng.random() < 0.25:
        c = c / (qpow(2 * rng.randint(1, 3)) + rng.choice((1, 2, I)))
    return c


def test_lattice_sum_matches_the_per_point_sum():
    """The closed geometric sums against the per-point sum they replace, on
    seeded one-variable polynomials: windows |k| <= w for w in 0-30, single
    points, half-open ranges, a point given twice and every sign set."""
    rng = random.Random(20070)
    for trial in range(10):
        name = rng.choice(LINE_VARS)
        slot = LINE_VARS.index(name)
        terms = {}
        for n in rng.sample(range(8), rng.randint(1, 4)):
            e = [0, 0]
            e[slot] = n
            terms[tuple(e)] = _random_coefficient(rng)
        h = CFunction(LINE_VARS, terms)
        w = rng.randint(0, 30)
        lo = rng.randint(-8, 4)
        lattices = [range(-w, w + 1), (rng.randint(-40, 40),), range(lo, lo + rng.randint(0, 10))]
        if trial == 0:
            lattices += [range(-6, 4), range(-5, 5), range(0, 31), (0,), (-1,), (-2,), (3, -2, 3)]
        for ks in lattices:
            for signs in ((1,), (-1,), (1, -1)):
                want = _per_point_lattice_sum(h, name, ks, signs)
                assert lattice_sum(h, name, ks, signs) == want, (trial, ks, signs)


def test_jackson_weight():
    assert jackson_weight(1) == qpow(1) - 1
    assert jackson_weight(-1) == 1 - qpow(-1)
    assert jackson_weight(2) == qpow(2) - 1
    assert jackson_weight(-2) == 1 - qpow(-2)
    with pytest.raises(ValueError, match="nonzero"):
        jackson_weight(0)


@pytest.mark.parametrize("q0", [1.1, 1.2, 1.3])
def test_exact_reports_agree_with_the_float_path(q0, monkeypatch):
    """The float Jackson sums of the eval_float samples, the old path of the
    three reports, against their exact values at q0."""
    # jackson-numeric: int_0^1 x^n, a geometric series in the lattice
    for n in range(4):
        lat = _sampled(CFunction.monomial(LINE_VARS, (0, n)), q0, 800)
        want = (ONE / qnum(n + 1)).eval_float(q0)
        assert abs(jackson_integral_numeric(lat, 1, "0_x", 1e-12) - want) <= 1e-9 * abs(want)
    # integration-by-parts-numeric: both integrals of every geometry on
    # [q0^-6, q0^4], as the report takes them
    integrals = []

    def recording(variant, idx, f, g, integrate):
        for h in _ibp_sides(variant, idx, f, g, lambda h: h):
            integrals.append((variant, h, integrate(h)))
        return _ibp_sides(variant, idx, f, g, integrate)

    monkeypatch.setattr(evolution, "_ibp_sides", recording)
    report = ibp_check_numeric()
    assert len(integrals) == 8
    geometry = {mode: (a, sign) for mode, a, sign in _GEOMETRIES.values()}
    for variant, h, exact in integrals:
        a, sign = geometry[variant]
        lat = _sampled(h, q0, 120)
        up = jackson_integral_numeric(lat, a, "0_x", 1e-12, k0=4)
        low = jackson_integral_numeric(lat, a, "0_x", 1e-12, k0=-6)
        want = sign * (up - low)
        assert abs(exact.eval_float(q0) - want) <= 1e-9 * abs(want), (variant, str(h))
    assert report.passed
    # sesquilinear: the per-geometry whole-line integrals of the window
    for form in ("1", "2p"):
        lat = _sampled(_integrand(_F, _G, form), q0, 200, window=30)
        _, per = sesquilinear_line(_F, _G, form)
        for v, value in per.items():
            want = integrate_whole_line(lat, v, 1e-12)
            assert abs(value.eval_float(q0) - want) <= 1e-9 * abs(want), (form, v)


def test_broken_scaling_fails_both_ibp_checks(monkeypatch, capsys, recorded):
    f = CFunction.monomial(LINE_VARS, (0, 1))
    g = f + CFunction.monomial(LINE_VARS, (1, 0), scalar(2))
    a, b = scalar(Fraction(1, 2)), scalar(3)
    assert ibp_check(f, g, a, b).passed
    assert ibp_check_numeric().passed
    monkeypatch.setattr(evolution, "scale_arg", lambda h, var, half_steps: h)
    exact = ibp_check(f, g, a, b)
    assert [(x.indices, x.lhs, x.rhs) for x in exact.failures] == [
        ("left d1", "(35/4)/(q + 1) + 5 x0", "(35/4)q/(q + 1) + 5 x0"),
        ("left_bar d1", "(35/4)q/(q + 1) + 5 x0", "(35/4)/(q + 1) + 5 x0"),
        ("right d1", "(35/4)q/(q + 1)", "(35/4)/(q + 1)"),
        ("right_bar d1", "(35/4)/(q + 1)", "(35/4)q/(q + 1)"),
    ]
    numeric = ibp_check_numeric()
    # the exact lattice sums of both sides
    assert [(x.indices, x.lhs, x.rhs) for x in numeric.failures] == [
        ("left", _SUM_A, _SUM_B),
        ("left_bar", _SUM_B, _SUM_A),
        ("right", _SUM_C, _SUM_D),
        ("right_bar", _SUM_D, _SUM_C),
    ]
    # and the suite's text report lists both checks' failures as recorded
    assert main(["verify", "numeric-integrals"]) == 1
    assert capsys.readouterr().out == recorded("broken_scaling_numeric_integrals.txt")


_SUM_A = (
    "q^10 - q^9 + q^7 - q^6 + q^4 - q^3 + q - 1 + q^-2 - q^-3 + q^-5 - q^-6"
    " + q^-8 - q^-9 + q^-11 - q^-12 + q^-14 - q^-15 + q^-17 - q^-18"
)
_SUM_B = (
    "q^12 - q^11 + q^9 - q^8 + q^6 - q^5 + q^3 - q^2 + 1 - q^-1 + q^-3 - q^-4"
    " + q^-6 - q^-7 + q^-9 - q^-10 + q^-12 - q^-13 + q^-15 - q^-16"
)
_SUM_C = (
    "q^12 - q^10 + q^9 - q^7 + q^6 - q^4 + q^3 - q + 1 - q^-2 + q^-3 - q^-5"
    " + q^-6 - q^-8 + q^-9 - q^-11 + q^-12 - q^-14 + q^-15 - q^-17"
)
_SUM_D = (
    "q^11 - q^9 + q^8 - q^6 + q^5 - q^3 + q^2 - 1 + q^-1 - q^-3 + q^-4 - q^-6"
    " + q^-7 - q^-9 + q^-10 - q^-12 + q^-13 - q^-15 + q^-16 - q^-18"
)


def test_wrong_lattice_weight_fails_the_lattice_checks(monkeypatch):
    """The weight q - 1 of the base-q sums planted as q: the lattice
    integration-by-parts check reports the two base-q geometries,
    jackson-numeric every power, and sesquilinear its closed-sum check."""
    exact_weight = cfunc.jackson_weight

    def planted(a):
        return qpow(a) if a > 0 else exact_weight(a)

    monkeypatch.setattr(evolution, "jackson_weight", planted)
    monkeypatch.setattr(suites, "jackson_weight", planted)
    numeric = ibp_check_numeric()
    assert [(x.indices, x.lhs, x.rhs) for x in numeric.failures] == [
        ("left",
         "q^10 + q^7 + q^4 + q + q^-2 + q^-5 + q^-8 + q^-11 + q^-14 + q^-17",
         "-q^11 - q^9 - q^8 - q^6 - q^5 - q^3 - q^2 - 1 - q^-1 - q^-3 - q^-4"
         " - q^-6 - q^-7 - q^-9 - q^-10 - q^-12 - q^-13 - q^-15 - q^-16 - q^-18"),
        ("right_bar",
         "q^11 + q^10 + q^8 + q^7 + q^5 + q^4 + q^2 + q + q^-1 + q^-2 + q^-4"
         " + q^-5 + q^-7 + q^-8 + q^-10 + q^-11 + q^-13 + q^-14 + q^-16 + q^-17",
         "-q^9 - q^6 - q^3 - 1 - q^-3 - q^-6 - q^-9 - q^-12 - q^-15 - q^-18"),
    ]
    reports = {r.check: r for r in suites.suite_numeric_integrals(suites.SuiteOptions())}
    assert [x.indices for x in reports["jackson-numeric"].failures] == [
        f"int_0^1 x^{n}" for n in range(4)
    ]
    assert [x.indices for x in reports["sesquilinear"].failures] == [
        "L by the closed geometric sum"
    ]
    assert [name for name, r in reports.items() if not r.passed] == [
        "jackson-numeric", "integration-by-parts-numeric", "sesquilinear",
    ]
