"""The numeric q-integrals pinned bit for bit.

The Jackson sum is compared by repr with the eight-branch form it was first
written in, restated below as the oracle; the whole-line, whole-e3 and
sesquilinear values are compared with the reprs they had when the four
integration geometries were first put in one table.  A broken scaling makes
both integration-by-parts checks fail, each with its recorded sides."""

import math
from fractions import Fraction

import pytest

from qspace import evolution
from qspace.cfunc import (
    CFunction,
    LatticeFunction,
    LINE_VARS,
    NonConvergentSum,
    _geometric_sum,
    jackson_integral_numeric,
)
from qspace.evolution import (
    ibp_check,
    ibp_check_numeric,
    integrate_whole_e3,
    integrate_whole_line,
    sesquilinear_line,
)
from qspace.scalars import I, ONE, qpow, scalar

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
    rational = LatticeFunction.from_cfunction(h, "x1", q0, 120, window=25)
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
        "rational": LatticeFunction.from_cfunction(h, "x1", q0, 200, window=30),
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


@pytest.mark.parametrize("form, per_geometry", [
    ("1", _PER), ("2", _PER), ("1p", _PER_PRIMED), ("2p", _PER_PRIMED),
])
def test_sesquilinear_values_pinned(form, per_geometry):
    f = CFunction(LINE_VARS, {(0, 1): ONE + I, (0, 2): qpow(1)})
    g = CFunction(LINE_VARS, {(0, 0): scalar(3), (0, 1): qpow(-1) * I})
    comb, per = sesquilinear_line(f, g, form, 1.1, 1e-10)
    assert repr(comb) == "0j"
    assert list(per) == list(per_geometry)
    assert {k: repr(v) for k, v in per.items()} == per_geometry


def test_broken_scaling_fails_both_ibp_checks(monkeypatch):
    f = CFunction.monomial(LINE_VARS, (0, 1))
    g = f + CFunction.monomial(LINE_VARS, (1, 0), scalar(2))
    a, b = scalar(Fraction(1, 2)), scalar(3)
    assert ibp_check(f, g, a, b).passed
    assert ibp_check_numeric(1.1, 1e-12).passed
    monkeypatch.setattr(evolution, "scale_arg", lambda h, var, half_steps: h)
    exact = ibp_check(f, g, a, b)
    assert [(x.indices, x.lhs, x.rhs) for x in exact.failures] == [
        ("left d1", "(35/4)/(q + 1) + 5 x0", "(35/4)q/(q + 1) + 5 x0"),
        ("left_bar d1", "(35/4)q/(q + 1) + 5 x0", "(35/4)/(q + 1) + 5 x0"),
        ("right d1", "(35/4)q/(q + 1)", "(35/4)/(q + 1)"),
        ("right_bar d1", "(35/4)/(q + 1)", "(35/4)q/(q + 1)"),
    ]
    numeric = ibp_check_numeric(1.1, 1e-12)
    # the lattice sums of both sides, bit for bit
    assert [(x.indices, x.lhs, x.rhs) for x in numeric.failures] == [
        ("left", "(0.8938276697316585+0j)", "(1.081531480375307+0j)"),
        ("left_bar", "(1.0815314803753067+0j)", "(0.8938276697316603+0j)"),
        ("right", "(2.064741917080129-0j)", "(1.8770381064364825+0j)"),
        ("right_bar", "(1.877038106436482-0j)", "(2.0647419170801307+0j)"),
    ]
