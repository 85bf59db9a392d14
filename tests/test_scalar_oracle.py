"""The scalar field against independent oracles.

Random rational functions of s = q^(1/2) with Gaussian-rational
coefficients are compared with sympy's ``cancel`` (canonical numerator and
denominator after + - * /), and hypothesis checks the field axioms on the
same generator.  Both are test-only dependencies; each test is skipped when
its oracle is missing.
"""

import random
from fractions import Fraction

import pytest

from qspace.scalars import ONE, ZERO, DivisionByZero, GaussianRational, Q, QScalar, qpow, scalar

try:
    import sympy
except ImportError:  # pragma: no cover - exercised only without sympy
    sympy = None

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - exercised only without hypothesis
    given = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


def gen_scalar(draw_int):
    """A random scalar; ``draw_int(lo, hi)`` makes every choice.

    Numerator and denominator share a random factor about half the time, so
    construction has something to cancel; coefficients are mostly integers,
    sometimes true fractions, sometimes complex.
    """

    def coeff():
        re = Fraction(draw_int(-6, 6), draw_int(1, 4) if not draw_int(0, 2) else 1)
        im = Fraction(draw_int(-3, 3), draw_int(1, 3)) if not draw_int(0, 3) else 0
        return GaussianRational(re, im)

    def poly(lo, hi, most):
        return {draw_int(lo, hi): coeff() for _ in range(draw_int(1, most))}

    def times(a, b):
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                out[ka + kb] = out.get(ka + kb, GaussianRational(0)) + ca * cb
        return out

    num = poly(-4, 4, 3)
    den = poly(-2, 3, 3) if draw_int(0, 1) else {0: GaussianRational(1)}
    if draw_int(0, 1):
        common = poly(0, 2, 2)
        num, den = times(num, common), times(den, common)
    try:
        return QScalar(num, den)
    except DivisionByZero:
        return QScalar.q_power(draw_int(-3, 3))


def _random_scalars(seed, count):
    rng = random.Random(seed)
    return [gen_scalar(rng.randint) for _ in range(count)]


def assert_canonical(x):
    """The invariants of the canonical form, and the stored coefficients: an
    int, a Fraction that is not integral, or a GaussianRational with nonzero
    imaginary part whose parts are int-first in the same way."""
    if not x.num:
        assert x.den == {0: 1} and type(x.den[0]) is int
        return
    assert x.num and x.den and min(x.den) == 0 and x.den[max(x.den)] == 1
    for c in list(x.num.values()) + list(x.den.values()):
        assert c
        if type(c) is GaussianRational:
            assert c.im
            parts = (c.re, c.im)
        else:
            parts = (c,)
        for part in parts:
            assert type(part) is int or (type(part) is Fraction and part.denominator != 1)
    # the general constructor, fed the same parts, changes nothing
    again = QScalar(x.num, x.den)
    assert again.num == x.num and again.den == x.den


# -- sympy oracle ------------------------------------------------------------


def _sym_coeff(c):
    re, im = (c.re, c.im) if type(c) is GaussianRational else (c, 0)
    return (sympy.Rational(Fraction(re).numerator, Fraction(re).denominator)
            + sympy.I * sympy.Rational(Fraction(im).numerator, Fraction(im).denominator))


def _sym_poly(p, s):
    return sum(_sym_coeff(c) * s ** k for k, c in p.items())


def _sym(x, s):
    return _sym_poly(x.num, s) / _sym_poly(x.den, s)


def _sym_canonical(expr, s):
    """sympy's reduced numerator and denominator, normalised like QScalar:
    the denominator a monic polynomial with nonzero constant term."""
    p, q = sympy.fraction(sympy.cancel(sympy.together(expr), s, extension=True))
    if p == 0:
        return sympy.Integer(0), sympy.Integer(1)
    terms = sympy.Poly(q, s).terms()
    low = min(m[0] for m, _ in terms)
    lead = dict((m[0], c) for m, c in terms)[max(m[0] for m, _ in terms)]
    scale = lead * s ** low
    return sympy.expand(p / scale), sympy.expand(q / scale)


def _assert_matches_sympy(x, expr, s):
    assert_canonical(x)
    num, den = _sym_canonical(expr, s)
    assert sympy.expand(_sym_poly(x.num, s) - num) == 0, (x, num, den)
    assert sympy.expand(_sym_poly(x.den, s) - den) == 0, (x, num, den)


@needs_sympy
def test_construction_matches_sympy_cancel():
    s = sympy.Symbol("s")
    for x in _random_scalars(11, 40):
        _assert_matches_sympy(x, _sym(x, s), s)


@needs_sympy
def test_arithmetic_matches_sympy_cancel():
    s = sympy.Symbol("s")
    xs = _random_scalars(12, 60)
    for a, b in zip(xs[::2], xs[1::2]):
        sa, sb = _sym(a, s), _sym(b, s)
        _assert_matches_sympy(a + b, sa + sb, s)
        _assert_matches_sympy(a - b, sa - sb, s)
        _assert_matches_sympy(a * b, sa * sb, s)
        if b:
            _assert_matches_sympy(a / b, sa / sb, s)


@needs_sympy
def test_shared_denominators_match_sympy_cancel():
    # sums and quotients whose denominators share factors, where the
    # crosswise cancellation does its work
    s = sympy.Symbol("s")
    xs = _random_scalars(13, 40)
    for a, b in zip(xs[::2], xs[1::2]):
        c = a / (b + ONE) if b + ONE else a
        sa, sc = _sym(a, s), _sym(c, s)
        _assert_matches_sympy(c + a, sc + sa, s)
        _assert_matches_sympy((c + a) - a, sc, s)
        _assert_matches_sympy(c * a, sc * sa, s)
        if a:
            _assert_matches_sympy(c / a, sc / sa, s)


# -- hypothesis field axioms -------------------------------------------------


def _scalars():
    return st.composite(lambda draw: gen_scalar(lambda lo, hi: draw(st.integers(lo, hi))))()


def field_property(*strategies):
    """``given`` the strategies (passed as thunks) under fixed, repeatable
    settings; a skip when hypothesis is missing."""
    if given is None:
        return pytest.mark.skip(reason="hypothesis is not installed")
    run = settings(max_examples=60, deadline=None, derandomize=True, database=None)
    return lambda f: run(given(*(make() for make in strategies))(f))


@field_property(_scalars, _scalars, _scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert (a - a).is_zero() and a - a == ZERO
    assert (a + b) - b == a and (a * b + c) - c == a * b
    for x in (a + b, a - b, a * b, a * (b + c)):
        assert_canonical(x)


@field_property(_scalars, _scalars)
def test_division_axioms(a, b):
    if b.is_zero():
        with pytest.raises(DivisionByZero):
            a / b
        return
    assert (a / b) * b == a
    assert b * (ONE / b) == ONE
    assert (a * b) / b == a
    assert_canonical(a / b)
    assert hash((a * b) / b) == hash(a)


@field_property(_scalars, lambda: st.integers(-5, 5), lambda: st.integers(1, 4))
def test_mixed_int_and_fraction_operands(a, n, d):
    r = Fraction(n, d)
    assert r * a == a * r == QScalar.from_rational(r) * a
    assert r + a == a + r == QScalar.from_rational(r) + a
    assert r - a == -(a - r)
    if a:
        assert r / a == QScalar.from_rational(r) / a
    if n:
        assert a / r == a * QScalar.from_rational(1 / r)


# the ones a product can meet; a product by one is the other operand itself
# (a zero product is the shared zero)
_UNITS = (ONE, scalar(1), Q / Q, qpow(0), 1, Fraction(1))


@field_property(_scalars)
def test_products_by_one(x):
    for u in _UNITS:
        assert x * u is x or x.is_zero()
        for got in (x * u, u * x):
            assert type(got) is QScalar
            assert got == x and hash(got) == hash(x)
            assert_canonical(got)
    # a numerator of one over a nontrivial denominator is not a one
    w = ONE / (Q + ONE)
    assert w.num == {0: 1}
    assert x * w * (Q + ONE) == x and w * x * (Q + ONE) == x
