"""The scalar field against independent oracles.

Random rational functions of s = q^(1/2) with Gaussian-rational
coefficients are compared with sympy's ``cancel`` (canonical numerator and
denominator after + - * /), and hypothesis checks the field axioms on the
same generator, the content-form core against the stored-coefficient core
restated below, and that equal scalars and polynomials built in different
orders evaluate to the same floats.  Both are test-only dependencies; each
test is skipped when its oracle is missing.
"""

import math
import random
import struct
from fractions import Fraction
from math import isqrt

import pytest

from qspace.cfunc import CFunction, LatticeFunction
from qspace.scalars import (
    ONE,
    ZERO,
    DivisionByZero,
    GaussianRational,
    I,
    PoleError,
    Q,
    QScalar,
    _poly_to_str,
    qbinom,
    qnum,
    qpow,
    scalar,
)

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


def _at_one_cases():
    """Seeded scalars for evaluation at q = 1: the random ones (Fraction and
    Gaussian coefficients, odd s-exponents, content-form parts), integer
    ones kept as plain dicts, and quotients whose parts vanish at s = 1."""
    xs = _random_scalars(14, 60)
    xs += [qnum(5, 2) / (Q + 3), qbinom(6, 3, -1) * qpow(-3) - scalar(7), (Q - ONE) / (Q + 2)]
    xs += [(qpow(1) + I) / (qpow(3) + scalar(Fraction(2, 3))), QScalar({1: 2, -3: Fraction(1, 3)})]
    xs += [QScalar({1: GaussianRational(Fraction(1, 2), 3), 0: -1}, {0: 2, 3: GaussianRational(0, 1)})]
    xs += [ONE / (ONE - Q), ONE / (qpow(2) - ONE), (Q + I) / (qpow(-1) - ONE)]
    return xs


@needs_sympy
def test_evaluation_at_one_matches_sympy():
    # eval_exact(1) sums each part's coefficients; the oracle substitutes
    # s = 1 into sympy's form of the same parts
    s = sympy.Symbol("s")
    poles = 0
    for x in _at_one_cases():
        num, den = (sympy.sympify(_sym_poly(p, s)).subs(s, 1) for p in (x.num, x.den))
        if den == 0:
            poles += 1
            with pytest.raises(PoleError):
                x.eval_exact(1)
            continue
        value = sympy.nsimplify(num / den)
        re, im = (Fraction(int(sympy.numer(v)), int(sympy.denom(v)))
                  for v in (sympy.re(value), sympy.im(value)))
        got = x.eval_exact(1)
        assert type(got) is GaussianRational and got == GaussianRational(re, im), (x, value)
        # parts are ints when integral, as every evaluation gives them
        assert type(got.re) is (int if re.denominator == 1 else Fraction), x
        assert type(got.im) is (int if im.denominator == 1 else Fraction), x
        assert x.eval_exact(Fraction(1)) == x.eval_exact(GaussianRational(1)) == got
    assert poles >= 3


# -- hypothesis field axioms -------------------------------------------------


def _scalars():
    return st.composite(lambda draw: gen_scalar(lambda lo, hi: draw(st.integers(lo, hi))))()


def field_property(*strategies, examples=60):
    """``given`` the strategies (passed as thunks) under fixed, repeatable
    settings; a skip when hypothesis is missing."""
    if given is None:
        return pytest.mark.skip(reason="hypothesis is not installed")
    run = settings(max_examples=examples, deadline=None, derandomize=True, database=None)
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


# -- the stored-coefficient core, restated ------------------------------------
#
# Before the content form every polynomial was one dict of stored
# coefficients: an int, a non-integral Fraction, or a GaussianRational with
# nonzero imaginary part.  Its kernels, the division and gcd kernels among
# them, and QScalar arithmetic are restated below.  The content form must
# give the same parts, and the same str, hash, eval_exact and, bit for bit,
# eval_float, which sums in ascending exponent order.


def _st(x):
    """An exact number in stored form."""
    if type(x) is GaussianRational:
        if x.im:
            return x
        x = x.re
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _box(c):
    return c if type(c) is GaussianRational else GaussianRational(c)


def _st_div(a, b):
    return _st(_box(a) * _box(b).inverse())


def _st_shift(p, n):
    return {k + n: c for k, c in p.items()}


def _st_padd(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = c
            continue
        s = _st(s + c)
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _st_pmul(a, b):
    if not a or not b:
        return {}
    if len(a) == 1:
        ((ka, ca),) = a.items()
        return {k + ka: _st(v * ca) for k, v in b.items()}
    if len(b) == 1:
        ((kb, cb),) = b.items()
        return {k + kb: _st(v * cb) for k, v in a.items()}
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return {k: _st(c) for k, c in out.items() if c}


def _st_pdivmod(a, b):
    """Division with remainder (nonnegative exponents) over the Gaussian
    field; the quotient's keys come in descending order."""
    r = dict(a)
    db = max(b)
    lb = b[db]
    quo = {}
    while r and max(r) >= db:
        dr = max(r)
        c = r[dr] if lb == 1 else _st_div(r[dr], lb)
        quo[dr - db] = c
        for k, v in b.items():
            kk = k + dr - db
            s = _st(r.get(kk, 0) - v * c)
            if s:
                r[kk] = s
            else:
                r.pop(kk, None)
    return quo, r


def _st_pgcd(a, b):
    a, b = dict(a), dict(b)
    while b:
        a, b = b, _st_pdivmod(a, b)[1]
        lead = a[max(a)]
        if lead != 1:
            a = {k: _st_div(c, lead) for k, c in a.items()}
    return a


def _st_lgcd(a, d):
    if len(d) == 1 or len(a) == 1:
        return None
    g = _st_pgcd(_st_shift(a, -min(a)), d)
    return None if len(g) == 1 else g


def _st_lquo(a, g):
    amin = min(a)
    return _st_shift(_st_pdivmod(_st_shift(a, -amin), g)[0], amin)


def _st_quo(a, g):
    return _st_pdivmod(a, g)[0]


def _st_monic(num, den):
    lead = den[max(den)]
    if lead != 1:
        den = {k: _st_div(c, lead) for k, c in den.items()}
        num = {k: _st_div(c, lead) for k, c in num.items()}
    return num, den if len(den) > 1 else {0: 1}


def st_new(num, den):
    num = {k: _st(c) for k, c in num.items() if c}
    den = {k: _st(c) for k, c in den.items() if c}
    if not num:
        return {}, {0: 1}
    dmin = min(den)
    den, num = _st_shift(den, -dmin), _st_shift(num, -dmin)
    if len(den) > 1:
        g = _st_lgcd(num, den)
        if g is not None:
            num, den = _st_lquo(num, g), _st_quo(den, g)
    return _st_monic(num, den)


def st_add(x, y):
    (n1, d1), (n2, d2) = x, y
    if len(d1) == 1 and len(d2) == 1:
        return _st_padd(n1, n2), d1
    if not n1:
        return y
    if not n2:
        return x
    g = d1 if d1 == d2 else None if len(d1) == 1 or len(d2) == 1 else _st_lgcd(d1, d2)
    if g is None:
        return _st_padd(_st_pmul(n1, d2), _st_pmul(n2, d1)), _st_pmul(d1, d2)
    e1, e2 = _st_quo(d1, g), _st_quo(d2, g)
    num = _st_padd(_st_pmul(n1, e2), _st_pmul(n2, e1))
    if not num:
        return {}, {0: 1}
    h = _st_lgcd(num, g)
    if h is not None:
        num, d2 = _st_lquo(num, h), _st_quo(d2, h)
    den = _st_pmul(e1, d2)
    return num, den if len(den) > 1 else {0: 1}


def st_neg(x):
    return {k: -c for k, c in x[0].items()}, x[1]


def st_mul(x, y):
    (n1, d1), (n2, d2) = x, y
    if not n1 or not n2:
        return {}, {0: 1}
    g = _st_lgcd(n1, d2)
    if g is not None:
        n1, d2 = _st_lquo(n1, g), _st_quo(d2, g)
    g = _st_lgcd(n2, d1)
    if g is not None:
        n2, d1 = _st_lquo(n2, g), _st_quo(d1, g)
    den = _st_pmul(d1, d2)
    return _st_pmul(n1, n2), den if len(den) > 1 else {0: 1}


def st_div(x, y):
    (n1, d1), (n2, d2) = x, y
    if not n1:
        return {}, {0: 1}
    m = min(n2)
    p2 = _st_shift(n2, -m)
    g = _st_lgcd(n1, p2)
    if g is not None:
        n1, p2 = _st_lquo(n1, g), _st_quo(p2, g)
    g = _st_lgcd(d2, d1)
    if g is not None:
        d2, d1 = _st_quo(d2, g), _st_quo(d1, g)
    return _st_monic(_st_shift(_st_pmul(n1, d2), -m), _st_pmul(d1, p2))


def st_conj(x):
    return tuple({k: c.conj() if type(c) is GaussianRational else c for k, c in p.items()}
                 for p in x)


def st_hash(x):
    num, den = x
    if len(den) == 1 and (
        not num or (len(num) == 1 and 0 in num and type(num[0]) is not GaussianRational)
    ):
        return hash(num[0]) if num else 0
    parts = [tuple(sorted((k, c.re, c.im) if type(c) is GaussianRational else (k, c, 0)
                          for k, c in p.items())) for p in x]
    return hash(tuple(parts))


def st_str(x):
    num, den = x
    if not num:
        return "0"
    ns = _poly_to_str(num)
    if den == {0: 1}:
        return ns
    ds = _poly_to_str(den)
    if len(num) > 1:
        ns = f"({ns})"
    if len(den) > 1:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def st_eval_float(x, q0):
    s0 = complex(q0) ** 0.5
    num, den = (sum(complex(p[k]) * s0 ** k for k in sorted(p)) for p in x)
    return num / den


def st_eval_exact(x, q0):
    """The value at a rational q0 that is a perfect square."""
    q0 = Fraction(q0)
    s0 = Fraction(isqrt(q0.numerator), isqrt(q0.denominator))
    num, den = (sum((_box(c) * s0 ** k for k, c in p.items()), GaussianRational(0)) for p in x)
    return num * den.inverse()


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def assert_same_as_stored(x, st):
    """x is the restated core's (num, den), part for part and key for key."""
    num, den = st
    for got, want in ((x.num, num), (x.den, den)):
        assert list(got.items()) == sorted(want.items()), (x, st)
        for k, c in got.items():
            w = want[k]
            assert type(c) is type(w)
            if type(c) is GaussianRational:
                assert (type(c.re), type(c.im)) == (type(w.re), type(w.im))
    assert str(x) == st_str(st)
    assert hash(x) == st_hash(st)
    # == compares the parts as the kernels keep them, so a scalar built
    # another way from the same canonical parts must compare equal
    assert x == QScalar(num, den)
    for q0 in (Fraction(9, 4),):
        try:
            want = st_eval_exact(st, q0)
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                x.eval_exact(q0)
            continue
        got = x.eval_exact(q0)
        assert got == want and (type(got.re), type(got.im)) == (type(want.re), type(want.im))
    for q0 in (0.7, -0.45 + 0.2j):
        assert _bits(x.eval_float(q0)) == _bits(st_eval_float(st, q0)), (x, q0)


# Coefficient denominators share factors, so sums and products meet common
# factors of their contents and denominators.
_DENOMS = (1, 1, 1, 2, 3, 4, 6, 12)


def gen_stored(draw_int):
    """A random (num, den) of stored-coefficient dicts, not yet canonical:
    Laurent exponents, rational and Gaussian coefficients over the
    denominators above, and a common factor about half the time."""

    def coeff():
        re = Fraction(draw_int(-9, 9), _DENOMS[draw_int(0, 7)])
        im = Fraction(draw_int(-4, 4), _DENOMS[draw_int(0, 7)]) if not draw_int(0, 2) else 0
        return _st(GaussianRational(re, im))

    def poly(lo, hi, most):
        p = {draw_int(lo, hi): coeff() for _ in range(draw_int(1, most))}
        return {k: c for k, c in p.items() if c} or {lo: 1}

    num = poly(-5, 5, 5)
    if draw_int(0, 2):
        den = {0: _st(Fraction(draw_int(1, 12), _DENOMS[draw_int(0, 7)]))}
    else:
        den = poly(-2, 3, 3)
    if draw_int(0, 1):
        common = poly(0, 2, 2)
        num, den = _st_pmul(num, common), _st_pmul(den, common)
    return num, den


def _pair_of(num, den):
    return QScalar(num, den), st_new(num, den)


def _stored_cases():
    return st.composite(lambda draw: gen_stored(lambda lo, hi: draw(st.integers(lo, hi))))()


@field_property(_stored_cases, _stored_cases, _stored_cases, examples=25)
def test_content_form_matches_the_stored_core(a, b, c):
    (x, sx), (y, sy), (z, sz) = _pair_of(*a), _pair_of(*b), _pair_of(*c)
    for got, want in ((x, sx), (y, sy), (-x, st_neg(sx)), (x.conj(), st_conj(sx)),
                      (x + y, st_add(sx, sy)), (x - y, st_add(sx, st_neg(sy))),
                      (x * y, st_mul(sx, sy)), (x * y + z, st_add(st_mul(sx, sy), sz)),
                      ((x + y) * z, st_mul(st_add(sx, sy), sz))):
        assert_same_as_stored(got, want)
    if y:
        assert_same_as_stored(x / y, st_div(sx, sy))
        assert_same_as_stored(z * (x / y) + x, st_add(st_mul(sz, st_div(sx, sy)), sx))


@field_property(_stored_cases, _stored_cases, lambda: st.integers(-12, 12), examples=25)
def test_content_form_sums_that_cancel(a, b, n):
    # x + y - y back to x, then to zero, to the integer n and to a real
    # value: the imaginary parts and the denominators cancel on the way
    (x, sx), (y, sy) = _pair_of(*a), _pair_of(*b)
    ny = st_neg(sy)
    assert_same_as_stored((x + y) + -y, st_add(st_add(sx, sy), ny))
    assert_same_as_stored(x + -x, st_add(sx, st_neg(sx)))
    sn = st_new({0: n}, {0: 1})
    assert_same_as_stored((y + n) + -y, st_add(st_add(sy, sn), ny))
    real_part = {k: _st(_box(c).re) for k, c in a[0].items()}
    real, sreal = QScalar(real_part), st_new(real_part, {0: 1})
    assert_same_as_stored((real + y) + -y, st_add(st_add(sreal, sy), ny))
    # the evolution check's products: a polynomial times a Gaussian constant
    for k in (2, 5):
        re, im = Fraction(1, math.factorial(k)), Fraction(n, 2 ** k)
        g, sg = scalar(re, im), st_new({0: _st(GaussianRational(re, im))}, {0: 1})
        assert_same_as_stored(x * g, st_mul(sx, sg))
        assert_same_as_stored(x * g + y * g, st_add(st_mul(sx, sg), st_mul(sy, sg)))


# -- numeric evaluation depends on the value alone ---------------------------
#
# Equal values built in different orders (keys given in another order,
# operands swapped, terms summed in another order) show the same parts in
# the same order and evaluate to the same float bits.

_Q0S = (1.7, 0.3 + 0.9j)


def _reordered_cases():
    """A stored (num, den) as drawn, and again with the keys of each part in
    a drawn order."""

    def case(draw):
        parts = gen_stored(lambda lo, hi: draw(st.integers(lo, hi)))
        return parts, tuple(dict(draw(st.permutations(list(p.items())))) for p in parts)

    return st.composite(case)()


def assert_same_views(x, y):
    assert x == y
    assert list(x.num.items()) == list(y.num.items()), (x, y)
    assert list(x.den.items()) == list(y.den.items()), (x, y)
    assert str(x) == str(y) and hash(x) == hash(y)
    for q0 in _Q0S:
        assert _bits(x.eval_float(q0)) == _bits(y.eval_float(q0)), (x, q0)


@field_property(_reordered_cases, _reordered_cases, examples=40)
def test_equal_scalars_evaluate_identically(a, b):
    (x, x2), (y, y2) = (tuple(QScalar(*parts) for parts in case) for case in (a, b))
    assert list(x.num) == sorted(x.num) and list(x.den) == sorted(x.den)
    assert_same_views(x, x2)
    assert_same_views(x + y, y2 + x2)
    assert_same_views(x * y, y2 * x2)
    assert_same_views(x * y + x, x2 + y2 * x2)


def _reordered_terms():
    """Drawn (e0, e1, scalar) terms, and the same terms in a drawn order."""

    def case(draw):
        terms = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), _scalars()),
                              min_size=1, max_size=6))
        return terms, draw(st.permutations(terms))

    return st.composite(case)()


def _summed(variables, terms):
    """The sum of the monomials, added one at a time in the order given."""
    out = CFunction.zero(variables)
    for e0, e1, c in terms:
        out = out + CFunction.monomial(variables, (e0, e1)[: len(variables)], c)
    return out


@field_property(_reordered_terms, examples=40)
def test_equal_cfunctions_evaluate_identically(case):
    terms, reordered = case
    point = {"x0": 0.37 + 0.2j, "x1": -1.3, "x": 0.8 - 0.5j}
    for variables in (("x0", "x1"), ("x",)):
        f, g = _summed(variables, terms), _summed(variables, reordered)
        assert f == g
        for q0 in _Q0S:
            assert _bits(f.eval_float(q0, point)) == _bits(g.eval_float(q0, point)), (f, q0)
    # f and g are now the one-variable sums: sample them on a lattice
    q0 = 1.3
    got = LatticeFunction.from_callable(lambda x: f.eval_float(q0, {"x": x}), q0, 3).samples
    want = LatticeFunction.from_callable(lambda x: g.eval_float(q0, {"x": x}), q0, 3).samples
    assert [_bits(v) for v in got.values()] == [_bits(v) for v in want.values()], f
    # each sample is eval_float at its lattice point
    for (sign, k), v in got.items():
        assert _bits(v) == _bits(f.eval_float(q0, {"x": sign * q0 ** k})), (f, sign, k)
