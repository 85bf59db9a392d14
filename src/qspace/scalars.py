"""Exact coefficient field: rational functions of q with Gaussian-rational
coefficients.

Everything downstream (matrices, normal ordering, star products, series)
computes over this field, so equality of canonical forms is the notion of
"exactly equal" used by the whole verification suite.

Internally a scalar is a reduced fraction of Laurent polynomials in
``s = q^(1/2)``; half-integer powers of q are needed for the scaling-operator
bookkeeping.  The denominator is kept monic, with nonzero constant term, and
coprime to the numerator, which makes the representation canonical.

A polynomial with integer coefficients is a plain ``{exponent: int}`` dict.
Any other polynomial is kept in content form: integer dicts over one
positive integer denominator, one dict when real and two (real and
imaginary parts) when not, so products and sums run on native ints and
divide out one gcd at the end (Knuth, TAOCP Vol. 2, 4.6.1).  The public
``num``/``den`` show each coefficient as a plain number instead: an ``int``
when integral, a ``Fraction`` when real and not integral, and a
``GaussianRational`` only when its imaginary part is nonzero.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import accumulate, compress
from operator import sub
from types import MappingProxyType

__all__ = [
    "GaussianRational",
    "QScalar",
    "QScalarError",
    "DivisionByZero",
    "PoleError",
    "ZERO",
    "ONE",
    "I",
    "Q",
    "LAM",
    "LAMP",
    "qpow",
    "scalar",
    "qnum",
    "qfact",
    "qbinom",
    "tables",
    "clear_tables",
]


class QScalarError(ArithmeticError):
    pass


class DivisionByZero(QScalarError):
    """Division of scalars by the zero scalar."""


class PoleError(QScalarError):
    """Numeric evaluation at a pole of the rational function."""


class GaussianRational:
    """a + b*i with a, b exact rationals.

    ``re`` and ``im`` are plain ints whenever they are integral and
    Fractions only otherwise; either way they compare and hash like the
    equal Fraction.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _exact(re)
        self.im = _exact(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        # int and Fraction compare a float exactly; nan and the infinities
        # equal nothing
        if isinstance(other, (int, Fraction, float)):
            return self.re == other and not self.im
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes like the equal int or Fraction
        return hash((self.re, self.im)) if self.im else hash(self.re)

    # An int or Fraction operand is a real Gaussian rational; the result is
    # always a GaussianRational.

    def __add__(self, other):
        if type(other) is GaussianRational:
            return _gr(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return _gr(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussianRational:
            return _gr(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return _gr(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gr(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self):
        return _gr(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is GaussianRational:
            a, b, c, d = self.re, self.im, other.re, other.im
            return _gr(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return _gr(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise DivisionByZero("inverse of zero Gaussian rational")
        return _gr(_rdiv(self.re, n), _rdiv(-self.im, n))

    def conj(self):
        return _gr(self.re, -self.im)

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({Fraction(self.re)!r}, {Fraction(self.im)!r})"


_new = object.__new__


def _exact(x):
    """An exact rational as an int when integral, else as a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _gr(re, im):
    """GaussianRational from exact rationals; two ints are stored as they are."""
    g = _new(GaussianRational)
    if type(re) is int and type(im) is int:
        g.re = re
        g.im = im
    else:
        g.re = _exact(re)
        g.im = _exact(im)
    return g


def _rdiv(a, n):
    """The exact quotient a/n; an int when it divides, never int / int."""
    if type(a) is int and type(n) is int:
        return a // n if not a % n else Fraction(a, n)
    return a / n


def _num(x):
    """An exact number in stored form: an int when integral, a Fraction when
    real and not integral, a GaussianRational only with nonzero imaginary
    part."""
    if type(x) is int:
        return x
    if type(x) is GaussianRational:
        return x if x.im else x.re
    return _exact(x)


def _as_coeff(c):
    """An int, Fraction or GaussianRational in stored form."""
    if isinstance(c, (int, Fraction, GaussianRational)):
        return _num(c)
    raise TypeError(f"cannot coerce {c!r} to a Gaussian rational")


def _cinv(c):
    """The inverse of a nonzero stored coefficient, in stored form."""
    if type(c) is GaussianRational:
        return c.inverse()
    if not c:
        raise DivisionByZero("inverse of zero")
    return _exact(Fraction(1, c))


def _cdiv(a, b):
    """The exact quotient a / b of stored coefficients, in stored form."""
    if type(a) is GaussianRational or type(b) is GaussianRational:
        return _num(a * _cinv(b))
    return _exact(_rdiv(a, b))


# -- Laurent polynomials in s = q^(1/2) -------------------------------------
#
# The kernels take and return a polynomial in one of two forms:
# * a plain dict {exponent: int} when every coefficient is an integer;
# * the content form (re, im, d): int dicts over one int denominator d > 0,
#   with gcd(d, every coefficient) = 1.  ``im`` is None for a real
#   polynomial (then d > 1); otherwise it has the keys of ``re`` and some
#   nonzero value, so ``im and f(im)`` keeps None as None.  A key is
#   present exactly when its coefficient (re[k] + i im[k]) / d is nonzero.
# Every form is unique, so == on the parts is equality of polynomials.  The
# stored form {exponent: int | Fraction | GaussianRational} is only read and
# shown at the public edge: the QScalar constructor, num/den, str, hash,
# eval_exact and eval_float.


def _pparts(p):
    """(re, im, d) of a polynomial in either form; im is None when real."""
    return (p, None, 1) if type(p) is dict else p


def _pkeys(p):
    return p if type(p) is dict else p[0]


def _plen(p):
    return len(p) if type(p) is dict else len(p[0])


def _preduce(re, im, d):
    """The polynomial (re + i im) / d, for int dicts with no key zero in
    both and an int d > 0, with the content's gcd divided out."""
    if im is not None and not any(im.values()):
        im = None
    if d != 1:
        g = math.gcd(d, *re.values())
        if g != 1 and im is not None:
            g = math.gcd(g, *im.values())
        if g != 1:
            d //= g
            re = {k: v // g for k, v in re.items()}
            if im is not None:
                im = {k: v // g for k, v in im.items()}
    return re if im is None and d == 1 else (re, im, d)


def _from_stored(p):
    """The polynomial with the stored coefficients of p (none zero)."""
    vals = p.values()
    for c in vals:
        if type(c) is not int:
            break
    else:
        return p
    d = 1
    gauss = False
    for c in vals:
        if type(c) is GaussianRational:
            gauss = True
            d = math.lcm(d, c.re.denominator, c.im.denominator)
        else:
            d = math.lcm(d, c.denominator)
    # d is the least common denominator, so the content is already coprime
    re = {}
    im = {} if gauss else None
    for k, c in p.items():
        if type(c) is GaussianRational:
            re[k] = c.re.numerator * (d // c.re.denominator)
            im[k] = c.im.numerator * (d // c.im.denominator)
        else:
            re[k] = c.numerator * (d // c.denominator)
            if gauss:
                im[k] = 0
    return (re, im, d)


def _to_stored(p):
    """p as {exponent: stored coefficient}, in ascending exponent order."""
    if type(p) is dict:
        return {k: p[k] for k in sorted(p)}
    re, im, d = p
    if im is None:
        return {k: _rdiv(re[k], d) for k in sorted(re)}
    return {
        k: _gr(_rdiv(re[k], d), _rdiv(im[k], d)) if im[k] else _rdiv(re[k], d)
        for k in sorted(re)
    }


def _pstrip(p):
    """p without zero coefficients, each coefficient in stored form."""
    return {k: c if type(c) is int else _num(c) for k, c in p.items() if c}


def _padd(a, b):
    if type(a) is not dict or type(b) is not dict:
        return _cadd(a, b)
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = c
            continue
        s += c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _cadd(a, b):
    """a + b when either is in content form: both brought to the least
    common denominator, added as ints, then reduced."""
    if not a:
        return b
    if not b:
        return a
    if _plen(a) < _plen(b):
        a, b = b, a
    ra, ia, da = _pparts(a)
    rb, ib, db = _pparts(b)
    fa = db // math.gcd(da, db)
    fb = da * fa // db
    if ia is None and ib is None:
        return _preduce(_padd(_pscale(ra, fa), _pscale(rb, fb)), None, da * fa)
    re = {k: v * fa for k, v in ra.items()} if fa != 1 else dict(ra)
    get = re.get
    if ia is None:
        im = dict.fromkeys(ra, 0)
    else:
        im = {k: v * fa for k, v in ia.items()} if fa != 1 else dict(ia)
    for k, u in rb.items():
        u *= fb
        v = 0 if ib is None else ib[k] * fb
        s = get(k)
        if s is None:
            re[k] = u
            im[k] = v
            continue
        s += u
        t = im[k] + v
        if s or t:
            re[k] = s
            im[k] = t
        else:
            del re[k], im[k]
    return _preduce(re, im, da * fa)


def _pneg(a):
    if type(a) is dict:
        return {k: -c for k, c in a.items()}
    re, im, d = a
    return {k: -v for k, v in re.items()}, im and {k: -v for k, v in im.items()}, d


# an int-dict product of at least this many term pairs is packed (_kron).
# On dense products such as the line's Leibniz rules make, packing breaks
# even near 256 pairs and wins about twice over from 512
_PACK_MIN = 512


def _pmul(a, b):
    if not a or not b:
        return {}
    if type(a) is not dict or type(b) is not dict:
        return _cmul(a, b)
    if len(a) == 1:
        ((ka, ca),) = a.items()
        if len(b) == 1:
            ((kb, cb),) = b.items()
            return {ka + kb: ca * cb}
        return _pscale(b, ca, ka)
    if len(b) == 1:
        ((kb, cb),) = b.items()
        return _pscale(a, cb, kb)
    if len(a) * len(b) >= _PACK_MIN:
        step, n = _kgrid(a, b)
        # packing pays from about four term pairs per slot of the product
        if len(a) * len(b) >= 4 * n:
            return _kron(a, b, step, n)
    out = {}
    get = out.get
    items = b.items()
    for ka, ca in a.items():
        for kb, cb in items:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _kgrid(a, b):
    """(step, n) for nonempty int dicts a and b: the gcd of every exponent
    gap in either factor (1 when both are monomials), and the number of
    exponents of a * b in steps of it."""
    ea, eb = min(a), min(b)
    step = math.gcd(*map(ea.__rsub__, a), *map(eb.__rsub__, b)) or 1
    return step, (max(a) - ea + max(b) - eb) // step + 1


def _kron(a, b, step, n):
    """a * b for nonempty int dicts on the grid (step, n) of _kgrid, by
    Kronecker substitution (Harvey, J. Symbolic Comput. 44 (2009)): each
    factor packed into one int, one big-int multiply, and the n slots read
    back.  A slot holds w bytes, enough for the bound max|a| max|b|
    min(len a, len b) on a product coefficient, which is stored plus half a
    slot so that no slot is negative."""
    ea, eb = min(a), min(b)
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    w = (bound.bit_length() + 8) // 8
    half = 1 << (8 * w - 1)
    zero = half.to_bytes(w, "little")

    def pack(p, lo):
        # every slot from lo up, a missing exponent as 0, plus half
        m = (max(p) - lo) // step + 1
        slots = map(half.__add__, map(p.get, range(lo, lo + m * step, step), [0] * m))
        raw = b"".join(map(int.to_bytes, slots, [w] * m, ["little"] * m))
        return int.from_bytes(raw, "little") - int.from_bytes(zero * m, "little")

    raw = pack(a, ea) * pack(b, eb) + int.from_bytes(zero * n, "little")
    raw = raw.to_bytes(n * w, "little")
    slots = map(raw.__getitem__, map(slice, range(0, n * w, w), range(w, (n + 1) * w, w)))
    coeffs = list(map(half.__rsub__, map(int.from_bytes, slots, ["little"] * n)))
    out = dict(zip(range(ea + eb, ea + eb + n * step, step), coeffs))
    return {k: c for k, c in out.items() if c} if 0 in coeffs else out


def _cmul(a, b):
    """a * b for nonzero a, b when either is in content form: the int
    product over the product of the denominators, then reduced."""
    ra, ia, da = _pparts(a)
    rb, ib, db = _pparts(b)
    if ia is None and ib is None:
        return _preduce(_pmul(ra, rb), None, da * db)
    # a product by one term keeps every key of the other factor: a Gaussian
    # product of nonzero terms is nonzero
    if len(ra) == 1:
        ra, ia, rb, ib = rb, ib, ra, ia
    if len(rb) == 1:
        ((kb, u),) = rb.items()
        v = 0 if ib is None else ib[kb]
        if ia is None:
            re = {k + kb: x * u for k, x in ra.items()}
            im = {k + kb: x * v for k, x in ra.items()}
        else:
            re = {k + kb: x * u - ia[k] * v for k, x in ra.items()}
            im = {k + kb: x * v + ia[k] * u for k, x in ra.items()}
        return _preduce(re, im, da * db)
    re, im = {}, {}
    rget, iget = re.get, im.get
    bs = [(k, u, 0 if ib is None else ib[k]) for k, u in rb.items()]
    for ka, x in ra.items():
        y = 0 if ia is None else ia[ka]
        for kb, u, v in bs:
            k = ka + kb
            re[k] = rget(k, 0) + x * u - y * v
            im[k] = iget(k, 0) + x * v + y * u
    for k in [k for k, s in re.items() if not s and not im[k]]:
        del re[k], im[k]
    return _preduce(re, im, da * db)


def _pshift(a, n):
    if type(a) is dict:
        return {k + n: c for k, c in a.items()} if n else dict(a)
    if not n:
        return a
    re, im, d = a
    return {k + n: v for k, v in re.items()}, im and {k + n: v for k, v in im.items()}, d


def _pscale(a, c, n=0):
    """c * s^n * a for an int dict a and a nonzero int c."""
    if c == 1:
        return _pshift(a, n)
    return {k + n: v * c for k, v in a.items()}


def _preflect(a, n):
    """s^n a(1/s)."""
    if type(a) is dict:
        return {n - k: v for k, v in a.items()}
    re, im, d = a
    return {n - k: v for k, v in re.items()}, im and {n - k: v for k, v in im.items()}, d


def _pconj(a):
    if type(a) is dict or a[1] is None:
        return a
    re, im, d = a
    return (re, {k: -v for k, v in im.items()}, d)


def _pmonic(p, by):
    """p divided by the leading coefficient of the nonzero polynomial by;
    p itself when that coefficient is 1."""
    re, im, m = _pparts(by)
    k = max(re)
    x, y = re[k], 0 if im is None else im[k]
    re, im, d = _pparts(p)
    if not y:
        # times m / x, the sign moved into the numerator
        if x == m:
            return p
        if x < 0:
            x, m = -x, -m
        return _preduce(
            {k: v * m for k, v in re.items()}, im and {k: v * m for k, v in im.items()}, d * x
        )
    # times m (x - iy) / (x^2 + y^2)
    terms = [(k, u, 0 if im is None else im[k]) for k, u in re.items()]
    return _preduce(
        {k: (u * x + v * y) * m for k, u, v in terms},
        {k: (v * x - u * y) * m for k, u, v in terms},
        d * (x * x + y * y),
    )


def _pdivmod(a, b):
    """Quotient and remainder of a by a monic b (nonnegative exponents)."""
    db = max(_pkeys(b))
    neg_b = _pneg(b)
    terms, r = [], a
    while r:
        dr = max(_pkeys(r))
        if dr < db:
            break
        # the leading term of the remainder, shifted down by deg b
        re, im, d = _pparts(r)
        t = _preduce({dr - db: re[dr]}, im and {dr - db: im[dr]}, d)
        terms.append(t)
        r = _padd(r, _pmul(t, neg_b))
    if len(terms) < 2:
        return (terms[0] if terms else {}), r
    # the quotient's terms have distinct exponents: they are summed once,
    # over their least common denominator
    terms = [_pparts(t) for t in terms]
    d = math.lcm(*[td for _, _, td in terms])
    re = {}
    im = {} if any(tim is not None for _, tim, _ in terms) else None
    for tre, tim, td in terms:
        f = d // td
        for k, v in tre.items():
            re[k] = v * f
            if im is not None:
                im[k] = tim[k] * f if tim else 0
    return _preduce(re, im, d), r


def _pgcd(a, b):
    """The monic gcd of two polynomials (nonnegative exponents), b nonzero."""
    while b:
        b = _pmonic(b, b)
        a, b = b, _pdivmod(a, b)[1]
    return a


def _pquo(a, g):
    """The exact quotient of a polynomial by a monic factor g."""
    return _pdivmod(a, g)[0]


def _lgcd(a, d):
    """Monic gcd of a Laurent polynomial ``a`` and a polynomial ``d`` with
    nonzero constant term, or None when it is 1.  A one-term ``d`` is a
    constant and a one-term ``a`` a constant times a power of s, so either
    way the gcd is 1 without a division."""
    if _plen(d) == 1 or _plen(a) == 1:
        return None
    g = _pgcd(_pshift(a, -min(_pkeys(a))), d)
    return None if _plen(g) == 1 else g


def _lquo(a, g):
    """The exact quotient of a Laurent polynomial by a polynomial factor
    with nonzero constant term."""
    amin = min(_pkeys(a))
    if not amin:
        return _pquo(a, g)
    return _pshift(_pquo(_pshift(a, -amin), g), amin)


# -- q-numbers on dense coefficient lists ------------------------------------
#
# [m]_{q^a} = 1 + s^d + ... + s^(d(m-1)), d = 2a, is a window sum.  The two
# passes below multiply and divide by it along a dense list t of ints, t[i]
# being the coefficient of s^(lo + g i) on a grid whose step g divides d, so
# the q-number steps c = |d|/g slots and the list interleaves c exponent
# classes.  The sign of a only moves the grid: [m]_{q^a} = q^(a(m-1))
# [m]_{q^-a}, so with a < 0 the caller adds 2a(m - 1) to lo after a product
# and subtracts it after a quotient.  A chain of passes stays on the list
# and makes its dict once, with _pgrid.


def _qnum_mul(t, c, m):
    """t [m] for m >= 1, one pass: R_i = R_(i-c) + t_i - t_(i-cm), the
    difference t (1 - s^(dm)) summed along each class.  Linear in the
    length of the product, not in len(t) times m; [1] is 1, and t itself
    is returned."""
    if m == 1:
        return t
    w = c * m
    size = len(t) + w - c
    t = t + [0] * (w - c)
    t[w:] = map(sub, t[w:], t[: size - w])
    for r in range(c):
        t[r::c] = accumulate(t[r::c])
    return t


def _qnum_quo(t, c, m):
    """The exact quotient t / [m] for m >= 1, the pass that inverts
    _qnum_mul: t (1 - s^d) = Q (1 - s^(dm)), so Q_i = t_i - t_(i-c) +
    Q_(i-cm), a sum along every class mod cm.  Q has len(t) - c(m - 1)
    slots; past them the sums run on through one window of m steps per
    class, and a nonzero one there means t is not a multiple of [m].
    [1] is 1, and t itself is returned."""
    if m == 1:
        return t
    w = c * m
    n = len(t)
    u = t + [0] * c
    u[c:] = map(sub, u[c:], t)
    for r in range(min(w, n + c)):
        u[r::w] = accumulate(u[r::w])
    top = n - w + c
    if top <= 0 or any(u[top:]):
        raise ValueError(f"not a multiple of a q-number of {m} terms")
    del u[top:]
    return u


def _pgrid(t, lo, g):
    """The int dict of the dense list t on the grid lo + g i."""
    return dict(compress(zip(range(lo, lo + len(t) * g, g), t), t))


def _pfloat(p, s0):
    """The sum of complex(c) * s0 ** k over the stored coefficients c of p,
    in ascending exponent order, so equal polynomials give equal floats."""
    return sum(complex(c) * s0 ** k for k, c in _to_stored(p).items())


_P_ONE = {0: 1}


def _hash_parts(p):
    """A stored polynomial as (exponent, re, im) triples."""
    return tuple(
        (k, c.re, c.im) if type(c) is GaussianRational else (k, c, 0) for k, c in p.items()
    )


def _canon(num, den):
    """A QScalar from parts already in canonical form (not copied)."""
    x = _new(QScalar)
    x._n = num
    x._d = den
    return x


def _constant(c):
    """The polynomial with the one stored coefficient c at exponent 0."""
    if type(c) is int:
        return {0: c} if c else {}
    return _from_stored({0: c})


def _inverse(x):
    """1 / x for a QScalar x = s^m p / d, p with nonzero constant term:
    s^-m d / p, made monic.  p and d are coprime, so the swap needs no gcd."""
    num = x._n
    if not num:
        raise DivisionByZero("division by zero scalar")
    m = min(_pkeys(num))
    p = _pshift(num, -m)
    num = _pmonic(_pshift(x._d, -m), p)
    return _canon(num, _pmonic(p, p) if _plen(p) > 1 else _P_ONE)


def _coerce(x):
    """The QScalar equal to an int or Fraction, else NotImplemented."""
    if isinstance(x, (int, Fraction)):
        return _canon(_constant(_exact(x)), _P_ONE)
    return NotImplemented


class QScalar:
    """Canonical rational function of q over the Gaussian rationals.

    The parts are never mutated after construction, so canonical parts
    (``_P_ONE`` in particular) are shared between scalars; ``num`` and
    ``den`` show them as read-only mappings.  A canonical denominator with
    one term is the constant 1, and is ``_P_ONE`` itself.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=None):
        # a polynomial is canonical over the denominator 1; a fraction is
        # the numerator times the inverse of the denominator
        x = _canon(_from_stored(_pstrip(num)), _P_ONE)
        if den is not None:
            den = _from_stored(_pstrip(den))
            if not den:
                raise DivisionByZero("zero denominator")
            x = x * _inverse(_canon(den, _P_ONE))
        self._n = x._n
        self._d = x._d

    @property
    def num(self):
        """The numerator as a read-only {exponent: coefficient} mapping,
        exponents ascending; a coefficient is an int, a non-integral
        Fraction, or a GaussianRational with nonzero imaginary part."""
        return MappingProxyType(_to_stored(self._n))

    @property
    def den(self):
        """The denominator, read-only like ``num``: a polynomial in s with
        nonzero constant term and leading coefficient 1."""
        return MappingProxyType(_to_stored(self._d))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(re, im=0):
        return _canon(_constant(_num(GaussianRational(re, im))), _P_ONE)

    @staticmethod
    def q_power(half_steps: int):
        """q**(half_steps/2); exponents are tracked in units of sqrt(q)."""
        return _canon({half_steps: 1}, _P_ONE)

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self._n

    def __bool__(self):
        return bool(self._n)

    def __eq__(self, other):
        if not isinstance(other, QScalar):
            if isinstance(other, float):
                # exact, like int == float; nan and the infinities equal nothing
                if not math.isfinite(other):
                    return False
                other = Fraction(other)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        num = _to_stored(self._n)
        if self._d is _P_ONE and (
            not num or (len(num) == 1 and 0 in num and type(num[0]) is not GaussianRational)
        ):
            # a real rational constant hashes like the equal int or Fraction
            return hash(num[0]) if num else 0
        return hash((_hash_parts(num), _hash_parts(_to_stored(self._d))))

    # -- arithmetic -------------------------------------------------------
    #
    # Canonical parts stay canonical under these steps, so no operation
    # below calls __init__: a sum over denominator 1 only drops zero terms,
    # products cancel crosswise (Henrici, J. ACM 3 (1956) 6-9) before
    # multiplying, which leaves them reduced, and a quotient is a product
    # by _inverse.

    def __add__(self, other):
        if not isinstance(other, QScalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self._n, other._n
        d1, d2 = self._d, other._d
        if d1 is _P_ONE and d2 is _P_ONE:
            return _canon(_padd(n1, n2), _P_ONE)
        if not n1:
            return other
        if not n2:
            return self
        if d1 == d2:
            g = d1
        elif d1 is _P_ONE or d2 is _P_ONE:
            g = None
        else:
            g = _lgcd(d1, d2)
        if g is None:
            # coprime denominators: the cross sum is already reduced
            return _canon(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))
        e1, e2 = _pquo(d1, g), _pquo(d2, g)
        num = _padd(_pmul(n1, e2), _pmul(n2, e1))
        if not num:
            return ZERO
        h = _lgcd(num, g)
        if h is not None:
            num = _lquo(num, h)
            d2 = _pquo(d2, h)
        den = _pmul(e1, d2)
        return _canon(num, den if _plen(den) > 1 else _P_ONE)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, QScalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _canon(_pneg(self._n), self._d)

    def __mul__(self, other):
        if not isinstance(other, QScalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self._n, other._n
        if not n1 or not n2:
            return ZERO
        d1, d2 = self._d, other._d
        # a factor of one gives the other operand itself: parts are never
        # mutated, so sharing the object is safe
        if n2 == _P_ONE and d2 is _P_ONE:
            return self
        if n1 == _P_ONE and d1 is _P_ONE:
            return other
        if d1 is _P_ONE and d2 is _P_ONE:
            return _canon(_pmul(n1, n2), _P_ONE)
        g = _lgcd(n1, d2)
        if g is not None:
            n1, d2 = _lquo(n1, g), _pquo(d2, g)
        g = _lgcd(n2, d1)
        if g is not None:
            n2, d1 = _lquo(n2, g), _pquo(d1, g)
        den = _pmul(d1, d2)
        return _canon(_pmul(n1, n2), den if _plen(den) > 1 else _P_ONE)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, QScalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self * _inverse(other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * _inverse(self)

    def __pow__(self, k):
        """Integer powers by repeated squaring; a negative power is the
        inverse of the positive one, so ``ZERO ** -1`` raises DivisionByZero."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return _inverse(self ** -k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conj(self):
        """Complex conjugation; q itself is treated as real."""
        # an automorphism of the coefficient field: parts stay canonical
        return _canon(_pconj(self._n), _pconj(self._d))

    def subs_q_inverse(self):
        """The substitution q -> 1/q, that is s -> 1/s.

        An automorphism of the field, so a reduced fraction stays reduced:
        both parts are reflected, shifted by the degree of the denominator
        so its constant term is its old leading coefficient 1, and divided
        by its new leading coefficient."""
        num, den = self._n, self._d
        if den is _P_ONE:
            if not num or _pkeys(num).keys() == {0}:
                return self  # a constant is fixed
            return _canon(_preflect(num, 0), _P_ONE)
        m = max(_pkeys(den))
        num, den = _preflect(num, m), _preflect(den, m)
        return _canon(_pmonic(num, den), _pmonic(den, den))

    # -- evaluation --------------------------------------------------------

    def eval_exact(self, q0) -> GaussianRational:
        """Evaluate at an exact rational (or Gaussian-rational) q0."""
        x = _as_coeff(q0)
        if x == 1:
            # s = 1 as well, so each part's value is its coefficient sum
            num, den = _psum(self._n), _psum(self._d)
        else:
            num, den = _to_stored(self._n), _to_stored(self._d)
            if all(k % 2 == 0 for k in num) and all(k % 2 == 0 for k in den):
                unit = 2
            else:
                x, unit = _rsqrt(x), 1
            num = _peval(num, x, unit)
            den = _peval(den, x, unit)
        if not den:
            raise PoleError("denominator vanishes at evaluation point")
        v = _cdiv(num, den)
        return v if type(v) is GaussianRational else _gr(v, 0)

    def eval_float(self, q0) -> complex:
        q0 = complex(q0)
        if q0 == 0:
            raise PoleError("q = 0 is outside the domain")
        s0 = q0 ** 0.5
        num = _pfloat(self._n, s0)
        den = _pfloat(self._d, s0)
        if abs(den) < 1e-300:
            raise PoleError("denominator vanishes at evaluation point")
        return num / den

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        num = self._n
        if not num:
            return "0"
        ns = _poly_to_str(num)
        den = self._d
        if den is _P_ONE:
            return ns
        ds = _poly_to_str(den)
        if _plen(num) > 1:
            ns = f"({ns})"
        if _plen(den) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"QScalar({self})"


def _cpow(x, n):
    """x ** n for a stored coefficient x and an int n, in stored form."""
    if n < 0:
        x, n = _cinv(x), -n
    if type(x) is not GaussianRational:
        return _exact(x ** n)
    out = 1
    while n:
        if n & 1:
            out = x * out
        n >>= 1
        if n:
            x = x * x
    return _num(out)


def _peval(p, x, unit):
    """The Laurent polynomial p at s = x^(1/unit) (``unit`` divides every
    exponent), by Horner's rule over the exponents in descending order."""
    if not p:
        return 0
    ks = sorted(p, reverse=True)
    acc = p[ks[0]]
    for prev, k in zip(ks, ks[1:]):
        acc = acc * _cpow(x, (prev - k) // unit) + p[k]
    return _num(acc * _cpow(x, ks[-1] // unit))


def _psum(p):
    """The sum of the coefficients of p, its value at s = 1, as a stored
    coefficient."""
    if type(p) is dict:
        return sum(p.values())
    re, im, d = p
    total = _rdiv(sum(re.values()), d)
    return _num(_gr(total, _rdiv(sum(im.values()), d))) if im else total


def _rsqrt(x):
    """The exact rational square root of a stored coefficient."""
    if type(x) is GaussianRational:
        raise QScalarError("exact evaluation needs sqrt of a complex rational")
    if x < 0:
        raise QScalarError("exact evaluation at negative q is not supported")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise QScalarError(
            "half-integer powers of q present and q0 has no rational square root"
        )
    return _exact(Fraction(rn, rd))


def _coeff_to_str(c, need_one=False):
    """Render a stored coefficient the expression grammar can read back."""
    if type(c) is GaussianRational:
        re, im = c.re, c.im
        if re:
            re = str(re) if re.denominator == 1 else f"({re})"
            ims = f"{abs(im)}i" if abs(im) != 1 else "i"
            if abs(im) != 1 and im.denominator != 1:
                ims = f"({abs(im)})i"
            sign = "+" if im > 0 else "-"
            return f"({re}{sign}{ims})"
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        if im.denominator != 1:
            return f"({im})i"
        return f"{im}i"
    if c == 1 and not need_one:
        return ""
    if c == -1 and not need_one:
        return "-"
    if c.denominator != 1:
        sign = "-" if c < 0 else ""
        return f"{sign}({abs(c)})"
    return str(c)


def _power_text(name, k):
    """The printed power of name for the exponent k in half-steps."""
    if k == 0:
        return ""
    if k == 2:
        return name
    if k % 2 == 0:
        return f"{name}^{k // 2}"
    return f"{name}^({k}/2)"


# exponent in half-steps -> the printed power of q, for those printed most
_Q_TEXTS = {k: _power_text("q", k) for k in range(-64, 65)}


def _poly_to_str(p):
    """A polynomial as printed, highest power of q first.  p is an int or
    stored-form dict, or in content form, which prints as its stored form."""
    if type(p) is not dict:
        p = _to_stored(p)
    if len(p) == 1:
        for k, c in p.items():
            return _term_str(k, c)
    return _join_terms([_term_str(k, p[k]) for k in sorted(p, reverse=True)])


def _term_str(k, c):
    """The stored coefficient c times q to the k half-steps, as printed."""
    mono = _Q_TEXTS.get(k)
    if mono is None:
        mono = _power_text("q", k)
    if not mono:
        return _coeff_to_str(c, need_one=True)
    if type(c) is int:
        # the common case, without _coeff_to_str's tests
        if c == 1:
            return mono
        return "-" + mono if c == -1 else f"{c}{mono}"
    cs = _coeff_to_str(c)
    return f"{cs} {mono}" if cs.endswith("i") else cs + mono


def _join_terms(terms):
    """Join rendered terms with ' + ', folding a leading '-' into ' - '."""
    parts = []
    for term in terms:
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts) or "0"


def _coeff_times(c, mono):
    """The scalar c times a nonempty rendered monomial, as printed.  A
    one-term int coefficient is printed straight from its dict: it needs
    parentheses exactly when its power of q is negative or a half."""
    num = c._n
    if c._d is _P_ONE and type(num) is dict and len(num) == 1:
        for k, v in num.items():
            if k:
                cs = _term_str(k, v)
                return f"({cs}) {mono}" if k < 0 or k % 2 else f"{cs} {mono}"
            if v == 1:
                return mono
            return f"-{mono}" if v == -1 else f"{v} {mono}"
    cs = str(c)
    if cs == "1":
        return mono
    if cs == "-1":
        return f"-{mono}"
    if _NEEDS_PARENS(cs):
        return f"({cs}) {mono}"
    return f"{cs} {mono}"


# a rendered coefficient that opens with '(' or has a sign, blank or '/'
# after its first character
_NEEDS_PARENS = re.compile(r"^\(|.[-+ /]", re.S).search


# -- sparse linear combinations -------------------------------------------------


def _add_term(terms, key, c):
    """terms[key] += c, dropping the key when the sum is zero.  Every sparse
    combination in the package accumulates through this one step."""
    s = terms.get(key)
    s = c if s is None else s + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def _apply_rows(pairs, row_of):
    """The linear map given key by key by row_of, applied to the (key,
    coefficient) pairs: each pair (e, c) adds c times every (key,
    coefficient) row of row_of(e).  Returns a new dict; pairs is read once.
    The element products but QMatrix's, the star product, the image tables,
    the word transports, act's counit step and the evolution sums multiply
    and accumulate through this one loop."""
    out = {}
    for e, c in pairs:
        for k, cc in row_of(e):
            _add_term(out, k, c * cc)
    return out


def _term_pairs(a, b):
    """((ka, kb), ca * cb) for every pair of terms of the term dicts a and
    b: the pairs a bilinear product applies its rows to."""
    for ka, ca in a.items():
        for kb, cb in b.items():
            yield (ka, kb), ca * cb


# the numbers a combination is scaled by
_NUMBER = (QScalar, int, Fraction)


def _as_scalar(c):
    """c, or the QScalar equal to it if it is an int or Fraction: the one
    conversion of a plain number a combination is made or scaled with."""
    return scalar(c) if isinstance(c, (int, Fraction)) else c


# sets an attribute of an element under construction, past its guard
_set = object.__setattr__


def _pfinger(p):
    """A hashable stand-in for the canonical polynomial p: its items, in
    content form with the imaginary part and the common denominator."""
    if type(p) is dict:
        return frozenset(p.items())
    re, im, d = p
    return d, frozenset(re.items()), im and frozenset(im.items())


def _fingerprint(c):
    """A hashable stand-in for the coefficient c, equal for equal
    coefficients: its numerator's, and unless it is 1 its denominator's,
    _pfinger.  An int or Fraction is read as the QScalar equal to it.
    QScalar's own hash converts to the stored form, which costs more."""
    if type(c) is not QScalar:
        c = _as_scalar(c)
    num = _pfinger(c._n)
    den = c._d
    return num if den is _P_ONE else (num, _pfinger(den))


class _LinComb:
    """Finite linear combination of basis keys with QScalar coefficients.

    ``terms`` is a read-only mapping of each key to its nonzero
    coefficient, over a dict copied from the one the element was made from,
    and no attribute can be set or deleted after construction; so an
    element, once made, can be shared by every caller and table.  A
    subclass adds the frame its keys are read against (a variable tuple, a
    space, or nothing), set in its constructor through ``_set``:
    ``_frame()`` returns it as the leading constructor arguments, and
    ``_mismatch`` names the exception type and message raised when two frames
    differ.  An operand that is neither a combination of the same class nor
    a number gets NotImplemented, so Python raises TypeError.  Subclasses
    also supply the product, which scales by a number and returns
    NotImplemented as well, and, for printing, ``_print_order`` and
    ``_mono_str`` (the basis key as text, empty for the unit); one whose
    terms print otherwise than ``_term_str`` overrides it.

    An element keeps its hash and its text once worked out, each written
    once through ``_set``: both are pure functions of the class, the frame
    and the terms, so a stored element answers them again at no cost.
    """

    __slots__ = ("terms", "_hash", "_text")
    _mismatch = (ValueError, "frames differ")

    def __init__(self, terms=None):
        _set(self, "terms", MappingProxyType(
            {tuple(k): c for k, c in terms.items() if c} if terms else {}))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _frame(self):
        return ()

    def _like(self, terms=None):
        return type(self)(*self._frame(), terms)

    def _same_kind(self, other):
        """Whether other is a combination of this class; raises the frame
        mismatch when it is one on another frame."""
        if not isinstance(other, type(self)):
            return False
        if self._frame() != other._frame():
            err, text = self._mismatch
            raise err(text)
        return True

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._frame() == other._frame() and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # each key with its coefficient's fingerprint, so that the multiples
        # of one monomial hash apart
        h = hash((type(self), self._frame(), frozenset(
            (k, _fingerprint(c)) for k, c in self.terms.items())))
        _set(self, "_hash", h)
        return h

    def __add__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        out = self.terms.copy()
        for k, c in other.terms.items():
            _add_term(out, k, c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other) if isinstance(other, type(self)) else NotImplemented

    def __rmul__(self, c):
        # a number times a combination
        return self.scale(c) if isinstance(c, _NUMBER) else NotImplemented

    def scale(self, c):
        c = _as_scalar(c)
        if not c:
            return self._like()
        return self._like({k: v * c for k, v in self.terms.items()})

    def eval_coeffs_exact(self, q0):
        """Coefficients evaluated at exact rational q0, keyed like terms."""
        out = {}
        for k, c in self.terms.items():
            v = c.eval_exact(q0)
            if v:
                out[k] = v
        return out

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            pass
        terms = self.terms
        if len(terms) == 1:
            [(k, c)] = terms.items()
            text = self._term_str(k, c)
        else:
            keys = sorted(terms, key=self._print_order)
            text = _join_terms([self._term_str(k, terms[k]) for k in keys])
        _set(self, "_text", text)
        return text

    def _term_str(self, k, c):
        mono = self._mono_str(k)
        return _coeff_times(c, mono) if mono else str(c)

    def numeric_str(self, q0):
        """The printed form with every coefficient evaluated at q = q0."""
        parts = []
        for k in sorted(self.terms, key=self._print_order):
            cs = f"({self.terms[k].eval_float(q0):.12g})"
            mono = self._mono_str(k)
            parts.append(f"{cs} {mono}" if mono else cs)
        return _join_terms(parts)


ZERO = QScalar.from_rational(0)
ONE = QScalar.from_rational(1)
I = QScalar.from_rational(0, 1)
Q = QScalar.q_power(2)
QINV = QScalar.q_power(-2)
LAM = Q - QINV          # q - 1/q
LAMP = Q + QINV         # q + 1/q


def qpow(n: int) -> QScalar:
    """Integer power q**n."""
    return QScalar.q_power(2 * n)


def scalar(re, im=0) -> QScalar:
    return QScalar.from_rational(re, im)


def qnum(n: int, a: int = 1) -> QScalar:
    """Antisymmetric q-number: the explicit sum 1 + q^a + ... + q^(a(n-1)).

    Stored as the finite sum (never the quotient form), so specializing
    q -> 1 is an ordinary evaluation with value n.
    """
    if n < 0:
        raise ValueError("q-numbers are defined for n >= 0")
    if a == 0:
        raise ValueError("q-number base exponent must be nonzero")
    return _canon({2 * a * k: 1 for k in range(n)}, _P_ONE)


def qfact(n: int, a: int = 1) -> QScalar:
    """q-factorial [[n]]_{q^a}! = [[1]]_{q^a} [[2]]_{q^a} ... [[n]]_{q^a}."""
    if n < 0:
        raise ValueError("q-factorials are defined for n >= 0")
    out = ONE
    for j in range(1, n + 1):
        out = out * qnum(j, a)
    return out


# every cache of the package, from the rule sets and the rewrite engine's
# memos to the q-binomials, by its dotted module.role name: each is emptied
# whole when it reaches _MEMO_LIMIT entries, and all of them when
# rewrite_strategy is entered or left.  A rule set's memos are its own
# dicts, stored into through _remember and dropped with it
_MEMOS = {}
_MEMO_LIMIT = 20_000


def _memo(name):
    """A new memo table, registered under name so that clear_tables empties it."""
    if name in _MEMOS:
        raise ValueError(f"memo table {name!r} is already registered")
    table = _MEMOS[name] = {}
    return table


def _remember(table, key, value):
    """Store value in a memo table under key, emptying the table first when
    it is full; returns value."""
    if len(table) >= _MEMO_LIMIT:
        table.clear()
    table[key] = value
    return value


def _memoized(table):
    """Decorator: the value of a pure function, read from the memo table
    under its argument tuple and, on a miss, built, stored through
    _remember and returned as built (the store may have emptied the table).
    Arguments are positional only, so one value has one key.  The lookup
    keeps build's name and docstring, not its module."""
    def wrap(build):
        def lookup(*key):
            value = table.get(key)
            if value is None:
                value = _remember(table, key, build(*key))
            return value
        name = getattr(build, "__qualname__", None)  # None for a partial
        if name is not None:
            lookup.__name__, lookup.__qualname__ = build.__name__, name
            lookup.__doc__ = build.__doc__
        return lookup
    return wrap


def tables():
    """{name: read-only view of the live table} of every registered cache
    of the layers imported so far, sorted by name."""
    return {name: MappingProxyType(_MEMOS[name]) for name in sorted(_MEMOS)}


def clear_tables():
    """Empty every registered cache."""
    # a snapshot: a layer imported by another thread may register a table
    for table in list(_MEMOS.values()):
        table.clear()


_QBINOM = _memo("scalars.qbinom")  # (n, k, a) -> [[n over k]]_{q^a}, k <= n - k


def qbinom(n: int, k: int, a: int = 1) -> QScalar:
    """Gaussian binomial [[n over k]]_{q^a}, a Laurent polynomial in q.

    Built over integer coefficients by the recurrence along k
    C(n, j) = C(n, j-1) [[n-j+1]]_{q^a} / [[j]]_{q^a} (Kac-Cheung, Quantum
    Calculus, 2002), each step one _qnum_mul and one _qnum_quo pass, and
    only up to j = min(k, n-k).  Every (n, j, a) on the way is cached, and
    the walk steps on from a cached one instead of rebuilding it.
    Equals qfact(n, a) / (qfact(k, a) qfact(n - k, a)); zero outside 0 <= k <= n.
    """
    if n < 0:
        raise ValueError("q-binomials are defined for n >= 0")
    if a == 0:
        raise ValueError("q-binomial base exponent must be nonzero")
    if k < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    if not k:
        return ONE
    got = _QBINOM.get((n, k, a))
    if got is not None:
        return got
    got, t = ONE, [1]
    for j in range(1, k + 1):
        cached = _QBINOM.get((n, j, a))
        if cached is not None:
            got, t = cached, None
            continue
        if t is None:
            # every coefficient of a Gaussian binomial is positive, so its
            # terms in exponent order are the whole dense list
            t = [c for _, c in sorted(got._n.items())]
        t = _qnum_quo(_qnum_mul(t, 1, n - j + 1), 1, j)
        # C(n, j) spans q^(a j (n - j)) and 1; its lowest exponent is the
        # smaller of the two.  The value built is returned, whatever the
        # memo keeps
        p = _pgrid(t, 2 * min(a, 0) * j * (n - j), 2 * abs(a))
        got = _remember(_QBINOM, (n, j, a), _canon(p, _P_ONE))
    return got
