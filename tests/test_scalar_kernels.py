"""The unboxed Laurent-polynomial kernels against the boxed ones they replace.

Coefficients of ``QScalar.num``/``QScalar.den`` are shown as an ``int``, a
non-integral ``Fraction``, or a ``GaussianRational`` with nonzero imaginary
part; ``_padd``/``_pmul`` and the division and gcd kernels take and return
the kernels' own form, so they are called here through
``_from_stored``/``_to_stored``.  The kernels below are
restated from the earlier scalar core, where every coefficient was a
``GaussianRational``; both sides run on the same seeded random polynomials
and are compared after boxing every coefficient.
"""

import math
import random
import time
from fractions import Fraction

from qspace.scalars import (
    I,
    ONE,
    Q,
    GaussianRational,
    QScalar,
    _P_ONE,
    _from_stored,
    _padd,
    _pdivmod,
    _pgcd,
    _pmonic,
    _pmul,
    _to_stored,
    qbinom,
    qnum,
    scalar,
)

# -- the boxed kernels, restated ----------------------------------------------

_GR_ZERO = GaussianRational(0)
_GR_ONE = GaussianRational(1)


def boxed_padd(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def boxed_pmul(a, b):
    if not a or not b:
        return {}
    if len(a) == 1:
        ((ka, ca),) = a.items()
        if len(b) == 1:
            ((kb, cb),) = b.items()
            return {ka + kb: ca * cb}
        return {ka + k: ca * c for k, c in b.items()}
    if len(b) == 1:
        ((kb, cb),) = b.items()
        return {k + kb: c * cb for k, c in a.items()}
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = out.get(k)
            v = ca * cb
            s = v if s is None else s + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def boxed_pscale(a, c):
    return {k: v * c for k, v in a.items()} if c else {}


def boxed_pdeg(a):
    return max(a) if a else None


def boxed_pdivmod(a, b):
    r = dict(a)
    db = boxed_pdeg(b)
    lb = b[db]
    lb = None if lb == 1 else lb.inverse()
    quo = {}
    while r and boxed_pdeg(r) >= db:
        dr = boxed_pdeg(r)
        c = r[dr] if lb is None else r[dr] * lb
        quo[dr - db] = c
        for k, v in b.items():
            kk = k + dr - db
            s = r.get(kk, _GR_ZERO) - v * c
            if s:
                r[kk] = s
            else:
                r.pop(kk, None)
    return quo, r


def boxed_pgcd(a, b):
    a, b = dict(a), dict(b)
    while b:
        _, r = boxed_pdivmod(a, b)
        a, b = b, r
        if a:
            lead = a[boxed_pdeg(a)].inverse()
            a = boxed_pscale(a, lead)
    return a if a else {0: _GR_ONE}


def boxed_gr_pow(c, k):
    if k == 0:
        return _GR_ONE
    base = c if k > 0 else c.inverse()
    out = _GR_ONE
    for _ in range(abs(k)):
        out = out * base
    return out


def boxed_eval_exact(num, den, q0):
    """The earlier QScalar.eval_exact on boxed parts, at a rational q0 that
    is a perfect square whenever an exponent is odd."""
    if all(k % 2 == 0 for k in num) and all(k % 2 == 0 for k in den):
        num = {k // 2: c for k, c in num.items()}
        den = {k // 2: c for k, c in den.items()}
        s0 = q0 if isinstance(q0, GaussianRational) else GaussianRational(q0)
    else:
        q0 = Fraction(q0)
        s0 = GaussianRational(Fraction(math.isqrt(q0.numerator), math.isqrt(q0.denominator)))
    n = _GR_ZERO
    for k, c in num.items():
        n = n + c * boxed_gr_pow(s0, k)
    d = _GR_ZERO
    for k, c in den.items():
        d = d + c * boxed_gr_pow(s0, k)
    return n * d.inverse()


# -- the two forms ---------------------------------------------------------------


def stored(re, im=0):
    """An exact number in the stored form the new kernels take."""
    re, im = Fraction(re), Fraction(im)
    if im:
        return GaussianRational(re, im)
    return re.numerator if re.denominator == 1 else re


def box(p):
    return {k: c if isinstance(c, GaussianRational) else GaussianRational(c) for k, c in p.items()}


def assert_stored(p):
    for c in p.values():
        assert c
        if type(c) is GaussianRational:
            assert c.im
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def random_poly(rng, lo, hi, kind):
    """A random Laurent polynomial; ``kind`` picks integer, rational or
    Gaussian-rational coefficients (the last two still mostly integers)."""
    def coeff():
        re = rng.randint(-9, 9)
        if kind != "int" and not rng.randint(0, 2):
            re = Fraction(re, rng.randint(1, 5))
        im = 0
        if kind == "gauss" and rng.randint(0, 1):
            im = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        return stored(re, im)

    p = {}
    while not p:
        p = {rng.randint(lo, hi): coeff() for _ in range(rng.randint(1, 7))}
        p = {k: c for k, c in p.items() if c}
    return p


def _pairs(seed, count, lo, hi):
    rng = random.Random(seed)
    kinds = ("int", "int", "frac", "gauss")
    for _ in range(count):
        yield random_poly(rng, lo, hi, rng.choice(kinds)), random_poly(rng, lo, hi, rng.choice(kinds))


# Products and sums whose imaginary parts or denominators cancel.
_CANCELLING = [
    ({0: 1, 1: stored(0, 1)}, {0: 1, 1: stored(0, -1)}),
    ({0: Fraction(1, 2), 2: Fraction(3, 2)}, {0: 2, 1: Fraction(2, 3)}),
    ({0: stored(1, 1), 3: stored(0, 1)}, {0: stored(1, -1), 3: stored(0, -1)}),
    ({1: Fraction(1, 3)}, {-1: 3}),
    ({0: stored(0, 2)}, {0: stored(0, Fraction(1, 2))}),
]


def stored_kernel(kernel):
    """A kernel on stored-coefficient dicts."""
    return lambda a, b: _to_stored(kernel(_from_stored(a), _from_stored(b)))


def test_padd_and_pmul_match_the_boxed_kernels():
    padd, pmul = stored_kernel(_padd), stored_kernel(_pmul)
    cases = list(_pairs(21, 400, -5, 5)) + _CANCELLING
    cases += [(b, {k: -c for k, c in a.items()}) for a, b in _CANCELLING]
    for a, b in cases:
        for got, want in ((padd(a, b), boxed_padd(box(a), box(b))),
                          (pmul(a, b), boxed_pmul(box(a), box(b)))):
            assert_stored(got)
            assert box(got) == want, (a, b, got, want)
    # the cancelling products end up real, and integral where they can
    assert pmul(*_CANCELLING[0]) == {0: 1, 2: 1}
    assert all(type(c) is int for c in pmul(*_CANCELLING[0]).values())
    assert pmul(*_CANCELLING[3]) == {0: 1} and type(pmul(*_CANCELLING[3])[0]) is int


def boxed_pmonic(p, by):
    return boxed_pscale(p, by[boxed_pdeg(by)].inverse())


def unbox(p):
    return {k: stored(c.re, c.im) for k, c in p.items()}


# Divisions that reach the corners of the kernels: Gaussian, negative and
# fractional leads, one-term divisors, a divisor equal to the dividend, and
# remainders that cancel to a constant or to zero.
_DIVISIONS = [
    ({0: 1, 2: 3}, {0: 1, 1: stored(0, 2)}),
    ({0: stored(1, 1), 1: 5, 3: stored(0, -1)}, {0: 2, 1: stored(Fraction(1, 2), -1)}),
    ({0: 4, 1: 1, 2: 7}, {0: 1, 2: -3}),
    ({0: Fraction(1, 3), 3: -2}, {1: Fraction(-5, 6), 0: 1}),
    ({0: 3, 2: stored(1, 1)}, {2: stored(0, -3)}),
    ({1: 5, 4: Fraction(2, 3)}, {0: -7}),
    ({0: 1, 1: stored(2, 1), 2: -4}, {0: 1, 1: stored(2, 1), 2: -4}),
    # (q+1)(q+2) + 5 over q+1 and over (q+1)(q+2): remainders 5
    ({0: 7, 1: 3, 2: 1}, {0: 1, 1: 1}),
    ({0: 7, 1: 3, 2: 1}, {0: 2, 1: 3, 2: 1}),
    ({0: stored(2, 1), 1: stored(Fraction(1, 2), 1), 2: 2}, {0: stored(0, 1), 1: 2}),
    ({0: stored(-1, 1), 1: 1, 2: stored(0, 1), 3: 1}, {0: stored(0, 1), 1: 1}),
    ({0: stored(0, 2), 1: stored(2, 1), 2: 1}, {0: stored(0, -1), 1: stored(-1, 2), 2: 2}),
]


def test_pdivmod_and_pgcd_match_the_boxed_kernels():
    monic = stored_kernel(_pmonic)
    pgcd = stored_kernel(_pgcd)
    rng = random.Random(22)
    cases = list(_pairs(23, 300, 0, 6)) + _DIVISIONS
    cases += [(b, a) for a, b in _DIVISIONS]
    # pairs with a common factor, so the gcd has something to find
    for _ in range(60):
        common = random_poly(rng, 0, 3, rng.choice(("int", "frac", "gauss")))
        a = random_poly(rng, 0, 3, rng.choice(("int", "gauss")))
        b = random_poly(rng, 0, 3, rng.choice(("int", "frac")))
        cases.append((unbox(boxed_pmul(box(a), box(common))),
                      unbox(boxed_pmul(box(b), box(common)))))
    # quotients of 300 int terms and of 150 terms i^k / 3, real and imaginary
    long_quotients = [({600: 1, 0: -1}, {2: 1, 0: -1}),
                      ({450: Fraction(1, 3), 0: 1}, {3: 1, 0: stored(0, 1)})]
    for (a, b), n in zip(long_quotients, (300, 150)):
        assert len(_to_stored(_pdivmod(_from_stored(a), _from_stored(b))[0])) == n
    cases += long_quotients
    for a, b in cases:
        bm = boxed_pmonic(box(b), box(b))
        for got, want in ((monic(b, b), bm), (monic(a, b), boxed_pmonic(box(a), box(b)))):
            assert_stored(got)
            assert box(got) == want, (a, b)
        quo, rem = _pdivmod(_from_stored(a), _from_stored(unbox(bm)))
        quo, rem = _to_stored(quo), _to_stored(rem)
        want_quo, want_rem = boxed_pdivmod(box(a), bm)
        assert_stored(quo)
        assert_stored(rem)
        assert (box(quo), box(rem)) == (want_quo, want_rem), (a, b)
        # the gcd takes the divisor as it comes, not made monic
        g = pgcd(a, b)
        assert_stored(g)
        assert box(g) == boxed_pgcd(box(a), box(b)), (a, b)
    # a monic divisor equal to the dividend, and a remainder that cancels to 5
    p = {0: 1, 1: 2, 2: 1}
    assert _pdivmod(p, p) == ({0: 1}, {})
    assert _pdivmod({0: 7, 1: 3, 2: 1}, {0: 2, 1: 3, 2: 1}) == ({0: 1}, {0: 5})
    # (q + i)(q + 2) and the non-monic (q + i)(2q - 1) share q + i
    assert pgcd(*_DIVISIONS[-1]) == {0: stored(0, 1), 1: 1}
    assert pgcd(*_DIVISIONS[7]) == {0: 1}


def test_eval_exact_matches_the_boxed_evaluation():
    rng = random.Random(24)
    for _ in range(150):
        kind = rng.choice(("int", "frac", "gauss"))
        num = random_poly(rng, -6, 6, kind)
        den = random_poly(rng, -3, 4, rng.choice(("int", "frac")))
        try:
            x = QScalar(num, den)
        except ArithmeticError:
            continue
        for q0 in (1, 4, Fraction(9, 4), Fraction(1, 16), 2, GaussianRational(3)):
            odd = any(k % 2 for k in x.num) or any(k % 2 for k in x.den)
            if odd and q0 in (2, GaussianRational(3)):
                continue
            try:
                want = boxed_eval_exact(box(x.num), box(x.den), q0)
            except ArithmeticError:
                continue
            got = x.eval_exact(q0)
            assert type(got) is GaussianRational
            assert got == want and hash(got) == hash(want), (x, q0)
    # a Gaussian q0 on even exponents, and a real value still boxed
    assert (Q + I).eval_exact(GaussianRational(1, 1)) == GaussianRational(1, 2)
    assert type(qnum(3).eval_exact(1)) is GaussianRational


def boxed_subs_q_inverse(x):
    """q -> 1/q through the constructor: the stored parts with negated
    exponents, reduced afresh."""
    return QScalar({-k: c for k, c in x.num.items()}, {-k: c for k, c in x.den.items()})


def test_subs_q_inverse_matches_the_constructor_path():
    rng = random.Random(26)
    kinds = ("int", "frac", "gauss")
    checked = 0
    for _ in range(300):
        num = random_poly(rng, -6, 6, rng.choice(kinds))
        den = random_poly(rng, -3, 5, rng.choice(kinds))
        x = QScalar(num, den)
        checked += len(x.den) > 1
        got = x.subs_q_inverse()
        want = boxed_subs_q_inverse(x)
        # the same canonical parts the constructor gives
        assert got._n == want._n and got._d == want._d, x
        assert (got._d is _P_ONE) == (len(got.den) == 1)
        assert_stored(got.num)
        assert_stored(got.den)
        if len(got.den) > 1:
            assert min(got.den) == 0 and got.den[max(got.den)] == 1
        back = got.subs_q_inverse()
        assert back._n == x._n and back._d == x._d
    assert checked > 200
    # a constant is fixed, and q-free constants stay shared
    assert ONE.subs_q_inverse() is ONE
    assert (Q + I).subs_q_inverse() == 1 / Q + I


def test_eval_exact_is_not_quadratic_in_the_degree():
    x = qbinom(1500, 2, 4)  # 2,997 terms, top exponent 23,968
    start = time.perf_counter()
    assert x.eval_exact(1) == math.comb(1500, 2)
    # raising s one factor at a time per term took about 6 s on a 2-core
    # host; Horner's rule takes milliseconds
    assert time.perf_counter() - start < 1.0
    assert x.eval_exact(Fraction(1, 2)) == GaussianRational(
        sum(c * Fraction(1, 2) ** (k // 2) for k, c in x.num.items())
    )


def test_real_constants_compare_and_hash_like_int_and_fraction():
    rng = random.Random(25)
    for _ in range(100):
        r = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        # built through multi-term arithmetic, so the constant is reached by
        # cancellation, not by construction
        x = (Q + r) * (Q - ONE) - Q * Q + Q - r * (Q - ONE) + (Q * r + r - r * Q)
        plain = r.numerator if r.denominator == 1 else r
        assert x == r and r == x and x == plain
        assert hash(x) == hash(r) == hash(plain)
        assert {x: "v"}[r] == "v"
        assert x.num == ({0: plain} if r else {}) and type(x.num.get(0, 0)) is type(plain)
    assert scalar(0, 1) != 1 and scalar(2, 0) == 2 and hash(scalar(2, 0)) == hash(2)
