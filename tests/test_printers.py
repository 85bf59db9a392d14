"""Golden strings for the printers of CFunction, NCElement, GElement and
TensorSeries.

The verification JSON holds no rendered elements when every check passes,
so it cannot see a change in how elements print.  This test renders a fixed,
seeded set of values built by the arithmetic (sums, differences, products,
scalings, derivatives, normal ordering) and compares every ``str`` and
``repr`` with the strings recorded in ``golden_printers.json``.  The set
covers unit and negated unit coefficients, sums and quotients in
parentheses, Gaussian coefficients, constant terms, whole and half powers of
the scaling operator, and the zero element.

Regenerate the recorded strings only for an intended format change:
``PYTHONPATH=src python tests/test_printers.py --record``.
"""

import json
import os
import random
import sys
from fractions import Fraction

from qspace.cfunc import E3_VARS, LINE_VARS, CFunction
from qspace.grassmann import g_normal_form
from qspace.ncalgebra import normal_form
from qspace.pairexp import EXP_VARIANTS, qexp
from qspace.ncalgebra import NCElement
from qspace.scalars import (
    I, LAM, LAMP, ONE, Q, GaussianRational, QScalar, _coeff_times, qpow, scalar,
)
from qspace.spaces import KEY_LAYOUT, PRINT_NAMES

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_printers.json")

_SCALARS = [
    ONE, -ONE, scalar(2), scalar(Fraction(-3, 4)), I, -I, scalar(1, 2),
    scalar(Fraction(1, 3), -1), Q, qpow(-1), QScalar.q_power(1), -QScalar.q_power(-3),
    LAM, LAMP, ONE / LAMP, (Q + ONE) / (Q - ONE), I * LAM, -LAM * LAMP,
]
_NC_TOKENS = {
    "line": ("x0", "x1", "d0", "d1", ("L", 1), ("L", 2), ("L", -4)),
    "euclid3": ("x0", "xp", "x3", "xm", "d0", "dp", "d3", "dm", ("L", 1), ("L", -2)),
}
_G_TOKENS = ("th0", "th1", "dth0", "dth1")


def _scalar(rng):
    c = rng.choice(_SCALARS)
    return c * rng.choice(_SCALARS) if rng.random() < 0.3 else c


def _cfunctions(rng):
    out = []
    for variables in (LINE_VARS, E3_VARS, ("a", "b", "c")):
        for _ in range(8):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 2) for _ in variables)
                terms[e] = _scalar(rng)
            out.append(CFunction(variables, terms))
        f, g = out[-1], out[-2]
        out += [f + g, f - g, f * g, f.scale(_scalar(rng)), f - f,
                f.jackson_d(variables[1], 2), f.embed(variables + ("z",))]
    return out


def _ncelements(rng):
    out = []
    for space, tokens in _NC_TOKENS.items():
        for _ in range(10):
            word = tuple(rng.choice(tokens) for _ in range(rng.randint(0, 3)))
            out.append(normal_form(space, word, _scalar(rng)))
        a, b = out[-1], out[-2]
        out += [a + b, a - b, a * b, a.scale(_scalar(rng)), a - a, a.conjugate()]
    return out


def _gelements(rng):
    out = []
    for _ in range(10):
        word = tuple(rng.choice(_G_TOKENS) for _ in range(rng.randint(0, 4)))
        c = _scalar(rng)  # drawn first, as the recorded strings were
        out.append(g_normal_form(word, hatted=rng.random() < 0.5).scale(c))
    a, b = out[-1], out[-2]
    out += [a + b, a - b, a * b, a.scale(_scalar(rng)), a - a]
    return out


def _series():
    out = []
    for space, top in (("line", 2), ("euclid3", 1)):
        for variant in EXP_VARIANTS:
            for degree in range(top + 1):
                out.append(qexp(space, variant, degree))
    return out


def _edge_cases():
    """Constant terms with and without parentheses, unit coefficients."""
    out = []
    for c in (ONE, -ONE, LAMP, -LAMP, ONE / LAMP, I * LAMP, scalar(Fraction(-3, 4))):
        out.append(CFunction.constant(LINE_VARS, c) + CFunction.var(LINE_VARS, "x1", 2, c))
        out.append(normal_form("euclid3", ("xp", "dm"), c) + normal_form("euclid3", (), c))
        out.append(g_normal_form(("th1", "dth1")).scale(c) + g_normal_form(()).scale(c))
    return out


def rendered():
    rng = random.Random(20070307)
    values = (_cfunctions(rng) + _ncelements(rng) + _gelements(rng) + _series()
              + _edge_cases())
    # a TensorSeries has the default object repr, which shows an address
    return [[type(v).__name__, str(v), "" if type(v).__name__ == "TensorSeries" else repr(v)]
            for v in values]


def test_printers_match_recorded_strings():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = rendered()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"value {i}"


# -- the fast paths against the general path -----------------------------------
#
# The printers read a one-term or int-coefficient scalar straight from its
# stored dict, q-power and monomial texts from tables, and test for
# parentheses with one regex.  The general path they stand in for is
# restated below: every coefficient through the stored form, one term at a
# time.  Both must print every scalar and every term the same.


def _general_coeff(c, need_one=False):
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


def _general_join(terms):
    parts = []
    for term in terms:
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts) or "0"


def _general_poly(p):
    parts = []
    for k in sorted(p, reverse=True):
        c = p[k]
        if k == 0:
            mono = ""
        elif k == 2:
            mono = "q"
        elif k % 2 == 0:
            mono = f"q^{k // 2}"
        else:
            mono = f"q^({Fraction(k, 2)})"
        cs = _general_coeff(c, need_one=(mono == ""))
        if cs in ("", "-") and mono == "":
            cs = "1" if cs == "" else "-1"
        parts.append(f"{cs} {mono}" if mono and cs.endswith("i") else cs + mono)
    return _general_join(parts)


def _general_str(x):
    num, den = dict(x.num), dict(x.den)
    if not num:
        return "0"
    ns = _general_poly(num)
    if den == {0: 1}:
        return ns
    ds = _general_poly(den)
    if len(num) > 1:
        ns = f"({ns})"
    if len(den) > 1:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _general_times(cs, mono):
    if cs == "1":
        return mono
    if cs == "-1":
        return f"-{mono}"
    if any(ch in cs[1:] for ch in "+- /") or cs.startswith("("):
        return f"({cs}) {mono}"
    return f"{cs} {mono}"


def _general_cterm(variables, e, c):
    mono = " ".join(f"{v}^{n}" if n > 1 else v for v, n in zip(variables, e) if n)
    cs = _general_str(c)
    if mono:
        return _general_times(cs, mono)
    return f"({cs})" if any(op in cs[1:] for op in "+-/") and "/" not in cs else cs


def _general_nc_mono(space, k):
    names = PRINT_NAMES[space]
    factors = []
    for tag, n in zip(KEY_LAYOUT[space], k[:-1]):
        if n:
            factors.append(names[tag] if n == 1 else f"{names[tag]}^{n}")
    h = k[-1]
    if h == 2:
        factors.append("L")
    elif h and h % 2 == 0:
        factors.append(f"L^{h // 2}")
    elif h:
        factors.append(f"L^({h}/2)")
    return " ".join(factors)


def _random_coeff(rng, kind):
    n = rng.choice((1, -1, 1, -1, 2, -3, 12, -40))
    if kind == "int":
        return n
    d = rng.choice((2, 3, 7, 1))
    if kind == "fraction":
        return Fraction(n, d)
    return GaussianRational(Fraction(rng.choice((0, 0, n)), d), Fraction(rng.choice((1, -1, n)), d))


def _random_poly(rng, kind, terms, span):
    return {rng.randint(-span, span): _random_coeff(rng, kind) for _ in range(terms)}


def _random_scalars(seed, count):
    """Seeded scalars: int, Fraction and Gaussian coefficients, whole and
    half exponents inside and outside the q-power table, and denominators
    of one and more terms."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rng.choice(("int", "int", "fraction", "gauss"))
        span = rng.choice((3, 9, 9, 150))
        num = _random_poly(rng, kind, rng.choice((1, 1, 2, 3)), span)
        den = None
        if rng.random() < 0.3:
            den = _random_poly(rng, rng.choice(("int", "fraction")), rng.choice((1, 2, 3)), 6)
        try:
            out.append(QScalar(num, den))
        except ArithmeticError:  # a zero denominator
            continue
    return out


def test_scalar_fast_paths_print_like_the_general_path():
    kinds = set()
    for x in _random_scalars(20070308, 600) + _SCALARS:
        want = _general_str(x)
        assert str(x) == want, (x.num, x.den)
        for mono in ("X1", "xp x3^2"):
            assert _coeff_times(x, mono) == _general_times(want, mono), want
        for variables, e in ((LINE_VARS, (0, 0)), (E3_VARS, (1, 0, 2, 0))):
            got = CFunction(variables, {e: x})
            assert str(got) == (_general_cterm(variables, e, x) if x else "0"), want
        kinds.update(type(c).__name__ for c in x.num.values())
        kinds.add("den" if x.den != {0: 1} else "one")
        kinds.update("half" for k in x.num if k % 2)
        kinds.update("outside" for k in x.num if abs(k) > 64)
    assert kinds >= {"int", "Fraction", "GaussianRational", "den", "one", "half", "outside"}


def test_element_fast_paths_print_like_the_general_path():
    rng = random.Random(20070309)
    scalars = _random_scalars(20070310, 60)
    for _ in range(200):
        space = rng.choice(("line", "euclid3"))
        width = len(KEY_LAYOUT[space])
        terms = {}
        for _ in range(rng.randint(1, 4)):
            k = tuple(rng.choice((0, 0, 1, 2)) for _ in range(width)) + (rng.randint(-5, 5),)
            terms[k] = rng.choice(scalars)
        el = NCElement(space, terms)
        keys = sorted(el.terms, key=lambda k: (sum(k[:-1]), k))
        want = []
        for k in keys:
            mono = _general_nc_mono(space, k)
            cs = _general_str(el.terms[k])
            want.append(_general_times(cs, mono) if mono else cs)
        assert str(el) == _general_join(want)
        variables = (E3_VARS if space == "euclid3" else LINE_VARS)
        f = CFunction(variables, {k[:len(variables)]: c for k, c in terms.items()})
        keys = sorted(f.terms, key=lambda e: (sum(e), e))
        want = [_general_cterm(variables, e, f.terms[e]) for e in keys]
        assert str(f) == _general_join(want)


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        with open(GOLDEN, "w") as fh:
            json.dump(rendered(), fh, indent=0, ensure_ascii=False)
            fh.write("\n")
