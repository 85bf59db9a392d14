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
from qspace.scalars import I, LAM, LAMP, ONE, Q, QScalar, qpow, scalar

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
        out.append(g_normal_form(word, _scalar(rng), hatted=rng.random() < 0.5))
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
        out.append(g_normal_form(("th1", "dth1"), c) + g_normal_form((), c))
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


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        with open(GOLDEN, "w") as fh:
            json.dump(rendered(), fh, indent=0, ensure_ascii=False)
            fh.write("\n")
