"""Superanalysis on the antisymmetrized braided line.

Two nilpotent generators (a time-like and a space-like one) with their two
derivative calculi; the workhorse type keeps only the space-like direction,
where supernumbers have a body and a single soul coefficient.  Derivatives
and integrals coincide up to the printed signs."""

from __future__ import annotations

from .reports import VerificationReport
from .scalars import ONE, QScalar, ZERO, _NUMBER, _add_term, _apply_rows, _LinComb, _term_pairs
from .scalars import qpow, scalar
from .spaces import CALCULI, check_option

# the generator tags in normal order (exponents are 0 or 1)
_GENERATORS = ("th0", "th1", "dth0", "dth1")


class GElement(_LinComb):
    """Linear combination of normal-ordered Grassmann words."""

    __slots__ = ()

    @staticmethod
    def one():
        return GElement({(): ONE})

    @staticmethod
    def gen(tag):
        return GElement({(tag,): ONE})

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            return self.scale(other)
        if not self._same_kind(other):
            return NotImplemented
        # the rows of a pair of words: the normal form of their concatenation
        pairs = _term_pairs(self.terms, other.terms)
        return GElement(_apply_rows(pairs, lambda w: _normalize(w[0] + w[1]).items()))

    def counit(self) -> QScalar:
        return self.terms.get((), ZERO)

    @staticmethod
    def _print_order(w):
        return len(w), w

    @staticmethod
    def _mono_str(w):
        return " ".join(w)

    def _term_str(self, w, c):
        cs = str(c)
        if not w:
            return cs
        mono = self._mono_str(w)
        return mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"({cs}) {mono}")

    def __repr__(self):
        return str(self)


def _rule_table(c):
    """The rewrite of each disordered adjacent pair, in the calculus whose
    Leibniz rule has -c for the coefficient of th1 dth1: squares vanish,
    two coordinates or two derivatives anticommute, and a derivative passes
    a coordinate by the Leibniz rule with the braiding matrix."""
    return {
        **{(a, a): [] for a in _GENERATORS},
        ("th1", "th0"): [(-ONE, ("th0", "th1"))],
        ("dth1", "dth0"): [(-ONE, ("dth0", "dth1"))],
        ("dth0", "th0"): [(ONE, ()), (-ONE, ("th0", "dth0"))],
        ("dth0", "th1"): [(-ONE, ("th1", "dth0"))],
        ("dth1", "th0"): [(-ONE, ("th0", "dth1"))],
        ("dth1", "th1"): [(ONE, ()), (-c, ("th1", "dth1"))],
    }


# hatted -> the rule table of that calculus
_RULE_TABLES = {False: _rule_table(qpow(1)), True: _rule_table(qpow(-1))}


def _normalize(word, hatted=False):
    rules = _RULE_TABLES[hatted]
    out = {}
    stack = [(ONE, tuple(word))]
    while stack:
        coeff, w = stack.pop()
        for i in range(len(w) - 1):
            alts = rules.get(w[i:i + 2])
            if alts is not None:
                for c, repl in alts:
                    stack.append((coeff * c, w[:i] + repl + w[i + 2:]))
                break
        else:
            _add_term(out, w, coeff)
    return out


def g_normal_form(word, hatted=False) -> GElement:
    return GElement(_normalize(tuple(word), hatted=hatted))


class SuperNumber:
    """body + soul * theta1, the workhorse subspace."""

    __slots__ = ("body", "soul")

    def __init__(self, body: QScalar = ZERO, soul: QScalar = ZERO):
        self.body = body
        self.soul = soul

    def __eq__(self, other):
        if not isinstance(other, SuperNumber):
            return NotImplemented
        return self.body == other.body and self.soul == other.soul

    def __str__(self):
        return f"({self.body}) + ({self.soul}) th1"


def g_deriv_int(f: SuperNumber, mode: str, as_integral: bool = False) -> QScalar:
    """Left actions return the soul, right actions its negative.  The
    integral is computed on its own, as the pairing of dth1 with
    body + soul th1 in the mode's calculus (negated for the right modes);
    it coincides with the derivative."""
    check_option("mode", mode, CALCULI)
    hatted, right = CALCULI[mode][:2]
    if as_integral:
        f_el = GElement({(): f.body, ("th1",): f.soul})
        value = _pair(GElement.gen("dth1"), f_el, hatted)
    else:
        value = f.soul
    return -value if right else value


def g_translate(f: SuperNumber):
    """f' + f1 (theta + psi); both coproduct variants coincide."""
    return (f.body, f.soul, f.soul)  # coefficients of 1, theta1, psi1


def g_antipode(f: SuperNumber) -> SuperNumber:
    return SuperNumber(f.body, -f.soul)


# pairing kind -> (coordinate word first, hatted calculus)
_PAIRINGS = {
    "plain": (False, False),
    "hat": (False, True),
    "coord_first": (True, False),
    "coord_first_hat": (True, True),
}


def g_pairing(kind: str) -> dict:
    """The printed pairing values on generators and the two-index words,
    computed by the act-then-counit procedure in the rewriting engine."""
    check_option("pairing kind", kind, _PAIRINGS)
    coord_first, hatted = _PAIRINGS[kind]
    out = {}
    for i in (0, 1):
        for j in (0, 1):
            out[(i, j)] = _pair(
                GElement.gen(f"dth{i}"), GElement.gen(f"th{j}"), hatted, coord_first
            )
    return out


def _pair(d: GElement, th: GElement, hatted: bool, coord_first=False) -> QScalar:
    """The counit of d th normal-ordered in the calculus.  Coordinate-first
    pairings carry one sign per derivative factor, the mirror of the
    bosonic case."""
    total = ZERO
    for w1, c1 in d.terms.items():
        sign = -ONE if coord_first and len(w1) % 2 else ONE
        for w2, c2 in th.terms.items():
            total = total + c1 * c2 * g_normal_form(w1 + w2, hatted=hatted).counit() * sign
    return total


_COORD_FIRST_EXP = [((), (), ONE), (("th1",), ("dth1",), ONE)]
_DERIV_FIRST_EXP = [((), (), ONE), (("dth1",), ("th1",), -ONE)]
# variant -> its terms (coordinate word, derivative word, coefficient): the
# right calculi's exponentials put the derivative leg first; both calculi
# give the same truncated series
_EXPONENTIALS = {
    row[2]: _DERIV_FIRST_EXP if row[1] else _COORD_FIRST_EXP for row in CALCULI.values()
}


def g_exponential(variant: str):
    """The four truncated exponentials; nilpotency cuts them at one term."""
    check_option("variant", variant, _EXPONENTIALS)
    return list(_EXPONENTIALS[variant])


def g_delta(variant: str) -> SuperNumber:
    """Delta functions: integrate the matching exponential leg over the
    matching measure.  Left measures extract the soul, right measures its
    negative; all four land on the odd coordinate of the other leg."""
    terms = g_exponential(variant)
    left_measure = _EXPONENTIALS[variant] is _COORD_FIRST_EXP
    body = ZERO
    soul = ZERO
    for first, second, coeff in terms:
        theta_leg, other = (first, second) if left_measure else (second, first)
        if theta_leg != ("th1",):
            continue  # the measure kills the rest
        val = coeff if left_measure else -coeff
        if other == ("th1",) or other == ("dth1",):
            soul = soul + val  # coefficient of the other leg's odd variable
        else:
            body = body + val
    return SuperNumber(body, soul)


def grassmann_suite() -> VerificationReport:
    """Every printed superanalysis identity, checked exactly."""
    rep = VerificationReport("grassmann", "line")

    th0, th1 = GElement.gen("th0"), GElement.gen("th1")

    # nilpotency and antisymmetry
    rep.compare("th1^2", th1 * th1, GElement())
    rep.compare("th0^2", th0 * th0, GElement())
    want = g_normal_form(("th0", "th1")).scale(-1)
    rep.compare("th1 th0 = -th0 th1", g_normal_form(("th1", "th0")), want)

    # Leibniz rules, plain and hatted
    for label, hatted in (("dth1 th1", False), ("hat dth1 th1", True)):
        want = GElement.one() + g_normal_form(("th1", "dth1")).scale(-qpow(-1 if hatted else 1))
        rep.compare(label, g_normal_form(("dth1", "th1"), hatted=hatted), want)

    # supernumber actions: left +soul, right -soul; integral aliases agree
    f = SuperNumber(scalar(3), scalar(5))
    for mode, want_val in (
        ("left", scalar(5)),
        ("left_bar", scalar(5)),
        ("right", -scalar(5)),
        ("right_bar", -scalar(5)),
    ):
        rep.compare(f"deriv {mode}", g_deriv_int(f, mode), want_val)
        rep.compare(f"integral {mode}", g_deriv_int(f, mode, as_integral=True), want_val)
    const = SuperNumber(scalar(7), ZERO)
    rep.compare("constant derivative", g_deriv_int(const, "left"), ZERO)

    # translations and antipodes
    rep.compare("translation", g_translate(f), (f.body, f.soul, f.soul))
    rep.compare("antipode involution", g_antipode(g_antipode(f)), f)
    rep.compare("antipode on constants", g_antipode(const), const)

    # pairings: <dth_i, th^j> = delta (both calculi); coordinate-first = -delta
    for kind, diagonal in (
        ("plain", ONE), ("hat", ONE), ("coord_first", -ONE), ("coord_first_hat", -ONE),
    ):
        vals = g_pairing(kind)
        for i in (0, 1):
            for j in (0, 1):
                rep.compare(f"pair {kind} ({i},{j})", vals[(i, j)], diagonal if i == j else ZERO)

    # the four printed two-index pairing values (derivative word, coordinate
    # word, hatted calculus, coordinate-first ordering)
    pairs = [
        (("dth0", "dth1"), ("th1", "th0"), False, False),
        (("dth1", "dth0"), ("th0", "th1"), True, False),
        (("dth1", "dth0"), ("th0", "th1"), False, True),
        (("dth0", "dth1"), ("th1", "th0"), True, True),
    ]
    for dword, thword, hatted, coord_first in pairs:
        total = _pair(GElement({dword: ONE}), GElement({thword: ONE}), hatted, coord_first)
        rep.compare(f"pair {dword}|{thword}", total, ONE)

    # exponentials and delta functions
    for variant in _EXPONENTIALS:
        rep.compare(f"exp {variant} truncation", len(g_exponential(variant)), 2)
        rep.compare(f"delta {variant}", g_delta(variant), SuperNumber(ZERO, ONE))
    return rep
