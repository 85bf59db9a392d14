"""Dual pairings between the coordinate and derivative algebras, and the
q-exponentials built from dually paired bases.

Exponentials are truncated tensor data: lists of (coordinate monomial,
derivative word, coefficient).  The flipped variants (derivative leg first)
carry the coefficients their defining pairings dictate — a sign per
derivative factor on top of the reciprocal factorials; the Kronecker
reconstruction test pins these down.
"""

from __future__ import annotations

import math

from .cfunc import CFunction, _mono_text, _monomials, space_vars
from .ncalgebra import NCElement, _normal_forms, act, hat_factor
from .reports import VerificationReport
from .scalars import ONE, QScalar, _add_term, _LinComb, _memo, _memoized, _remember, _set
from .scalars import qfact, qnum, scalar
from .spaces import CALCULI, D_TOKENS, GRADE, HAT_D_TOKENS, REVERSED, X_TOKENS, check_option

PAIR_VARIANTS = ("L_Rbar", "Lbar_R")
# exponential variant -> the action mode of its calculus: coordinate-first
# (left) before derivative-first, plain before hatted
_EXP_MODE = {
    row[2]: mode for mode, row in sorted(CALCULI.items(), key=lambda it: (it[1][1], it[1][0]))
}
EXP_VARIANTS = tuple(_EXP_MODE)

_FACT_BASES = {"line": {"x1": 1}, "euclid3": {"xp": 4, "x3": 2, "xm": 4}}


def classical_factorial(n: int) -> QScalar:
    return scalar(math.factorial(n))


def _norm_factor(space, exps, inv: bool) -> QScalar:
    """n0! times the q-factorials of the spatial exponents."""
    vars_ = space_vars(space)
    out = classical_factorial(exps[0])
    sign = -1 if inv else 1
    for v, a in _FACT_BASES[space].items():
        out = out * qfact(exps[vars_.index(v)], sign * a)
    return out


def _deriv_words(space, hatted, family):
    """The normal-ordered derivative words for each exponent tuple of
    family, as term dicts, through the indices in the reversed ordering
    (hatted words: the standard one).  Hatted words are stored through their
    q-power multiples of the plain ones.  The words of a family share their
    prefixes (ncalgebra._normal_forms)."""
    vars_ = space_vars(space)
    if hatted:
        order, dtags = X_TOKENS[space], HAT_D_TOKENS[space]
    else:
        order, dtags = REVERSED[space], D_TOKENS[space]
    slots = [(vars_.index(v), d) for v, d in zip(order, dtags)]
    words = [tuple(d for i, d in slots for _ in range(exps[i])) for exps in family]
    forms = _normal_forms(space, "u", words)
    if not hatted:
        return forms
    return [{k: c * hat_factor(space, sum(exps[1:])) for k, c in nf.items()}
            for exps, nf in zip(family, forms)]


def deriv_word_element(space, exps, hatted: bool) -> NCElement:
    """The normal-ordered derivative word for monomial exponents (see
    _deriv_words)."""
    return NCElement(space, _deriv_words(space, hatted, [exps])[0])


def coord_word_element(space, exps, reversed_order: bool) -> NCElement:
    """The coordinate basis word: standard ordering, or the reversed one the
    hatted pairings run against."""
    vars_ = space_vars(space)
    word = []
    for v in REVERSED[space] if reversed_order else vars_:
        word.extend([v] * exps[vars_.index(v)])
    return NCElement.from_word(space, tuple(word))


class TensorSeries:
    """Truncated q-exponential: (coordinate monomial, derivative word)
    pairs.  Read-only like an element: ``terms`` is a tuple of (exps tuple,
    NCElement, QScalar), no attribute can be set or deleted once made, and
    the text is kept once worked out, so qexp hands out its stored series."""

    __slots__ = ("space", "variant", "degree_bound", "terms", "_text")
    __setattr__ = __delattr__ = _LinComb.__setattr__

    def __init__(self, space, variant, degree_bound, terms):
        _set(self, "space", space)
        _set(self, "variant", variant)
        _set(self, "degree_bound", degree_bound)
        _set(self, "terms", tuple(terms))

    def __iter__(self):
        return iter(self.terms)

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            pass
        vars_ = space_vars(self.space)
        parts = []
        for exps, dword, coeff in self.terms:
            mono = _mono_text(vars_, exps) or "1"
            cs = str(coeff)
            lhs, rhs = (dword, mono) if CALCULI[_EXP_MODE[self.variant]][1] else (mono, dword)
            if cs == "1":
                parts.append(f"{lhs} (x) {rhs}")
            else:
                parts.append(f"({cs}) {lhs} (x) {rhs}")
        text = "  +  ".join(parts) if parts else "0"
        _set(self, "_text", text)
        return text


# (space, hatted, exps) -> (1 / norm factor, derivative word), filled on
# first use.  Entries are tuples of read-only values, stored whole and handed
# out by every qexp call.  The words are normal forms, so the table is a
# registered memo
_EXP_TERMS = _memo("pairexp.exp_terms")


def _exp_coeff(exps, made, bases):
    """One table entry's coefficient: its prefix's (one index lowered by one,
    read from made) over that index's factor, by the recurrence
    [[n]]! = [[n]] [[n-1]]!; bases gives each index's q-number base, 0 for
    the classical x0 factorial."""
    j = next((j for j, n in enumerate(exps) if n), None)
    if j is None:
        return ONE
    n = exps[j]
    prefix = made[exps[:j] + (n - 1,) + exps[j + 1:]][0]
    return prefix / (qnum(n, bases[j]) if bases[j] else scalar(n))


def qexp(space: str, variant: str, degree_bound: int) -> TensorSeries:
    """The four q-exponential variants, truncated at total degree.

    'x_d' pairs coordinate monomials with plain-derivative words (reciprocal
    factorial coefficients), 'x_dhat' with hatted words (inverse bases); the
    flipped variants put the derivative leg first and are dual to the
    coordinate-first pairings, whose printed values carry a sign per
    derivative factor.  Terms come sorted by degree from the term table,
    whose read-only derivative words every call shares, and a series asked
    for before is the stored one itself.
    """
    check_option("exponential variant", variant, EXP_VARIANTS)
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    return _series(space, variant, degree_bound)


# (space, variant, degree bound) -> the truncated exponential, stored whole
@_memoized(_memo("pairexp.series"))
def _series(space, variant, degree_bound):
    vars_ = space_vars(space)
    hat, flipped = CALCULI[_EXP_MODE[variant]][:2]
    sign = -1 if hat else 1
    bases = [sign * _FACT_BASES[space].get(v, 0) for v in vars_]
    monos = _monomials(vars_, degree_bound, True)
    # a prefix has one degree less, so it is made (or read) before its use
    made = {}
    terms = []
    words = None
    for i, exps in enumerate(monos):
        key = (space, hat, exps)
        entry = _EXP_TERMS.get(key)
        if entry is None:
            if words is None:
                # the derivative words from the first missing entry on,
                # normal-ordered as one family
                words = dict(zip(monos[i:], _deriv_words(space, hat, monos[i:])))
            entry = (_exp_coeff(exps, made, bases), NCElement(space, words[exps]))
            entry = _remember(_EXP_TERMS, key, entry)
        made[exps] = entry
        coeff, dword = entry
        if flipped and sum(exps) % 2:
            coeff = -coeff
        terms.append((exps, dword, coeff))
    return TensorSeries(space, variant, degree_bound, terms)


# (hatted, acts from the right) -> action mode
_MODE_OF = {row[:2]: mode for mode, row in CALCULI.items()}


def pair(space, variant, u: NCElement, v: NCElement, order: str = "deriv_first") -> QScalar:
    """Dual pairing of a derivative word against a coordinate word, computed
    by acting and evaluating at the origin: 'Lbar_R' in the hatted calculus,
    from the left for order 'deriv_first', from the right for 'coord_first'."""
    check_option("pairing variant", variant, PAIR_VARIANTS)
    check_option("pairing order", order, ("deriv_first", "coord_first"))
    mode = _MODE_OF[(variant == "Lbar_R", order == "coord_first")]
    res = act(u, v, mode)
    return res.constant_term()


def _grade(tags, exps) -> tuple:
    """The grade (spaces.GRADE) of a word holding tags[i] exps[i] times."""
    return tuple(sum(n * GRADE[t][i] for t, n in zip(tags, exps)) for i in range(3))


def kronecker_check(space, variant: str, degree_bound: int) -> VerificationReport:
    """Duality of the exponential legs: contracting the derivative leg with a
    monomial and evaluating at the origin rebuilds the monomial through the
    coordinate leg with coefficient one.  The pairing is the left or right
    action of the exponential's own calculus, computed only for the terms
    whose derivative leg has minus the monomial's grade."""
    check_option("exponential variant", variant, EXP_VARIANTS)
    rep = VerificationReport(f"qexp-kronecker-{variant}", space)
    vars_ = space_vars(space)
    mode = _EXP_MODE[variant]
    hat = CALCULI[mode][0]
    # the terms by the grade of their derivative leg.  A pairing is the
    # counit of a normal form: every rule keeps the grade and the counit
    # keeps only grade 0, so a leg pairs to zero with a monomial whose grade
    # is not minus its own.  The right modes act through the +/- mirror,
    # which flips the charge on both sides.  A grade's first two entries sum
    # to the degree, so no pairing of another degree is computed either.
    # test_pairexp.py::test_graded_kronecker_matches_the_full_loop checks
    # that every pairing skipped here is zero
    by_grade = {}
    for term in qexp(space, variant, degree_bound):
        by_grade.setdefault(_grade(HAT_D_TOKENS[space], term[0]), []).append(term)
    for target in _monomials(vars_, degree_bound, False):
        # the hatted tower pairs against the reversed-ordering basis words
        v = coord_word_element(space, target, reversed_order=hat)
        acc = {}
        for exps, dword, coeff in by_grade.get(tuple(-g for g in _grade(vars_, target)), ()):
            val = act(dword, v, mode).constant_term()
            if val:
                _add_term(acc, exps, coeff * val)
        rep.compare(f"{variant}:{target}", CFunction(vars_, acc), CFunction.monomial(vars_, target))
    return rep
