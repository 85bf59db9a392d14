"""q-translations, antipodes, and the Taylor identities tying exponentials,
translations, and derivative actions together.

Translations return functions over a doubled variable set (x-legs carry the
displacement, y-legs the original argument); setting the y-legs to zero
recovers the original function.  On the 3d space the hatted-calculus pieces
(the 'L' variants) are native to the reversed normal ordering, so the
hatted Taylor identity is checked entirely in that representation.
"""

from __future__ import annotations

import functools
import math
from operator import add

from .cfunc import CFunction, _monomials, space_vars
from .pairexp import _EXP_MODE, qexp
from .qfunc import _action
from .reports import VerificationReport
from .scalars import LAM, LAMP, ONE, QScalar, _apply_rows, _memo, _memoized
from .scalars import qbinom, qnum, qpow, scalar
from .spaces import CALCULI, LABEL_OF, REVERSED, SUBSTITUTION, X_TOKENS, Y_OF, check_option

TRANSLATE_VARIANTS = tuple(sorted(row[3] for row in CALCULI.values()))

# variant -> (base sign, +/- index swap) of the action mode it belongs to.
# The left-handed pair is printed; the right-handed legs are the +/- mirror
# (the opposite coproducts), the combination the right-sided Taylor
# identities single out.  On the line the swap is vacuous and R/Rbar
# coincide with L/Lbar.
_VARIANT_PARAMS = {CALCULI[mode][3]: params for mode, params in SUBSTITUTION.items()}


def doubled_vars(space):
    xs = space_vars(space)
    return xs + tuple(Y_OF[v] for v in xs)


# the odd q-factorials and step powers, keyed by the arguments
@_memoized(_memo("hopf.odd_qfacts"))
def _odd_qfact(l: int, a: int) -> QScalar:
    """[[1]][[3]]...[[2l-1]] in base q^a: [[2l]]! / [[2l]]!!."""
    return math.prod((qnum(j, a) for j in range(1, 2 * l, 2)), start=ONE)


@_memoized(_memo("hopf.step_powers"))
def _step_power(l: int, s: int, e: int) -> QScalar:
    """l-th power of the step prefactor q^e lambda lambda', negated for the
    inverse bases (s < 0); translations take e = s, antipodes e = -s."""
    step = qpow(e) * LAM * LAMP
    return (-step if s < 0 else step) ** l


# the per-monomial images of the translations and antipodes, keyed
# (space, variant, exps) and (space, base sign, exps): tuples of
# (key, coefficient) rows, stored whole
@_memoized(_memo("hopf.translate_rows"))
def _translate_image(space, variant, exps):
    """The translation of the monomial with exponents exps: its finite
    two-leg Taylor sum as rows, one per distinct key."""
    s, swap = _VARIANT_PARAMS[variant]
    n0 = exps[0]
    # the classical x0 leg's binomials
    c0 = [scalar(math.comb(n0, k)) for k in range(n0 + 1)]
    if space == "line":
        n1 = exps[1]
        return tuple(
            ((k, l, n0 - k, n1 - l), qbinom(n1, l, s) * c0[k])
            for k in range(n0 + 1)
            for l in range(n1 + 1)
        )

    # x-legs (x0, xp, x3, xm), then the y-legs in the same order from slot y
    want = space_vars(space)
    vp, vm = ("xm", "xp") if swap else ("xp", "xm")
    ip, i3, im = want.index(vp), want.index("x3"), want.index(vm)
    y = len(want)
    a3, a4 = 2 * s, 4 * s
    np_, n3, nm = exps[ip], exps[i3], exps[im]
    # x3 leg: j = k3 - l plain and l paired derivatives, r = n3 - j - 2l
    # left over; [n3]!/([r]! [j]! [2l]!!) lambda_l^l
    x3_leg = [
        (j, l, n3 - j - 2 * l,
         qbinom(n3, j, a3) * qbinom(n3 - j, 2 * l, a3) * _odd_qfact(l, a3)
         * _step_power(l, s, s))
        for l in range(n3 // 2 + 1)
        for j in range(n3 - 2 * l + 1)
    ]
    rows = []
    for kp in range(np_ + 1):
        cp = qbinom(np_, kp, a4)
        for km in range(nm + 1):
            cpm = cp * qbinom(nm, km, a4)
            for j, l, r, c3 in x3_leg:
                # x3 -> q^(2s km) x3 and vp -> q^(2s j) vp on the y-legs
                cpm3 = cpm * c3 * QScalar.q_power(a4 * (j * (np_ - kp) + km * r))
                for k0 in range(n0 + 1):
                    key = [0] * (2 * y)
                    key[0], key[y] = k0, n0 - k0
                    key[ip], key[y + ip] = kp, np_ - kp + l
                    key[i3], key[y + i3] = j, r
                    key[im], key[y + im] = km + l, nm - km
                    rows.append((tuple(key), cpm3 * c0[k0]))
    return tuple(rows)


def translate(space: str, variant: str, f: CFunction) -> CFunction:
    """q-translation of a polynomial: the finite two-leg Taylor sums.

    The 'Lbar' sums use the plain q-bases, 'L' the inverse ones; on the 3d
    space the 'L' formula is the +/- mirror of the 'Lbar' one and produces a
    reversed-ordering representative.

    Each monomial's sum is written out in closed form: a derivative power
    over the matching factorial is a binomial, classical or Gaussian, so
    every coefficient is a Laurent polynomial and nothing is divided.  The
    sums are read from the translation table, and a translation asked for
    before is read whole from the table of translations.
    """
    check_option("translation variant", variant, TRANSLATE_VARIANTS)
    return _translations(space, variant, f)


def _translate(space, variant, f):
    """The translation of f from the translation table's rows.  The suites
    call it, not the table below: their inputs are new each time."""
    rows = functools.partial(_translate_image, space, variant)
    terms = f.restrict(space_vars(space)).terms
    return CFunction(doubled_vars(space), _apply_rows(terms.items(), rows))


# (space, variant, polynomial) -> its translation, for translate
_translations = _memoized(_memo("hopf.translations"))(_translate)


@_memoized(_memo("hopf.antipode_rows"))
def _antipode_image(space, s, exps):
    """The antipode of the monomial with exponents exps, as rows."""
    if space == "line":
        n0, n1 = exps
        factor = QScalar.q_power(s * n1 * (n1 - 1))
        return ((exps, -factor if (n0 + n1) % 2 else factor),)

    # The q-power operator is symmetric in the +/- degrees, so the mirrored
    # variants share the formula; only the base sign differs.
    want = space_vars(space)
    ip, i3, im = want.index("xp"), want.index("x3"), want.index("xm")
    a3 = 2 * s
    mp, m3, mm = exps[ip], exps[i3], exps[im]
    w = 2 * (mp * (mp - 1) + mm * (mm - 1)) + m3 * (2 * mp + 2 * mm + m3 - 1)
    odd = sum(exps) % 2
    rows = []
    for k in range(m3 // 2 + 1):
        # q^(4 s k^2) and x3 -> q^(-2k) x3 ride on the exponent weight
        factor = QScalar.q_power(2 * s * w - 4 * s * k * m3 + 8 * s * k * k)
        coeff = (qbinom(m3, 2 * k, a3) * _odd_qfact(k, a3) * _step_power(k, s, -s)
                 * (-factor if odd else factor))
        key = list(exps)
        key[ip], key[i3], key[im] = mp + k, m3 - 2 * k, mm + k
        rows.append((tuple(key), coeff))
    return tuple(rows)


def antipode(space: str, variant: str, f: CFunction) -> CFunction:
    """q-antipode: inversion composed with the printed q-power operator.

    On the 3d space the corrections form a finite series consuming two
    powers of the 3-coordinate per step; the exponent operator is read as
    n(n-1)-type on the +/- degrees, the reading the counit and Taylor
    identities validate.  Step k of a monomial x3^m3 carries
    D_3^(2k) x3^m3 / [[2k]]!! = [[m3 over 2k]] [[1]][[3]]...[[2k-1]] x3^(m3-2k),
    so no q-factorial is divided.  An antipode asked for before is read
    whole from the table of antipodes."""
    check_option("antipode variant", variant, TRANSLATE_VARIANTS)
    return _antipodes(space, variant, f)


def _antipode(space, variant, f):
    """The antipode of f from the antipode table's rows.  The suites call
    it, not the table below: their inputs are new each time."""
    want = space_vars(space)
    rows = functools.partial(_antipode_image, space, _VARIANT_PARAMS[variant][0])
    return CFunction(want, _apply_rows(f.restrict(want).terms.items(), rows))


# (space, variant, polynomial) -> its antipode, for antipode
_antipodes = _memoized(_memo("hopf.antipodes"))(_antipode)


def antipode_on_y_legs(space, variant, t: CFunction) -> CFunction:
    """Apply the antipode operator to the y-legs of a translated function."""
    check_option("antipode variant", variant, TRANSLATE_VARIANTS)
    y_idx = [t.vars.index(Y_OF[v]) for v in space_vars(space)]
    s = _VARIANT_PARAMS[variant][0]

    def row_of(exps):
        # the y-legs' image, the x-legs carried along
        rest = list(exps)
        for j in y_idx:
            rest[j] = 0
        for ey, c in _antipode_image(space, s, tuple(exps[j] for j in y_idx)):
            key = rest[:]
            for j, n in zip(y_idx, ey):
                key[j] = n
            yield tuple(key), c

    return CFunction(t.vars, _apply_rows(t.terms.items(), row_of))


def translated_antipoded_monomial(space, variant, exps) -> CFunction:
    """The composite leg: translate the monomial, antipode the y-legs.  Each
    translation row's y-legs, the last n slots of the doubled variables, are
    replaced by their antipode's rows, the x-legs carried along."""
    check_option("translation variant", variant, TRANSLATE_VARIANTS)
    n = len(space_vars(space))
    s = _VARIANT_PARAMS[variant][0]

    def row_of(el):
        x = el[:n]
        return ((x + ey, c) for ey, c in _antipode_image(space, s, el[n:]))

    rows = _apply_rows(_translate_image(space, variant, exps), row_of)
    return CFunction(doubled_vars(space), rows)


def time_taylor(f: CFunction, t0: QScalar) -> CFunction:
    """Translation in the time variable only: the classical shift."""
    return f.shift_var("x0", t0)


# (exp variant, translation/antipode variant, action variant, native rep):
# each calculus's exponential, translation and derivative action, in the
# normal ordering its closed forms are native to
_IDENTITY_SETUPS = tuple(
    (exp, CALCULI[mode][3], mode, "reversed" if CALCULI[mode][0] else "standard")
    for exp, mode in _EXP_MODE.items()
)


def _dword_seq(space, hat):
    """The (index label, coordinate) factors of an exponential's derivative
    words, leftmost first: the hatted words run through the standard
    ordering, the plain ones through the reversed one."""
    return tuple((LABEL_OF[v], v) for v in (X_TOKENS if hat else REVERSED)[space])


def _exp_word_actions(space, exp, action_variant, rep):
    """The action of each derivative word of the exponential via the closed
    forms, as a map from a polynomial g to a dict from exponent tuple (up to
    g's degree) to the acted polynomial's term dict.

    Left words act rightmost-first, right words leftmost-first; the hatted
    words run through the indices reversely, matching their basis order.
    A word is its prefix (the last-acting index lowered by one) followed by
    one step, so each entry is one action on its prefix's entry; exp is
    sorted by degree, so the prefix is always there.  Each word's step and
    prefix depend only on the setup, so they are planned here once."""
    hatted, right = CALCULI[action_variant][:2]
    seq = _dword_seq(space, hatted)
    if not right:
        seq = seq[::-1]  # rightmost factor first
    vars_ = space_vars(space)
    step = {idx: _action(False, idx, action_variant, space, rep) for idx, _var in seq}
    last_first = [(idx, vars_.index(var)) for idx, var in reversed(seq)]
    # (exps, degree, step, prefix) per term; the empty word has no step
    plan = []
    for exps, _dword, _coeff in exp:
        if not any(exps):
            plan.append((exps, 0, None, None))
            continue
        idx, j = next((idx, j) for idx, j in last_first if exps[j])
        plan.append((exps, sum(exps), step[idx], exps[:j] + (exps[j] - 1,) + exps[j + 1:]))

    def acted_by(g):
        deg = g.degree()
        out = {}
        for exps, d, act_step, prefix in plan:
            if d > deg:
                break
            if act_step is None:
                out[exps] = g.restrict(vars_).terms
                continue
            got = out[prefix]
            out[exps] = act_step(got) if got else got
        return out

    return acted_by


def taylor_identity_check(space: str, max_degree: int = 3) -> VerificationReport:
    """End-to-end Taylor reconstruction on every monomial g up to max_degree:
    the exponential's coordinate leg is translated against the antipoded
    y-leg, its derivative leg acts on g, and the contraction must rebuild g
    on the x-legs exactly."""
    rep = VerificationReport("hopf-taylor", space)
    want = space_vars(space)
    targets = [(str(e), CFunction.monomial(want, e)) for e in _monomials(want, max_degree, False)]
    top = max((gf.degree() for _, gf in targets), default=0)
    out_vars = doubled_vars(space)
    n = len(want)
    for exp_variant, tvariant, avariant, rep_name in _IDENTITY_SETUPS:
        # one exponential per setup; its terms are sorted by degree, and the
        # prefix up to a target's degree is the exponential truncated there
        exp = qexp(space, exp_variant, top)
        legs = {}

        def leg_row(pair):
            # the exponential term's leg, shifted on the y-legs by the
            # exponents of one term of the acted polynomial
            exps, ey = pair
            leg = legs.get(exps)
            if leg is None:
                leg = legs[exps] = tuple(
                    translated_antipoded_monomial(space, tvariant, exps).terms.items())
            for el, cl in leg:
                yield el[:n] + tuple(map(add, el[n:], ey)), cl

        word_actions = _exp_word_actions(space, exp, avariant, rep_name)
        for label, gf in targets:
            acted_by = word_actions(gf)
            # sum of leg * (acted on the y-legs) * coeff over the terms
            pairs = {}
            for exps, _dword, coeff in exp:
                acted = acted_by.get(exps)
                if acted is None:
                    break  # past g's degree
                for ey, cy in acted.items():
                    pairs[exps, ey] = cy * coeff
            acc = CFunction(out_vars, _apply_rows(pairs.items(), leg_row))
            rep.compare(f"{exp_variant}/{tvariant}:{label}", acc, gf.embed(out_vars))
    return rep
