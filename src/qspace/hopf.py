"""q-translations, antipodes, and the Taylor identities tying exponentials,
translations, and derivative actions together.

Translations return functions over a doubled variable set (x-legs carry the
displacement, y-legs the original argument); setting the y-legs to zero
recovers the original function.  On the 3d space the hatted-calculus pieces
(the 'L' variants) are native to the reversed normal ordering, so the
hatted Taylor identity is checked entirely in that representation.
"""

from __future__ import annotations

from .cfunc import CFunction, _monomials, space_vars
from .pairexp import classical_factorial, qexp
from .qfunc import act_partial_closed
from .reports import VerificationReport
from .scalars import LAM, LAMP, ONE, QScalar, _add_term, qfact, qpow

TRANSLATE_VARIANTS = ("L", "Lbar", "R", "Rbar")

# variant -> (base sign, +/- index swap).  The left-handed pair is printed;
# the right-handed legs are the +/- mirror (the opposite coproducts), the
# combination the right-sided Taylor identities single out.  On the line the
# swap is vacuous and R/Rbar coincide with L/Lbar.
_VARIANT_PARAMS = {
    "Lbar": (1, False),
    "L": (-1, True),
    "Rbar": (1, True),
    "R": (-1, False),
}

_Y_OF = {"x0": "y0", "x1": "y1", "xp": "yp", "x3": "y3", "xm": "ym"}


def doubled_vars(space):
    xs = space_vars(space)
    return xs + tuple(_Y_OF[v] for v in xs)


def translate(space: str, variant: str, f: CFunction) -> CFunction:
    """q-translation of a polynomial: the finite two-leg Taylor sums.

    The 'Lbar' sums use the plain q-bases, 'L' the inverse ones; on the 3d
    space the 'L' formula is the +/- mirror of the 'Lbar' one and produces a
    reversed-ordering representative.
    """
    if variant not in TRANSLATE_VARIANTS:
        raise ValueError(f"unknown translation variant {variant!r}")
    want = space_vars(space)
    if f.vars != want:
        f = f.restrict(want)
    out_vars = doubled_vars(space)
    out = CFunction.zero(out_vars)
    s, swap = _VARIANT_PARAMS[variant]
    if space == "line":
        base = s
        for (n0, n1), c in f.terms.items():
            h = CFunction(want, {(n0, n1): c})
            hk = h
            for k in range(n0 + 1):
                hl = hk
                for l in range(n1 + 1):
                    coeff = ONE / (classical_factorial(k) * qfact(l, base))
                    xpart = CFunction.monomial(out_vars, (k, l, 0, 0), coeff)
                    out = out + xpart * hl.embed(
                        out_vars, {"x0": "y0", "x1": "y1"}
                    )
                    hl = hl.jackson_d("x1", base)
                hk = hk.classical_d("x0")
        return out

    lam_l = qpow(s) * LAM * LAMP
    if s < 0:
        lam_l = -lam_l
    vp, vm = ("xm", "xp") if swap else ("xp", "xm")
    yp = _Y_OF[vp]
    y_extra_idx = out_vars.index(yp)
    for exps, c in f.terms.items():
        n0 = exps[0]
        np_ = exps[want.index(vp)]
        n3 = exps[want.index("x3")]
        nm = exps[want.index(vm)]
        base_f = CFunction(want, {exps: c})
        for k0 in range(n0 + 1):
            for kp in range(np_ + 1):
                for k3 in range(n3 + 1):
                    for km in range(nm + 1):
                        for l in range(k3 + 1):
                            denom = (
                                classical_factorial(k0)
                                * qfact(2 * l, 2 * s, "double")
                                * qfact(kp, 4 * s)
                                * qfact(k3 - l, 2 * s)
                                * qfact(km, 4 * s)
                            )
                            pre = ONE
                            for _ in range(l):
                                pre = pre * lam_l
                            g = base_f
                            for _ in range(k0):
                                g = g.classical_d("x0")
                            for _ in range(kp):
                                g = g.jackson_d(vp, 4 * s)
                            for _ in range(k3 + l):
                                g = g.jackson_d("x3", 2 * s)
                            for _ in range(km):
                                g = g.jackson_d(vm, 4 * s)
                            if g.is_zero():
                                continue
                            g = g.scale_var(vp, 4 * s * (k3 - l))
                            g = g.scale_var("x3", 4 * s * km)
                            # x-leg monomial and the extra y-leg factor
                            xexp = [0] * len(out_vars)
                            xexp[0] = k0
                            xexp[out_vars.index(vp)] = kp
                            xexp[out_vars.index("x3")] = k3 - l
                            xexp[out_vars.index(vm)] = km + l
                            xexp[y_extra_idx] += l
                            xmono = CFunction.monomial(out_vars, xexp, pre / denom)
                            out = out + xmono * g.embed(
                                out_vars, {v: _Y_OF[v] for v in want}
                            )
    return out


def antipode(space: str, variant: str, f: CFunction) -> CFunction:
    """q-antipode: inversion composed with the printed q-power operator.

    On the 3d space the corrections form a finite series consuming two
    powers of the 3-coordinate per step; the exponent operator is read as
    n(n-1)-type on the +/- degrees, the reading the counit and Taylor
    identities validate."""
    if variant not in TRANSLATE_VARIANTS:
        raise ValueError(f"unknown antipode variant {variant!r}")
    want = space_vars(space)
    if f.vars != want:
        f = f.restrict(want)
    s, _swap = _VARIANT_PARAMS[variant]
    if space == "line":
        out = {}
        for (n0, n1), c in f.terms.items():
            factor = QScalar.q_power(s * n1 * (n1 - 1))
            if (n0 + n1) % 2:
                factor = -factor
            out[(n0, n1)] = c * factor
        return CFunction(want, out)

    # The q-power operator is symmetric in the +/- degrees, so the mirrored
    # variants share the formula; only the base sign differs.
    ip, i3, im = want.index("xp"), want.index("x3"), want.index("xm")
    step_pre = qpow(-s) * LAM * LAMP
    if s < 0:
        step_pre = -step_pre
    out = CFunction.zero(want)
    kmax = f.degree("x3") // 2
    for k in range(kmax + 1):
        pre = qpow(4 * s * k * k)
        for _ in range(k):
            pre = pre * step_pre
        pre = pre / qfact(2 * k, 2 * s, "double")
        acc = {}
        for exps, c in f.terms.items():
            mp, m3, mm = exps[ip], exps[i3], exps[im]
            w = 2 * (mp * (mp - 1) + mm * (mm - 1)) + m3 * (2 * mp + 2 * mm + m3 - 1)
            factor = QScalar.q_power(2 * s * w)
            if sum(exps) % 2:
                factor = -factor
            factor = factor * QScalar.q_power(-4 * s * k * m3)  # x3 -> q^{-2k}x3
            _add_term(acc, exps, c * factor)
        acc = CFunction(want, acc)
        for _ in range(2 * k):
            acc = acc.jackson_d("x3", 2 * s)
        if acc.is_zero():
            continue
        mono = [0] * len(want)
        mono[ip] = k
        mono[im] = k
        out = out + acc * CFunction.monomial(want, mono, pre)
    return out


def antipode_on_y_legs(space, variant, t: CFunction) -> CFunction:
    """Apply the antipode operator to the y-legs of a translated function."""
    out_vars = t.vars
    want = space_vars(space)
    y_idx = [out_vars.index(_Y_OF[v]) for v in want]
    grouped = {}
    for exps, c in t.terms.items():
        xpart = list(exps)
        ypart = []
        for j in y_idx:
            ypart.append(exps[j])
            xpart[j] = 0
        _add_term(grouped.setdefault(tuple(xpart), {}), tuple(ypart), c)
    out = CFunction.zero(out_vars)
    for xpart, yterms in grouped.items():
        g = antipode(space, variant, CFunction(want, yterms))
        shifted = g.embed(out_vars, {v: _Y_OF[v] for v in want})
        out = out + CFunction(out_vars, {xpart: ONE}) * shifted
    return out


def translated_antipoded_monomial(space, variant, exps) -> CFunction:
    """The composite leg: translate the monomial, antipode the y-legs."""
    want = space_vars(space)
    t = translate(space, variant, CFunction.monomial(want, exps))
    return antipode_on_y_legs(space, variant, t)


def time_taylor(f: CFunction, t0: QScalar) -> CFunction:
    """Translation in the time variable only: the classical shift."""
    return f.shift_var("x0", t0)


_IDENTITY_SETUPS = (
    # (exp variant, translation/antipode variant, action variant, native rep)
    ("x_d", "Lbar", "left", "standard"),
    ("x_dhat", "L", "left_bar", "reversed"),
    ("d_x", "Rbar", "right_bar", "standard"),
    ("dhat_x", "R", "right", "reversed"),
)

_DWORD_SEQ = {
    "line": (("0", "x0"), ("1", "x1")),
    "euclid3": (("0", "x0"), ("-", "xm"), ("3", "x3"), ("+", "xp")),
    ("euclid3", True): (("0", "x0"), ("+", "xp"), ("3", "x3"), ("-", "xm")),
}


def _apply_exp_word(space, exps, action_variant, g, rep):
    """Contract one exponential derivative leg with g via the closed forms.

    Left words act rightmost-first, right words leftmost-first; the hatted
    words run through the indices reversely, matching their basis order."""
    hat = action_variant in ("left_bar", "right")
    seq = _DWORD_SEQ[(space, True)] if (hat and space == "euclid3") else _DWORD_SEQ[space]
    vars_ = space_vars(space)
    order = list(seq)
    if action_variant.startswith("left"):
        order = order[::-1]  # rightmost factor first
    for idx, var in order:
        n = exps[vars_.index(var)]
        for _ in range(n):
            g = act_partial_closed(idx, action_variant, g, space, rep=rep)
    return g


def taylor_identity_check(space: str, g: CFunction = None, max_degree: int = 3,
                          identities=None) -> VerificationReport:
    """End-to-end Taylor reconstruction: the exponential's coordinate leg is
    translated against the antipoded y-leg, its derivative leg acts on g,
    and the contraction must rebuild g on the x-legs exactly."""
    rep = VerificationReport("hopf-taylor", space)
    want = space_vars(space)
    if g is None:
        targets = [(str(e), CFunction.monomial(want, e)) for e in _monomials(want, max_degree)]
    else:
        if g.vars != want:
            g = g.restrict(want)
        targets = [("poly", g)]
    top = max((gf.degree() for _, gf in targets), default=0)
    setups = identities or _IDENTITY_SETUPS
    out_vars = doubled_vars(space)
    for setup in setups:
        exp_variant, tvariant, avariant, rep_name = setup
        # one exponential per setup; its terms are sorted by degree, and the
        # prefix up to a target's degree is the exponential truncated there
        exp = qexp(space, exp_variant, top)
        leg_cache = {}
        for label, gf in targets:
            deg = gf.degree()
            acc = CFunction.zero(out_vars)
            for exps, _dword, coeff in exp:
                if sum(exps) > deg:
                    break
                acted = _apply_exp_word(space, exps, avariant, gf, rep_name)
                if acted.is_zero():
                    continue
                if exps not in leg_cache:
                    leg_cache[exps] = translated_antipoded_monomial(
                        space, tvariant, exps
                    )
                leg = leg_cache[exps]
                ypoly = acted.embed(out_vars, {v: _Y_OF[v] for v in want})
                acc = acc + (leg * ypoly).scale(coeff)
            expect = gf.embed(out_vars)
            if acc != expect:
                rep.record(f"{exp_variant}/{tvariant}:{label}", str(acc), str(expect))
    return rep
