"""The closed-form Taylor-sum kernels against the code they replace.

``translate``, ``antipode`` and the euclid3 star product sum over the terms
of their input with q-binomial coefficients.  The functions below restate
the earlier kernels verbatim (re-differentiating with ``jackson_d`` for every
index tuple and dividing by q-factorials) and serve as the oracle: both must
give the same canonical scalars, so ``==`` and the printed form agree.
"""

import random

import pytest

from qspace.cfunc import CFunction, E3_VARS, LINE_VARS, _monomials, space_vars
from qspace.hopf import TRANSLATE_VARIANTS, antipode, doubled_vars, translate
from qspace.pairexp import classical_factorial
from qspace.scalars import I, LAM, LAMP, ONE, Q, QScalar, _add_term, qfact, qnum, qpow
from qspace.spaces import Y_OF
from qspace.starcalc import _star_e3

# variant -> (base sign, +/- index swap) of the earlier kernels, restated so
# that the oracle shares no table with the code it checks
_VARIANT_PARAMS = {
    "Lbar": (1, False),
    "L": (-1, True),
    "Rbar": (1, True),
    "R": (-1, False),
}


def _double_qfact(n, a):
    """The even double q-factorial [[2]]_{q^a} [[4]]_{q^a} ... [[n]]_{q^a}."""
    out = ONE
    for j in range(2, n + 1, 2):
        out = out * qnum(j, a)
    return out


def _old_translate(space, variant, f):
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
    yp = Y_OF[vp]
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
                                * _double_qfact(2 * l, 2 * s)
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
                                out_vars, {v: Y_OF[v] for v in want}
                            )
    return out


def _old_antipode(space, variant, f):
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
        pre = pre / _double_qfact(2 * k, 2 * s)
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


def _old_star_e3(f, g, reversed_order):
    vars_ = space_vars("euclid3")
    i3 = vars_.index("x3")
    ip = vars_.index("xp")
    im = vars_.index("xm")
    kmax = min(f.degree("xm"), g.degree("xp")) if not reversed_order else min(
        f.degree("xp"), g.degree("xm")
    )
    out = {}
    for k in range(kmax + 1):
        if reversed_order:
            fk = f
            gk = g
            for _ in range(k):
                fk = fk.jackson_d("xp", -4)
                gk = gk.jackson_d("xm", -4)
            pre = ONE
            for _ in range(k):
                pre = pre * (-LAM)
            pre = pre / qfact(k, -4)
        else:
            fk = f
            gk = g
            for _ in range(k):
                fk = fk.jackson_d("xm", 4)
                gk = gk.jackson_d("xp", 4)
            pre = ONE
            for _ in range(k):
                pre = pre * LAM
            pre = pre / qfact(k, 4)
        for ef, cf in fk.terms.items():
            for eg, cg in gk.terms.items():
                if reversed_order:
                    w = -2 * (ef[i3] * eg[im] + ef[ip] * eg[i3])
                else:
                    w = 2 * (ef[i3] * eg[ip] + ef[im] * eg[i3])
                e = [a + b for a, b in zip(ef, eg)]
                e[i3] += 2 * k
                _add_term(out, tuple(e), cf * cg * QScalar.q_power(2 * w) * pre)
    return CFunction(vars_, out)


def _same(got, want, label):
    assert got == want, label
    assert str(got) == str(want), label


# rational and Gaussian coefficients next to plain q-powers
_COEFFS = (ONE, -qpow(1), ONE / (ONE + Q), I, qpow(-2) * 3 - I)


def _random_poly(rng, vars_, max_degree, terms):
    monos = _monomials(vars_, max_degree, False)
    out = CFunction.zero(vars_)
    for _ in range(terms):
        out = out + CFunction.monomial(vars_, rng.choice(monos), rng.choice(_COEFFS))
    return out


@pytest.mark.parametrize("space,max_degree", [("euclid3", 4), ("line", 6)])
def test_kernels_match_on_monomials(space, max_degree):
    vars_ = space_vars(space)
    for exps in _monomials(vars_, max_degree, False):
        f = CFunction.monomial(vars_, exps)
        for variant in TRANSLATE_VARIANTS:
            label = (space, variant, exps)
            _same(translate(space, variant, f), _old_translate(space, variant, f), label)
            _same(antipode(space, variant, f), _old_antipode(space, variant, f), label)


def test_star_matches_on_monomial_pairs():
    monos = _monomials(E3_VARS, 4, False)
    for ef in monos:
        f = CFunction.monomial(E3_VARS, ef)
        for eg in monos:
            if sum(ef) + sum(eg) > 4:
                continue
            g = CFunction.monomial(E3_VARS, eg)
            for rev in (False, True):
                _same(_star_e3(f, g, rev), _old_star_e3(f, g, rev), (ef, eg, rev))


def test_kernels_match_on_seeded_multi_term_inputs():
    rng = random.Random(20071)
    for _ in range(12):
        for space, vars_ in (("euclid3", E3_VARS), ("line", LINE_VARS)):
            f = _random_poly(rng, vars_, 3, 3)
            for variant in TRANSLATE_VARIANTS:
                label = (space, variant, str(f))
                _same(translate(space, variant, f), _old_translate(space, variant, f), label)
                _same(antipode(space, variant, f), _old_antipode(space, variant, f), label)
        f = _random_poly(rng, E3_VARS, 3, 3)
        g = _random_poly(rng, E3_VARS, 3, 3)
        for rev in (False, True):
            _same(_star_e3(f, g, rev), _old_star_e3(f, g, rev), (str(f), str(g), rev))
