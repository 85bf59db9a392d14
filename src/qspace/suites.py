"""The machine-checkable verification suites behind `qspace verify`.

Each suite returns VerificationReports; documented discrepancies of the
printed source are attached as notes, never silently absorbed."""

from __future__ import annotations

from fractions import Fraction

from . import evolution, grassmann, hopf, pairexp, qfunc, rmatrix, starcalc
from .cfunc import CFunction, LatticeFunction, _monomials, jackson_weight, lattice_sum, space_vars
from .ncalgebra import NCElement, act, hat_factor, lift, lower, normal_form
from .reports import VerificationReport
from .scalars import GaussianRational, ONE, ZERO, qnum, qpow, scalar
from .spaces import CALCULI, D_OF_LABEL, LABELS, SPACES, X_TOKENS

NOTE_LEI_SUBSCRIPTS = (
    "the printed hatted time rules end in stray subscripts (a 3-index and a "
    "bare derivative); time centrality of the hatted calculus is implemented"
)
NOTE_DP_X3 = (
    "the printed hatted rule for the raising derivative past the 3-coordinate "
    "carries q lam lam+ where overlap consistency and conjugation transport "
    "force q^-1 lam lam+; the corrected coefficient is implemented"
)
NOTE_DOUBLE_FACT_INDEX = (
    "the translation formula's double-factorial index is printed with an "
    "unbound symbol; it is read as the inner summation index, validated by "
    "the counit and Taylor checks"
)
NOTE_ANTIPODE_EXPONENT = (
    "the antipode's squared-number-operator exponents are read as n(n-1) on "
    "the +/- degrees and the corrected right side is used directly (no "
    "ordering transport), the only reading that passes the counit and Taylor "
    "checks"
)
NOTE_FLIPPED_EXP = (
    "the printed derivative-first exponentials fail their own duality "
    "(bases swapped, missing signs); the duality-consistent coefficients "
    "are implemented and pinned by the Kronecker reconstruction"
)
NOTE_REVERSED_STAR = (
    "the reversed-ordering star twin is implemented with the +/- indices in "
    "the exponent factor mirrored along with everything else; the printed "
    "unswapped indices fail the round-trip oracle"
)
NOTE_SESQUILINEAR = (
    "the printed whole-space minus identities make the i^n/2-averaged "
    "sesquilinear forms vanish identically; per-geometry values are exposed"
)


class SuiteOptions:
    def __init__(self, degree=4, order=4, q0=1.1, spaces=SPACES):
        if degree < 0 or order < 0:
            raise ValueError("degree and order must be nonnegative")
        self.degree = degree
        self.order = order
        self.q0 = q0
        self.spaces = tuple(spaces)


def suite_ybe(opts: SuiteOptions):
    return [rmatrix.check_ybe(space, rmatrix.build_R(space)) for space in opts.spaces]


def suite_projectors(opts: SuiteOptions):
    out = []
    for space in opts.spaces:
        out.append(rmatrix.projector_algebra_check(space))
        out.append(rmatrix.spectral_check(space))
    return out


def suite_relations(opts: SuiteOptions):
    """The relations the projectors give are one per disordered coordinate
    pair, and each rewrites its pair to the engine's normal form."""
    out = []
    for space in opts.spaces:
        rep = VerificationReport("relations", space)
        rules = rmatrix.relations_from_projectors(space)
        labels = LABELS[space]
        x_of = dict(zip(labels, X_TOKENS[space]))
        disordered = [(a, b) for i, a in enumerate(labels) for b in labels[:i]]
        for a, b in disordered:
            engine = normal_form(space, (x_of[a], x_of[b]))
            derived = NCElement.zero(space)
            for (c, e), v in rules.get((a, b), {}).items():
                derived = derived + normal_form(space, (x_of[c], x_of[e]), v)
            if derived != engine:
                rep.record(f"X{a}X{b}", str(derived), str(engine))
        for lhs in rules:
            if lhs not in disordered:
                rep.record(f"extra rule X{lhs[0]}X{lhs[1]}", str(rules[lhs]), "")
        if space == "line":
            rep.note(
                "the line antisymmetrizer carries the printed '+' subscript; "
                "relation projectors are selected by eigenvalue"
            )
        out.append(rep)
    return out


def suite_metric(opts: SuiteOptions):
    if "euclid3" not in opts.spaces:
        return []
    return [rmatrix.metric_check(*rmatrix.metric_from_P0())]


def suite_oracle_actions(opts: SuiteOptions):
    out = []
    for space in opts.spaces:
        rep = VerificationReport("oracle-actions", space)
        vars_ = space_vars(space)
        for idx, dtag in D_OF_LABEL[space].items():
            for variant in CALCULI:
                D = NCElement.generator(space, dtag)
                if CALCULI[variant][0] and idx != "0":
                    D = D.scale(hat_factor(space, 1))
                for e in _monomials(vars_, opts.degree):
                    f = CFunction.monomial(vars_, e)
                    closed = qfunc.act_partial_closed(idx, variant, f, space)
                    oracle = lower(space, act(D, lift(space, f), variant))
                    if closed != oracle:
                        rep.record(f"{idx},{variant},{e}", str(closed), str(oracle))
        if space == "euclid3":
            rep.note(NOTE_LEI_SUBSCRIPTS)
            rep.note(NOTE_DP_X3)
        out.append(rep)
    return out


def suite_star(opts: SuiteOptions):
    if "euclid3" not in opts.spaces:
        return []
    out = starcalc.star_checks(opts.degree)
    out[0].note(NOTE_REVERSED_STAR)
    return out


def suite_hopf_taylor(opts: SuiteOptions):
    out = []
    deg = min(opts.degree, 3)
    for space in opts.spaces:
        rep = hopf.taylor_identity_check(space, max_degree=deg)
        rep.note(NOTE_DOUBLE_FACT_INDEX)
        rep.note(NOTE_ANTIPODE_EXPONENT)
        out.append(rep)
        counit = VerificationReport("hopf-counit", space)
        vars_ = space_vars(space)
        for variant in ("L", "Lbar"):
            for e in _monomials(vars_, deg):
                f = CFunction.monomial(vars_, e)
                t = hopf.translate(space, variant, f)
                for y in [v for v in t.vars if v.startswith("y")]:
                    t = t.subs_scalar(y, ZERO)
                back = t.restrict(vars_)
                if back != f:
                    counit.record(f"{variant}:{e}", str(back), str(f))
        out.append(counit)
    if "line" not in opts.spaces:
        return out
    # line antipode pair composition
    rep = VerificationReport("hopf-antipode-square", "line")
    vars_ = space_vars("line")
    for e in _monomials(vars_, 5):
        f = CFunction.monomial(vars_, e)
        got = hopf.antipode("line", "Lbar", hopf.antipode("line", "L", f))
        if got != f:
            rep.record(str(e), str(got), str(f))
    out.append(rep)
    return out


def suite_pairings(opts: SuiteOptions):
    out = []
    for space in opts.spaces:
        deg = min(opts.degree, 4 if space == "line" else 3)
        rep = VerificationReport("pairing-values", space)
        vars_ = space_vars(space)
        for exps in _monomials(vars_, deg):
            xw = pairexp.coord_word_element(space, exps, reversed_order=False)
            xwr = pairexp.coord_word_element(space, exps, reversed_order=True)
            dw = pairexp.deriv_word_element(space, exps, False)
            dwh = pairexp.deriv_word_element(space, exps, True)
            want = pairexp._norm_factor(space, exps, False)
            wanth = pairexp._norm_factor(space, exps, True)
            sgn = scalar(-1) if sum(exps) % 2 else ONE
            checks = (
                ("plain deriv-first", pairexp.pair(space, "L_Rbar", dw, xw), want),
                ("hat deriv-first", pairexp.pair(space, "Lbar_R", dwh, xwr), wanth),
                ("plain coord-first",
                 pairexp.pair(space, "L_Rbar", dw, xw, order="coord_first"), sgn * want),
                ("hat coord-first",
                 pairexp.pair(space, "Lbar_R", dwh, xwr, order="coord_first"), sgn * wanth),
            )
            for tag, got, w in checks:
                if got != w:
                    rep.record(f"{tag}:{exps}", str(got), str(w))
        out.append(rep)
        for variant in pairexp.EXP_VARIANTS:
            krep = pairexp.kronecker_check(space, variant, deg if space == "line" else 3)
            if CALCULI[pairexp._EXP_MODE[variant]][1]:
                krep.note(NOTE_FLIPPED_EXP)
            out.append(krep)
    if "line" not in opts.spaces:
        return out
    # classical limit of the exponential coefficients
    rep = VerificationReport("qexp-classical-limit", "line")
    exp = pairexp.qexp("line", "x_d", 4)
    for exps, _d, coeff in exp:
        want = ONE / (pairexp.classical_factorial(exps[0]) * pairexp.classical_factorial(exps[1]))
        if coeff.eval_exact(1) != want.eval_exact(1):
            rep.record(str(exps), str(coeff), str(want))
    out.append(rep)
    return out


def suite_evolution(opts: SuiteOptions):
    out = []
    for space in opts.spaces:
        H = evolution.free_hamiltonian(space)
        U3 = evolution.build_U(H, max(3, opts.order - 1))
        out.append(evolution.schrodinger_residual(U3, H))
        out.append(evolution.compose_check(H, opts.order))
        out.append(evolution.unitarity_check(H, opts.order))
        out.append(evolution.dyson_check(H, opts.order))
        vars_ = space_vars(space)
        phi0 = CFunction.monomial(vars_, (0, 2) if space == "line" else (0, 1, 1, 0))
        out.append(evolution.schrodinger_wave_check(H, phi0, 3))
    if "line" not in opts.spaces:
        return out
    # Heisenberg dynamics: the printed example generator on the line
    Hline = evolution.Hamiltonian(NCElement.from_word("line", ("d1", "d1")), hermitian=True)
    O = NCElement.generator("line", "x1")
    out.append(evolution.heisenberg_check(O, Hline, 3))
    rep = VerificationReport("heisenberg-classical-limit", "line")
    series = evolution.heisenberg_evolve(O, Hline, 3)
    c1 = series.coeff(1).eval_coeffs_exact(1)
    want = {(0, 0, 0, 1, 0): GaussianRational(0, 2)}
    if c1 != want:
        rep.record("t^1 at q=1", str(c1), str(want))
    out.append(rep)
    out.append(evolution.heisenberg_check(Hline.op, Hline, 3))
    return out


def suite_numeric_integrals(opts: SuiteOptions):
    import math

    if "line" not in opts.spaces:
        return []
    out = []
    rep = VerificationReport("jackson-numeric", "line")
    vars_ = space_vars("line")
    for n in range(0, 4):
        # the closed sum of the geometric series q^k (q^k)^n over k <= -1
        f = CFunction.monomial(vars_, (0, n))
        first, second = (lattice_sum(f, "x1", (k,)) for k in (-1, -2))
        got = jackson_weight(1) * first / (1 - second / first)
        want = ONE / qnum(n + 1)
        if got != want:
            rep.record(f"int_0^1 x^{n}", str(got), str(want))
    out.append(rep)

    q0 = opts.q0
    rep = VerificationReport("whole-line-integrals", "line")
    bump = LatticeFunction.from_callable(lambda x: math.exp(-x * x), q0, 400)
    vL = evolution.integrate_whole_line(bump, "L", 1e-12)
    vLb = evolution.integrate_whole_line(bump, "Lbar", 1e-12)
    vR = evolution.integrate_whole_line(bump, "R", 1e-12)
    vRb = evolution.integrate_whole_line(bump, "Rbar", 1e-12)
    if vL != -vRb:
        rep.record("L vs Rbar", str(vL), str(-vRb))
    if vLb != -vR:
        rep.record("Lbar vs R", str(vLb), str(-vR))
    direct = (q0 - 1) * sum(
        q0 ** k * (math.exp(-(q0 ** k) ** 2) * 2) for k in range(-900, 300)
    )
    if abs(vL.real - direct) > 1e-9:
        rep.record("direct-sum oracle", str(vL.real), str(direct))
    out.append(rep)

    f = CFunction(vars_, {(0, 1): ONE})
    g = CFunction(vars_, {(0, 1): ONE, (1, 0): scalar(2)})
    out.append(evolution.ibp_check(f, g, scalar(Fraction(1, 2)), scalar(3)))
    out.append(evolution.ibp_check_numeric())

    rep = VerificationReport("sesquilinear", "line")
    rep.note(NOTE_SESQUILINEAR)
    fb = CFunction.monomial(vars_, (0, 2))
    comb, per = evolution.sesquilinear_line(fb, fb, "1")
    if comb:
        rep.record("form 1 degeneracy", str(comb), "0")
    shifted = hopf.time_taylor(fb, scalar(2))
    comb2, _ = evolution.sesquilinear_line(shifted, shifted, "1")
    if comb != comb2:
        rep.record("time-shift invariance", str(comb), str(comb2))
    if per["L"] != -per["Rbar"]:
        rep.record("per-geometry minus identity", str(per["L"]), str(-per["Rbar"]))
    # the integrand is x^4, so L is the weight q - 1 times the geometric sum
    # of q^5k over |k| <= 30 on both axes; compared times 1 - q^5, which
    # needs no gcd
    closed = (qpow(1) - ONE) * 2 * (qpow(-150) - qpow(155))
    ratio = ONE - qpow(5)
    if per["L"] * ratio != closed:
        rep.record("L by the closed geometric sum", str(per["L"]), str(closed / ratio))
    out.append(rep)
    return out


def suite_grassmann(opts: SuiteOptions):
    return [grassmann.grassmann_suite()] if "line" in opts.spaces else []


SUITES = {
    "ybe": suite_ybe,
    "projectors": suite_projectors,
    "relations": suite_relations,
    "metric": suite_metric,
    "oracle-actions": suite_oracle_actions,
    "star": suite_star,
    "hopf-taylor": suite_hopf_taylor,
    "pairings": suite_pairings,
    "evolution": suite_evolution,
    "grassmann": suite_grassmann,
    "numeric-integrals": suite_numeric_integrals,
}


def run_suite(names, opts: SuiteOptions = None):
    """Run the requested suites; reports come back ordered by suite name.
    Each suite runs only its work on the spaces the options name."""
    opts = opts or SuiteOptions()
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite names: {', '.join(unknown)}")
    reports = []
    for name in sorted(set(names)):
        reports.extend(SUITES[name](opts))
    return reports
