"""Time evolution: truncated evolution-operator series, the equations they
satisfy, Heisenberg dynamics, whole-space q-integrals, integration by parts,
and the sesquilinear forms.

Time is a commutative formal symbol (its braiding is trivial), so evolution
operators are polynomials in t with normal-ordered spatial coefficients."""

from __future__ import annotations

from fractions import Fraction

from .cfunc import (
    CFunction,
    LatticeFunction,
    jackson_integral_numeric,
    jackson_integral_whole_line,
    space_vars,
)
from .ncalgebra import NCElement, act, lift, lower
from .qfunc import act_inverse_partial, act_partial_closed, scale_arg
from .reports import VerificationReport
from .scalars import I, ONE, QScalar, ZERO, _add_term, qpow, scalar


class Hamiltonian:
    """A spatial operator; hermiticity is verified at construction when
    asserted."""

    def __init__(self, op: NCElement, hermitian: bool = False):
        if not op.is_spatial():
            raise ValueError("Hamiltonians must not involve time or scaling factors")
        if hermitian and op.conjugate() != op:
            raise ValueError("operator is not hermitian under the conjugation")
        self.op = op
        self.hermitian = hermitian
        self.space = op.space


def free_hamiltonian(space: str) -> Hamiltonian:
    """-1/2 of the invariant derivative square; the default demo generator."""
    if space == "line":
        op = NCElement.from_word("line", ("d1", "d1")).scale(
            QScalar.from_rational(Fraction(-1, 2))
        )
        return Hamiltonian(op, hermitian=True)
    half = QScalar.from_rational(Fraction(1, 2))
    dp = NCElement.generator("euclid3", "dp")
    d3 = NCElement.generator("euclid3", "d3")
    dm = NCElement.generator("euclid3", "dm")
    quad = (dp * dm).scale(-qpow(1)) + (dm * dp).scale(-qpow(-1)) + d3 * d3
    return Hamiltonian(quad.scale(-half), hermitian=True)


class OperatorSeries:
    """Polynomial in the formal time symbol with NCElement coefficients."""

    def __init__(self, space, coeffs):
        self.space = space
        self.coeffs = list(coeffs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, n):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return NCElement.zero(self.space)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return OperatorSeries(
            self.space, [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return OperatorSeries(
            self.space, [self.coeff(k) - other.coeff(k) for k in range(n)]
        )

    def mul_truncated(self, other, order):
        out = [NCElement.zero(self.space) for _ in range(order + 1)]
        for a, ca in enumerate(self.coeffs):
            if a > order or ca.is_zero():
                continue
            for b, cb in enumerate(other.coeffs):
                if a + b > order or cb.is_zero():
                    continue
                out[a + b] = out[a + b] + ca * cb
        return OperatorSeries(self.space, out)

    def conjugate(self):
        """Coefficient-wise conjugation; the time symbol is real."""
        return OperatorSeries(self.space, [c.conjugate() for c in self.coeffs])

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(k) == other.coeff(k) for k in range(n))

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            t = "" if n == 0 else (" t" if n == 1 else f" t^{n}")
            parts.append(f"({c}){t}")
        return " + ".join(parts) if parts else "0"


def build_U(H: Hamiltonian, order: int, direction: str = "forward") -> OperatorSeries:
    """Truncated evolution operator: coefficient n is (-+ i)^n H^n / n!."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    unit = I if direction == "inverse" else -I
    coeffs = [NCElement.one(H.space)]
    power = NCElement.one(H.space)
    fac = ONE
    phase = ONE
    for n in range(1, order + 1):
        power = power * H.op
        fac = fac * scalar(n)
        phase = phase * unit
        coeffs.append(power.scale(phase / fac))
    return OperatorSeries(H.space, coeffs)


def schrodinger_residual(U: OperatorSeries, H: Hamiltonian) -> VerificationReport:
    """Term-by-term check of the two printed equation families: the forward
    series against i d/dt = H on the left, and the backward-phase series
    against the right-sided time derivative (which acts as -d/dt)."""
    rep = VerificationReport("schrodinger", H.space)
    order = U.order
    for n in range(order):
        lhs = U.coeff(n + 1).scale(I * scalar(n + 1))
        rhs = H.op * U.coeff(n)
        if lhs != rhs:
            rep.record(f"left family, t^{n}", str(lhs), str(rhs))
    UR = build_U(H, order, direction="inverse")  # exp(+iHt), the right-handed operator
    for n in range(order):
        lhs = UR.coeff(n + 1).scale(-I * scalar(n + 1))
        rhs = UR.coeff(n) * H.op
        if lhs != rhs:
            rep.record(f"right family, t^{n}", str(lhs), str(rhs))
    return rep


def _binomial(n, k):
    out = 1
    for j in range(1, k + 1):
        out = out * (n - j + 1) // j
    return out


def _expand_two_times(space, series: OperatorSeries, sign_second: int, order):
    """Expand sum_n c_n (t + sign * t')^n as {(a, b): NCElement}."""
    out = {}
    for n, c in enumerate(series.coeffs):
        if n > order or c.is_zero():
            continue
        for j in range(n + 1):
            coeff = scalar(_binomial(n, j) * (sign_second ** (n - j)))
            _add_term(out, (j, n - j), c.scale(coeff))
    return out


def _mul_bivariate(space, A, B, order):
    out = {}
    for (a1, a2), ca in A.items():
        for (b1, b2), cb in B.items():
            if a1 + a2 + b1 + b2 > order:
                continue
            _add_term(out, (a1 + b1, a2 + b2), ca * cb)
    return out


def compose_check(H: Hamiltonian, order: int, t_points=None) -> VerificationReport:
    """U(t,t'') U(t'',t') = U(t,t') and the inverse law, expanded exactly as
    polynomials in the time symbols through the truncation order.

    With t_points = (t, t'', t') the same comparison is additionally made at
    those scalar time values (exact substitution)."""
    rep = VerificationReport("composition", H.space)
    U = build_U(H, order)
    # U(t,t'') has time polynomial (t - t''), U(t'',t') has (t'' - t');
    # track exponents of (t, t'', t') as triples via two bivariate passes.
    A = _expand_two_times(H.space, U, -1, order)   # (t, t'')
    B = _expand_two_times(H.space, U, -1, order)   # (t'', t')
    lhs = {}
    for (a1, a2), ca in A.items():
        for (b1, b2), cb in B.items():
            if a1 + a2 + b1 + b2 > order:
                continue
            _add_term(lhs, (a1, a2 + b1, b2), ca * cb)
    rhs = {}
    for (a, b), c in _expand_two_times(H.space, U, -1, order).items():
        rhs[(a, 0, b)] = c
    keys = set(lhs) | set(rhs)
    zero = NCElement.zero(H.space)
    for k in sorted(keys):
        if lhs.get(k, zero) != rhs.get(k, zero):
            rep.record(f"compose t^{k[0]} t''^{k[1]} t'^{k[2]}",
                       str(lhs.get(k, zero)), str(rhs.get(k, zero)))
    # inverse law U(t,t') U(t',t) = 1
    C = _expand_two_times(H.space, U, -1, order)
    D = {(b, a): c for (a, b), c in C.items()}
    prod = _mul_bivariate(H.space, C, D, order)
    one = NCElement.one(H.space)
    for k, v in prod.items():
        want = one if k == (0, 0) else NCElement.zero(H.space)
        if v != want:
            rep.record(f"inverse law t^{k[0]} t'^{k[1]}", str(v), str(want))
    if (0, 0) not in prod:
        rep.record("inverse law constant term", "0", "1")

    if t_points is not None:
        t, t2, t1 = t_points  # (t, t'', t')

        def at(poly, values):
            acc = NCElement.zero(H.space)
            for key, c in poly.items():
                s = ONE
                for exp, val in zip(key, values):
                    for _ in range(exp):
                        s = s * val
                acc = acc + c.scale(s)
            return acc

        lnum = at(lhs, (t, t2, t1))
        rnum = at(rhs, (t, t2, t1))
        if lnum != rnum:
            rep.record(f"composition at {t_points}", str(lnum), str(rnum))
    return rep


def unitarity_check(H: Hamiltonian, order: int) -> VerificationReport:
    """With a hermitian generator, the conjugate series times the series is
    the identity through the truncation order."""
    rep = VerificationReport("unitarity", H.space)
    if not H.hermitian:
        rep.status = "skipped"
        rep.note("generator not declared hermitian")
        return rep
    U = build_U(H, order)
    prod = U.conjugate().mul_truncated(U, order)
    for n in range(order + 1):
        want = NCElement.one(H.space) if n == 0 else NCElement.zero(H.space)
        if prod.coeff(n) != want:
            rep.record(f"t^{n}", str(prod.coeff(n)), str(want))
    return rep


def heisenberg_evolve(O: NCElement, H: Hamiltonian, order: int) -> OperatorSeries:
    """The conjugated-observable series U^-1 O U, truncated."""
    if O.space != H.space:
        raise ValueError("observable and Hamiltonian live on different spaces")
    Uf = build_U(H, order)
    Ui = build_U(H, order, direction="inverse")
    mid = OperatorSeries(H.space, [O])
    return Ui.mul_truncated(mid, order).mul_truncated(Uf, order)


def heisenberg_check(O: NCElement, H: Hamiltonian, order: int) -> VerificationReport:
    """d/dt of the evolved observable equals i[H, .] through order - 1."""
    rep = VerificationReport("heisenberg", H.space)
    series = heisenberg_evolve(O, H, order)
    for n in range(order):
        lhs = series.coeff(n + 1).scale(scalar(n + 1))
        rhs = (H.op * series.coeff(n) - series.coeff(n) * H.op).scale(I)
        if lhs != rhs:
            rep.record(f"t^{n}", str(lhs), str(rhs))
    return rep


def _integrate_time_poly(coeffs):
    """Symbolic antiderivative of sum c_n t^n from 0, as series coefficients."""
    out = [ZERO]
    for n, c in enumerate(coeffs):
        out.append(c / scalar(n + 1))
    return out


def dyson_check(H: Hamiltonian, order: int) -> VerificationReport:
    """The iterated-integral solution and the integral equation, both
    evaluated symbolically, reproduce the exponential series."""
    rep = VerificationReport("dyson", H.space)
    U = build_U(H, order)
    # iterated integrals: i^-n H^n int dt1...dtn 1 = i^-n H^n t^n/n!
    power = NCElement.one(H.space)
    phase = ONE
    tpoly = [ONE]
    for n in range(1, order + 1):
        power = power * H.op
        phase = phase / I
        tpoly = _integrate_time_poly(tpoly)  # t^n/n! built step by step
        coeff = power.scale(phase * tpoly[n])
        if coeff != U.coeff(n):
            rep.record(f"iterated integral t^{n}", str(coeff), str(U.coeff(n)))
    # integral equation iteration: U_{k+1} = 1 - i int_0^t H U_k
    approx = OperatorSeries(H.space, [NCElement.one(H.space)])
    for _ in range(order):
        new_coeffs = [NCElement.one(H.space)]
        for n, c in enumerate(approx.coeffs):
            if n + 1 > order:
                break
            new_coeffs.append((H.op * c).scale(-I / scalar(n + 1)))
        approx = OperatorSeries(H.space, new_coeffs)
    for n in range(order + 1):
        if approx.coeff(n) != U.coeff(n):
            rep.record(f"integral equation t^{n}", str(approx.coeff(n)), str(U.coeff(n)))
    return rep


def schrodinger_wave_check(H: Hamiltonian, phi0: CFunction, order: int) -> VerificationReport:
    """For the evolved wave function the picture equation holds order by
    order: i d/dt phi = H |> phi.

    The series is built from the operator powers H^n acting in one stroke;
    the equation then checks that single applications reproduce it, which
    exercises the action's module property rather than the construction."""
    rep = VerificationReport("schrodinger-wave", H.space)
    space = H.space
    phi = lift(space, phi0)
    coeffs = []
    power = NCElement.one(space)
    phase = ONE
    fac = ONE
    for n in range(order + 1):
        if n:
            power = power * H.op
            phase = phase * (-I)
            fac = fac * scalar(n)
        coeffs.append(lower(space, act(power, phi, "left")).scale(phase / fac))
    for n in range(order):
        lhs = coeffs[n + 1].scale(I * scalar(n + 1))
        rhs = lower(space, act(H.op, lift(space, coeffs[n]), "left"))
        if lhs != rhs:
            rep.record(f"t^{n}", str(lhs), str(rhs))
    return rep


# -- whole-space integrals -------------------------------------------------------

_WHOLE_LINE = {
    # variant -> (base exponent a, overall sign)
    "L": (1, 1),
    "Lbar": (-1, 1),
    "Rbar": (1, -1),
    "R": (-1, -1),
}

_WHOLE_E3 = {
    # variant -> (prefactor, per-axis base, axis order), sign per the printed
    # minus identities for the right-handed measures
    "L": (lambda: qpow(-6) * QScalar.from_rational(Fraction(1, 4)), 2, ("xp", "x3", "xm"), 1),
    "Lbar": (lambda: qpow(6) * QScalar.from_rational(Fraction(1, 4)), -2, ("xm", "x3", "xp"), 1),
    "Rbar": (lambda: qpow(-6) * QScalar.from_rational(Fraction(1, 4)), 2, ("xp", "x3", "xm"), -1),
    "R": (lambda: qpow(6) * QScalar.from_rational(Fraction(1, 4)), -2, ("xm", "x3", "xp"), -1),
}


def integrate_whole_line(f: LatticeFunction, variant: str, tol: float) -> complex:
    a, sign = _WHOLE_LINE[variant]
    return sign * jackson_integral_whole_line(f, a, tol)


class SeparableLattice3:
    """Product lattice function f+(x+) f3(x3) f-(x-) on the 3d space."""

    def __init__(self, fp: LatticeFunction, f3: LatticeFunction, fm: LatticeFunction):
        self.legs = {"xp": fp, "x3": f3, "xm": fm}


def integrate_whole_e3(f: SeparableLattice3, variant: str, tol: float) -> complex:
    pref, base, axes, sign = _WHOLE_E3[variant]
    total = complex(pref().eval_float(f.legs["xp"].q0))
    for axis in axes:
        total *= jackson_integral_whole_line(f.legs[axis], base, tol)
    return sign * total


# -- integration by parts ----------------------------------------------------------

IBP_VARIANTS = (
    ("left", "0"),
    ("left", "1"),
    ("left_bar", "0"),
    ("left_bar", "1"),
    ("right", "0"),
    ("right", "1"),
    ("right_bar", "0"),
    ("right_bar", "1"),
)


def _definite(space, F: CFunction, var: str, a: QScalar, b: QScalar) -> CFunction:
    return F.subs_scalar(var, b) - F.subs_scalar(var, a)


def ibp_check(f: CFunction, g: CFunction, a: QScalar, b: QScalar) -> VerificationReport:
    """The eight printed integration-by-parts identities on the line,
    checked exactly on polynomials with scalar endpoints."""
    rep = VerificationReport("integration-by-parts", "line")
    space = "line"

    def D(variant, idx, h):
        return act_partial_closed(idx, variant, h, space)

    def Dinv_def(variant, idx, h, var):
        F = act_inverse_partial(idx, variant, h, space)
        return _definite(space, F, var, a, b)

    for variant, idx in IBP_VARIANTS:
        var = "x0" if idx == "0" else "x1"
        boundary = _definite(space, f * g, var, a, b)
        if variant.startswith("left"):
            # (D f) g integrated = boundary - (scaled f)(D g) integrated
            if idx == "0":
                scaled = f
            else:
                scaled = scale_arg(f, "x1", 2 if variant == "left" else -2)
            lhs = Dinv_def(variant, idx, D(variant, idx, f) * g, var)
            rhs = boundary - Dinv_def(variant, idx, scaled * D(variant, idx, g), var)
        else:
            # f (g D) integrated = boundary - (f D)(scaled g) integrated
            if idx == "0":
                scaled = g
            else:
                scaled = scale_arg(g, "x1", -2 if variant == "right" else 2)
            lhs = Dinv_def(variant, idx, f * D(variant, idx, g), var)
            rhs = boundary - Dinv_def(variant, idx, D(variant, idx, f) * scaled, var)
        if lhs != rhs:
            rep.record(f"{variant} d{idx}", str(lhs), str(rhs))
    return rep


def ibp_check_numeric(q0: float, tol: float, cutoff: int = 120) -> VerificationReport:
    """Numeric spot check of the space-direction identities on a finite
    lattice interval, with the integrals evaluated as geometric sums."""
    rep = VerificationReport("integration-by-parts-numeric", "line")
    f = CFunction.monomial(space_vars("line"), (0, 1))
    g = CFunction.monomial(space_vars("line"), (0, 2))
    k_lo, k_hi = -6, 4  # interval [q0^-6, q0^4] on the positive axis

    def num_jackson(h: CFunction, base: int, sign: int):
        lat = LatticeFunction.from_cfunction(h, "x1", q0, cutoff)
        up = jackson_integral_numeric(lat, base, "0_x", tol, k0=k_hi)
        low = jackson_integral_numeric(lat, base, "0_x", tol, k0=k_lo)
        return sign * (up - low)

    boundary = (f * g).eval_float(q0, {"x0": 0.0, "x1": q0 ** k_hi}) - (
        f * g
    ).eval_float(q0, {"x0": 0.0, "x1": q0 ** k_lo})
    for variant, base, sign in (
        ("left", 1, 1),
        ("left_bar", -1, 1),
        ("right", -1, -1),
        ("right_bar", 1, -1),
    ):
        Df = act_partial_closed("1", variant, f, "line")
        Dg = act_partial_closed("1", variant, g, "line")
        if variant.startswith("left"):
            scaled_f = scale_arg(f, "x1", 2 if variant == "left" else -2)
            lhs = num_jackson(Df * g, base, sign)
            rhs = boundary - num_jackson(scaled_f * Dg, base, sign)
        else:
            scaled_g = scale_arg(g, "x1", -2 if variant == "right" else 2)
            lhs = num_jackson(f * Dg, base, sign)
            rhs = boundary - num_jackson(Df * scaled_g, base, sign)
        if abs(lhs - rhs) > 1e-9:
            rep.record(variant, str(lhs), str(rhs))
    return rep


# -- sesquilinear forms --------------------------------------------------------------

def conjugate_function(space, f: CFunction) -> CFunction:
    """The commutative representative of the conjugated element."""
    return lower(space, lift(space, f).conjugate())


def sesquilinear_line(f: CFunction, g: CFunction, form: str, q0: float,
                      tol: float, cutoff: int = 200, window: int = 30):
    """Sesquilinear forms on the line: the q-integral of conj(f) g (or of
    f conj(g) for the primed forms) over the lattice window, combined per
    geometry with the i/2 weight.

    The printed minus identities make the averaged forms vanish identically;
    both the averaged value and the per-geometry values are returned so the
    content stays visible."""
    primed = form.endswith("p")
    if primed:
        integrand = f * conjugate_function("line", g)
    else:
        integrand = conjugate_function("line", f) * g
    lat = LatticeFunction.from_cfunction(integrand, "x1", q0, cutoff, window=window)
    values = {v: integrate_whole_line(lat, v, tol) for v in ("L", "Lbar", "R", "Rbar")}
    base = form[:1]
    if base == "1":
        combined = 0.5j * (values["L"] + values["Rbar"])
    elif base == "2":
        combined = 0.5j * (values["Lbar"] + values["R"])
    else:
        raise ValueError(f"unknown form {form!r}")
    return combined, values
