"""Time evolution: truncated evolution-operator series, the equations they
satisfy, Heisenberg dynamics, whole-space q-integrals, integration by parts,
and the sesquilinear forms.

Time is a commutative formal symbol (its braiding is trivial), so evolution
operators are polynomials in t with normal-ordered spatial coefficients.
The checks expand every time dependence as scalars keyed by the powers of
the Hamiltonian they multiply, sum those scalars first, and only then turn
each key into an element through the Hamiltonian's power table."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

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
from .spaces import CALCULI, LINE, SPATIAL_D


class Hamiltonian:
    """A spatial operator; hermiticity is verified at construction when
    asserted.

    The instance keeps the tables the evolution checks share, filled on
    first use: the powers H^n, each computed as H^(n-1) * H, their
    conjugates, and the products H^a H^b and conj(H^a) H^b.  Every product
    is normal-ordered by the engine, once per key; none is taken to be
    H^(a+b), so comparing the two stays an exact check.  ``op`` is read-only
    so the tables cannot go stale.  Threads may share a Hamiltonian: each
    entry is computed whole and stored with ``setdefault``, so a race only
    computes an equal value, and every caller gets the first one stored."""

    def __init__(self, op: NCElement, hermitian: bool = False):
        if not op.is_spatial():
            raise ValueError("Hamiltonians must not involve time or scaling factors")
        if hermitian and op.conjugate() != op:
            raise ValueError("operator is not hermitian under the conjugation")
        self._op = op
        self.hermitian = hermitian
        self.space = op.space
        self._powers = {0: NCElement.one(op.space)}
        self._conjugates = {}
        self._products = {}

    @property
    def op(self) -> NCElement:
        return self._op

    def power(self, n: int) -> NCElement:
        """H^n, built as H^(n-1) * H from the largest power stored."""
        if not isinstance(n, int):
            raise TypeError(f"power of a Hamiltonian must be an int, not {n!r}")
        if n < 0:
            raise ValueError(f"negative power {n} of a Hamiltonian")
        powers = self._powers
        m = n
        while m not in powers:  # H^0 always is
            m -= 1
        p = powers[m]
        for k in range(m + 1, n + 1):
            p = powers.setdefault(k, p * self.op)
        return p

    def product(self, a: int, b: int, conjugate: bool = False) -> NCElement:
        """H^a H^b, or conj(H^a) H^b when ``conjugate`` is set."""
        if not (isinstance(a, int) and isinstance(b, int)):
            # checked before the cache, where 1.0 would find the entry of 1
            raise TypeError(f"powers of a Hamiltonian must be ints, not {a!r} and {b!r}")
        key = (a, b, conjugate)
        p = self._products.get(key)
        if p is None:
            left = self.power(a)
            if conjugate:
                left = self._conjugates.get(a) or self._conjugates.setdefault(a, left.conjugate())
            p = self._products.setdefault(key, left * self.power(b))
        return p


def free_hamiltonian(space: str) -> Hamiltonian:
    """-1/2 of the invariant derivative square; the default demo generator."""
    if space == LINE:
        op = NCElement.from_word(LINE, ("d1", "d1")).scale(
            QScalar.from_rational(Fraction(-1, 2))
        )
        return Hamiltonian(op, hermitian=True)
    half = QScalar.from_rational(Fraction(1, 2))
    dp, d3, dm = (NCElement.generator(space, d) for d in SPATIAL_D[space])
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

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            t = "" if n == 0 else (" t" if n == 1 else f" t^{n}")
            parts.append(f"({c}){t}")
        return " + ".join(parts) if parts else "0"


_UNITS = {"forward": -I, "inverse": I}


def _phases(order: int, direction: str = "forward"):
    """The scalars (-+ i)^n / n!, n = 0..order, that multiply H^n in U."""
    if direction not in _UNITS:
        raise ValueError(f"unknown direction {direction!r}")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    unit = _UNITS[direction]
    out = [ONE]
    fac = ONE
    phase = ONE
    for n in range(1, order + 1):
        fac = fac * scalar(n)
        phase = phase * unit
        out.append(phase / fac)
    return out


def build_U(H: Hamiltonian, order: int, direction: str = "forward") -> OperatorSeries:
    """Truncated evolution operator: coefficient n is (-+ i)^n H^n / n!."""
    return OperatorSeries(
        H.space, [H.power(n).scale(c) for n, c in enumerate(_phases(order, direction))]
    )


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
    phases = _phases(order, "inverse")  # exp(+iHt), the right-handed operator
    for n in range(order):
        lhs = H.power(n + 1).scale(phases[n + 1] * -I * scalar(n + 1))
        rhs = H.product(n, 1).scale(phases[n])
        if lhs != rhs:
            rep.record(f"right family, t^{n}", str(lhs), str(rhs))
    return rep


def _two_times(order):
    """U(t, t') = sum_n c_n H^n (t - t')^n as {(j, k): s}: the monomial
    t^j t'^k carries s H^(j+k)."""
    out = {}
    for n, c in enumerate(_phases(order)):
        for j in range(n + 1):
            out[(j, n - j)] = c * ((-1) ** (n - j) * comb(n, j))
    return out


def _times(X, Y, order, monomial):
    """The product of two expansions, truncated at total time degree order,
    as {time monomial: {(a, b): s}} where (a, b) stands for H^a H^b.  All
    scalars meeting on one product are summed before any element is
    touched."""
    out = {}
    for (a1, a2), s in X.items():
        for (b1, b2), r in Y.items():
            if a1 + a2 + b1 + b2 <= order:
                terms = out.setdefault(monomial(a1, a2, b1, b2), {})
                _add_term(terms, (a1 + a2, b1 + b2), s * r)
    return out


def _element(H, terms, conjugate=False):
    """The sum of s H^a H^b over {(a, b): s} (conj(H^a) H^b when conjugate
    is set), or of s H^n over {n: s}."""
    acc = {}
    for key, s in terms.items():
        el = H.power(key) if isinstance(key, int) else H.product(*key, conjugate)
        for k, c in el.terms.items():
            _add_term(acc, k, c * s)
    return NCElement(H.space, acc)


def _compare(rep, H, lhs, rhs, label, conjugate=False):
    """Record every time monomial at which the two expansions differ."""
    for k in sorted(set(lhs) | set(rhs)):
        left = _element(H, lhs.get(k, {}), conjugate)
        right = _element(H, rhs.get(k, {}))
        if left != right:
            rep.record(label(k), str(left), str(right))


def _compose_sides(order):
    """The expansions compose_check compares: U(t,t'') U(t'',t') and U(t,t')
    keyed by the exponents of (t, t'', t'), and U(t,t') U(t',t) and 1 keyed
    by those of (t, t')."""
    E = _two_times(order)
    compose = _times(E, E, order, lambda a1, a2, b1, b2: (a1, a2 + b1, b2))
    direct = {(a, 0, b): {a + b: s} for (a, b), s in E.items()}
    reverse = {(b, a): s for (a, b), s in E.items()}
    inverse = _times(E, reverse, order, lambda a1, a2, b1, b2: (a1 + b1, a2 + b2))
    return compose, direct, inverse, {(0, 0): {0: ONE}}


def _at(poly, values):
    """An expansion with its time symbols set to the given scalars, as a
    single entry under the empty monomial."""
    out = {}
    for key, terms in poly.items():
        v = ONE
        for exp, val in zip(key, values):
            for _ in range(exp):
                v = v * val
        for k, s in terms.items():
            _add_term(out, k, s * v)
    return {(): out}


def compose_check(H: Hamiltonian, order: int, t_points=None) -> VerificationReport:
    """U(t,t'') U(t'',t') = U(t,t') and the inverse law, expanded exactly as
    polynomials in the time symbols through the truncation order.

    With t_points = (t, t'', t') the same comparison is additionally made at
    those scalar time values (exact substitution)."""
    rep = VerificationReport("composition", H.space)
    lhs, rhs, inverse, one = _compose_sides(order)
    _compare(rep, H, lhs, rhs, lambda k: f"compose t^{k[0]} t''^{k[1]} t'^{k[2]}")
    _compare(rep, H, inverse, one, lambda k: f"inverse law t^{k[0]} t'^{k[1]}")
    if t_points is not None:
        _compare(rep, H, _at(lhs, t_points), _at(rhs, t_points),
                 lambda k: f"composition at {t_points}")
    return rep


def _unitarity_sides(order):
    """conj(U(t)) U(t) keyed by the exponent of t, and 1."""
    c = _phases(order)
    left = {(n, 0): s.conj() for n, s in enumerate(c)}
    right = {(n, 0): s for n, s in enumerate(c)}
    return _times(left, right, order, lambda a1, a2, b1, b2: (a1 + b1,)), {(0,): {0: ONE}}


def unitarity_check(H: Hamiltonian, order: int) -> VerificationReport:
    """With a hermitian generator, the conjugate series times the series is
    the identity through the truncation order."""
    rep = VerificationReport("unitarity", H.space)
    if not H.hermitian:
        rep.status = "skipped"
        rep.note("generator not declared hermitian")
        return rep
    prod, one = _unitarity_sides(order)
    _compare(rep, H, prod, one, lambda k: f"t^{k[0]}", conjugate=True)
    return rep


def heisenberg_evolve(O: NCElement, H: Hamiltonian, order: int) -> OperatorSeries:
    """The conjugated-observable series U^-1 O U, truncated."""
    if O.space != H.space:
        raise ValueError("observable and Hamiltonian live on different spaces")
    inv, fwd = _phases(order, "inverse"), _phases(order)
    acc = [{} for _ in range(order + 1)]
    for a in range(order + 1):
        left = H.power(a) * O
        for b in range(order + 1 - a):
            s = inv[a] * fwd[b]
            for k, c in (left * H.power(b)).terms.items():
                _add_term(acc[a + b], k, c * s)
    return OperatorSeries(H.space, [NCElement(H.space, terms) for terms in acc])


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


def _dyson_sides(H, order):
    """The iterated-integral coefficients, the integral-equation
    coefficients and the series U itself, each for t^0..t^order."""
    U = build_U(H, order)
    # iterated integrals: i^-n H^n int dt1...dtn 1 = i^-n H^n t^n/n!
    iterated = [U.coeff(0)]
    phase = ONE
    tpoly = [ONE]
    for n in range(1, order + 1):
        phase = phase / I
        tpoly = _integrate_time_poly(tpoly)  # t^n/n! built step by step
        iterated.append(H.power(n).scale(phase * tpoly[n]))
    # integral equation iteration: U_{k+1} = 1 - i int_0^t H U_k.  Pass k
    # reproduces coefficients 0..k and adds coefficient k + 1 as -i/(k+1)
    # times H times coefficient k, so the passes reduce to one chain of
    # left multiplications by H.
    integral = [NCElement.one(H.space)]
    for n in range(1, order + 1):
        integral.append((H.op * integral[-1]).scale(-I / scalar(n)))
    return iterated, integral, U.coeffs


def dyson_check(H: Hamiltonian, order: int) -> VerificationReport:
    """The iterated-integral solution and the integral equation, both
    evaluated symbolically, reproduce the exponential series."""
    rep = VerificationReport("dyson", H.space)
    iterated, integral, U = _dyson_sides(H, order)
    for n in range(1, order + 1):
        if iterated[n] != U[n]:
            rep.record(f"iterated integral t^{n}", str(iterated[n]), str(U[n]))
    for n in range(order + 1):
        if integral[n] != U[n]:
            rep.record(f"integral equation t^{n}", str(integral[n]), str(U[n]))
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
    coeffs = [
        lower(space, act(H.power(n), phi, "left")).scale(c)
        for n, c in enumerate(_phases(order))
    ]
    for n in range(order):
        lhs = coeffs[n + 1].scale(I * scalar(n + 1))
        rhs = lower(space, act(H.op, lift(space, coeffs[n]), "left"))
        if lhs != rhs:
            rep.record(f"t^{n}", str(lhs), str(rhs))
    return rep


# -- whole-space integrals -------------------------------------------------------

# the four integration geometries: variant -> (derivative action, base
# exponent a, overall sign).  The line integrates with base q^a, the 3d
# space with base q^(2a) on each axis, a = -1 in the hatted calculus; the
# right-handed measures carry the printed minus identities
_GEOMETRIES = {
    row[4]: (mode, -1 if row[0] else 1, -1 if row[1] else 1) for mode, row in CALCULI.items()
}
_BASE_OF_MODE = {mode: a for mode, a, _ in _GEOMETRIES.values()}


def integrate_whole_line(f: LatticeFunction, variant: str, tol: float) -> complex:
    _, a, sign = _GEOMETRIES[variant]
    return sign * jackson_integral_whole_line(f, a, tol)


def integrate_whole_e3(fp, f3, fm, variant: str, tol: float) -> complex:
    """The integral of fp(x+) f3(x3) fm(x-), three lattice functions: q^(-6a)/4
    times their whole-line integrals with base q^(2a), taken in the standard
    axis order for a = 1 and the reversed one for a = -1."""
    _, a, sign = _GEOMETRIES[variant]
    pref = qpow(-6 * a) * QScalar.from_rational(Fraction(1, 4))
    total = complex(pref.eval_float(fp.q0))
    for leg in (fp, f3, fm) if a == 1 else (fm, f3, fp):
        total *= jackson_integral_whole_line(leg, 2 * a, tol)
    return sign * total


# -- integration by parts ----------------------------------------------------------

IBP_VARIANTS = tuple(
    itertools.product((mode for mode, _, _ in _GEOMETRIES.values()), "01")
)


def _ibp_sides(variant, idx, f, g, integrate):
    """The two integrals of the integration-by-parts identity for the
    derivative of index idx, the boundary term left out: left actions give
    (D f) g and (scaled f)(D g), right actions f (D g) and (D f)(scaled g).
    The scaling is x1 -> q^a x1 for index 1 and none for index 0."""
    half_steps = 2 * _BASE_OF_MODE[variant] if idx == "1" else 0

    def D(h):
        return act_partial_closed(idx, variant, h, LINE)

    if not CALCULI[variant][1]:
        return integrate(D(f) * g), integrate(scale_arg(f, "x1", half_steps) * D(g))
    return integrate(f * D(g)), integrate(D(f) * scale_arg(g, "x1", half_steps))


def ibp_check(f: CFunction, g: CFunction, a: QScalar, b: QScalar) -> VerificationReport:
    """The eight printed integration-by-parts identities on the line,
    checked exactly on polynomials with scalar endpoints: the integral of
    one side equals the boundary term minus the integral of the other."""
    rep = VerificationReport("integration-by-parts", LINE)
    for variant, idx in IBP_VARIANTS:
        var = space_vars(LINE)[int(idx)]

        def definite(F):
            return F.subs_scalar(var, b) - F.subs_scalar(var, a)

        lhs, rest = _ibp_sides(
            variant, idx, f, g, lambda h: definite(act_inverse_partial(idx, variant, h, LINE))
        )
        rhs = definite(f * g) - rest
        if lhs != rhs:
            rep.record(f"{variant} d{idx}", str(lhs), str(rhs))
    return rep


def ibp_check_numeric(q0: float, tol: float, cutoff: int = 120) -> VerificationReport:
    """Numeric spot check of the space-direction identities on a finite
    lattice interval, with the integrals evaluated as geometric sums."""
    rep = VerificationReport("integration-by-parts-numeric", LINE)
    f = CFunction.monomial(space_vars(LINE), (0, 1))
    g = CFunction.monomial(space_vars(LINE), (0, 2))
    k_lo, k_hi = -6, 4  # interval [q0^-6, q0^4] on the positive axis
    boundary = (f * g).eval_float(q0, {"x0": 0.0, "x1": q0 ** k_hi}) - (
        f * g
    ).eval_float(q0, {"x0": 0.0, "x1": q0 ** k_lo})
    for variant, base, sign in _GEOMETRIES.values():

        def lattice_sum(h):
            lat = LatticeFunction.from_cfunction(h, "x1", q0, cutoff)
            up = jackson_integral_numeric(lat, base, "0_x", tol, k0=k_hi)
            low = jackson_integral_numeric(lat, base, "0_x", tol, k0=k_lo)
            return sign * (up - low)

        lhs, rest = _ibp_sides(variant, "1", f, g, lattice_sum)
        rhs = boundary - rest
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
    values = {v: integrate_whole_line(lat, v, tol) for v in _GEOMETRIES}
    base = form[:1]
    if base == "1":
        combined = 0.5j * (values["L"] + values["Rbar"])
    elif base == "2":
        combined = 0.5j * (values["Lbar"] + values["R"])
    else:
        raise ValueError(f"unknown form {form!r}")
    return combined, values
