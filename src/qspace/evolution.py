"""Time evolution: truncated evolution-operator series, the equations they
satisfy, Heisenberg dynamics, whole-space q-integrals, integration by parts,
and the sesquilinear forms.

Time is a commutative formal symbol (its braiding is trivial), so evolution
operators are polynomials in t with normal-ordered spatial coefficients.
The checks expand every time dependence as scalars keyed by the powers of
the Hamiltonian they multiply, and sum those scalars first.  When every
product a check names equals the power of its total degree, the sums per
degree decide it; only otherwise is each key turned into an element through
the Hamiltonian's power table.  Every law on powers of H is decided so; only
the integral-equation iteration multiplies a chain of its own, so that a
wrong product shows at every later degree."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .cfunc import (
    CFunction,
    LatticeFunction,
    jackson_integral_whole_line,
    jackson_weight,
    lattice_sum,
    space_vars,
)
from .ncalgebra import NCElement, act, lift, lower
from .qfunc import _act, scale_arg
from .reports import VerificationReport
from .scalars import I, ONE, QScalar, ZERO, _add_term, _apply_rows, qpow, scalar
from .spaces import CALCULI, LINE, SPATIAL_D, check_option


class Hamiltonian:
    """A spatial operator.  ``hermitian`` is worked out at construction: op
    lies in the coordinate or the operator subalgebra, where the conjugation
    reverses products, and equals its conjugate.

    The instance keeps the tables the evolution checks share, filled on
    first use: the powers H^n, each computed as H^(n-1) * H, their
    conjugates, and the products H^a H^b and conj(H^a) H^b.  H^a H is the
    stored H^(a+1), the product that built it; every other product is
    normal-ordered by the engine, once per key, and none is taken to be
    H^(a+b), so comparing the two stays an exact check.  ``op`` is read-only
    so the tables cannot go stale.  Threads may share a Hamiltonian: each
    entry is computed whole and stored with ``setdefault``, so a race only
    computes an equal value, and every caller gets the first one stored."""

    def __init__(self, op: NCElement):
        if not op.is_spatial():
            raise ValueError("Hamiltonians must not involve time or scaling factors")
        self._op = op
        self.hermitian = (op.is_coordinate() or op.is_operator()) and op.conjugate() == op
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
        if b == 1 and a >= 0 and not conjugate:
            return self.power(a + 1)
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
        return Hamiltonian(op)
    half = QScalar.from_rational(Fraction(1, 2))
    dp, d3, dm = (NCElement.generator(space, d) for d in SPATIAL_D[space])
    quad = (dp * dm).scale(-qpow(1)) + (dm * dp).scale(-qpow(-1)) + d3 * d3
    return Hamiltonian(quad.scale(-half))


class OperatorSeries:
    """Polynomial in the formal time symbol with NCElement coefficients."""

    def __init__(self, space, coeffs):
        self.space = space
        self.coeffs = list(coeffs)

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
    check_option("direction", direction, _UNITS)
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


def build_U(H: Hamiltonian, order: int) -> OperatorSeries:
    """Truncated evolution operator: coefficient n is (-i)^n H^n / n!."""
    return OperatorSeries(H.space, [H.power(n).scale(c) for n, c in enumerate(_phases(order))])


def schrodinger_residual(H: Hamiltonian, order: int) -> VerificationReport:
    """Term-by-term check of the two printed equation families through
    t^(order - 1): the forward series against i d/dt = H on the left, and
    the backward-phase series against the right-sided time derivative (which
    acts as -d/dt).  With c and d the forward and inverse phases, t^n reads
    c_(n+1) i (n+1) H^(n+1) = c_n H H^n on the left and
    d_(n+1) (-i) (n+1) H^(n+1) = d_n H^n H on the right."""
    rep = VerificationReport("schrodinger", H.space)
    c, d = _phases(order), _phases(order, "inverse")  # d: exp(+iHt), the right-handed operator
    _compare(rep, H, {(n,): {n + 1: c[n + 1] * I * scalar(n + 1)} for n in range(order)},
             {(n,): {(1, n): c[n]} for n in range(order)}, lambda k: f"left family, t^{k[0]}")
    _compare(rep, H, {(n,): {n + 1: d[n + 1] * -I * scalar(n + 1)} for n in range(order)},
             {(n,): {(n, 1): d[n]} for n in range(order)}, lambda k: f"right family, t^{k[0]}")
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
    def row_of(key):
        el = H.power(key) if isinstance(key, int) else H.product(*key, conjugate)
        return el.terms.items()

    return NCElement(H.space, _apply_rows(terms.items(), row_of))


def _scalar_sides_agree(H, lhs, rhs, conjugate=False):
    """Whether two expansions are seen to agree on the power table alone:
    every product they name equals the power of its total degree (H^a H^b,
    or conj(H^a) H^b for lhs when conjugate is set, is H^(a+b)), and at
    every time monomial the scalars of each total degree n cancel or H^n is
    zero.  Then each side is a sum of s H^n and the two are equal; False
    proves nothing."""
    for side, conj in ((lhs, conjugate), (rhs, False)):
        named = {key for terms in side.values() for key in terms if type(key) is tuple}
        if any(H.product(*key, conj) != H.power(sum(key)) for key in named):
            return False
    for k in set(lhs) | set(rhs):
        by_degree = {}
        for terms, negate in ((lhs.get(k, {}), False), (rhs.get(k, {}), True)):
            for key, s in terms.items():
                _add_term(by_degree, key if type(key) is int else sum(key), -s if negate else s)
        if any(H.power(n) for n in by_degree):
            return False
    return True


def _compare(rep, H, lhs, rhs, label, conjugate=False):
    """Record every time monomial at which the two expansions differ.  The
    elements are summed only when the power table cannot show that the
    sides agree, so a failing report is the one the sums give."""
    if _scalar_sides_agree(H, lhs, rhs, conjugate):
        return
    for k in sorted(set(lhs) | set(rhs)):
        rep.compare(label(k), _element(H, lhs.get(k, {}), conjugate), _element(H, rhs.get(k, {})))


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


def compose_check(H: Hamiltonian, order: int) -> VerificationReport:
    """U(t,t'') U(t'',t') = U(t,t') and the inverse law, expanded exactly as
    polynomials in the time symbols through the truncation order, which
    implies them at any scalar times."""
    rep = VerificationReport("composition", H.space)
    lhs, rhs, inverse, one = _compose_sides(order)
    _compare(rep, H, lhs, rhs, lambda k: f"compose t^{k[0]} t''^{k[1]} t'^{k[2]}")
    _compare(rep, H, inverse, one, lambda k: f"inverse law t^{k[0]} t'^{k[1]}")
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
        rep.note("generator not known to be hermitian")
        return rep
    prod, one = _unitarity_sides(order)
    _compare(rep, H, prod, one, lambda k: f"t^{k[0]}", conjugate=True)
    return rep


def heisenberg_evolve(O: NCElement, H: Hamiltonian, order: int) -> OperatorSeries:
    """The conjugated-observable series U^-1 O U, truncated."""
    if O.space != H.space:
        raise ValueError("observable and Hamiltonian live on different spaces")
    inv, fwd = _phases(order, "inverse"), _phases(order)
    left = [H.power(a) * O for a in range(order + 1)]

    def row_of(ab):
        a, b = ab
        return (left[a] * H.power(b)).terms.items()

    coeffs = []
    for n in range(order + 1):
        # inv[a] fwd[b] H^a O H^b summed over a + b = n
        pairs = (((a, n - a), inv[a] * fwd[n - a]) for a in range(n + 1))
        coeffs.append(NCElement(H.space, _apply_rows(pairs, row_of)))
    return OperatorSeries(H.space, coeffs)


def heisenberg_check(O: NCElement, H: Hamiltonian, order: int) -> VerificationReport:
    """d/dt of the evolved observable equals i[H, .] through order - 1."""
    rep = VerificationReport("heisenberg", H.space)
    series = heisenberg_evolve(O, H, order)
    for n in range(order):
        lhs = series.coeff(n + 1).scale(scalar(n + 1))
        rhs = (H.op * series.coeff(n) - series.coeff(n) * H.op).scale(I)
        rep.compare(f"t^{n}", lhs, rhs)
    return rep


def _integrate_time_poly(coeffs):
    """Symbolic antiderivative of sum c_n t^n from 0, as series coefficients."""
    out = [ZERO]
    for n, c in enumerate(coeffs):
        out.append(c / scalar(n + 1))
    return out


def _dyson_sides(H, order):
    """The iterated-integral expansion and the series U, each keyed by the
    exponent of t for t^1..t^order, and the integral-equation coefficients
    for t^0..t^order."""
    # iterated integrals: i^-n H^n int dt1...dtn 1 = i^-n H^n t^n/n!
    iterated, series = {}, {}
    phase = ONE
    tpoly = [ONE]
    for n, c in enumerate(_phases(order)[1:], 1):
        phase = phase / I
        tpoly = _integrate_time_poly(tpoly)  # t^n/n! built step by step
        iterated[(n,)] = {n: phase * tpoly[n]}
        series[(n,)] = {n: c}
    # integral equation iteration: U_{k+1} = 1 - i int_0^t H U_k.  Pass k
    # reproduces coefficients 0..k and adds coefficient k + 1 as -i/(k+1)
    # times H times coefficient k, so the passes reduce to one chain of
    # left multiplications by H.
    integral = [NCElement.one(H.space)]
    for n in range(1, order + 1):
        integral.append((H.op * integral[-1]).scale(-I / scalar(n)))
    return iterated, series, integral


def dyson_check(H: Hamiltonian, order: int) -> VerificationReport:
    """The iterated-integral solution and the integral equation, both
    evaluated symbolically, reproduce the exponential series."""
    rep = VerificationReport("dyson", H.space)
    iterated, series, integral = _dyson_sides(H, order)
    _compare(rep, H, iterated, series, lambda k: f"iterated integral t^{k[0]}")
    for n, (el, u) in enumerate(zip(integral, build_U(H, order).coeffs)):
        rep.compare(f"integral equation t^{n}", el, u)
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
        rep.compare(f"t^{n}", lhs, rhs)
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


def _geometry(variant):
    """The (base exponent, sign) of an integration geometry."""
    check_option("integration geometry", variant, _GEOMETRIES)
    return _GEOMETRIES[variant][1:]


def integrate_whole_line(f: LatticeFunction, variant: str, tol: float) -> complex:
    a, sign = _geometry(variant)
    return sign * jackson_integral_whole_line(f, a, tol)


def integrate_whole_e3(fp, f3, fm, variant: str, tol: float) -> complex:
    """The integral of fp(x+) f3(x3) fm(x-), three lattice functions: q^(-6a)/4
    times their whole-line integrals with base q^(2a), taken in the standard
    axis order for a = 1 and the reversed one for a = -1."""
    a, sign = _geometry(variant)
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
        return _act(False, idx, variant, h, LINE, "standard")

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
            variant, idx, f, g, lambda h: definite(_act(True, idx, variant, h, LINE, "standard"))
        )
        rhs = definite(f * g) - rest
        rep.compare(f"{variant} d{idx}", lhs, rhs)
    return rep


def ibp_check_numeric() -> VerificationReport:
    """The space-direction identities on the lattice interval [q^-6, q^4],
    the integrals taken as exact lattice sums instead of antiderivatives:
    base q sums the points q^k with k in [-6, 4), base 1/q those in (-6, 4]."""
    rep = VerificationReport("integration-by-parts-numeric", LINE)
    f = CFunction.monomial(space_vars(LINE), (0, 1))
    g = CFunction.monomial(space_vars(LINE), (0, 2))
    lo, hi = -6, 4
    boundary = (f * g).value_at("x1", qpow(hi)) - (f * g).value_at("x1", qpow(lo))
    for variant, base, sign in _GEOMETRIES.values():
        ks = range(lo, hi) if base > 0 else range(lo + 1, hi + 1)

        def integral(h):
            return sign * jackson_weight(base) * lattice_sum(h, "x1", ks)

        lhs, rest = _ibp_sides(variant, "1", f, g, integral)
        rhs = boundary - rest
        rep.compare(variant, lhs, rhs)
    return rep


# -- sesquilinear forms --------------------------------------------------------------

def conjugate_function(space, f: CFunction) -> CFunction:
    """The commutative representative of the conjugated element."""
    return lower(space, lift(space, f).conjugate())


def sesquilinear_line(f: CFunction, g: CFunction, form: str):
    """Sesquilinear forms on the line: the q-integral of conj(f) g (or of
    f conj(g) for the primed forms) over the lattice window |k| <= 30, an
    exact lattice sum on both axes, combined per geometry with the i/2 weight.

    The printed minus identities make the averaged forms vanish identically;
    both the averaged value and the per-geometry values are returned so the
    content stays visible."""
    check_option("form", form, ("1", "1p", "2", "2p"))
    if form.endswith("p"):
        integrand = f * conjugate_function("line", g)
    else:
        integrand = conjugate_function("line", f) * g
    total = lattice_sum(integrand, "x1", range(-30, 31), (1, -1))
    values = {v: sign * jackson_weight(a) * total for v, (_, a, sign) in _GEOMETRIES.items()}
    first, second = ("L", "Rbar") if form[0] == "1" else ("Lbar", "R")
    return I / 2 * (values[first] + values[second]), values
