"""Commutative polynomials with QScalar coefficients, plus Jackson integrals
on the lattice +-q^k: exact for polynomials, float for sampled functions.

A CFunction carries its own variable tuple, so the same class serves the
plain coordinate functions (x0, x1) / (x0, xp, x3, xm), the doubled variable
sets appearing in translations, and symbolic integration endpoints.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import add

from .scalars import ONE, ZERO, QScalar, _add_term, _apply_rows, _coeff_times, _LinComb, _memo
from .scalars import _NUMBER, _memoized, _set, _term_pairs
from .scalars import qnum, qpow, scalar
from .spaces import E3, LINE, X_TOKENS, check_option

LINE_VARS = X_TOKENS[LINE]
E3_VARS = X_TOKENS[E3]
# the coordinate variables of a space, in the standard ordering
space_vars = X_TOKENS.__getitem__


# (variables, max_degree, by degree) -> the exponent tuples of _monomials
@_memoized(_memo("cfunc.monomials"))
def _monomials(variables, max_degree, by_degree):
    """Exponent tuples of total degree <= max_degree, as a tuple from the
    monomial table: in itertools.product order, or sorted by degree, then
    exponents, if by_degree."""
    out = tuple(
        e
        for e in itertools.product(range(max_degree + 1), repeat=len(variables))
        if sum(e) <= max_degree
    )
    return tuple(sorted(out, key=lambda e: (sum(e), e))) if by_degree else out


# (variables, exponents) -> the printed monomial
@_memoized(_memo("cfunc.mono_texts"))
def _mono_text(variables, e):
    """The monomial with exponent tuple e in the variables, as printed; empty
    for the unit."""
    return " ".join(f"{v}^{n}" if n > 1 else v for v, n in zip(variables, e) if n)


class NonConvergentSum(ArithmeticError):
    """A lattice sum failed to fall below tolerance inside the cutoff."""


class CFunction(_LinComb):
    """Polynomial in commuting variables, exact coefficients."""

    __slots__ = ("vars",)
    _mismatch = (ValueError, "variable sets differ")

    def __init__(self, variables, terms=None):
        _set(self, "vars", tuple(variables))
        super().__init__(terms)

    def _frame(self):
        return (self.vars,)

    @staticmethod
    def zero(variables):
        return CFunction(variables)

    @staticmethod
    def constant(variables, c):
        variables = tuple(variables)
        return CFunction(variables, {(0,) * len(variables): c})

    @staticmethod
    def monomial(variables, exps, coeff=ONE):
        return CFunction(variables, {tuple(exps): coeff})

    @staticmethod
    def var(variables, name, power=1, coeff=ONE):
        variables = tuple(variables)
        e = [0] * len(variables)
        e[CFunction._vi(variables, name)] = power
        return CFunction(variables, {tuple(e): coeff})

    @staticmethod
    def _vi(variables, name):
        """The slot of a variable name in a variable tuple."""
        try:
            return variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}, not one of {variables}") from None

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            return self.scale(other)
        if not self._same_kind(other):
            return NotImplemented
        # the row of a pair of monomials: their exponents added
        pairs = _term_pairs(self.terms, other.terms)
        return CFunction(self.vars, _apply_rows(pairs, lambda e: ((tuple(map(add, *e)), ONE),)))

    def degree(self, name=None):
        if not self.terms:
            return 0
        if name is None:
            return max(sum(e) for e in self.terms)
        i = self._vi(self.vars, name)
        return max(e[i] for e in self.terms)

    # -- calculus -----------------------------------------------------------

    def _lower_var(self, name, factor):
        """x^n -> factor(n) x^(n-1) in one variable; constants drop out."""
        i = self._vi(self.vars, name)
        out = {}
        for e, c in self.terms.items():
            n = e[i]
            if n:
                _add_term(out, e[:i] + (n - 1,) + e[i + 1:], c * factor(n))
        return CFunction(self.vars, out)

    def jackson_d(self, name, a):
        """Jackson derivative D_{q^a} in one variable; exact on monomials."""
        return self._lower_var(name, lambda n: qnum(n, a))

    def classical_d(self, name):
        return self._lower_var(name, scalar)

    def _raise_var(self, name, divisor):
        """x^n -> x^(n+1) / divisor(n+1) in one variable."""
        i = self._vi(self.vars, name)
        return CFunction(self.vars, {
            e[:i] + (e[i] + 1,) + e[i + 1:]: c / divisor(e[i] + 1) for e, c in self.terms.items()
        })

    def jackson_antiderivative(self, name, a):
        """Monomial rule x^n -> x^(n+1)/[[n+1]]_{q^a}; inverse of jackson_d."""
        return self._raise_var(name, lambda n: qnum(n, a))

    def classical_antiderivative(self, name):
        return self._raise_var(name, scalar)

    def scale_var(self, name, half_steps: int):
        """Substitute x -> q^(half_steps/2) x."""
        i = self._vi(self.vars, name)
        if half_steps == 0:
            return self
        out = {}
        for e, c in self.terms.items():
            out[e] = c * QScalar.q_power(half_steps * e[i])
        return CFunction(self.vars, out)

    def subs_scalar(self, name, value: QScalar):
        """Evaluate one variable at an exact scalar value; drops the variable
        dependence but keeps the slot (exponent 0)."""
        i = self._vi(self.vars, name)

        def row_of(e):
            return ((e[:i] + (0,) + e[i + 1:], value ** e[i]),)

        return CFunction(self.vars, _apply_rows(self.terms.items(), row_of))

    def value_at(self, name, value: QScalar) -> QScalar:
        """The value at an exact scalar of a polynomial in one variable."""
        unit = (0,) * len(self.vars)
        terms = self.subs_scalar(name, value).terms
        if terms.keys() - {unit}:
            raise ValueError("polynomial must depend on a single variable")
        return terms.get(unit, ZERO)

    def shift_var(self, name, t0: QScalar):
        """Substitute x -> x + t0 (classical binomial shift)."""
        i = self._vi(self.vars, name)

        def row_of(e):
            # (x + t0)^n expanded term by term
            n = e[i]
            p = ONE
            for j in range(n + 1):
                if j:
                    p = p * t0
                yield e[:i] + (n - j,) + e[i + 1:], p * scalar(math.comb(n, j))

        return CFunction(self.vars, _apply_rows(self.terms.items(), row_of))

    # -- variable-set plumbing ------------------------------------------------

    def _remap(self, variables, slots):
        """Move the exponent in position j to position slots[j] of a key for
        the tuple ``variables``; renamed variables that meet are summed."""
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * len(variables)
            for j, n in enumerate(e):
                if n:
                    if slots[j] is None:
                        raise ValueError(f"variable {self.vars[j]} survives restriction")
                    e2[slots[j]] += n
            _add_term(out, tuple(e2), c)
        return CFunction(variables, out)

    def embed(self, variables, rename=None):
        """View this polynomial inside a larger variable tuple."""
        variables = tuple(variables)
        rename = rename or {}
        return self._remap(variables, [variables.index(rename.get(v, v)) for v in self.vars])

    def restrict(self, variables, rename=None):
        """Project onto a smaller variable tuple; all dropped variables must
        have exponent zero.  The polynomial itself when nothing changes."""
        variables = tuple(variables)
        if variables == self.vars and not rename:
            return self
        rename = rename or {}
        slots = [rename.get(v, v) for v in self.vars]
        return self._remap(
            variables, [variables.index(v) if v in variables else None for v in slots]
        )

    # -- evaluation -----------------------------------------------------------

    def eval_float(self, q0, point):
        """Evaluate at numeric q0 and a point given as {var: complex}, summing
        over ``monomials()`` in order."""
        total = 0j
        for e, c in self.monomials():
            v = c.eval_float(q0)
            for name, n in zip(self.vars, e):
                if n:
                    v *= complex(point[name]) ** n
            total += v
        return total

    def monomials(self):
        """The (exponents, coefficient) terms, exponent tuples ascending."""
        return sorted(self.terms.items(), key=lambda t: t[0])

    @staticmethod
    def _print_order(e):
        return sum(e), e

    def _mono_str(self, e):
        return _mono_text(self.vars, e)

    def _term_str(self, e, c):
        mono = _mono_text(self.vars, e)
        if mono:
            return _coeff_times(c, mono)
        cs = str(c)
        # a sum in parentheses, a quotient as it is
        if "/" not in cs and (cs.find("+", 1) > 0 or cs.find("-", 1) > 0):
            return f"({cs})"
        return cs

    def __repr__(self):
        return f"CFunction({self})"


class LatticeFunction:
    """Complex samples on the geometric lattice {±q0^k : |k| <= cutoff}."""

    __slots__ = ("q0", "cutoff", "samples")

    def __init__(self, q0: float, cutoff: int, samples=None):
        if not q0 > 1:
            raise ValueError("lattice base q0 must exceed 1")
        if q0 == math.inf:
            raise ValueError("lattice base q0 must be finite")
        self.q0 = float(q0)
        self.cutoff = int(cutoff)
        self.samples = dict(samples or {})

    @staticmethod
    def from_callable(fn, q0, cutoff):
        samples = {}
        for k in range(-cutoff, cutoff + 1):
            for sign in (1, -1):
                samples[(sign, k)] = complex(fn(sign * q0 ** k))
        return LatticeFunction(q0, cutoff, samples)

    def value(self, sign, k):
        try:
            return self.samples[(sign, k)]
        except KeyError:
            raise NonConvergentSum(
                f"sample at {'+' if sign > 0 else '-'}q0^{k} is outside the lattice cutoff"
            )


def _geometric_sum(term_fn, k_start, k_max, tol):
    """Sum term_fn(k) for k >= k_start until three consecutive terms fall
    below tol; geometric decay makes this stopping rule safe."""
    total = 0j
    small = 0
    k = k_start
    while k <= k_max:
        t = term_fn(k)
        total += t
        if abs(t) < tol:
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
        k += 1
    raise NonConvergentSum("series did not decay below tolerance within the cutoff")


# bounds -> (sign of the axis, whether the sum walks toward the origin): '0_x'
# and 'x_inf' integrate on the positive axis from/to x = q0^k0, 'x_0' and
# 'minusinf_x' are their negative-axis twins at x = -q0^k0
_BOUNDS = {
    "0_x": (1, True),
    "x_inf": (1, False),
    "x_0": (-1, True),
    "minusinf_x": (-1, False),
}


def jackson_integral_numeric(f: LatticeFunction, a: int, bounds: str, tol: float,
                             k0: int = 0) -> complex:
    """Numeric Jackson integral of a lattice function: the printed geometric
    sum of x f(x) over the points x q^(-+a k) between the bounds, toward the
    origin or toward the infinite end of the axis."""
    if a == 0:
        raise ValueError("Jackson integral base exponent must be nonzero")
    check_option("bounds", bounds, _BOUNDS)
    sign, inward = _BOUNDS[bounds]
    q0 = f.q0
    aa = abs(a)
    qa = q0 ** aa
    step = -aa if inward else aa

    def term(k):
        kk = k0 + step * k
        return sign * q0 ** kk * f.value(sign, kk)

    pref = -(1 - qa) if a > 0 else 1 - qa ** -1
    return sign * pref * _geometric_sum(term, int((a > 0) == inward), 2 * f.cutoff, tol)


def jackson_integral_whole_line(f: LatticeFunction, a: int, tol: float) -> complex:
    """(D_{q^a})^{-1} between -infinity and +infinity, split at the origin."""
    pos = jackson_integral_numeric(f, a, "0_x", tol) + jackson_integral_numeric(
        f, a, "x_inf", tol
    )
    neg = jackson_integral_numeric(f, a, "x_0", tol) + jackson_integral_numeric(
        f, a, "minusinf_x", tol
    )
    return pos + neg


def jackson_weight(a: int) -> QScalar:
    """The weight of a Jackson sum with base q^a: q^a - 1 for a > 0 and
    1 - q^a for a < 0, as jackson_integral_numeric takes it at q0."""
    if a == 0:
        raise ValueError("Jackson integral base exponent must be nonzero")
    return qpow(a) - ONE if a > 0 else ONE - qpow(a)


def lattice_sum(h: CFunction, name: str, ks, signs=(1,)) -> QScalar:
    """The exact sum of q^k h(s q^k) over k in ks and the axis signs s, for a
    polynomial h in the one variable ``name``: a Jackson sum on the lattice
    without its weight.  Each monomial c x^n sums to c (the sum of s^n over
    the signs) times the sum of q^(k(n+1)) over ks, one Laurent polynomial
    written out term by term."""
    i = h._vi(h.vars, name)
    steps = Counter(ks)
    total = ZERO
    for e, c in h.terms.items():
        if any(e[:i]) or any(e[i + 1:]):
            raise ValueError("polynomial must depend on a single variable")
        n = e[i]
        weight = sum(s ** n for s in signs)
        if weight:
            total = total + c * QScalar({2 * k * (n + 1): weight * m for k, m in steps.items()})
    return total
