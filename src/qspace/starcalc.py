"""Star products: the noncommutative product pulled back to commutative
polynomials through the ordering isomorphisms.

Both orderings are implemented; the rewriting engine provides the
independent oracle (round-tripping the product through normal ordering must
give the same coefficients)."""

from __future__ import annotations

from .cfunc import CFunction, _monomials, space_vars
from .ncalgebra import lift, lower, reorder_transform
from .reports import VerificationReport
from .scalars import LAM, ONE, QScalar, _add_term, qfact


class StarContext:
    """Which space and which normal ordering the product refers to."""

    def __init__(self, space: str, ordering: str = "standard"):
        if ordering not in ("standard", "reversed"):
            raise ValueError(f"unknown ordering {ordering!r}")
        self.space = space
        self.ordering = ordering


def _star_e3(f: CFunction, g: CFunction, reversed_order: bool) -> CFunction:
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
                # exponent factor on the differentiated legs; the reversed
                # ordering uses the full +/- mirror of the standard one (the
                # printed reversed twin keeps the unswapped indices, which
                # fails the round-trip oracle)
                if reversed_order:
                    w = -2 * (ef[i3] * eg[im] + ef[ip] * eg[i3])
                else:
                    w = 2 * (ef[i3] * eg[ip] + ef[im] * eg[i3])
                e = [a + b for a, b in zip(ef, eg)]
                e[i3] += 2 * k
                # the denominator-1 factors first: only the last product
                # has a denominator to cancel against
                _add_term(out, tuple(e), cf * cg * QScalar.q_power(2 * w) * pre)
    return CFunction(vars_, out)


def star(ctx: StarContext, f: CFunction, g: CFunction) -> CFunction:
    """The star product; on the line it is the plain commutative product."""
    want = space_vars(ctx.space)
    if f.vars != want:
        f = f.restrict(want)
    if g.vars != want:
        g = g.restrict(want)
    if ctx.space == "line":
        return f * g
    return _star_e3(f, g, ctx.ordering == "reversed")


def _roundtrip(space, ordering, f, g):
    """Oracle: multiply the lifted elements and read the product back."""
    if ordering == "standard":
        return lower(space, lift(space, f) * lift(space, g))
    fu = reorder_transform(space, f, "to_standard")
    gu = reorder_transform(space, g, "to_standard")
    prod = lower(space, lift(space, fu) * lift(space, gu))
    return reorder_transform(space, prod, "to_reversed")


def star_oracle_check(max_degree: int, space: str = "euclid3") -> VerificationReport:
    """Compare the star product against the normal-ordering round trip for
    every monomial pair up to the total degree bound, in both orderings."""
    rep = VerificationReport("star-oracle", space)
    vars_ = space_vars(space)
    monos = _monomials(vars_, max_degree)
    for ordering in ("standard", "reversed"):
        ctx = StarContext(space, ordering)
        for ef in monos:
            f = CFunction.monomial(vars_, ef)
            for eg in monos:
                if sum(ef) + sum(eg) > max_degree:
                    continue
                g = CFunction.monomial(vars_, eg)
                got = star(ctx, f, g)
                want = _roundtrip(space, ordering, f, g)
                if got != want:
                    rep.record(f"{ordering}:{ef}*{eg}", str(got), str(want))
    return rep
