"""Star products: the noncommutative product pulled back to commutative
polynomials through the ordering isomorphisms.

Both orderings are implemented; the rewriting engine provides the
independent oracle (round-tripping the product through normal ordering must
give the same coefficients)."""

from __future__ import annotations

from .cfunc import CFunction, _monomials, space_vars
from .ncalgebra import lift, lower, reorder_transform
from .reports import VerificationReport
from .scalars import LAM, ONE, QScalar, _add_term, _memo, _remember, qbinom, qnum
from .spaces import E3


class StarContext:
    """Which space and which normal ordering the product refers to."""

    def __init__(self, space: str, ordering: str = "standard"):
        if ordering not in ("standard", "reversed"):
            raise ValueError(f"unknown ordering {ordering!r}")
        self.space = space
        self.vars = space_vars(space)  # an unknown space fails here, not in star
        self.ordering = ordering


# (f exponent, g exponent, reversed_order) -> (f leg * g leg for each k),
# filled on first use; a pure key, like the q-binomials' table.  Entries are
# tuples: every caller receives the same one, and none can change it
_STAR_LEGS = _memo()


def _star_e3(f: CFunction, g: CFunction, reversed_order: bool) -> CFunction:
    """sum_k lambda^k / [[k]]! (D^k f)(D^k g), contracting xm of f with xp of
    g (standard; base q^4) or xp of f with xm of g (reversed; base q^-4,
    -lambda).  1/[[k]]! folds into the f leg, D^k x^a / [[k]]! being
    [[a over k]] x^(a-k); the g leg keeps its falling product.  Every
    factor but the input coefficients is a Laurent polynomial."""
    vars_ = space_vars("euclid3")
    i3 = vars_.index("x3")
    if reversed_order:
        fi, gi, a, lam, sign = vars_.index("xp"), vars_.index("xm"), -4, -LAM, -1
    else:
        fi, gi, a, lam, sign = vars_.index("xm"), vars_.index("xp"), 4, LAM, 1
    out = {}
    for ef, cf in f.terms.items():
        nf = ef[fi]
        for eg, cg in g.terms.items():
            ng = eg[gi]
            pair = _STAR_LEGS.get((nf, ng, reversed_order))
            if pair is None:
                pair = []
                fall = lam_k = ONE
                for k in range(min(nf, ng) + 1):
                    if k:
                        fall = fall * qnum(ng - k + 1, a)
                        lam_k = lam_k * lam
                    # lambda^k has k + 1 terms: multiplied in last, it is cheap
                    pair.append(qbinom(nf, k, a) * fall * lam_k)
                # stored whole, so a racing thread can only store an equal entry
                pair = _remember(_STAR_LEGS, (nf, ng, reversed_order), tuple(pair))
            c = cf * cg
            e = [x + y for x, y in zip(ef, eg)]
            for k, leg in enumerate(pair):
                # exponent factor on the differentiated legs; the reversed
                # ordering uses the full +/- mirror of the standard one (the
                # printed reversed twin keeps the unswapped indices, which
                # fails the round-trip oracle)
                w = 2 * sign * (ef[i3] * (ng - k) + (nf - k) * eg[i3])
                key = list(e)
                key[fi] -= k
                key[gi] -= k
                key[i3] += 2 * k
                # the denominator-1 factors first: only the last product
                # has a denominator to cancel against
                _add_term(out, tuple(key), leg * QScalar.q_power(2 * w) * c)
    return CFunction(vars_, out)


def star(ctx: StarContext, f: CFunction, g: CFunction) -> CFunction:
    """The star product; on the line it is the plain commutative product."""
    want = ctx.vars
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


def star_oracle_check(max_degree: int) -> VerificationReport:
    """Compare the star product on euclid3 against the normal-ordering round
    trip for every monomial pair up to the total degree bound, in both
    orderings."""
    space = E3
    rep = VerificationReport("star-oracle", space)
    vars_ = space_vars(space)
    monos = _monomials(vars_, max_degree)
    deg = {e: sum(e) for e in monos}
    for ordering in ("standard", "reversed"):
        ctx = StarContext(space, ordering)
        for ef in monos:
            f = CFunction.monomial(vars_, ef)
            for eg in monos:
                if deg[ef] + deg[eg] > max_degree:
                    continue
                g = CFunction.monomial(vars_, eg)
                got = star(ctx, f, g)
                want = _roundtrip(space, ordering, f, g)
                if got != want:
                    rep.record(f"{ordering}:{ef}*{eg}", str(got), str(want))
    return rep
