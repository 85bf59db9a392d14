"""Star products: the noncommutative product pulled back to commutative
polynomials through the ordering isomorphisms.

Both orderings are implemented, from one table of legs keyed by the two
contracted exponents and the ordering: the reversed ordering is the q -> 1/q
image of the standard one, so its entries are the images of the standard
entries.  The rewriting engine provides the independent oracle
(round-tripping the product through normal ordering must give the same
coefficients).  `star_checks` builds the engine's product of
every monomial pair once, reads the reversed ordering's oracle from that table
by bilinearity, and checks associativity on the x0-free triples only, x0
being central."""

from __future__ import annotations

from .cfunc import CFunction, _monomials, space_vars
from .ncalgebra import lift, lower, reorder_transform
from .reports import VerificationReport
from .scalars import LAM, ONE, QScalar, _add_term, _memo, _remember, qbinom, qnum
from .spaces import E3, check_option


class StarContext:
    """Which space and which normal ordering the product refers to."""

    def __init__(self, space: str, ordering: str = "standard"):
        check_option("ordering", ordering, ("standard", "reversed"))
        self.space = space
        self.vars = space_vars(space)  # an unknown space fails here, not in star
        self.ordering = ordering


# (f exponent, g exponent, reversed_order) -> (f leg * g leg for each k),
# filled on first use; a pure key, like the q-binomials' table.  Entries are
# tuples: every caller receives the same one, and none can change it
_STAR_LEGS = _memo()


def _star_legs(nf, ng, reversed_order):
    """The legs of one monomial pair: [[nf over k]] fall_k lambda^k in base
    q^4 for k up to min(nf, ng), fall_k being [[ng]] [[ng - 1]] ...
    [[ng - k + 1]].  The reversed ordering is the (+-, q) -> (-+, 1/q) image
    of the standard one (spaces.SUBSTITUTION), and q -> 1/q is a field
    automorphism taking base q^4 to q^-4 and lambda to -lambda: its legs are
    the images of the standard legs, made from the tuple returned here (the
    table may have been emptied since it was stored)."""
    key = (nf, ng, reversed_order)
    legs = _STAR_LEGS.get(key)
    if legs is not None:
        return legs
    if reversed_order:
        legs = tuple(leg.subs_q_inverse() for leg in _star_legs(nf, ng, False))
    else:
        legs = []
        fall = lam_k = ONE
        for k in range(min(nf, ng) + 1):
            if k:
                fall = fall * qnum(ng - k + 1, 4)
                lam_k = lam_k * LAM
            # lambda^k has k + 1 terms: multiplied in last, it is cheap
            legs.append(qbinom(nf, k, 4) * fall * lam_k)
        legs = tuple(legs)
    # stored whole, so a racing thread can only store an equal entry
    return _remember(_STAR_LEGS, key, legs)


def _star_e3(f: CFunction, g: CFunction, reversed_order: bool) -> CFunction:
    """sum_k lambda^k / [[k]]! (D^k f)(D^k g), contracting xm of f with xp of
    g (standard; base q^4) or xp of f with xm of g (reversed; the q -> 1/q
    image of the standard legs).  1/[[k]]! folds into the f leg, D^k x^a /
    [[k]]! being [[a over k]] x^(a-k); the g leg keeps its falling product.
    Every factor but the input coefficients is a Laurent polynomial."""
    vars_ = space_vars("euclid3")
    i3 = vars_.index("x3")
    if reversed_order:
        fi, gi, sign = vars_.index("xp"), vars_.index("xm"), -1
    else:
        fi, gi, sign = vars_.index("xm"), vars_.index("xp"), 1
    out = {}
    for ef, cf in f.terms.items():
        nf = ef[fi]
        for eg, cg in g.terms.items():
            ng = eg[gi]
            pair = _star_legs(nf, ng, reversed_order)
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


def _combine(parts):
    """The terms of sum c * p over the (scalar, terms) pairs given."""
    out = {}
    for c, p in parts:
        for k, v in p.items():
            _add_term(out, k, c * v)
    return out


def star_checks(max_degree: int) -> list:
    """[star-oracle, star-associativity, star-classical-limit] on euclid3, for
    every monomial pair (triple) up to the total degree bound, read from two
    tables made once: the standard star product of every pair and the
    engine's product lower(lift f * lift g) of the same pair."""
    space = E3
    vars_ = space_vars(space)
    monos = _monomials(vars_, max_degree)
    mono = {e: CFunction.monomial(vars_, e) for e in monos}
    deg = {e: sum(e) for e in monos}
    pairs = [(e1, e2) for e1 in monos for e2 in monos if deg[e1] + deg[e2] <= max_degree]
    std = StarContext(space)
    table = {p: star(std, mono[p[0]], mono[p[1]]) for p in pairs}
    engine = {p: lower(space, lift(space, mono[p[0]]) * lift(space, mono[p[1]])) for p in pairs}

    oracle = VerificationReport("star-oracle", space)
    for e1, e2 in pairs:
        got, want = table[(e1, e2)], engine[(e1, e2)]
        if got != want:
            oracle.record(f"standard:{e1}*{e2}", str(got), str(want))
    # the reversed product against the engine by bilinearity: lift, the
    # product and lower are linear, and the ordering transport keeps degree,
    # so every pair (a, b) of the factors' standard images is in the table
    rev = StarContext(space, "reversed")
    unrev = {e: reorder_transform(space, mono[e], "to_standard").terms for e in monos}
    for e1, e2 in pairs:
        got = star(rev, mono[e1], mono[e2])
        prod = _combine(
            (ca * cb, engine[(a, b)].terms)
            for a, ca in unrev[e1].items()
            for b, cb in unrev[e2].items()
        )
        want = reorder_transform(space, CFunction(vars_, prod), "to_reversed")
        if got != want:
            oracle.record(f"reversed:{e1}*{e2}", str(got), str(want))

    assoc = VerificationReport("star-associativity", space)
    # x0 (the first variable) is central: x0^i u * x0^j v = x0^(i+j) (u * v)
    # on every pair.  By bilinearity both sides of associativity for x0^a f,
    # x0^b g, x0^c h are then x0^(a+b+c) times those for f, g, h, so only the
    # triples free of x0 are looped over
    for e1, e2 in pairs:
        n = e1[0] + e2[0]
        if n:
            base = table[((0,) + e1[1:], (0,) + e2[1:])]
            want = {(k[0] + n,) + k[1:]: c for k, c in base.terms.items()}
            if table[(e1, e2)].terms != want:
                assoc.record(f"x0:{e1},{e2}", str(table[(e1, e2)]), str(CFunction(vars_, want)))
    # the x0-free monomials of degree <= r, for each r
    free = [[e for e in monos if not e[0] and deg[e] <= r] for r in range(max_degree + 1)]
    for ef in free[max_degree]:
        for eg in free[max_degree - deg[ef]]:
            fg = table[(ef, eg)].terms
            for eh in free[max_degree - deg[ef] - deg[eg]]:
                # both sides by bilinearity from the table: the star product
                # keeps total degree, so every monomial m of a product is in it
                lhs = _combine((c, table[(m, eh)].terms) for m, c in fg.items())
                rhs = _combine((c, table[(ef, m)].terms) for m, c in table[(eg, eh)].terms.items())
                if lhs != rhs:
                    assoc.record(f"{ef},{eg},{eh}", str(CFunction(vars_, lhs)), str(CFunction(vars_, rhs)))

    limit = VerificationReport("star-classical-limit", space)
    for e1, e2 in pairs:
        if table[(e1, e2)].eval_coeffs_exact(1) != (mono[e1] * mono[e2]).eval_coeffs_exact(1):
            limit.record(f"{e1},{e2}", "", "")
    return [oracle, assoc, limit]
