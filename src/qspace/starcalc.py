"""Star products: the noncommutative product pulled back to commutative
polynomials through the ordering isomorphisms.

Both orderings are implemented, from one table of legs keyed by the two
contracted exponents and the ordering: the reversed ordering is the q -> 1/q
image of the standard one, so its entries are the images of the standard
entries.  A standard entry is built along k by the recurrence of its
q-binomial, one linear pass per q-number on a dense coefficient list, with
no product of two multi-term polynomials.  A second table holds the
product of two unit monomials as rows, keyed by both exponent tuples and
the ordering: each row's key and its leg times a q-power are built once per
pair, and a product applies the rows of each term pair of its factors.
A third table holds each product `star` is asked for, keyed by its two
factor objects, so a repeated query reads its product back.
The rewriting engine provides the independent oracle
(round-tripping the product through normal ordering must give the same
coefficients).  `star_checks` builds the engine's product of
every monomial pair once, reads the reversed ordering's oracle from that table
by bilinearity, and checks associativity on the x0-free triples only, x0
being central."""

from __future__ import annotations

from operator import add, sub

from .cfunc import E3_VARS, CFunction, _monomials, space_vars
from .ncalgebra import _normal_forms, reorder_transform
from .reports import VerificationReport
from .scalars import ONE, QScalar, _apply_rows, _memo, _memoized, _remember, _term_pairs
from .scalars import _P_ONE, _canon, _pgrid, _qnum_mul, _qnum_quo
from .spaces import E3, X_TOKENS, check_option


class StarContext:
    """Which space and which normal ordering the product refers to."""

    def __init__(self, space: str, ordering: str = "standard"):
        check_option("ordering", ordering, ("standard", "reversed"))
        self.space = space
        self.vars = space_vars(space)  # an unknown space fails here, not in star
        self.ordering = ordering


# (f exponent, g exponent, reversed_order) -> (f leg * g leg for each k),
# filled on first use; a pure key, like the q-binomials' table.  Entries are
# tuples, stored whole: every caller receives the same one, none can change
# it, and a racing thread can only store an equal one
@_memoized(_memo("starcalc.star_legs"))
def _star_legs(nf, ng, reversed_order):
    """The legs of one monomial pair: [[nf over k]] fall_k lambda^k in base
    q^4 for k up to min(nf, ng), fall_k being [[ng]] [[ng - 1]] ...
    [[ng - k + 1]].  They are built along k over integer coefficients,
    leg_k = leg_(k-1) [[nf - k + 1]] [[ng - k + 1]] lambda / [[k]], on one
    dense list (scalars._qnum_mul): each q-number is one linear pass,
    lambda = s^2 - s^-2 a shift and a subtraction, and no product of two
    multi-term polynomials is made.
    The reversed ordering is the (+-, q) -> (-+, 1/q) image of the standard
    one (spaces.SUBSTITUTION), and q -> 1/q is a field automorphism taking
    base q^4 to q^-4 and lambda to -lambda: its legs are the images of the
    standard legs, made from the tuple returned here (the table may have
    been emptied since it was stored)."""
    if reversed_order:
        return tuple(leg.subs_q_inverse() for leg in _star_legs(nf, ng, False))
    # the list's grid has step 4 in s: base q^4 steps 8, two slots, and
    # lambda moves it by -2 each time, so leg_k starts at s^(-2k)
    legs = [ONE]
    t = [1]
    for k in range(1, min(nf, ng) + 1):
        # [[nf over k - 1]] [[nf - k + 1]] / [[k]] is [[nf over k]], so
        # the quotient is exact; taken before [[ng - k + 1]], it keeps
        # the longest pass short
        t = _qnum_mul(_qnum_quo(_qnum_mul(t, 2, nf - k + 1), 2, k), 2, ng - k + 1)
        # times lambda: the slot i of s^2 t - s^-2 t is t_(i-1) - t_i
        t = list(map(sub, [0] + t, t + [0]))
        legs.append(_canon(_pgrid(t, -2 * k, 4), _P_ONE))
    return tuple(legs)


# the slots of xp, x3 and xm in a euclid3 exponent tuple
_XP, _X3, _XM = (E3_VARS.index(v) for v in ("xp", "x3", "xm"))


# (f exponents, g exponents, reversed_order) -> the product of the unit
# monomials as (key, coefficient) rows, one per k; a tuple stored whole, like
# the legs it is made from
@_memoized(_memo("starcalc.star_rows"))
def _star_rows(ef, eg, reversed_order):
    """The star product of the unit monomials x^ef and x^eg as rows: row k
    is x^(ef + eg) with k powers of the contracted pair traded for 2k of x3,
    and leg_k times the q-power of the x3 exponents moved past the
    differentiated legs.  An x3-free pair's q-power is 1, so its rows hold
    the legs themselves."""
    if reversed_order:
        fi, gi, sign = _XP, _XM, -1
    else:
        fi, gi, sign = _XM, _XP, 1
    nf, ng = ef[fi], eg[gi]
    e = [x + y for x, y in zip(ef, eg)]
    rows = []
    for k, leg in enumerate(_star_legs(nf, ng, reversed_order)):
        # exponent factor on the differentiated legs; the reversed
        # ordering uses the full +/- mirror of the standard one (the
        # printed reversed twin keeps the unswapped indices, which
        # fails the round-trip oracle)
        w = 2 * sign * (ef[_X3] * (ng - k) + (nf - k) * eg[_X3])
        key = list(e)
        key[fi] -= k
        key[gi] -= k
        key[_X3] += 2 * k
        # the denominator-1 factors first: only the product with the
        # input coefficients has a denominator to cancel against
        rows.append((tuple(key), leg * QScalar.q_power(2 * w)))
    return tuple(rows)


def _star_e3(f: CFunction, g: CFunction, reversed_order: bool) -> CFunction:
    """sum_k lambda^k / [[k]]! (D^k f)(D^k g), contracting xm of f with xp of
    g (standard; base q^4) or xp of f with xm of g (reversed; the q -> 1/q
    image of the standard legs).  1/[[k]]! folds into the f leg, D^k x^a /
    [[k]]! being [[a over k]] x^(a-k); the g leg keeps its falling product.
    Every factor but the input coefficients is a Laurent polynomial, and
    each term pair's rows are read from the star-row table."""
    def row_of(pair):
        return _star_rows(pair[0], pair[1], reversed_order)

    return CFunction(E3_VARS, _apply_rows(_term_pairs(f.terms, g.terms), row_of))


# (id(f), id(g), reversed_order) -> (f, g, the product): the products asked
# for, keyed by the two factor objects and not by their values, so a miss
# hashes no factor.  The entry holds both factors, so neither id can pass to
# another object while it stands: a key that matches is always the same two
# objects, with no second check, and elements are read-only, so the same two
# objects always have the same product
_PRODUCTS = _memo("starcalc.products")


def star(ctx: StarContext, f: CFunction, g: CFunction) -> CFunction:
    """The star product; on the line it is the plain commutative product.
    On euclid3 a repeated pair of factor objects reads its stored product."""
    want = ctx.vars
    f, g = f.restrict(want), g.restrict(want)
    if ctx.space == "line":
        return f * g
    key = (id(f), id(g), ctx.ordering == "reversed")
    entry = _PRODUCTS.get(key)
    if entry is None:
        entry = _remember(_PRODUCTS, key, (f, g, _star_e3(f, g, key[2])))
    return entry[2]


def star_checks(max_degree: int) -> list:
    """[star-oracle, star-associativity, star-classical-limit] on euclid3, for
    every monomial pair (triple) up to the total degree bound, read from two
    tables made once: the standard star product of every pair and the
    engine's product lower(lift f * lift g) of the same pair."""
    space = E3
    vars_ = space_vars(space)
    monos = _monomials(vars_, max_degree, False)
    mono = {e: CFunction.monomial(vars_, e) for e in monos}
    deg = {e: sum(e) for e in monos}
    pairs = [(e1, e2) for e1 in monos for e2 in monos if deg[e1] + deg[e2] <= max_degree]
    table = {p: _star_e3(mono[p[0]], mono[p[1]], False) for p in pairs}
    # the engine's product lower(lift f * lift g) of each pair is the normal
    # form of the two standard words one after the other; the pairs' words
    # share their prefixes, so each is one fold onto another's form
    word = {e: tuple(t for t, n in zip(X_TOKENS[space], e) for _ in range(n)) for e in monos}
    nx = len(vars_)
    engine = {
        p: CFunction(vars_, {k[:nx]: c for k, c in nf.items()})
        for p, nf in zip(pairs, _normal_forms(space, "u", [word[a] + word[b] for a, b in pairs]))
    }

    oracle = VerificationReport("star-oracle", space)
    for e1, e2 in pairs:
        oracle.compare(f"standard:{e1}*{e2}", table[(e1, e2)], engine[(e1, e2)])
    # the reversed product against the engine by bilinearity: lift, the
    # product and lower are linear, and the ordering transport keeps degree,
    # so every pair (a, b) of the factors' standard images is in the table
    unrev = {e: reorder_transform(space, mono[e], "to_standard").terms for e in monos}
    for e1, e2 in pairs:
        got = _star_e3(mono[e1], mono[e2], True)
        prod = _apply_rows(_term_pairs(unrev[e1], unrev[e2]), lambda ab: engine[ab].terms.items())
        want = reorder_transform(space, CFunction(vars_, prod), "to_reversed")
        oracle.compare(f"reversed:{e1}*{e2}", got, want)

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
                lhs = _apply_rows(fg.items(), lambda m: table[(m, eh)].terms.items())
                gh = table[(eg, eh)].terms
                rhs = _apply_rows(gh.items(), lambda m: table[(ef, m)].terms.items())
                if lhs != rhs:
                    assoc.record(f"{ef},{eg},{eh}", str(CFunction(vars_, lhs)), str(CFunction(vars_, rhs)))

    # at q = 1 the product of two unit monomials is the unit monomial of the
    # summed exponents, which is in mono: the sum keeps the degree bound
    limit = VerificationReport("star-classical-limit", space)
    for e1, e2 in pairs:
        classical = mono[tuple(map(add, e1, e2))]
        if table[(e1, e2)].eval_coeffs_exact(1) != classical.eval_coeffs_exact(1):
            limit.record(f"{e1},{e2}", "", "")
    return [oracle, assoc, limit]
