import itertools
import random

import pytest

from qspace import grassmann
from qspace import ncalgebra as _nc
from qspace.cfunc import CFunction, E3_VARS, LINE_VARS
from qspace.ncalgebra import (
    NCElement,
    PurityError,
    SpaceMismatch,
    act,
    lift,
    lower,
    normal_form,
    normalize_in_calculus,
    reorder_transform,
)
from qspace.scalars import I, LAM, LAMP, ONE, QScalar, _add_term, qpow

LL = LAM * LAMP


def nf(space, *word):
    return normal_form(space, word)


def test_generator_rejects_a_negative_power_of_a_coordinate_or_derivative():
    for tag in ("x0", "xp", "dm"):
        with pytest.raises(ValueError):
            NCElement.generator("euclid3", tag, -1)
    with pytest.raises(ValueError):
        NCElement.generator("line", "d1", -2)
    assert NCElement.generator("euclid3", "xp", 0) == NCElement.one("euclid3")
    # the scaling operator takes any half-step
    half_inverse = NCElement.generator("line", "L", -1)
    assert half_inverse * NCElement.generator("line", "L", 1) == NCElement.one("line")


@pytest.mark.parametrize("tag,power", [("xp", 1.5), ("L", 0.5), ("dm", 2.0), ("x1", "2")])
def test_generator_rejects_a_power_that_is_not_an_int(tag, power):
    space = "line" if tag == "x1" else "euclid3"
    with pytest.raises(TypeError, match=f"power of generator '{tag}' must be an int"):
        NCElement.generator(space, tag, power)


def test_printed_rewrites():
    assert nf("euclid3", "x3", "xp") == nf("euclid3", "xp", "x3").scale(qpow(2))
    e = nf("euclid3", "dp", "xp")
    want = NCElement.one("euclid3") + nf("euclid3", "xp", "dp").scale(qpow(4))
    assert e == want
    assert nf("line", ("L", 2), "x1") == nf("line", "x1", ("L", 2)).scale(qpow(1))
    e = nf("euclid3", "xm", "xp")
    want = nf("euclid3", "xp", "xm") + nf("euclid3", "x3", "x3").scale(LAM)
    assert e == want


def test_multiply_examples():
    one = NCElement.one("euclid3")
    xp = NCElement.generator("euclid3", "xp")
    assert xp * one == xp
    d3, x3 = NCElement.generator("euclid3", "d3"), NCElement.generator("euclid3", "x3")
    got = d3 * x3
    want = (
        NCElement.one("euclid3")
        + nf("euclid3", "x3", "d3").scale(qpow(2))
        + nf("euclid3", "xp", "dp").scale(qpow(2) * LL)
    )
    assert got == want
    d11 = nf("line", "d1", "d1")
    x1 = NCElement.generator("line", "x1")
    got = d11 * x1
    want = NCElement.generator("line", "d1").scale(ONE + qpow(1)) + nf(
        "line", "x1", "d1", "d1"
    ).scale(qpow(2))
    assert got == want


def test_mixed_space_rejected():
    with pytest.raises(SpaceMismatch):
        NCElement.generator("line", "x1") * NCElement.generator("euclid3", "xp")


def test_derivative_relations_as_rewrites():
    assert nf("euclid3", "dp", "d3") == nf("euclid3", "d3", "dp").scale(qpow(2))
    got = nf("euclid3", "dp", "dm")
    want = nf("euclid3", "dm", "dp") + nf("euclid3", "d3", "d3").scale(LAM)
    assert got == want


def test_act_examples():
    f = lift("line", CFunction.monomial(LINE_VARS, (0, 2)))
    d1 = NCElement.generator("line", "d1")
    got = lower("line", act(d1, f, "left"))
    assert got == CFunction.monomial(LINE_VARS, (0, 1), ONE + qpow(1))

    x0 = lift("line", CFunction.monomial(LINE_VARS, (1, 0)))
    d0 = NCElement.generator("line", "d0")
    assert lower("line", act(d0, x0, "left")) == CFunction.constant(LINE_VARS, 1)

    lam = NCElement.generator("line", "L", 2)
    f3 = lift("line", CFunction.monomial(LINE_VARS, (0, 3)))
    assert lower("line", act(lam, f3, "left")) == CFunction.monomial(
        LINE_VARS, (0, 3), qpow(3)
    )


def test_act_right_scaling_operator():
    # f <| Lambda = Lambda^-1 |> f
    f = lift("line", CFunction.monomial(LINE_VARS, (0, 2)))
    lam = NCElement.generator("line", "L", 2)
    right = lower("line", act(lam, f, "right"))
    assert right == CFunction.monomial(LINE_VARS, (0, 2), qpow(-2))


def test_act_purity_rejected():
    mixed = nf("euclid3", "xp", "dp")
    coord = lift("euclid3", CFunction.monomial(E3_VARS, (0, 1, 0, 0)))
    with pytest.raises(PurityError):
        act(mixed, coord, "left")
    with pytest.raises(PurityError):
        act(NCElement.generator("euclid3", "dp"), mixed, "left")


def test_conjugation_examples():
    xp = NCElement.generator("euclid3", "xp")
    assert xp.conjugate() == NCElement.generator("euclid3", "xm").scale(-qpow(1))
    x0 = NCElement.generator("euclid3", "x0")
    assert x0.conjugate() == x0
    d3 = NCElement.generator("euclid3", "d3")
    assert d3.conjugate().conjugate() == d3


def test_conjugation_involution_on_pure_subalgebras():
    rng = random.Random(11)
    coords = ["x0", "xp", "x3", "xm"]
    ops = ["d0", "dp", "d3", "dm"]
    for pool in (coords, ops):
        for _ in range(25):
            word = tuple(rng.choices(pool, k=rng.randint(1, 4)))
            el = normal_form("euclid3", word, coeff=ONE + I * qpow(1))
            assert el.conjugate().conjugate() == el, word


def test_conjugation_antilinear():
    xp = NCElement.generator("euclid3", "xp").scale(I)
    assert xp.conjugate() == NCElement.generator("euclid3", "xm").scale(I * qpow(1))


# -- formal conjugation of token words (the relation-transport tests) ----------


def conjugate_word_formal(space, word):
    """Conjugate a token word formally: reverse it, send each generator
    through the conjugation map and invert the scaling operator; returns
    (product of the factors, image word).  No normal ordering is applied."""
    tokmap = _nc._CONJ_MAP[space]
    coeff = ONE
    toks = []
    for tok in reversed(tuple(word)):
        if isinstance(tok, tuple):
            toks.append((_nc._LAM_TAG, -tok[1]))
            continue
        f, t = tokmap[tok]
        if f is not ONE:
            coeff = coeff * f
        toks.append(t)
    return coeff, tuple(toks)


def _conjugate_relation_in_hatted(space, lhs_words, rhs_words):
    """Formally conjugate both sides of a relation and simplify in the
    hatted calculus, reading the conjugated derivatives through the hatted
    generators."""
    def side(words):
        acc = NCElement.zero(space)
        for c, w in words:
            cw, ww = conjugate_word_formal(space, w)
            acc = acc + normalize_in_calculus(space, "h", ww, c * cw, reexpress_hats=True)
        return acc

    return side(lhs_words), side(rhs_words)


def test_conjugation_transports_leibniz_to_hatted():
    # conjugating d1 X1 = 1 + q X1 d1 must land on the hatted rule
    # dh1 X1 = 1 + q^-1 X1 dh1
    lhs, rhs = _conjugate_relation_in_hatted(
        "line", [(ONE, ("d1", "x1"))], [(ONE, ()), (qpow(1), ("x1", "d1"))]
    )
    assert lhs == rhs and not lhs.is_zero()

    # 3d: conjugating dp Xp = 1 + q^4 Xp dp lands on the hatted minus rule
    lhs, rhs = _conjugate_relation_in_hatted(
        "euclid3", [(ONE, ("dp", "xp"))], [(ONE, ()), (qpow(4), ("xp", "dp"))]
    )
    assert lhs == rhs and not lhs.is_zero()

    # and the 3-direction rule with its correction term
    lhs, rhs = _conjugate_relation_in_hatted(
        "euclid3",
        [(ONE, ("d3", "x3"))],
        [(ONE, ()), (qpow(2), ("x3", "d3")), (qpow(2) * LL, ("xp", "dp"))],
    )
    assert lhs == rhs and not lhs.is_zero()


def test_reorder_transform_examples():
    one = CFunction.constant(E3_VARS, 1)
    assert reorder_transform("euclid3", one, "to_reversed") == one
    f = CFunction.monomial(E3_VARS, (0, 1, 0, 1))
    got = reorder_transform("euclid3", f, "to_reversed")
    want = f + CFunction.monomial(E3_VARS, (0, 0, 2, 0), -LAM)
    assert got == want


def test_reorder_roundtrip_degree4():
    import itertools

    for e in itertools.product(range(5), repeat=4):
        if sum(e) > 4:
            continue
        f = CFunction.monomial(E3_VARS, e)
        back = reorder_transform(
            "euclid3", reorder_transform("euclid3", f, "to_reversed"), "to_standard"
        )
        assert back == f, e


GENS = ["x0", "xp", "x3", "xm", "d0", "dp", "d3", "dm"]


def test_confluence_strategy_independence():
    # the same words normalized inserting their tokens left to right vs
    # right to left must agree exactly
    from qspace.ncalgebra import rewrite_strategy

    rng = random.Random(3)
    words = [tuple(rng.choices(GENS, k=rng.randint(2, 6))) for _ in range(500)]
    with rewrite_strategy("leftmost"):
        left = [normal_form("euclid3", w) for w in words]
    with rewrite_strategy("rightmost"):
        right = [normal_form("euclid3", w) for w in words]
    for w, a, b in zip(words, left, right):
        assert a == b, w


def test_confluence_split_products():
    # split-product factorizations must agree with one-shot normalization
    rng = random.Random(3)
    for _ in range(200):
        word = tuple(rng.choices(GENS, k=rng.randint(2, 6)))
        whole = normal_form("euclid3", word)
        k = rng.randint(1, len(word) - 1)
        split = normal_form("euclid3", word[:k]) * normal_form("euclid3", word[k:])
        assert whole == split, word


def test_associativity_random_triples():
    rng = random.Random(5)
    for _ in range(60):
        a, b, c = (
            normal_form("euclid3", tuple(rng.choices(GENS, k=rng.randint(1, 3))))
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)


def test_lambda_half_steps():
    # Lambda^(1/2) scales the 3d coordinates by q^2 and the line one by sqrt(q)
    got = nf("euclid3", ("L", 1), "xp")
    assert got == nf("euclid3", "xp", ("L", 1)).scale(qpow(2))
    got = nf("line", ("L", 1), "x1")
    assert got == nf("line", "x1", ("L", 1)).scale(QScalar.q_power(1))


def test_act_with_mixed_operator_words():
    # operator words mixing the scaling operator and derivatives act as the
    # composition of their factors
    from qspace.cfunc import space_vars

    f = CFunction.monomial(LINE_VARS, (0, 3))
    word = nf("line", ("L", 2), "d1")  # Lambda d1
    lam = NCElement.generator("line", "L", 2)
    d1 = NCElement.generator("line", "d1")
    lifted = lift("line", f)
    composed = act(lam, lift("line", lower("line", act(d1, lifted, "left"))), "left")
    assert act(word, lifted, "left") == composed

    word3 = nf("euclid3", ("L", -2), "d3")
    f3 = lift("euclid3", CFunction.monomial(E3_VARS, (0, 1, 2, 0)))
    lam3 = NCElement.generator("euclid3", "L", -2)
    d3 = NCElement.generator("euclid3", "d3")
    composed = act(lam3, lift("euclid3", lower("euclid3", act(d3, f3, "left"))), "left")
    assert act(word3, f3, "left") == composed


# -- the insertion engine against its certificate and an independent oracle --

RULE_SETS = [
    (space, calculus, ordering)
    for space in ("line", "euclid3")
    for calculus in ("u", "h")
    for ordering in ("xd", "rev")
]


# The rule tables as printed, the derived ones included: the engine states
# only the standard coordinate relations and the plain Leibniz rules and
# derives the rest by the (+/-, q) -> (-/+, 1/q) transition and the index
# swap x -> d.  Each table maps a pair to its alternatives, in order.
_Q = qpow
_LINE_TABLES = {
    "xx": {("x1", "x0"): [(ONE, ("x0", "x1"))]},
    "xx_rev": {("x1", "x0"): [(ONE, ("x0", "x1"))]},
    "dd": {("d1", "d0"): [(ONE, ("d0", "d1"))]},
    "leibniz": {
        ("d0", "x0"): [(ONE, ()), (ONE, ("x0", "d0"))],
        ("d0", "x1"): [(ONE, ("x1", "d0"))],
        ("d1", "x0"): [(ONE, ("x0", "d1"))],
        ("d1", "x1"): [(ONE, ()), (_Q(1), ("x1", "d1"))],
    },
    "leibniz_hat": {
        ("d0", "x0"): [(ONE, ()), (ONE, ("x0", "d0"))],
        ("d0", "x1"): [(ONE, ("x1", "d0"))],
        ("d1", "x0"): [(ONE, ("x0", "d1"))],
        ("d1", "x1"): [(ONE, ()), (_Q(-1), ("x1", "d1"))],
    },
}
_E3_TIME = {
    ("d0", "x0"): [(ONE, ()), (ONE, ("x0", "d0"))],
    ("d0", "xp"): [(ONE, ("xp", "d0"))],
    ("d0", "x3"): [(ONE, ("x3", "d0"))],
    ("d0", "xm"): [(ONE, ("xm", "d0"))],
    ("dp", "x0"): [(ONE, ("x0", "dp"))],
    ("d3", "x0"): [(ONE, ("x0", "d3"))],
    ("dm", "x0"): [(ONE, ("x0", "dm"))],
}
_E3_TABLES = {
    "xx": {
        ("xp", "x0"): [(ONE, ("x0", "xp"))],
        ("x3", "x0"): [(ONE, ("x0", "x3"))],
        ("xm", "x0"): [(ONE, ("x0", "xm"))],
        ("x3", "xp"): [(_Q(2), ("xp", "x3"))],
        ("xm", "x3"): [(_Q(2), ("x3", "xm"))],
        ("xm", "xp"): [(ONE, ("xp", "xm")), (LAM, ("x3", "x3"))],
    },
    "xx_rev": {
        ("xp", "x0"): [(ONE, ("x0", "xp"))],
        ("x3", "x0"): [(ONE, ("x0", "x3"))],
        ("xm", "x0"): [(ONE, ("x0", "xm"))],
        ("x3", "xm"): [(_Q(-2), ("xm", "x3"))],
        ("xp", "x3"): [(_Q(-2), ("x3", "xp"))],
        ("xp", "xm"): [(ONE, ("xm", "xp")), (-LAM, ("x3", "x3"))],
    },
    "dd": {
        ("dm", "d0"): [(ONE, ("d0", "dm"))],
        ("d3", "d0"): [(ONE, ("d0", "d3"))],
        ("dp", "d0"): [(ONE, ("d0", "dp"))],
        ("d3", "dm"): [(_Q(2), ("dm", "d3"))],
        ("dp", "d3"): [(_Q(2), ("d3", "dp"))],
        ("dp", "dm"): [(ONE, ("dm", "dp")), (LAM, ("d3", "d3"))],
    },
    "leibniz": {
        **_E3_TIME,
        ("dp", "xp"): [(ONE, ()), (_Q(4), ("xp", "dp"))],
        ("dp", "x3"): [(_Q(2), ("x3", "dp"))],
        ("dp", "xm"): [(ONE, ("xm", "dp"))],
        ("d3", "xp"): [(_Q(2), ("xp", "d3"))],
        ("d3", "x3"): [(ONE, ()), (_Q(2), ("x3", "d3")), (_Q(2) * LL, ("xp", "dp"))],
        ("d3", "xm"): [(_Q(2), ("xm", "d3")), (_Q(1) * LL, ("x3", "dp"))],
        ("dm", "xp"): [(ONE, ("xp", "dm"))],
        ("dm", "x3"): [(_Q(2), ("x3", "dm")), (_Q(1) * LL, ("xp", "d3"))],
        ("dm", "xm"): [
            (ONE, ()),
            (_Q(4), ("xm", "dm")),
            (_Q(2) * LL, ("x3", "d3")),
            (_Q(1) * LAM * LL, ("xp", "dp")),
        ],
    },
    "leibniz_hat": {
        **_E3_TIME,
        ("dp", "xm"): [(ONE, ("xm", "dp"))],
        # q^-1 lam lam+, where the source prints q lam lam+
        ("dp", "x3"): [(_Q(-2), ("x3", "dp")), (-_Q(-1) * LL, ("xm", "d3"))],
        ("dp", "xp"): [
            (ONE, ()),
            (_Q(-4), ("xp", "dp")),
            (-_Q(-2) * LL, ("x3", "d3")),
            (_Q(-1) * LAM * LL, ("xm", "dm")),
        ],
        ("d3", "xm"): [(_Q(-2), ("xm", "d3"))],
        ("d3", "x3"): [(ONE, ()), (_Q(-2), ("x3", "d3")), (-_Q(-2) * LL, ("xm", "dm"))],
        ("d3", "xp"): [(_Q(-2), ("xp", "d3")), (-_Q(-1) * LL, ("x3", "dm"))],
        ("dm", "xp"): [(ONE, ("xp", "dm"))],
        ("dm", "x3"): [(_Q(-2), ("x3", "dm"))],
        ("dm", "xm"): [(ONE, ()), (_Q(-4), ("xm", "dm"))],
    },
}
_TABLES = {"line": _LINE_TABLES, "euclid3": _E3_TABLES}


@pytest.mark.parametrize("space, calculus, ordering", RULE_SETS)
def test_derived_rule_tables_match_the_printed_ones(space, calculus, ordering):
    tables = _TABLES[space]
    want = {
        **tables["xx" if ordering == "xd" else "xx_rev"],
        **tables["dd"],
        **tables["leibniz" if calculus == "u" else "leibniz_hat"],
    }
    got = _nc._RuleSet(space, calculus, ordering, False).pair_rules
    assert sorted(got) == sorted(want)
    for pair, alts in want.items():
        # the alternatives in order, each coefficient exactly
        assert got[pair] == alts, pair


def test_rule_sets_reject_an_unknown_calculus_or_ordering():
    with pytest.raises(ValueError):
        _nc._RuleSet("euclid3", "x", "xd", False)
    with pytest.raises(ValueError):
        _nc._RuleSet("euclid3", "u", "dx", False)


def _tokens(space):
    return list(_nc.X_TOKENS[space]) + list(_nc.D_TOKENS[space]) + [("L", 1), ("L", -1)]


def _tree_normal_form(rs, word, rightmost=False):
    """Reference rewriter: expand the tree of words, always rewriting the
    leftmost (or rightmost) disordered pair, and add up the ordered leaves.
    No memo and no merging of like terms before the leaves."""
    result = {}
    stack = [(ONE, tuple(word))]
    while stack:
        coeff, w = stack.pop()
        positions = range(len(w) - 1)
        for i in reversed(positions) if rightmost else positions:
            alts = rs.resolve(w[i], w[i + 1])
            if alts is not None:
                for c, repl in alts:
                    stack.append((coeff * c, w[:i] + repl + w[i + 2:]))
                break
        else:
            _add_term(result, w, coeff)
    return result


def _key_of_word(space, word):
    """The stored key of a normal-ordered token word: its generator counts
    in KEY_LAYOUT order, then the scaling operator's half-step exponent."""
    layout = _nc.KEY_LAYOUT[space]
    counts = [0] * (len(layout) + 1)
    for tok in word:
        if isinstance(tok, tuple):
            counts[-1] += tok[1]
        else:
            counts[layout.index(tok)] += 1
    return tuple(counts)


def _keyed(space, word_terms):
    return {_key_of_word(space, w): c for w, c in word_terms.items()}


def _combine(parts):
    out = {}
    for k, word_terms in parts:
        for w, c in word_terms.items():
            _add_term(out, w, k * c)
    return out


def _overlaps(resolve, normalize, toks):
    """Bergman's diamond lemma (Adv. Math. 29 (1978) 178): the rules give a
    PBW basis, and every reduction order the same normal form, when each
    overlap a b c whose pairs (a, b) and (b, c) both rewrite reduces to one
    element either way.  resolve(a, b) is the rule of a pair, a list of
    (coefficient, replacement) or None; normalize(word) a normal form as a
    dict.  Returns the number of overlaps and those that do not resolve."""
    count, failing = 0, []
    for a in toks:
        for b in toks:
            ab = resolve(a, b)
            if ab is None:
                continue
            for c in toks:
                bc = resolve(b, c)
                if bc is None:
                    continue
                count += 1
                left = _combine((k, normalize(r + (c,))) for k, r in ab)
                right = _combine((k, normalize((a,) + r)) for k, r in bc)
                if left != right:
                    failing.append((a, b, c))
    return count, failing


def test_overlap_ambiguities_resolve():
    count = 0
    for key in RULE_SETS:
        rs = _nc._ruleset(*key, False)
        n, failing = _overlaps(
            rs.resolve, lambda word, key=key: _nc._normalize_word(*key, word), _tokens(key[0])
        )
        assert failing == [], key
        count += n
    assert count == 768


@pytest.mark.parametrize("hatted", [False, True])
def test_grassmann_overlaps_fail_only_where_dth1_th1_meets_a_square(hatted):
    # the Leibniz coefficient -q (-q^-1 hatted) of th1 dth1 agrees with the
    # vanishing squares only at q = 1, so the two overlaps of the rule for
    # dth1 th1 with a square do not resolve; every other overlap does
    rules = grassmann._RULE_TABLES[hatted]
    n, failing = _overlaps(
        lambda a, b: rules.get((a, b)),
        lambda word: grassmann._normalize(word, hatted),
        grassmann._GENERATORS,
    )
    assert n == 20
    assert sorted(failing) == [("dth1", "dth1", "th1"), ("dth1", "th1", "th1")]


def test_grassmann_products_without_a_repeated_generator_associate():
    words = [w for r in range(5) for w in itertools.combinations(grassmann._GENERATORS, r)]
    el = {w: grassmann.GElement({w: ONE}) for w in words}
    count = 0
    for a, b, c in itertools.product(words, repeat=3):
        if len(set(a + b + c)) == len(a + b + c):
            count += 1
            assert (el[a] * el[b]) * el[c] == el[a] * (el[b] * el[c]), (a, b, c)
    assert count == 256


def _random_words(rng, space, n):
    toks = _tokens(space)
    return [tuple(rng.choice(toks) for _ in range(rng.randint(0, 7))) for _ in range(n)]


def test_insertion_matches_tree_rewriter():
    rng = random.Random(17)
    for key in RULE_SETS:
        rs = _nc._ruleset(*key, False)
        space = key[0]
        ladders = [("xm",) * 3 + ("xp",) * 3, ("dm",) * 3 + ("xm",) * 3] if space == "euclid3" \
            else [("x1",) * 3 + ("d1",) * 3, ("d1",) * 3 + ("x1",) * 3]
        words = _random_words(rng, space, 60) + ladders
        want = [_keyed(space, _tree_normal_form(rs, w)) for w in words]
        for strategy in ("leftmost", "rightmost"):
            with _nc.rewrite_strategy(strategy):
                got = [_nc._normalize_word(*key, w) for w in words]
            for w, a, b in zip(words, got, want):
                assert a == b, (key, strategy, w)
        # the oracle itself does not depend on which pair it rewrites first
        for w, b in zip(words[:20], want):
            assert _keyed(space, _tree_normal_form(rs, w, rightmost=True)) == b, (key, w)


def _reference_act_left(op, f, calculus):
    """The definition: normal-order every operator word times every
    coordinate word in full, then apply the counit."""
    space = op.space
    rs = _nc._ruleset(space, calculus, "xd", False)
    nx = len(_nc.X_TOKENS[space])
    out = {}
    for kop, cop in op.terms.items():
        c0 = cop
        if calculus == "h":
            c0 = c0 * qpow(-_nc.HAT_POWER[space] * op.spatial_d_count(kop))
        for kf, cf in f.terms.items():
            word = _nc._word_of_key(space, kop) + _nc._word_of_key(space, kf)
            for w, c in _tree_normal_form(rs, word).items():
                key = _key_of_word(space, w)
                if not any(key[nx:-1]):
                    _add_term(out, key[:-1] + (0,), c0 * cf * c)
    return NCElement(space, out)


def _reference_act(op, f, mode):
    if mode in ("left", "left_bar"):
        return _reference_act_left(op, f, "u" if mode == "left" else "h")
    # right actions: the +/- mirror transport of the other left action, one
    # sign per derivative factor
    space = op.space
    nx, nd = len(_nc.X_TOKENS[space]), len(_nc.D_TOKENS[space])
    calculus = "h" if mode == "right" else "u"
    mf = _nc._mirror_element(f)
    acc = NCElement.zero(space)
    for kop, cop in op.terms.items():
        term = _nc._mirror_element(NCElement(space, {kop: cop}))
        part = _reference_act_left(term, mf, calculus)
        acc = acc + (part if sum(kop[nx:nx + nd]) % 2 == 0 else -part)
    return _nc._mirror_element(acc)


def _random_element(rng, space, pool, max_len, terms):
    acc = NCElement.zero(space)
    for _ in range(terms):
        word = tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len)))
        acc = acc + normal_form(space, word, coeff=QScalar.q_power(rng.randint(-3, 3)) + I)
    return acc


def test_act_matches_full_normal_form_then_counit():
    rng = random.Random(23)
    for space in ("line", "euclid3"):
        ops = list(_nc.D_TOKENS[space]) + [("L", 1), ("L", -2)]
        xs = list(_nc.X_TOKENS[space])
        for _ in range(25):
            op = _random_element(rng, space, ops, 3, 2)
            f = _random_element(rng, space, xs, 4, 3)
            for mode in ("left", "left_bar", "right", "right_bar"):
                assert act(op, f, mode) == _reference_act(op, f, mode), (space, mode, op, f)


def test_act_between_degrees_has_no_constant_term():
    # every rule keeps x-degree minus d-degree, so a derivative word of degree
    # n pairs to 0 with a coordinate word of degree m != n (the pairings skip
    # these without acting)
    import itertools

    for space in ("line", "euclid3"):
        ds, xs = _nc.D_TOKENS[space], _nc.X_TOKENS[space]
        for n, m in itertools.product(range(4), repeat=2):
            if n == m:
                continue
            for dword in itertools.islice(itertools.product(ds, repeat=n), 6):
                for xword in itertools.islice(itertools.product(xs, repeat=m), 6):
                    op, f = normal_form(space, dword), normal_form(space, xword)
                    for mode in ("left", "left_bar", "right", "right_bar"):
                        assert act(op, f, mode).constant_term() == 0, (dword, xword, mode)


def test_ladders_do_not_blow_up():
    # the tree rewriter needed minutes here; insertion merges like terms
    assert len(nf("euclid3", *("xm",) * 12, *("xp",) * 12).terms) == 13
    assert len(nf("euclid3", *("dm",) * 6, *("xm",) * 6).terms) == 176


def test_long_words_keep_the_recursion_shallow():
    # a token travelling through n others would recurse about 2n frames
    # deep; insertion into shorter prefixes first keeps it near 150
    import inspect
    import sys

    word = ("xm",) * 200 + ("xp",)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 250)
    try:
        results = []
        for strategy in ("leftmost", "rightmost"):
            with _nc.rewrite_strategy(strategy):
                results.append(normal_form("euclid3", word))
    finally:
        sys.setrecursionlimit(saved)
    assert results[0] == results[1]
    assert len(results[0].terms) == 2


def test_verify_all_under_rightmost_matches_reference():
    # every suite with the tokens inserted right to left: conjugation,
    # mirrored right actions, ordering transports and the star round trips
    # all run on the opposite rule sets and must print the recorded output
    import json
    import os

    from qspace.suites import SUITES, run_suite

    with _nc.rewrite_strategy("rightmost"):
        reports = run_suite(list(SUITES))
    reference = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                             "perfbench", "reference", "verify_all.json")
    with open(reference) as fh:
        assert json.dumps([r.to_json() for r in reports], indent=2) + "\n" == fh.read()


def _thread_jobs():
    from qspace.starcalc import StarContext

    rng = random.Random(41)
    jobs = []
    for space in ("line", "euclid3"):
        xs, ds = list(_nc.X_TOKENS[space]), list(_nc.D_TOKENS[space])
        jobs += [("nf", (space, w)) for w in _random_words(rng, space, 30)]
        for _ in range(6):
            op = _random_element(rng, space, ds + [("L", 1)], 3, 2)
            f = _random_element(rng, space, xs, 4, 2)
            jobs += [("act", (op, f, mode)) for mode in _nc.ACTION_MODES]
    xs = list(_nc.X_TOKENS["euclid3"])
    for ordering in ("standard", "reversed"):
        for _ in range(8):
            f, g = (lower("euclid3", _random_element(rng, "euclid3", xs, 3, 2)) for _ in "fg")
            jobs.append(("star", (StarContext("euclid3", ordering), f, g)))
    return jobs


def _run_job(job):
    from qspace.starcalc import star

    kind, args = job
    return {"nf": normal_form, "act": act, "star": star}[kind](*args)


def test_threads_get_the_serial_results():
    # threads share the memos; one of them empties them by entering and
    # leaving rewrite_strategy("rightmost") while the others read and fill
    # them, and the rule sets are created by the threads themselves
    import sys
    import threading

    jobs = _thread_jobs()
    serial = [_run_job(job) for job in jobs]
    _nc._clear_memos()
    _nc._ruleset.cache_clear()
    n_threads = 8
    results = [None] * n_threads
    errors = []
    barrier = threading.Barrier(n_threads)

    def worker(n):
        order = list(range(len(jobs)))
        random.Random(n).shuffle(order)
        got = {}
        try:
            barrier.wait()
            if n == 0:
                for start in range(0, len(order), 20):
                    with _nc.rewrite_strategy("rightmost"):
                        for i in order[start:start + 20]:
                            got[i] = _run_job(jobs[i])
            else:
                for i in order:
                    got[i] = _run_job(jobs[i])
                    # the strategy is a per-context setting
                    assert _nc._STRATEGY.get() == "leftmost"
        except Exception as exc:  # reported by the main thread
            errors.append((n, exc))
        results[n] = got

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(saved)
    assert not errors, errors
    for n, got in enumerate(results):
        assert len(got) == len(jobs), n
        for i, value in got.items():
            assert value == serial[i], (n, jobs[i])
