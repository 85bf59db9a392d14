"""The key-native rewrite engine against the token-word engine it replaced.

The oracle below is the earlier engine restated: it normal-orders token
tuples by appending one token at a time, walks a token past plain swaps one
step (and one scalar product) at a time, and memoizes each insertion by its
whole word, on memos of its own.  It reads only the rule sets' ``resolve``,
so the rank tables, the run walk, the per-run memos and the transport table
of the engine are all checked against code that has none of them.
"""

import random

import pytest

from qspace import hopf, qfunc, scalars, starcalc
from qspace import ncalgebra as _nc
from qspace.cfunc import CFunction, E3_VARS
from qspace.ncalgebra import NCElement, act, lift, lower, normal_form, reorder_transform
from qspace.pairexp import _EXP_TERMS, qexp
from qspace.scalars import I, ONE, QScalar, _add_term

_WARM_STEP = 64
# insertion memos, keyed by the rule set's key, then by word
_MEMOS = {}


def _fold(rs, memo, terms, t):
    out = {}
    for w, c in terms.items():
        alts = rs.resolve(w[-1], t) if w else None
        if alts is None:
            _add_term(out, w + (t,), c)
            continue
        for ww, cc in _insert(rs, memo, w, t, alts).items():
            _add_term(out, ww, c * cc)
    return out


def _insert(rs, memo, w, t, alts):
    i = len(w)
    coeff = ONE
    while alts is not None:
        if len(alts) > 1 or alts[0][1] != (t, w[i - 1]):
            break
        coeff = coeff * alts[0][0]
        i -= 1
        alts = rs.resolve(w[i - 1], t) if i else None
    if alts is None:
        return {w[:i] + (t,) + w[i:]: coeff}
    passed, key, rest = w[i:], w[:i] + (t,), w[:i - 1]
    terms = memo.get(key)
    if terms is None:
        terms = {}
        for a, repl in alts:
            if repl and len(rest) > _WARM_STEP:
                _fold(rs, memo, {rest[:-_WARM_STEP]: ONE}, repl[0])
            part = {rest: ONE}
            for r in repl:
                part = _fold(rs, memo, part, r)
            for ww, cc in part.items():
                _add_term(terms, ww, a * cc)
        memo[key] = terms
    for v in passed:
        terms = _fold(rs, memo, terms, v)
    return {ww: coeff * cc for ww, cc in terms.items()}


def _key_of_word(space, word):
    layout = _nc.KEY_LAYOUT[space]
    counts = [0] * (len(layout) + 1)
    for tok in word:
        if isinstance(tok, tuple):
            counts[-1] += tok[1]
        else:
            counts[layout.index(tok)] += 1
    return tuple(counts)


def oracle_normal_form(space, calculus, ordering, word, rightmost=False):
    """{stored key: QScalar}: the token-word engine, left to right or (on
    the opposite rule set, on the reversed word) right to left."""
    rs = _nc._ruleset(space, calculus, ordering, rightmost)
    memo = _MEMOS.setdefault((space, calculus, ordering, rightmost), {})
    w = tuple(word)[::-1] if rightmost else tuple(word)
    i = min(len(w), 1)
    while i < len(w) and rs.resolve(w[i - 1], w[i]) is None:
        i += 1
    result = {w[:i]: ONE}
    for t in w[i:]:
        result = _fold(rs, memo, result, t)
    out = {}
    for ww, c in result.items():
        _add_term(out, _key_of_word(space, ww), c)
    return out


def oracle_element(space, word, coeff=ONE):
    out = NCElement(space)
    for k, c in oracle_normal_form(space, "u", "xd", word).items():
        _add_term(out.terms, k, coeff * c)
    return out


def oracle_transport(a, name):
    """The word transport: reverse each stored word, map its generators,
    invert the scaling operator, normal-order again."""
    tokmap = {"conj": _nc._CONJ_MAP, "mirror": _nc._MIRROR_MAP}[name][a.space]
    out = NCElement(a.space)
    for k, c in a.terms.items():
        coeff, word = ONE, []
        for tok in reversed(_nc._word_of_key(a.space, k)):
            if isinstance(tok, tuple):
                word.append(("L", -tok[1]))
                continue
            f, image = tokmap[tok]
            coeff = coeff * f
            word.append(image)
        if name == "conj":
            c = c.conj()
        for kk, cc in oracle_normal_form(a.space, "u", "xd", word).items():
            _add_term(out.terms, kk, c * coeff * cc)
    return out


def oracle_reorder(f, direction):
    out = {}
    for e, c in f.terms.items():
        x0, xp, x3, xm = ("x0",) * e[0], ("xp",) * e[1], ("x3",) * e[2], ("xm",) * e[3]
        if direction == "to_reversed":
            word, ordering = x0 + xp + x3 + xm, "rev"
        else:
            word, ordering = x0 + xm + x3 + xp, "xd"
        for k, cc in oracle_normal_form("euclid3", "u", ordering, word).items():
            _add_term(out, k[:4], c * cc)
    return CFunction(E3_VARS, out)


def _tokens(space):
    return list(_nc.X_TOKENS[space]) + list(_nc.D_TOKENS[space]) + [("L", 1), ("L", -2)]


def _random_word(rng, pool, max_len):
    word = []
    for _ in range(rng.randint(0, max_len)):
        # runs of one token make the run walk do more than single steps
        word += [rng.choice(pool)] * rng.choice((1, 1, 1, 2, 3))
    return tuple(word)


def _random_element(rng, space, pool, max_len, terms):
    acc = NCElement.zero(space)
    for _ in range(terms):
        word = _random_word(rng, pool, max_len)
        acc = acc + oracle_element(space, word, QScalar.q_power(rng.randint(-3, 3)) + I)
    return acc


STRATEGIES = ("leftmost", "rightmost")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_random_words_match_the_token_engine(strategy):
    rng = random.Random(101)
    for space in ("line", "euclid3"):
        for calculus in ("u", "h"):
            for ordering in ("xd", "rev"):
                words = [_random_word(rng, _tokens(space), 4) for _ in range(40)]
                want = [oracle_normal_form(space, calculus, ordering, w) for w in words]
                with _nc.rewrite_strategy(strategy):
                    got = [_nc._normalize_word(space, calculus, ordering, w) for w in words]
                for w, a, b in zip(words, got, want):
                    assert a == b, (space, calculus, ordering, w)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_products_match_the_token_engine(strategy):
    rng = random.Random(102)
    for space in ("line", "euclid3"):
        for _ in range(30):
            u, v = (_random_word(rng, _tokens(space), 3) for _ in "uv")
            want = oracle_element(space, u + v)
            with _nc.rewrite_strategy(strategy):
                got = normal_form(space, u) * normal_form(space, v)
            assert got == want, (space, u, v)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_transports_match_the_token_engine(strategy):
    rng = random.Random(103)
    for space in ("line", "euclid3"):
        xs, ds = list(_nc.X_TOKENS[space]), list(_nc.D_TOKENS[space])
        for pool in (xs, ds + [("L", 1)], _tokens(space)):
            for _ in range(12):
                a = _random_element(rng, space, pool, 3, 2)
                with _nc.rewrite_strategy(strategy):
                    conj, mirror = a.conjugate(), _nc._mirror_element(a)
                assert conj == oracle_transport(a, "conj"), (space, a)
                assert mirror == oracle_transport(a, "mirror"), (space, a)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_reorder_transform_matches_the_token_engine(strategy):
    rng = random.Random(104)
    for _ in range(30):
        f = CFunction(E3_VARS, {
            tuple(rng.randint(0, 3) for _ in range(4)): QScalar.q_power(rng.randint(-2, 2)) + I
            for _ in range(3)
        })
        for direction in ("to_reversed", "to_standard"):
            with _nc.rewrite_strategy(strategy):
                got = reorder_transform("euclid3", f, direction)
            assert got == oracle_reorder(f, direction), (f, direction)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_heavy_words_match_the_token_engine(strategy):
    words = []
    for n in (1, 2, 7, 64, 65, 130, 300):
        words += [("xm",) * n + ("xp",), ("x3",) + ("xm",) * n, ("xp",) * n + ("x3",) * 2]
    for n in (1, 2, 5, 9):
        words += [("xm",) * n + ("xp",) * n, ("dm",) * 2 + ("xm",) * n, ("xm",) * n + ("dm",) * 2]
    words += [("d3",) * 3 + ("x3",) * 4 + (("L", 3),) + ("xm",) * 6 + ("dp",) * 2]
    for word in words:
        want = oracle_normal_form("euclid3", "u", "xd", word)
        with _nc.rewrite_strategy(strategy):
            got = _nc._normalize_word("euclid3", "u", "xd", word)
        assert got == want, word
        for calculus in ("u", "h"):
            if len(word) <= 20:
                with _nc.rewrite_strategy(strategy):
                    got = _nc._normalize_word("euclid3", calculus, "rev", word)
                assert got == oracle_normal_form("euclid3", calculus, "rev", word), (calculus, word)


def test_a_planted_row_does_not_survive_a_strategy_switch():
    # the transport table is emptied on entering rewrite_strategy, so a
    # wrong row left in it cannot reach the cold path
    space = "euclid3"
    f = lift(space, CFunction(E3_VARS, {(0, 1, 1, 0): ONE, (1, 0, 0, 2): QScalar.q_power(1)}))
    op = normal_form(space, ("dm", ("L", 1))) + normal_form(space, ("d3",))
    want_conj = oracle_transport(f, "conj")
    want_acts = {mode: act(op, f, mode) for mode in ("right", "right_bar")}
    for k in f.terms:
        _nc._TRANSPORT[(space, "conj", k)] = ((k, ONE + ONE),)
    for k in list(op.terms) + list(f.terms):
        _nc._TRANSPORT[(space, "mirror", k)] = ((k, ONE + ONE),)
    assert f.conjugate() != want_conj
    with _nc.rewrite_strategy("rightmost"):
        assert f.conjugate() == want_conj
        for mode, want in want_acts.items():
            assert act(op, f, mode) == want, mode
    assert f.conjugate() == want_conj
    # the actions agree with the token engine's transports as well
    nx, nd = len(_nc.X_TOKENS[space]), len(_nc.D_TOKENS[space])
    signed = NCElement(space, {
        k: -c if sum(k[nx:nx + nd]) % 2 else c for k, c in op.terms.items()
    })
    mirrored = act(oracle_transport(signed, "mirror"), oracle_transport(f, "mirror"), "left_bar")
    assert want_acts["right"] == oracle_transport(mirrored, "mirror")


def test_whole_word_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 5)
    _nc._clear_memos()
    rng = random.Random(106)
    words = {_random_word(rng, _tokens("euclid3"), 4) for _ in range(40)}
    assert len(words) > 3 * 5
    for word in sorted(words, key=str):
        got = _nc._normalize_word("euclid3", "u", "xd", word)
        assert len(_nc._NF_CACHE) <= 5
        assert got == oracle_normal_form("euclid3", "u", "xd", word), word
    _nc._clear_memos()


def test_tables_stay_bounded(monkeypatch):
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 5)
    _nc._clear_memos()
    rng = random.Random(105)
    space = "euclid3"
    for _ in range(20):
        a = _random_element(rng, space, _tokens(space), 3, 2)
        assert a.conjugate() == oracle_transport(a, "conj")
        assert len(_nc._TRANSPORT) <= 5
    f = lift(space, lower(space, _random_element(rng, space, list(_nc.X_TOKENS[space]), 4, 3)))
    op = _random_element(rng, space, list(_nc.D_TOKENS[space]), 3, 2)
    got = act(op, f, "left")
    got_exp = list(qexp(space, "x_dhat", 3))
    # every table is registered, each one was filled and none is over the limit
    rulesets = [
        _nc._ruleset(space, calculus, ordering, opposite)
        for calculus in ("u", "h") for ordering in ("xd", "rev") for opposite in (False, True)
    ]
    named = [_nc._NF_CACHE, _nc._TRANSPORT, _EXP_TERMS]
    registered = named + [rs.memo for rs in rulesets] + [rs.counit_memo for rs in rulesets]
    assert all(any(t is m for m in scalars._MEMOS) for t in registered)
    assert all(named)
    assert any(rs.memo for rs in rulesets) and any(rs.counit_memo for rs in rulesets)
    for table in scalars._MEMOS:
        assert len(table) <= 5
    _nc._clear_memos()
    assert not any(scalars._MEMOS)
    monkeypatch.undo()
    assert got == act(op, f, "left")
    assert got_exp == list(qexp(space, "x_dhat", 3))


def _fill_value_tables():
    """Results read through the q-binomial, star-leg, translation-factor and
    inverse-representation tables."""
    got = [scalars.qbinom(n, k, a) for n in range(9) for k in range(n + 1) for a in (1, -4)]
    mono = [CFunction.monomial(E3_VARS, e) for e in ((1, 2, 3, 1), (0, 1, 4, 2), (2, 3, 2, 0))]
    for ordering in ("standard", "reversed"):
        ctx = starcalc.StarContext("euclid3", ordering)
        got += [starcalc.star(ctx, f, g) for f in mono for g in mono]
    for variant in hopf.TRANSLATE_VARIANTS:
        got += [hopf.translate("euclid3", variant, f) for f in mono]
        got += [hopf.antipode("euclid3", variant, f) for f in mono]
    got += [qfunc.act_inverse_partial(i, "left", f, "euclid3") for i in "+3-" for f in mono]
    return got


def test_value_tables_stay_bounded_and_follow_rewrite_strategy(monkeypatch):
    want = _fill_value_tables()
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 5)
    _nc._clear_memos()
    tables = [scalars._QBINOM, starcalc._STAR_LEGS, hopf._ODD_QFACTS, hopf._STEP_POWERS,
              qfunc._INVERSE_REPS]
    assert all(any(t is m for m in scalars._MEMOS) for t in tables)
    assert _fill_value_tables() == want
    assert all(0 < len(t) <= 5 for t in tables)
    with _nc.rewrite_strategy("rightmost"):
        assert not any(tables)
        assert _fill_value_tables() == want
        assert all(tables)
    assert not any(tables)
