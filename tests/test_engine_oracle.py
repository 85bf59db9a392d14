"""The key-native rewrite engine against the token-word engine it replaced.

The oracle below is the earlier engine restated: it normal-orders token
tuples by appending one token at a time, walks a token past plain swaps one
step (and one scalar product) at a time, and memoizes each insertion by its
whole word, on memos of its own.  It reads only the rule sets' pair rules,
rank order and scaling weights, through ``resolve`` below, so the rank tables, the run walk, the per-run memos and the transport table
of the engine are all checked against code that has none of them.  The
engine has no rule set for the reversed coordinate basis; the oracle
rewrites in that basis on rules built here from the printed tables.
"""

import ast
import pathlib
import random
import threading
import types

import pytest

import qspace
from qspace import cfunc, hopf, pairexp, qfunc, scalars, starcalc
from qspace import ncalgebra as _nc
from qspace.cfunc import CFunction, E3_VARS
from qspace.ncalgebra import (
    NCElement, act, lift, lower, normal_form, normalize_in_calculus, reorder_transform,
)
from qspace.pairexp import qexp
from qspace.scalars import I, ONE, QScalar, _add_term
from qspace.spaces import KEY_LAYOUT
from test_tables import every_table, readme_table_names

_WARM_STEP = 64
_LAM = _nc._LAM_TAG


def _tag(tok):
    return tok[0] if isinstance(tok, tuple) else tok


def resolve(rs, a, b):
    """Rewrite alternatives of the rule set rs for the adjacent tokens
    (a, b), a list of (coefficient, replacement); None if ordered.  The
    scaling operator is the token (tag, half-step exponent)."""
    ta, tb = _tag(a), _tag(b)
    if ta == _LAM and tb == _LAM:
        h = a[1] + b[1]
        return [(ONE, ((_LAM, h),) if h else ())]
    if ta == _LAM:
        if rs.rank[_LAM] < rs.rank[tb]:
            return None
        return [(QScalar.q_power(rs.lam_weight[tb] * a[1]), (b, a))]
    if tb == _LAM:
        if rs.rank[ta] < rs.rank[_LAM]:
            return None
        return [(QScalar.q_power(-rs.lam_weight[ta] * b[1]), (b, a))]
    if rs.rank[ta] <= rs.rank[tb]:
        return None
    return rs.pair_rules[(ta, tb)]
# insertion memos, keyed by the rule set's key, then by word
_MEMOS = {}


def _fold(rs, memo, terms, t):
    out = {}
    for w, c in terms.items():
        alts = resolve(rs, w[-1], t) if w else None
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
        alts = resolve(rs, w[i - 1], t) if i else None
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


def oracle_normal_form(space, calculus, word, rightmost=False):
    """{stored key: QScalar}: the token-word engine, left to right or (on
    the opposite rule set, on the reversed word) right to left."""
    rs = _nc._ruleset(space, calculus, rightmost)
    memo = _MEMOS.setdefault((space, calculus, rightmost), {})
    return _oracle_run(space, rs, memo, tuple(word)[::-1] if rightmost else tuple(word))


def reversed_basis(space, calculus):
    """The rules of the calculus in the reversed coordinate basis, built
    from the printed tables of test_ncalgebra (the reversed coordinate
    relations, the derivative relations and the Leibniz rules) rather than
    from the engine, in the form resolve reads."""
    from test_ncalgebra import _TABLES  # imported here: it imports this module

    tables = _TABLES[space]
    xs, ds = _nc.REVERSED[space], _nc.D_TOKENS[space]
    return types.SimpleNamespace(
        rank={t: i for i, t in enumerate(xs + ds + (_LAM,))},
        pair_rules={**tables["xx_rev"], **tables["dd"],
                    **tables["leibniz" if calculus == "u" else "leibniz_hat"]},
        lam_weight={t: _nc._lam_weight(space, t) for t in xs + ds},
    )


def _oracle_run(space, rs, memo, w):
    """{stored key: QScalar}: the token word w normal-ordered by the rules
    rs, on the insertion memo memo."""
    i = min(len(w), 1)
    while i < len(w) and resolve(rs, w[i - 1], w[i]) is None:
        i += 1
    result = {w[:i]: ONE}
    for t in w[i:]:
        result = _fold(rs, memo, result, t)
    out = {}
    for ww, c in result.items():
        _add_term(out, _key_of_word(space, ww), c)
    return out


def oracle_element(space, word, coeff=ONE):
    out = {}
    for k, c in oracle_normal_form(space, "u", word).items():
        _add_term(out, k, coeff * c)
    return NCElement(space, out)


def word_of_key(space, key):
    """The token word of a stored key: each generator's run in KEY_LAYOUT
    order, then the scaling operator's half-steps as one token."""
    toks = []
    for tag, n in zip(KEY_LAYOUT[space], key[:-1]):
        toks.extend([tag] * n)
    if key[-1]:
        toks.append((_nc._LAM_TAG, key[-1]))
    return tuple(toks)


def oracle_transport(a, name):
    """The word transport: reverse each stored word, map its generators,
    invert the scaling operator, normal-order again."""
    tokmap = {"conj": _nc._CONJ_MAP, "mirror": _nc._MIRROR_MAP}[name][a.space]
    out = {}
    for k, c in a.terms.items():
        coeff, word = ONE, []
        for tok in reversed(word_of_key(a.space, k)):
            if isinstance(tok, tuple):
                word.append(("L", -tok[1]))
                continue
            f, image = tokmap[tok]
            coeff = coeff * f
            word.append(image)
        if name == "conj":
            c = c.conj()
        for kk, cc in oracle_normal_form(a.space, "u", word).items():
            _add_term(out, kk, c * coeff * cc)
    return NCElement(a.space, out)


def oracle_reorder(f, direction):
    """The standard word of each exponent key rewritten in the reversed
    basis, or the reversed word in the standard one."""
    rev = reversed_basis("euclid3", "u")
    out = {}
    for e, c in f.terms.items():
        x0, xp, x3, xm = ("x0",) * e[0], ("xp",) * e[1], ("x3",) * e[2], ("xm",) * e[3]
        if direction == "to_reversed":
            nf = _oracle_run("euclid3", rev, _MEMOS.setdefault("rev", {}), x0 + xp + x3 + xm)
        else:
            nf = oracle_normal_form("euclid3", "u", x0 + xm + x3 + xp)
        for k, cc in nf.items():
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
            words = [_random_word(rng, _tokens(space), 4) for _ in range(40)]
            want = [oracle_normal_form(space, calculus, w) for w in words]
            with _nc.rewrite_strategy(strategy):
                got = [normalize_in_calculus(space, calculus, w).terms for w in words]
            for w, a, b in zip(words, got, want):
                assert a == b, (space, calculus, w)


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
                    conj, mirror = a.conjugate(), _nc._transport(a, "mirror")
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
        want = oracle_normal_form("euclid3", "u", word)
        with _nc.rewrite_strategy(strategy):
            got = normalize_in_calculus("euclid3", "u", word).terms
        assert got == want, word


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
    qspace.clear_tables()
    whole_words = qspace.tables()["ncalgebra.normal_forms"]
    rng = random.Random(106)
    words = {_random_word(rng, _tokens("euclid3"), 4) for _ in range(40)}
    assert len(words) > 3 * 5
    for word in sorted(words, key=str):
        got = normalize_in_calculus("euclid3", "u", word).terms
        assert len(whole_words) <= 5
        assert got == oracle_normal_form("euclid3", "u", word), word
    qspace.clear_tables()


def _registered(table):
    """Whether table is one of the registered tables: a key planted in it
    shows in a view of one."""
    marker = object()
    table[marker] = None
    try:
        return any(marker in view for view in qspace.tables().values())
    finally:
        del table[marker]


def test_tables_stay_bounded(monkeypatch):
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 5)
    qspace.clear_tables()
    rng = random.Random(105)
    space = "euclid3"
    for _ in range(20):
        a = _random_element(rng, space, _tokens(space), 3, 2)
        assert a.conjugate() == oracle_transport(a, "conj")
        assert len(qspace.tables()["ncalgebra.transport"]) <= 5
    f = lift(space, lower(space, _random_element(rng, space, list(_nc.X_TOKENS[space]), 4, 3)))
    op = _random_element(rng, space, list(_nc.D_TOKENS[space]), 3, 2)
    got = act(op, f, "left")
    got_exp = list(qexp(space, "x_dhat", 3))
    # the exponential's words are normal-ordered as one family, so a word of
    # its own fills the whole-word memo
    word = _random_word(rng, _tokens(space), 3)
    got_nf = normal_form(space, word)
    # every module-level table is registered and every rule set owns its
    # memos; each table was filled and none is over the limit
    rulesets = [
        _nc._ruleset(space, calculus, opposite)
        for calculus in ("u", "h") for opposite in (False, True)
    ]
    tables = qspace.tables()
    named = [tables[name] for name in ("ncalgebra.normal_forms", "ncalgebra.transport",
                                       "pairexp.exp_terms")]
    owned = [rs.memo for rs in rulesets] + [rs.counit_memo for rs in rulesets]
    assert not any(_registered(t) for t in owned)
    assert all(named)
    assert any(rs.memo for rs in rulesets) and any(rs.counit_memo for rs in rulesets)
    for table in [*tables.values(), *owned]:
        assert len(table) <= 5
    # entering the strategy empties every registered table, the rule sets'
    # among them, and so drops the rule sets with their memos
    with _nc.rewrite_strategy("leftmost"):
        assert not any(tables.values())
        assert not tables["ncalgebra.rulesets"]
    monkeypatch.undo()
    assert got == act(op, f, "left")
    assert got_exp == list(qexp(space, "x_dhat", 3))
    assert got_nf == normal_form(space, word)


def test_rebuilt_rule_sets_leave_no_tables_behind():
    # the registry holds the module-level tables of every layer and no
    # more; a rule set's memos go with it
    key = ("euclid3", "u", False)
    for _ in range(50):
        qspace.clear_tables()
        _nc._ruleset(*key)
    # 8 threads racing on a cold key may each build a rule set
    qspace.clear_tables()
    barrier = threading.Barrier(8)

    def build():
        barrier.wait()
        _nc._ruleset(*key)

    threads = [threading.Thread(target=build) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert list(every_table()) == readme_table_names()


def _fill_value_tables():
    """Results read through the q-binomial, star-leg, translation-factor,
    translation, antipode, derivative-action, monomial and monomial-text
    tables."""
    got = [scalars.qbinom(n, k, a) for n in range(9) for k in range(n + 1) for a in (1, -4)]
    mono = [CFunction.monomial(E3_VARS, e) for e in ((1, 2, 3, 1), (0, 1, 4, 2), (2, 3, 2, 0))]
    for ordering in ("standard", "reversed"):
        ctx = starcalc.StarContext("euclid3", ordering)
        got += [starcalc.star(ctx, f, g) for f in mono for g in mono]
    for variant in hopf.TRANSLATE_VARIANTS:
        got += [hopf.translate("euclid3", variant, f) for f in mono]
        got += [hopf.antipode("euclid3", variant, f) for f in mono]
    got += [qfunc.act_inverse_partial(i, "left", f, "euclid3") for i in "+3-" for f in mono]
    got += [qfunc.act_partial_closed(i, "right", f, "euclid3") for i in "+3-" for f in mono]
    got += [cfunc._monomials(E3_VARS, d, by_degree) for d in range(4) for by_degree in (0, 1)]
    got += [str(f) for f in got if isinstance(f, CFunction)]
    got += [str(normal_form("euclid3", ("dm", "xp", "x3", ("L", 2))))]
    return got


def test_value_tables_stay_bounded_and_follow_rewrite_strategy(monkeypatch):
    want = _fill_value_tables()
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 5)
    qspace.clear_tables()
    views = qspace.tables()
    tables = [views[name] for name in (
        "scalars.qbinom", "starcalc.star_legs", "hopf.odd_qfacts", "hopf.step_powers",
        "hopf.translate_rows", "hopf.antipode_rows", "qfunc.act_rows", "cfunc.monomials",
        "cfunc.mono_texts", "ncalgebra.mono_texts")]
    assert _fill_value_tables() == want
    assert all(0 < len(t) <= 5 for t in tables)
    with _nc.rewrite_strategy("rightmost"):
        assert not any(tables)
        assert _fill_value_tables() == want
        assert all(tables)
    assert not any(tables)


def _counting_memo(table):
    """A function memoized on table, with the list of keys it was built for."""
    built = []

    @scalars._memoized(table)
    def square(a, b):
        """a squared, and b."""
        built.append((a, b))
        return [a * a, b]

    return square, built


def test_memoized_builds_a_warm_key_once():
    table = {}
    square, built = _counting_memo(table)
    first = square(3, "x")
    assert square(3, "x") is first and first == [9, "x"]
    assert built == [(3, "x")] and table == {(3, "x"): first}
    square(4, "x")
    assert built == [(3, "x"), (4, "x")]


def test_memoized_keeps_the_name_and_docstring_but_not_the_module():
    # so help() shows the docstring, and the benchmark's tracer, which wraps
    # the functions of each module's own, does not wrap a lookup twice
    square, _ = _counting_memo({})
    assert (square.__name__, square.__doc__) == ("square", "a squared, and b.")
    assert square.__qualname__ == "_counting_memo.<locals>.square"
    assert square.__module__ == "qspace.scalars"


def test_memoized_returns_the_built_value_when_the_store_empties_the_table(monkeypatch):
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 1)
    table = {}
    square, built = _counting_memo(table)
    assert square(2, "a") == [4, "a"]
    # the second store empties the table first; the caller still gets its value
    assert square(5, "b") == [25, "b"]
    assert table == {(5, "b"): [25, "b"]}
    assert square(2, "a") == [4, "a"]
    assert built == [(2, "a"), (5, "b"), (2, "a")]


class _Forgetful(dict):
    """A table another thread empties right after every store."""

    def __setitem__(self, key, value):
        pass


def test_memoized_does_not_read_the_table_back():
    square, built = _counting_memo(_Forgetful())
    assert square(3, "c") == [9, "c"]
    assert square(3, "c") == [9, "c"]
    assert built == [(3, "c"), (3, "c")]


def test_memoized_refuses_keyword_arguments():
    # a keyword call would store the value under a second key
    table = {}
    square, built = _counting_memo(table)
    with pytest.raises(TypeError):
        square(2, b="a")
    with pytest.raises(TypeError):
        cfunc._monomials(E3_VARS, 2, by_degree=True)
    assert not table and not built


def test_monomial_table_holds_one_key_per_value():
    # by_degree has no default: a call leaving it out would store the tuple
    # of a positional call with False under a second, shorter key
    with pytest.raises(TypeError):
        cfunc._monomials(E3_VARS, 2)
    qspace.clear_tables()
    _fill_value_tables()
    starcalc.star_checks(2)
    hopf.taylor_identity_check("line", 2)
    pairexp.kronecker_check("euclid3", "x_d", 2)
    keys = list(qspace.tables()["cfunc.monomials"])
    assert any(not b for _, _, b in keys) and any(b for _, _, b in keys), keys
    assert len({(v, d, bool(b)) for v, d, b in keys}) == len(keys), keys


# the functions that keep a lookup of their own, beside _memoized itself
_OWN_LOOKUPS = {
    ("scalars", "_memoized"),
    ("scalars", "qbinom"),
    ("ncalgebra", "_normalize_word"),
    ("ncalgebra", "_fill"),
    ("pairexp", "_series"),
}


def _memo_sites(text, stem):
    """The memo sites of one module's source, each led by the module name:
    the top-level definitions that call _remember, the lines that name
    lru_cache, and the top-level names bound under functools.cache (None
    for an import of cache itself)."""
    callers, lru, cached = set(), [], set()
    for top in ast.parse(text).body:
        where = getattr(top, "name", None)
        if isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
            where = top.targets[0].id
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "_remember":
                    callers.add((stem, where))
            if isinstance(node, ast.Name) and node.id == "lru_cache":
                lru.append((stem, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr == "lru_cache":
                lru.append((stem, node.lineno))
            elif isinstance(node, ast.alias) and node.name == "lru_cache":
                lru.append((stem, top.lineno))
            elif (isinstance(node, ast.Attribute) and node.attr == "cache"
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                cached.add((stem, where))
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                if any(alias.name == "cache" for alias in node.names):
                    cached.add((stem, None))
    return callers, lru, cached


# the package, its tests and the CI tools: no test or tool keeps a cache
# beside the registry either
_GUARDED = (pathlib.Path(scalars.__file__).parent, pathlib.Path(__file__).parent,
            pathlib.Path(__file__).parent.parent / "tools")


def test_memo_stores_go_through_memoized():
    """Every memo store in the package is made by _memoized or by one of the
    lookups README names, and no functools.cache or functools.lru_cache
    stands beside them in the package, its tests or the CI tools."""
    paths = sorted(path for root in _GUARDED for path in root.rglob("*.py"))
    assert len({path.parent for path in paths}) >= 3
    callers, lru, cached = set(), [], set()
    for path in paths:
        c, l, k = _memo_sites(path.read_text(), path.stem)
        callers |= c
        lru += l
        cached |= k
    assert callers <= _OWN_LOOKUPS, callers - _OWN_LOOKUPS
    assert ("scalars", "_memoized") in callers
    assert not lru, lru
    assert not cached, cached


def test_the_memo_guard_sees_every_cache_site():
    decorated = "import functools\n@functools.cache\ndef table(space):\n    return {}\n"
    assert _memo_sites(decorated, "m")[2] == {("m", "table")}
    assert _memo_sites("t = functools.cache(build)\n", "m")[2] == {("m", "t")}
    assert _memo_sites("from functools import cache\n", "m")[2] == {("m", None)}
    assert _memo_sites("@functools.lru_cache(8)\ndef f():\n    pass\n", "m")[1] == [("m", 1)]
    assert _memo_sites("def f():\n    _remember(T, k, v)\n", "m")[0] == {("m", "f")}
