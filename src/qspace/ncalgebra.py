"""Noncommutative rewriting engine for the two quantum spaces.

Elements are finite QScalar-linear combinations of normal-ordered words in
the coordinate generators, the partial derivatives, and the scaling operator.
Normal ordering, products, derivative actions (all four one-sided variants),
conjugation, and the transport between the two coordinate orderings all run
through one engine: memoized insertion of one token run at a time into an
already normal-ordered word, driven by adjacent-pair rewrite rules.

A normal-ordered word holds each generator in one run, so the engine keeps
it as a count key read in its rule set's rank order: a word is a tuple of
run lengths, and a key of NCElement is the same tuple in KEY_LAYOUT order.
Tokens are only ever appended.  Where a token enters a word from the left
(the derivative actions, and every insertion under
rewrite_strategy('rightmost')) it is appended to the reversed word on the
rule set of the opposite algebra, whose rules are the mirrored ones.  The
strategy is a per-context setting (a ContextVar); the memos are shared by
every thread.  Conjugation, the +/- mirror behind the right-sided calculi
and the ordering transport read each key's normal-ordered image from one
table of rows.

Two rule tables are written out: the coordinate relations in the standard
ordering and the Leibniz rules of the plain calculus.  The reversed ordering
and the conjugate ("hatted") calculus come from them by the transition
(+/-, q) -> (-/+, 1/q), and the derivatives obey the coordinate relations
with their indices swapped.  Hatted derivatives are never stored; parsing
replaces them by their q-power multiples of the plain derivatives, and the
hatted rule set is selected through the action mode instead.
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from operator import itemgetter

from .cfunc import CFunction, space_vars
from .scalars import LAM, LAMP, ONE, QScalar, ZERO, _add_term, _coeff_times, _LinComb, qpow
from .scalars import _clear_memos, _memo, _remember
from .spaces import (
    CALCULI, D_TOKENS, E3, HAT_POWER, KEY_LAYOUT, LINE, PM_SWAP, PRINT_NAMES, REVERSED, SPATIAL_D,
    X_TOKENS, SpaceTable,
)

_LAM_TAG = "L"
# the tag of each entry of a stored key
_KEY_TAGS = {space: layout + (_LAM_TAG,) for space, layout in KEY_LAYOUT.items()}


class SpaceMismatch(ValueError):
    pass


class PurityError(ValueError):
    pass


def _word_of_key(space, key):
    """The token word of a stored key (the engine itself never decodes)."""
    toks = []
    for tag, n in zip(KEY_LAYOUT[space], key[:-1]):
        toks.extend([tag] * n)
    if key[-1]:
        toks.append((_LAM_TAG, key[-1]))
    return tuple(toks)


# ---------------------------------------------------------------------------
# rewrite rule tables
#
# A rule maps a disordered adjacent token pair to a list of
# (coefficient, replacement token tuple) alternatives.  Two tables are
# printed: the coordinate relations in the standard ordering and the
# Leibniz rules of the plain calculus.  The others come from these: the
# reversed ordering of the coordinates and the hatted calculus (its rules
# for the conjugate derivatives, still written on the 'd' tokens) by the
# transition (+/-, q) -> (-/+, 1/q), and the derivative relations as the
# coordinate relations with the indices swapped.  The right actions need no
# table of their own: they run through the +/- mirror transport.
# ---------------------------------------------------------------------------

_LL = LAM * LAMP


def _swap(a, b):
    return [(ONE, (b, a))]


def _build_xx_rules(space):
    """Coordinate relations in the standard order x0 xp x3 xm."""
    if space == LINE:
        return {("x1", "x0"): _swap("x1", "x0")}
    return {
        ("xp", "x0"): _swap("xp", "x0"),
        ("x3", "x0"): _swap("x3", "x0"),
        ("xm", "x0"): _swap("xm", "x0"),
        ("x3", "xp"): [(qpow(2), ("xp", "x3"))],
        ("xm", "x3"): [(qpow(2), ("x3", "xm"))],
        ("xm", "xp"): [(ONE, ("xp", "xm")), (LAM, ("x3", "x3"))],
    }


def _build_leibniz(space):
    """Plain Leibniz rules for a derivative left of a coordinate (d, x)."""
    r = {("d0", "x0"): [(ONE, ()), (ONE, ("x0", "d0"))]}
    for xa in X_TOKENS[space][1:]:
        r[("d0", xa)] = _swap("d0", xa)
    for da in SPATIAL_D[space]:
        r[(da, "x0")] = _swap(da, "x0")
    if space == LINE:
        r[("d1", "x1")] = [(ONE, ()), (qpow(1), ("x1", "d1"))]
        return r
    r[("dp", "xp")] = [(ONE, ()), (qpow(4), ("xp", "dp"))]
    r[("dp", "x3")] = [(qpow(2), ("x3", "dp"))]
    r[("dp", "xm")] = _swap("dp", "xm")
    r[("d3", "xp")] = [(qpow(2), ("xp", "d3"))]
    r[("d3", "x3")] = [(ONE, ()), (qpow(2), ("x3", "d3")), (qpow(2) * _LL, ("xp", "dp"))]
    r[("d3", "xm")] = [(qpow(2), ("xm", "d3")), (qpow(1) * _LL, ("x3", "dp"))]
    r[("dm", "xp")] = _swap("dm", "xp")
    r[("dm", "x3")] = [(qpow(2), ("x3", "dm")), (qpow(1) * _LL, ("xp", "d3"))]
    r[("dm", "xm")] = [
        (ONE, ()),
        (qpow(4), ("xm", "dm")),
        (qpow(2) * _LL, ("x3", "d3")),
        (qpow(1) * LAM * _LL, ("xp", "dp")),
    ]
    return r


def _transition(rules):
    """The rules under (+/-, q) -> (-/+, 1/q): every tag through PM_SWAP,
    every coefficient through q -> 1/q.

    It takes the standard ordering to the reversed one and the plain
    calculus to the hatted one.  On the hatted rule for dp x3 it gives the
    correction coefficient q^-1 lam lam+ where the printed rule has
    q lam lam+: the printed one fails the overlap consistency on dp x3 xp
    and does not match the conjugation transport of the plain calculus."""
    def swap(toks):
        return tuple(PM_SWAP.get(t, t) for t in toks)

    return {
        swap(pair): [(c.subs_q_inverse(), swap(repl)) for c, repl in alts]
        for pair, alts in rules.items()
    }


def _lam_weight(space, tag):
    """Commuting Lambda^(1/2) past tag picks up q^(w/2) with this w."""
    if tag == "x0" or tag == "d0":
        return 0
    if space == LINE:
        return 1 if tag == "x1" else -1
    return 4 if tag.startswith("x") else -4


def _rank_rule(alts, swapped, rank):
    """A pair rule in rank form: the int exponent e when the rule is the
    plain swap to the pair swapped times q^(e/2), else the alternatives
    with their replacements as ranks."""
    if len(alts) == 1:
        c, repl = alts[0]
        if repl == swapped and len(c.num) == 1 and len(c.den) == 1:
            ((e, a),) = c.num.items()
            if a == 1:
                return e
    return tuple((c, tuple(rank[r] for r in repl)) for c, repl in alts)


class _RuleSet:
    """Rank order plus pair rules; one per (space, calculus, ordering,
    opposite).

    The opposite rule set is that of the opposite algebra, on reversed
    words: each rule (a, b) -> r becomes (b, a) -> reversed r, the rank
    order is reversed and commuting Lambda^(1/2) past a generator picks up
    the inverse factor.  Appending to reversed words on it is prepending on
    the original words.

    The engine reads the rules by rank: a word is the tuple of its run
    lengths in rank order (the scaling operator's entry is its half-step
    exponent), a token is its rank, and rules[a][t] for a > t is either the
    int exponent e of a plain scaled swap a t -> q^(e/2) t a (per token of
    each run; for the scaling operator per half-step) or the alternatives
    (coefficient, replacement ranks)."""

    def __init__(self, space, calculus, ordering, opposite):
        self.ordering = ordering
        if ordering not in ("xd", "rev") or calculus not in ("u", "h"):
            raise ValueError((calculus, ordering))
        xs = list((X_TOKENS if ordering == "xd" else REVERSED)[space])
        ds = list(D_TOKENS[space])
        seq = xs + ds + [_LAM_TAG]
        xx = _build_xx_rules(space)
        pair_rules = _transition(xx) if ordering == "rev" else dict(xx)
        # the derivatives obey the coordinate relations, indices swapped
        x_to_d = dict(zip(X_TOKENS[space], D_TOKENS[space]))
        for (a, b), alts in xx.items():
            pair_rules[(x_to_d[a], x_to_d[b])] = [
                (c, tuple(x_to_d[t] for t in repl)) for c, repl in alts
            ]
        leibniz = _build_leibniz(space)
        pair_rules.update(_transition(leibniz) if calculus == "h" else leibniz)
        sign = 1
        if opposite:
            seq = seq[::-1]
            pair_rules = {
                (b, a): [(c, r[::-1]) for c, r in alts]
                for (a, b), alts in pair_rules.items()
            }
            sign = -1
        self.rank = rank = {t: i for i, t in enumerate(seq)}
        self.pair_rules = pair_rules
        self.lam_weight = {t: sign * _lam_weight(space, t) for t in xs + ds}
        self.size = len(seq)
        self.zero = (0,) * len(seq)
        lam = rank[_LAM_TAG]
        rules = [[None] * len(seq) for _ in seq]
        for a, ta in enumerate(seq):
            for t, tt in enumerate(seq[:a]):
                if a == lam:
                    rules[a][t] = self.lam_weight[tt]
                elif t == lam:
                    rules[a][t] = -self.lam_weight[ta]
                else:
                    rules[a][t] = _rank_rule(pair_rules[(ta, tt)], (tt, ta), rank)
        self.rules = rules
        layout = _KEY_TAGS[space]
        # stored key <-> rank key
        self.to_rank = itemgetter(*(layout.index(t) for t in seq))
        self.to_key = itemgetter(*(rank[t] for t in layout))
        # the ranks of the derivatives and of the scaling operator, whose
        # entries the counit reads
        self.d_ranks = itemgetter(*(rank[t] for t in ds))
        self.lam = lam
        # normal form of an ordered word up to its first run that does not
        # let a token pass by a plain swap, with that token appended; keyed
        # by the word's rank key up to that run, then the token
        self.memo = _memo()
        # counit of the normal form of a reversed coordinate word with one
        # token run appended, keyed by the word's rank key, the token and
        # the run (used on the opposite rule sets only)
        self.counit_memo = _memo()

    def _tag(self, tok):
        return tok[0] if isinstance(tok, tuple) else tok

    def resolve(self, a, b):
        """Rewrite alternatives for the adjacent pair (a, b); None if ordered."""
        ta, tb = self._tag(a), self._tag(b)
        if ta == _LAM_TAG and tb == _LAM_TAG:
            h = a[1] + b[1]
            return [(ONE, ((_LAM_TAG, h),) if h else ())]
        if ta == _LAM_TAG:
            if self.rank[_LAM_TAG] < self.rank[tb]:
                return None
            return [(QScalar.q_power(self.lam_weight[tb] * a[1]), (b, a))]
        if tb == _LAM_TAG:
            if self.rank[ta] < self.rank[_LAM_TAG]:
                return None
            return [(QScalar.q_power(-self.lam_weight[ta] * b[1]), (b, a))]
        if self.rank[ta] <= self.rank[tb]:
            return None
        return self.pair_rules[(ta, tb)]


# every call passes all four arguments, so a rule set has one cache key
_ruleset = functools.cache(_RuleSet)


# whole-word memo, keyed (space, calculus, ordering, word) and holding
# {stored key: QScalar}; words longer than _NF_CACHE_MAX_LEN are
# normal-ordered without being stored
_NF_CACHE = _memo()
_NF_CACHE_MAX_LEN = 10
_STRATEGY = ContextVar("rewrite_strategy", default="leftmost")


class rewrite_strategy:
    """Context manager choosing the insertion order in the current context:
    'leftmost' folds the tokens of a word in left to right, 'rightmost'
    folds the reversed word in on the opposite rule set.  Both give the
    same normal forms; entering and leaving empties every memo and table,
    so a computation under 'rightmost' is cold and independent of earlier
    ones."""

    def __init__(self, name):
        if name not in ("leftmost", "rightmost"):
            raise ValueError(name)
        self.name = name

    def __enter__(self):
        self.token = _STRATEGY.set(self.name)
        _clear_memos()
        return self

    def __exit__(self, *exc):
        _STRATEGY.reset(self.token)
        _clear_memos()
        return False


def _fold(rs, terms, t, n=1):
    """Normal form of terms * t^n, for terms a {rank key: QScalar} dict of
    normal-ordered words and t a rank; for the scaling operator n is the
    half-step exponent, otherwise the number of tokens.

    The run passes each run above its rank whose rule is a plain scaled swap
    in one step, summing the q-exponent as an int.  Each pass attaches all n
    remaining tokens to every word with no other run in their way, and
    inserts one token into each other word; the last token's results go
    straight into the output.  The scaling operator always passes directly."""
    out = {}
    while terms:
        rest = {} if n > 1 else out
        for w, c in terms.items():
            r, e = _walk(rs, w, t)
            if r == t:
                if e:
                    c = c * QScalar.q_power(e * n)
                _add_term(out, w[:t] + (w[t] + n,) + w[t + 1:], c)
                continue
            for ww, cc in _insert(rs, w, t, r, e).items():
                _add_term(rest, ww, cc if c is ONE else c * cc)
        if rest is out:
            break
        terms = rest
        n -= 1
    return out


def _walk(rs, w, t):
    """(r, e): r is the rank of the first run of w, from the top, that a
    token t does not pass by a plain swap (t itself when it passes all the
    runs above its rank), and e the q-exponent with which it passes the
    runs above r."""
    rules = rs.rules
    e = 0
    r = rs.size - 1
    while r > t:
        k = w[r]
        if k:
            s = rules[r][t]
            if s.__class__ is not int:
                break
            e += s * k
        r -= 1
    return r, e


def _insert(rs, w, t, r, e):
    """Normal form of the word w times the token t, where the run at rank r
    is the first one t does not pass by a plain swap and the runs above it
    pass t with the q-exponent e.

    The memo holds the normal form of the word up to the run with t
    appended; the runs t passed are folded back in after it."""
    head = w[:r + 1]
    terms = rs.memo.get(head + (t,))
    if terms is None:
        terms = _fill(rs, head, t)
    for rr in range(r + 1, rs.size):
        m = w[rr]
        if m:
            terms = _fold(rs, terms, rr, m)
    if e:
        f = QScalar.q_power(e)
        terms = {ww: cc * f for ww, cc in terms.items()}
    return terms


def _fill(rs, head, t):
    """The memo entry for the word head (a rank key ending at its last run)
    with t appended.  The entries for the same word with that run shortened
    are filled first, from the shortest missing one up: each entry's
    recursion then meets the entry one token shorter in the memo, so the
    recursion depth does not grow with the length of a run."""
    memo = rs.memo
    pre, k = head[:-1], head[-1]
    j = k
    while j > 1 and pre + (j - 1, t) not in memo:
        j -= 1
    pad = (0,) * (rs.size - len(head))
    alts = rs.rules[len(pre)][t]
    for m in range(j, k + 1):
        base = pre + (m - 1,) + pad
        terms = {}
        for a, repl in alts:
            part = {base: ONE}
            for u in repl:
                part = _fold(rs, part, u)
            for ww, cc in part.items():
                _add_term(terms, ww, cc if a is ONE else a * cc)
        _remember(memo, pre + (m, t), terms)
    return terms


def _runs_of_word(word):
    """A token word as runs [(tag, n)]; adjacent scaling-operator tokens
    merge into one run whose n is the summed half-step exponent."""
    runs = []
    for tok in word:
        tag, n = tok if isinstance(tok, tuple) else (tok, 1)
        if runs and runs[-1][0] == tag:
            runs[-1] = (tag, runs[-1][1] + n)
        else:
            runs.append((tag, n))
    return runs


def _normal_runs(space, calculus, ordering, runs):
    """Normal form {stored key: QScalar} of the word with runs [(tag, n)].

    Under 'rightmost' the reversed word is normal-ordered on the opposite
    rule set.  The rule sets resolve every overlap (a tested property), so
    the insertion order does not change the result (Bergman's diamond
    lemma, Adv. Math. 29 (1978) 178)."""
    rightmost = _STRATEGY.get() == "rightmost"
    rs = _ruleset(space, calculus, ordering, rightmost)
    rank = rs.rank
    terms = {rs.zero: ONE}
    for tag, n in (reversed(runs) if rightmost else runs):
        if n:
            terms = _fold(rs, terms, rank[tag], n)
    to_key = rs.to_key
    return {to_key(w): c for w, c in terms.items()}


def _normalize_word(space, calculus, ordering, word):
    """Rewrite an arbitrary token word to its normal form {stored key:
    QScalar}, through the whole-word memo."""
    cache_key = (space, calculus, ordering, word)
    hit = _NF_CACHE.get(cache_key)
    if hit is not None:
        return hit
    result = _normal_runs(space, calculus, ordering, _runs_of_word(word))
    if len(word) <= _NF_CACHE_MAX_LEN:
        _remember(_NF_CACHE, cache_key, result)
    return result


def _runs_of_key(space, key):
    """A stored key as the runs [(tag, n)] of its word."""
    return [(tag, n) for tag, n in zip(_KEY_TAGS[space], key) if n]


def _add_normal_form(terms, space, calculus, ordering, word, coeff):
    """Accumulate coeff times the normal form of word into terms."""
    for key, c in _normalize_word(space, calculus, ordering, word).items():
        _add_term(terms, key, coeff * c)


class NCElement(_LinComb):
    """Linear combination of normal-ordered words with QScalar coefficients.

    Keys follow KEY_LAYOUT plus a trailing scaling-operator exponent counted
    in half-steps; the stored word order is coordinates, then derivatives,
    then the scaling operator.
    """

    __slots__ = ("space",)
    _mismatch = (SpaceMismatch, "elements live on different spaces")

    def __init__(self, space, terms=None):
        self.space = space
        super().__init__(terms)

    def _frame(self):
        return (self.space,)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(space):
        return NCElement(space)

    @staticmethod
    def one(space):
        return NCElement.scalar_term(space, ONE)

    @staticmethod
    def scalar_term(space, c):
        k = (0,) * len(KEY_LAYOUT[space]) + (0,)
        return NCElement(space, {k: c})

    @staticmethod
    def generator(space, tag, power=1):
        """The generator tag to an int power; the scaling operator's power
        counts half-steps and may be negative."""
        if not isinstance(power, int):
            raise TypeError(f"power of generator {tag!r} must be an int, not {power!r}")
        if tag == _LAM_TAG:
            k = (0,) * len(KEY_LAYOUT[space]) + (power,)
            return NCElement(space, {k: ONE})
        layout = KEY_LAYOUT[space]
        if tag not in layout:
            raise ValueError(f"unknown generator {tag!r} for space {space!r}")
        if power < 0:
            raise ValueError(f"negative power {power} of generator {tag!r}")
        key = [0] * len(layout) + [0]
        key[layout.index(tag)] = power
        return NCElement(space, {tuple(key): ONE})

    @staticmethod
    def from_word(space, word, coeff=ONE):
        """Normal-order an arbitrary word of generator tags."""
        known = set(KEY_LAYOUT[space])
        for tok in word:
            tag = tok[0] if isinstance(tok, tuple) else tok
            if tag != _LAM_TAG and tag not in known:
                raise SpaceMismatch(
                    f"generator {tag!r} does not live on space {space!r}"
                )
        out = NCElement(space)
        _add_normal_form(out.terms, space, "u", "xd", tuple(word), coeff)
        return out

    # -- ring structure -----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (QScalar, int)):
            return self.scale(other)
        self._checked(other)
        out = NCElement(self.space)
        for k1, c1 in self.terms.items():
            runs = _runs_of_key(self.space, k1)
            for k2, c2 in other.terms.items():
                c = c1 * c2
                word = runs + _runs_of_key(self.space, k2)
                for k, cc in _normal_runs(self.space, "u", "xd", word).items():
                    _add_term(out.terms, k, c * cc)
        return out

    __rmul__ = _LinComb.scale

    # -- structure queries ----------------------------------------------------

    def is_coordinate(self):
        """No derivative and no scaling operator in any term."""
        nx = len(X_TOKENS[self.space])
        return not any(any(k[nx:]) for k in self.terms)

    def is_operator(self):
        """No coordinate in any term."""
        nx = len(X_TOKENS[self.space])
        return not any(any(k[:nx]) for k in self.terms)

    def is_spatial(self):
        """No time coordinate, no time derivative, no scaling operator."""
        layout = KEY_LAYOUT[self.space]
        i_x0 = layout.index("x0")
        i_d0 = layout.index("d0")
        return all(
            k[i_x0] == 0 and k[i_d0] == 0 and k[-1] == 0 for k in self.terms
        )

    def constant_term(self):
        zero_key = (0,) * len(KEY_LAYOUT[self.space]) + (0,)
        return self.terms.get(zero_key, ZERO)

    def spatial_d_count(self, key):
        layout = KEY_LAYOUT[self.space]
        return sum(key[layout.index(t)] for t in SPATIAL_D[self.space])

    # -- conjugation ------------------------------------------------------------

    def conjugate(self):
        """Antilinear involution on the coordinate and operator subalgebras.

        Word order is reversed, generators are mapped through the conjugation
        rules (index lowering by the quantum metric on the 3d space), scalar
        coefficients are complex-conjugated, and the result is re-ordered in
        the plain calculus.
        """
        return _transport(self, "conj")

    # -- rendering ------------------------------------------------------------------

    @staticmethod
    def _print_order(k):
        return sum(k[:-1]), k

    def _mono_str(self, k):
        return _mono_text(self.space, k)

    def _term_str(self, k, c):
        mono = _mono_text(self.space, k)
        return _coeff_times(c, mono) if mono else str(c)

    def __repr__(self):
        return f"NCElement[{self.space}]({self})"


@functools.lru_cache(maxsize=4096)
def _mono_text(space, k):
    """The normal-ordered word with stored key k, as printed; empty for the
    unit."""
    names = PRINT_NAMES[space]
    factors = []
    for tag, n in zip(KEY_LAYOUT[space], k[:-1]):
        if n:
            factors.append(names[tag] if n == 1 else f"{names[tag]}^{n}")
    h = k[-1]
    if h == 2:
        factors.append("L")
    elif h and h % 2 == 0:
        factors.append(f"L^{h // 2}")
    elif h:
        factors.append(f"L^({h}/2)")
    return " ".join(factors)


# conjugation: token -> (scalar factor, image token); metric raises/lowers
# the 3d spatial indices, derivatives pick up a sign.  The reversal of the
# word and the inversion of the scaling operator come with the transport.
_CONJ_MAP = SpaceTable({
    LINE: {
        "x0": (ONE, "x0"),
        "x1": (ONE, "x1"),
        "d0": (-ONE, "d0"),
        "d1": (-ONE, "d1"),
    },
    E3: {
        "x0": (ONE, "x0"),
        "xp": (-qpow(1), "xm"),
        "x3": (ONE, "x3"),
        "xm": (-qpow(-1), "xp"),
        "d0": (-ONE, "d0"),
        "dp": (qpow(1), "dm"),
        "d3": (-ONE, "d3"),
        "dm": (qpow(-1), "dp"),
    },
})


# the +/- index swap behind the right-sided calculi, in the form of
# _CONJ_MAP, for the mirror transport
_MIRROR_MAP = {
    space: {t: (ONE, PM_SWAP.get(t, t)) for t in layout}
    for space, layout in KEY_LAYOUT.items()
}


# the word transports, by name
_WORD_MAPS = {"conj": _CONJ_MAP, "mirror": _MIRROR_MAP}
# normal-ordered images of stored keys under a transport, keyed (space,
# transport name, key); each row is a tuple of (key, QScalar) pairs.  The
# names are those of _WORD_MAPS and the two reorder_transform directions,
# whose keys are coordinate exponents
_TRANSPORT = _memo()


def _transport_row(space, name, key):
    """The row of key under the transport name, from the table."""
    row = _TRANSPORT.get((space, name, key))
    if row is not None:
        return row
    coeff = ONE
    if name in _WORD_MAPS:
        # the reversed word, each generator mapped, the scaling operator
        # inverted
        tokmap = _WORD_MAPS[name][space]
        runs = []
        for tag, n in reversed(_runs_of_key(space, key)):
            if tag == _LAM_TAG:
                runs.append((tag, -n))
                continue
            f, image = tokmap[tag]
            if f is not ONE:
                coeff = coeff * f ** n
            runs.append((image, n))
        ordering = "xd"
    elif name == "to_reversed":
        # the standard word, expanded in the reversed PBW basis
        runs = list(zip(X_TOKENS[space], key))
        ordering = "rev"
    else:
        # the reversed-ordering word the exponents denote
        runs = [(x, key[X_TOKENS[space].index(x)]) for x in REVERSED[space]]
        ordering = "xd"
    nf = _normal_runs(space, "u", ordering, runs)
    if name not in _WORD_MAPS:
        nf = {k[:len(key)]: c for k, c in nf.items()}
    return _remember(_TRANSPORT, (space, name, key),
                     tuple((k, coeff * c) for k, c in nf.items()))


def _transport(a: NCElement, name) -> NCElement:
    """The word transport name ('conj' or 'mirror') of a, re-ordered in the
    plain calculus; conjugation also complex-conjugates the coefficients."""
    out = NCElement(a.space)
    conj = name == "conj"
    for k, c in a.terms.items():
        if conj:
            c = c.conj()
        for kk, cc in _transport_row(a.space, name, k):
            _add_term(out.terms, kk, c * cc)
    return out


def normal_form(space, word, coeff=ONE):
    """Public entry: normal-order a word of generator tags (plain calculus)."""
    return NCElement.from_word(space, word, coeff)


ACTION_MODES = tuple(CALCULI)


def hat_factor(space, n):
    """q^(HAT_POWER[space] n): n hatted spatial derivatives over the plain ones."""
    return qpow(HAT_POWER[space] * n)


def _mirror_element(a: NCElement) -> NCElement:
    """Word reversal combined with the +/- index swap and inversion of the
    scaling operator; the transport the right-sided calculi are built from."""
    return _transport(a, "mirror")


def _counit_step(rs, t, n, terms):
    """The run t^n acting on the reversed coordinate words of terms (rank
    keys on the opposite rule set rs): the counit of the normal form of
    each word times t^n, which drops the words still holding a derivative
    and sends the scaling operator to 1."""
    out = {}
    memo = rs.counit_memo
    d_ranks, lam = rs.d_ranks, rs.lam
    for xw, c in terms.items():
        key = xw + (t, n)
        img = memo.get(key)
        if img is None:
            img = _remember(memo, key, tuple(
                (w[:lam] + (0,) + w[lam + 1:], a)
                for w, a in _fold(rs, {xw: ONE}, t, n).items()
                if not any(d_ranks(w))
            ))
        for w, a in img:
            _add_term(out, w, c * a)
    return out


def _act_left(op: NCElement, f: NCElement, calculus: str) -> NCElement:
    """Left action as a module action: the operator's tokens act on the
    coordinate words one run at a time, right to left.  This is exact
    because the kernel of the counit after normal ordering is the left
    ideal generated by the derivatives and Lambda^(1/2) - 1.  The
    coordinate words are kept reversed, so each run is appended on the
    opposite rule set, whose rank order reads the reversed operator word
    left to right."""
    space = op.space
    rs = _ruleset(space, calculus, "xd", True)
    to_rank, to_key = rs.to_rank, rs.to_key
    fwords = {to_rank(k): c for k, c in f.terms.items()}
    out = NCElement(space)
    for kop, cop in op.terms.items():
        c0 = cop
        if calculus == "h":
            # stored plain derivatives = q^(-k) * hatted ones
            c0 = c0 * hat_factor(space, -op.spatial_d_count(kop))
        terms = fwords
        for t, n in enumerate(to_rank(kop)):
            if not n:
                continue
            if t == rs.lam:
                terms = _counit_step(rs, t, n, terms)
            else:
                # one derivative at a time: the words the counit drops are
                # not carried into the next step
                for _ in range(n):
                    terms = _counit_step(rs, t, 1, terms)
        for w, c in terms.items():
            _add_term(out.terms, to_key(w), c0 * c)
    return out


def act(op: NCElement, f: NCElement, mode: str) -> NCElement:
    """Action of a pure derivative/scaling element on a pure coordinate one.

    Left modes commute the operator word through the coordinate word with
    the Leibniz rules of the selected calculus and then erase the residual
    operator factors by the counit (derivatives to 0, scaling operator to 1).
    Right modes are carried to left modes by the +/- mirror transport, the
    same transition the right-sided calculi are defined by; each derivative
    factor contributes one sign.
    """
    if mode not in ACTION_MODES:
        raise ValueError(f"unknown action mode {mode!r}")
    if op.space != f.space:
        raise SpaceMismatch("operator and function live on different spaces")
    if not op.is_operator():
        raise PurityError("action operator must be free of coordinates")
    if not f.is_coordinate():
        raise PurityError("acted function must be a pure coordinate element")
    # a hatted mode runs on the hatted rule set after the stored derivatives
    # are re-expressed through the hatted ones; a right mode is the mirror
    # transport of the left action of its calculus
    hatted, right = CALCULI[mode][:2]
    calculus = "h" if hatted else "u"
    if not right:
        return _act_left(op, f, calculus)
    # act is linear in the operator: mirror the sign-adjusted operator once
    nx = len(X_TOKENS[op.space])
    nd = len(D_TOKENS[op.space])
    signed = NCElement(op.space, {
        k: -c if sum(k[nx:nx + nd]) % 2 else c for k, c in op.terms.items()
    })
    return _mirror_element(_act_left(_mirror_element(signed), _mirror_element(f), calculus))


# -- ordering isomorphisms ------------------------------------------------------


def lift(space, f: CFunction) -> NCElement:
    """W: commutative monomials to the standard normal ordering."""
    want = space_vars(space)
    if f.vars != want:
        f = f.restrict(want)
    pad = (0,) * (len(KEY_LAYOUT[space]) - len(want) + 1)
    return NCElement(space, {e + pad: c for e, c in f.terms.items()})


def lower(space, a: NCElement) -> CFunction:
    """W^{-1} on pure coordinate elements."""
    if not a.is_coordinate():
        raise PurityError("only coordinate elements map back to functions")
    want = space_vars(space)
    nx = len(want)
    return CFunction(want, {k[:nx]: c for k, c in a.terms.items()})


def reorder_transform(space, f: CFunction, direction: str) -> CFunction:
    """Transport between the two normal orderings of the coordinate algebra.

    'to_reversed' re-reads a standard-ordering function as one for the
    reversed spatial ordering; 'to_standard' is the inverse.
    """
    want = space_vars(space)
    if f.vars != want:
        f = f.restrict(want)
    if space == LINE:
        return f  # a single spatial generator has only one ordering
    if direction not in ("to_reversed", "to_standard"):
        raise ValueError(f"unknown direction {direction!r}")
    out = {}
    for e, c in f.terms.items():
        for k, cc in _transport_row(space, direction, e):
            _add_term(out, k, c * cc)
    return CFunction(want, out)


# -- one calculus's normal ordering (the benchmark's nf-ladder calls it) --------


def normalize_in_calculus(space, calculus, word, coeff=ONE, reexpress_hats=False):
    """Normal-order a word under a chosen rule set; returns NCElement whose
    keys are read against the *stored* token names.

    With reexpress_hats the plain spatial derivative tokens are read as
    q^(-k) times the hatted generators first (the identification the hatted
    calculus is built on), which is what relation-transport checks need."""
    word = tuple(word)
    if reexpress_hats:
        spatial = sum(1 for t in word if not isinstance(t, tuple) and t in SPATIAL_D[space])
        coeff = coeff * hat_factor(space, -spatial)
    out = NCElement(space)
    _add_normal_form(out.terms, space, calculus, "xd", word, coeff)
    return out
