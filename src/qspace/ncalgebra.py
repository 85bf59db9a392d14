"""Noncommutative rewriting engine for the two quantum spaces.

Elements are finite QScalar-linear combinations of normal-ordered words in
the coordinate generators, the partial derivatives, and the scaling operator.
Normal ordering, products, derivative actions (all four one-sided variants),
conjugation, and the transport between the two coordinate orderings all run
through one engine: memoized insertion of one token run at a time into an
already normal-ordered word, driven by adjacent-pair rewrite rules.  One
loop, _normal_forms, takes every word and family of words to normal form.

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
ordering and the Leibniz rules of the plain calculus.  The conjugate
("hatted") calculus comes from the plain one by the transition
(+/-, q) -> (-/+, 1/q), and the derivatives obey the coordinate relations
with their indices swapped.  Hatted derivatives are never stored; parsing
replaces them by their q-power multiples of the plain derivatives, and the
hatted rule set is selected through the action mode instead.  The reversed
coordinate ordering has no rule set: the transport into it is the image of
the transport into the standard one under the same transition.
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from operator import itemgetter

from .cfunc import CFunction, space_vars
from .scalars import LAM, LAMP, ONE, QScalar, ZERO, _add_term, _LinComb, _power_text, qpow
from .scalars import _NUMBER, _apply_rows, _memo, _memoized, _remember
from .scalars import _set, _term_pairs, clear_tables
from .spaces import (
    CALCULI, D_TOKENS, E3, HAT_POWER, KEY_LAYOUT, LINE, PM_SWAP, PRINT_NAMES, REVERSED, SPATIAL_D,
    X_TOKENS, SpaceTable, check_option,
)

_LAM_TAG = "L"
# the tag of each entry of a stored key
_KEY_TAGS = {space: layout + (_LAM_TAG,) for space, layout in KEY_LAYOUT.items()}
# the slots of the spatial derivatives in a stored key, whose count a hatted
# action's factor reads
_SPATIAL_D_SLOTS = {
    space: tuple(layout.index(t) for t in SPATIAL_D[space]) for space, layout in KEY_LAYOUT.items()
}


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
# hatted calculus (its rules for the conjugate derivatives, still written on
# the 'd' tokens) by the transition (+/-, q) -> (-/+, 1/q), and the
# derivative relations as the coordinate relations with the indices
# swapped.  The right actions and the reversed ordering need no table of
# their own (see act and _transport_image).
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

    It takes the plain calculus to the hatted one (the rule sets' only
    use of it).  On the hatted rule for dp x3 it gives the correction
    coefficient q^-1 lam lam+ where the printed rule has q lam lam+: the
    printed one fails the overlap consistency on dp x3 xp and does not
    match the conjugation transport of the plain calculus."""
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
    """Rank order plus pair rules; one per (space, calculus, opposite).

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

    def __init__(self, space, calculus, opposite):
        if calculus not in ("u", "h"):
            raise ValueError(calculus)
        xs = list(X_TOKENS[space])
        ds = list(D_TOKENS[space])
        seq = xs + ds + [_LAM_TAG]
        xx = _build_xx_rules(space)
        pair_rules = dict(xx)
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
        # the two memos are the rule set's own, stored into through
        # _remember and dropped with it.  Normal form of an ordered word up
        # to its first run that does not let a token pass by a plain swap,
        # with that token appended; keyed by the word's rank key up to that
        # run, then the token
        self.memo = {}
        # counit of the normal form of a reversed coordinate word with one
        # token run appended, as a tuple of rows; keyed (token, run length,
        # the word's rank key), read through _memoized (used on the
        # opposite rule sets only)
        self.counit_memo = {}


# every call passes all three arguments, so a rule set has one cache key
_ruleset = _memoized(_memo("ncalgebra.rulesets"))(_RuleSet)


# whole-word memo, keyed (space, calculus, "xd", word) and holding
# {stored key: QScalar}; words longer than _NF_CACHE_MAX_LEN are
# normal-ordered without being stored.  The fixed "xd" field stays while
# the benchmark's self-test plants an entry under this key shape
_NF_CACHE = _memo("ncalgebra.normal_forms")
_NF_CACHE_MAX_LEN = 10
_STRATEGY = ContextVar("rewrite_strategy", default="leftmost")


class rewrite_strategy:
    """Context manager choosing the insertion order in the current context:
    'leftmost' folds the tokens of a word in left to right, 'rightmost'
    folds the reversed word in on the opposite rule set.  Both give the
    same normal forms; entering and leaving empties every memo and table
    and drops the rule sets with their memos, so a computation under
    'rightmost' is cold and independent of earlier ones."""

    def __init__(self, name):
        check_option("rewrite strategy", name, ("leftmost", "rightmost"))
        self.name = name

    def __enter__(self):
        self.token = _STRATEGY.set(self.name)
        clear_tables()
        return self

    def __exit__(self, *exc):
        _STRATEGY.reset(self.token)
        clear_tables()
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


def _check_power(tag, power):
    """Raise generator's error when tag cannot take power: not an int, or
    negative on any generator but the scaling operator."""
    if not isinstance(power, int):
        raise TypeError(f"power of generator {tag!r} must be an int, not {power!r}")
    if power < 0 and tag != _LAM_TAG:
        raise ValueError(f"negative power {power} of generator {tag!r}")


def _runs_of_word(word):
    """A token word as runs [(tag, n)]; adjacent tokens of one tag merge
    into one run whose n is the summed count (in half-steps for the scaling
    operator).  Every caller's word passes here (the engine's own runs come
    from stored keys), so each run token's count is checked here as
    generator checks a power, before a merge could hide a negative count in
    a sum."""
    runs = []
    for tok in word:
        if isinstance(tok, tuple):
            tag, n = tok
            _check_power(tag, n)
        else:
            tag, n = tok, 1
        if runs and runs[-1][0] == tag:
            runs[-1] = (tag, runs[-1][1] + n)
        else:
            runs.append((tag, n))
    return runs


def _normalize_word(space, calculus, word):
    """Rewrite an arbitrary token word to its normal form {stored key:
    QScalar}, through the whole-word memo."""
    cache_key = (space, calculus, "xd", word)
    hit = _NF_CACHE.get(cache_key)
    if hit is not None:
        return hit
    result = _normal_forms(space, calculus, [_runs_of_word(word)])[0]
    if len(word) <= _NF_CACHE_MAX_LEN:
        _remember(_NF_CACHE, cache_key, result)
    return result


def _normal_forms(space, calculus, words):
    """The normal forms {stored key: QScalar} of a family of words, in
    order; a token is a tag or a run (tag, n), and a run with n = 0 is
    skipped.  The engine's only path from a word to its normal form.

    Each token is one _fold onto the normal form of the tokens before it.
    The rule sets resolve every overlap, so the insertion order does not
    change the result (Bergman's diamond lemma, Adv. Math. 29 (1978) 178):
    under 'rightmost' the reversed words are folded on the opposite rule
    set, and a word sharing a prefix with an earlier one of the call starts
    from that prefix's form.  The prefixes live in a trie for this call
    only; the last word records none, so a one-word call keeps no table."""
    rightmost = _STRATEGY.get() == "rightmost"
    rs = _ruleset(space, calculus, rightmost)
    rank, to_key = rs.rank, rs.to_key
    root = ({rs.zero: ONE}, {})
    last = len(words) - 1
    out = []
    for i, word in enumerate(words):
        terms, kids = root
        for tok in reversed(word) if rightmost else word:
            if kids is not None:
                hit = kids.get(tok)
                if hit is not None:
                    terms, kids = hit
                    continue
            tag, n = tok if tok.__class__ is tuple else (tok, 1)
            if n:
                try:
                    t = rank[tag]
                except KeyError:
                    raise SpaceMismatch(
                        f"generator {tag!r} does not live on space {space!r}") from None
                terms = _fold(rs, terms, t, n)
            if i < last:
                node = kids[tok] = (terms, {})
                kids = node[1]
            else:
                kids = None
        out.append({to_key(w): c for w, c in terms.items()})
    return out


def _runs_of_key(space, key):
    """A stored key as the runs [(tag, n)] of its word."""
    return [(tag, n) for tag, n in zip(_KEY_TAGS[space], key) if n]


class NCElement(_LinComb):
    """Linear combination of normal-ordered words with QScalar coefficients.

    Keys follow KEY_LAYOUT plus a trailing scaling-operator exponent counted
    in half-steps; the stored word order is coordinates, then derivatives,
    then the scaling operator.
    """

    __slots__ = ("space",)
    _mismatch = (SpaceMismatch, "elements live on different spaces")

    def __init__(self, space, terms=None):
        _set(self, "space", space)
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
        _check_power(tag, power)
        if tag == _LAM_TAG:
            k = (0,) * len(KEY_LAYOUT[space]) + (power,)
            return NCElement(space, {k: ONE})
        layout = KEY_LAYOUT[space]
        if tag not in layout:
            raise ValueError(f"unknown generator {tag!r} for space {space!r}")
        key = [0] * len(layout) + [0]
        key[layout.index(tag)] = power
        return NCElement(space, {tuple(key): ONE})

    @staticmethod
    def from_word(space, word, coeff=ONE):
        """Normal-order an arbitrary word of generator tags."""
        return normalize_in_calculus(space, "u", word, coeff)

    # -- ring structure -----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            return self.scale(other)
        if not self._same_kind(other):
            return NotImplemented
        space = self.space

        def row_of(pair):
            k1, k2 = pair
            word = _runs_of_key(space, k1) + _runs_of_key(space, k2)
            return _normal_forms(space, "u", [word])[0].items()

        return NCElement(space, _apply_rows(_term_pairs(self.terms, other.terms), row_of))

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

    def __repr__(self):
        return f"NCElement[{self.space}]({self})"


# (space, stored key) -> the printed word
@_memoized(_memo("ncalgebra.mono_texts"))
def _mono_text(space, k):
    """The normal-ordered word with stored key k, as printed; empty for the
    unit."""
    names = PRINT_NAMES[space]
    factors = []
    for tag, n in zip(KEY_LAYOUT[space], k[:-1]):
        if n:
            factors.append(names[tag] if n == 1 else f"{names[tag]}^{n}")
    if k[-1]:
        factors.append(_power_text("L", k[-1]))
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
_TRANSPORT = _memo("ncalgebra.transport")


@_memoized(_TRANSPORT)
def _transport_image(space, name, key):
    """The normal-ordered image of key under the transport name, as a tuple
    of (key, QScalar) rows."""
    if name in _WORD_MAPS:
        # the reversed word, each generator mapped, the scaling operator
        # inverted
        tokmap = _WORD_MAPS[name][space]
        coeff, runs = ONE, []
        for tag, n in reversed(_runs_of_key(space, key)):
            if tag == _LAM_TAG:
                runs.append((tag, -n))
                continue
            f, image = tokmap[tag]
            if f is not ONE:
                coeff = coeff * f ** n
            runs.append((image, n))
        return tuple((k, coeff * c) for k, c in _normal_forms(space, "u", [runs])[0].items())
    xs = X_TOKENS[space]
    if name == "to_reversed":
        # the standard word in the reversed basis: the "to_standard" rows of
        # the swapped key under (+/-, q) -> (-/+, 1/q), each key's xp and xm
        # slots swapped
        swap = itemgetter(*(xs.index(PM_SWAP.get(x, x)) for x in xs))
        rows = _transport_image(space, "to_standard", swap(key))
        return tuple((swap(k), c.subs_q_inverse()) for k, c in rows)
    # the reversed-ordering word the exponents denote
    nf = _normal_forms(space, "u", [[(x, key[xs.index(x)]) for x in REVERSED[space]]])[0]
    return tuple((k[:len(key)], c) for k, c in nf.items())


def _transport(a: NCElement, name) -> NCElement:
    """The word transport name ('conj' or 'mirror') of a, re-ordered in the
    plain calculus; conjugation also complex-conjugates the coefficients."""
    terms = a.terms
    if name == "conj":
        terms = {k: c.conj() for k, c in terms.items()}
    rows = functools.partial(_transport_image, a.space, name)
    return NCElement(a.space, _apply_rows(terms.items(), rows))


def normal_form(space, word, coeff=ONE):
    """Public entry: normal-order a word of generator tags (plain calculus)."""
    return NCElement.from_word(space, word, coeff)


ACTION_MODES = tuple(CALCULI)


def hat_factor(space, n):
    """q^(HAT_POWER[space] n): n hatted spatial derivatives over the plain ones."""
    return qpow(HAT_POWER[space] * n)


def _counit_image(rs, t, n, xw):
    """The counit of the normal form of the reversed coordinate word xw
    times t^n, as rows: the words still holding a derivative drop out and
    the scaling operator goes to 1."""
    d_ranks, lam = rs.d_ranks, rs.lam
    return tuple(
        (w[:lam] + (0,) + w[lam + 1:], a)
        for w, a in _fold(rs, {xw: ONE}, t, n).items()
        if not any(d_ranks(w))
    )


def _act_map(space, op_terms, mode):
    """The action of the operator with terms op_terms in the action mode, as
    a map from a coordinate term dict to the action's term dict.  The rule
    set, the counit lookup and each operator term's plan (its coefficient,
    hat factor included, and its counit steps) are made once, so a map
    applied to many functions repeats none of that work.

    A left mode is a module action: the operator terms' tokens act on the
    coordinate words one run at a time, right to left, which is exact
    because the kernel of the counit after normal ordering is the left ideal
    generated by the derivatives and Lambda^(1/2) - 1.  The coordinate words
    are kept reversed, so each run is appended on the opposite rule set.  A
    right mode is the mirror transport of the left action of its calculus:
    act is linear in the operator, so the operator, signed once per
    derivative factor, is mirrored here, and the function and the result
    pass once each through the mirror rows."""
    hatted, right = CALCULI[mode][:2]
    if right:
        nx = len(X_TOKENS[space])
        nd = len(D_TOKENS[space])
        mirror = functools.partial(_transport_image, space, "mirror")
        signed = ((k, -c if sum(k[nx:nx + nd]) % 2 else c) for k, c in op_terms.items())
        op_terms = _apply_rows(signed, mirror)
    rs = _ruleset(space, "h" if hatted else "u", True)
    to_rank, to_key = rs.to_rank, rs.to_key
    # made per map, so the rule set holds no reference back to itself
    counit = _memoized(rs.counit_memo)(functools.partial(_counit_image, rs))
    hat_slots = _SPATIAL_D_SLOTS[space]
    plan = []
    for kop, cop in op_terms.items():
        if hatted:
            # stored plain derivatives = q^(-k) * hatted ones
            cop = cop * hat_factor(space, -sum(kop[i] for i in hat_slots))
        # the scaling run acts in one step, a derivative run one token at a
        # time: the words the counit drops are not carried into the next step
        steps = []
        for t, n in enumerate(to_rank(kop)):
            if n:
                run, times = (n, 1) if t == rs.lam else (1, n)
                steps += [functools.partial(counit, t, run)] * times
        plan.append((cop, steps))

    def left(f_terms):
        fwords = {to_rank(k): c for k, c in f_terms.items()}
        out = {}
        for cop, steps in plan:
            terms = fwords
            for row_of in steps:
                terms = _apply_rows(terms.items(), row_of)
            for w, c in terms.items():
                _add_term(out, to_key(w), cop * c)
        return out

    if not right:
        return left
    return lambda f_terms: _apply_rows(left(_apply_rows(f_terms.items(), mirror)).items(), mirror)


def act(op: NCElement, f: NCElement, mode: str) -> NCElement:
    """Action of a pure derivative/scaling element on a pure coordinate one.

    Left modes commute the operator word through the coordinate word with
    the Leibniz rules of the selected calculus and then erase the residual
    operator factors by the counit (derivatives to 0, scaling operator to 1).
    Right modes are carried to left modes by the +/- mirror transport, the
    same transition the right-sided calculi are defined by; each derivative
    factor contributes one sign.  The work is _act_map's, applied once.
    """
    check_option("action mode", mode, ACTION_MODES)
    space = op.space
    if space != f.space:
        raise SpaceMismatch("operator and function live on different spaces")
    if not op.is_operator():
        raise PurityError("action operator must be free of coordinates")
    if not f.is_coordinate():
        raise PurityError("acted function must be a pure coordinate element")
    return NCElement(space, _act_map(space, op.terms, mode)(f.terms))


# -- ordering isomorphisms ------------------------------------------------------


def lift(space, f: CFunction) -> NCElement:
    """W: commutative monomials to the standard normal ordering."""
    want = space_vars(space)
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
    check_option("direction", direction, ("to_reversed", "to_standard"))
    want = space_vars(space)
    f = f.restrict(want)
    if space == LINE:
        return f  # a single spatial generator has only one ordering
    rows = functools.partial(_transport_image, space, direction)
    return CFunction(want, _apply_rows(f.terms.items(), rows))


# -- one calculus's normal ordering (the benchmark's nf-ladder calls it) --------


def normalize_in_calculus(space, calculus, word, coeff=ONE):
    """Normal-order a word under a chosen rule set; returns NCElement whose
    keys are read against the *stored* token names."""
    check_option("calculus", calculus, ("u", "h"))
    out = {}
    for k, c in _normalize_word(space, calculus, tuple(word)).items():
        _add_term(out, k, coeff * c)
    return NCElement(space, out)
