"""Braiding matrices, their spectral projectors, and what they generate:
the defining coordinate relations and the quantum metric.

Matrix indices are pairs of generator labels ordered (0, 1) on the line and
(0, +, 3, -) on the 3d space; the printed per-block row orders are mapped
onto this fixed order at construction time, so the block tables are pure
data.
"""

from __future__ import annotations

import math
from types import MappingProxyType

from .ncalgebra import NCElement
from .reports import VerificationReport
from .scalars import LAM, LAMP, ONE, ZERO, _NUMBER, _add_term, _LinComb, _memo
from .scalars import _memoized, _set, qpow
from .spaces import E3, LABELS, LINE, X_TOKENS, SpaceTable

# the index labels of a space, in the standard ordering
labels = LABELS.__getitem__
# the spatial labels of the 3d space
_E3_SPATIAL = LABELS[E3][1:]

TIME_BLOCK_NOTE = (
    "extended 3d braiding: the printed 7x7 time block is typeset "
    "inconsistently with time centrality; the trivial transposition "
    "R^{0i}_{j0} = R^{i0}_{0j} = delta^i_j is implemented instead"
)


class QMatrix(_LinComb):
    """Square n x n matrix over the scalar field, sparse: terms maps each
    (row, column) pair to its nonzero entry."""

    __slots__ = ("n",)
    _mismatch = (ValueError, "matrix sizes differ")

    def __init__(self, n, terms=None):
        _set(self, "n", n)
        super().__init__(terms)

    def _frame(self):
        return (self.n,)

    @staticmethod
    def identity(n):
        return QMatrix(n, {(i, i): ONE for i in range(n)})

    def get(self, i, j):
        return self.terms.get((i, j), ZERO)

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            return self.scale(other)
        if not self._same_kind(other):
            return NotImplemented
        by_row = {}
        for (i, k), v in self.terms.items():
            by_row.setdefault(i, []).append((k, v))
        by_k = {}
        for (k, j), v in other.terms.items():
            by_k.setdefault(k, []).append((j, v))
        out = {}
        for i, row in by_row.items():
            for k, v in row:
                for j, w in by_k.get(k, ()):
                    _add_term(out, (i, j), v * w)
        return QMatrix(self.n, out)

    # text form: the entries times matrix units E[i,j], row by row
    _print_order = staticmethod(tuple)

    def _mono_str(self, k):
        return "E[%d,%d]" % k


def _pair_idx(space):
    ls = labels(space)
    d = len(ls)
    return {(a, b): i * d + j for i, a in enumerate(ls) for j, b in enumerate(ls)}


_SWAP = [[ZERO, ONE], [ONE, ZERO]]
_Q2, _LL = qpow(-2), LAM * LAMP
# the blocks of each braiding: row label pairs -> rows of entries, each
# block's columns ordered like its rows.  The time blocks are the trivial
# braiding (see TIME_BLOCK_NOTE), the spatial blocks are as printed
_BLOCKS = SpaceTable({
    LINE: {("00",): [[ONE]], ("01", "10"): _SWAP, ("11",): [[qpow(1)]]},
    E3: {
        ("00",): [[ONE]], ("0+", "+0"): _SWAP, ("03", "30"): _SWAP, ("0-", "-0"): _SWAP,
        ("++", "--"): [[ONE, ZERO], [ZERO, ONE]],
        ("+3", "3+"): [[ZERO, _Q2], [_Q2, _Q2 * _LL]],
        ("3-", "-3"): [[ZERO, _Q2], [_Q2, _Q2 * _LL]],
        ("+-", "33", "-+"): [
            [ZERO, ZERO, qpow(-4)],
            [ZERO, _Q2, qpow(-3) * _LL],
            [qpow(-4), qpow(-3) * _LL, qpow(-3) * LAM * _LL],
        ],
    },
})


def build_R(space) -> QMatrix:
    """The braiding matrix of a space from its block table, indexed by
    label pairs through _pair_idx."""
    idx = _pair_idx(space)
    terms = {}
    for rows, table in _BLOCKS[space].items():
        for a, row in zip(rows, table):
            for b, v in zip(rows, row):
                terms[idx[tuple(a)], idx[tuple(b)]] = v
    return QMatrix(len(idx), terms)


_EIGENVALUES = SpaceTable({
    LINE: lambda: {"P-": ONE, "P+": -ONE, "P0": qpow(1)},
    E3: lambda: {"P+": ONE, "P-": -qpow(-4), "P0": qpow(-6), "P'": -ONE},
})


def eigenvalues(space):
    return _EIGENVALUES[space]()


def _gap(evs, name):
    """The eigenvalue gap of a projector, the product over the other
    eigenvalues mu of (lam - mu): the projector times its gap is its
    numerator, a matrix of Laurent polynomials."""
    lam = evs[name]
    return math.prod((lam - mu for other, mu in evs.items() if other != name), start=ONE)


def _cofactors(gaps):
    """({name: the product of the other projectors' gaps}, the product of
    all gaps) for the gaps {name: c}: a numerator times its cofactor is its
    projector times the whole product, so a sum of projectors becomes a sum
    of numerators, without a division."""
    cof = {
        name: math.prod((c for other, c in gaps.items() if other != name), start=ONE)
        for name in gaps
    }
    return cof, math.prod(gaps.values(), start=ONE)


@_memoized(_memo("rmatrix.projector_numerators"))
def projector_numerators(space) -> MappingProxyType:
    """The numerator of each spectral projector, {name: QMatrix}: the
    product over the other eigenvalues mu of (R - mu).  Each is its
    projector times the projector's eigenvalue gap, and its entries are
    Laurent polynomials over the integers, so products of numerators need
    no gcd (the fraction-free step of Bareiss, Math. Comp. 22 (1968)
    565-578).

    Built once per space and shared by every caller, as a read-only
    mapping of read-only matrices: it cannot be changed.
    """
    R = build_R(space)
    Id = QMatrix.identity(R.n)
    evs = eigenvalues(space)
    shifted = {name: R - Id.scale(ev) for name, ev in evs.items()}
    nums = {}
    for name in evs:
        num = Id
        for other in evs:
            if other != name:
                num = num * shifted[other]
        nums[name] = num
    return MappingProxyType(nums)


@_memoized(_memo("rmatrix.projectors"))
def build_projectors(space) -> MappingProxyType:
    """Spectral projectors {name: QMatrix} interpolated from the eigenvalue
    table: the projector of eigenvalue lam is the product over the other
    eigenvalues mu of (R - mu) / (lam - mu), its numerator divided by its
    gap.  The checks read the numerators; this is for callers that want
    the projectors themselves.

    Each projector's eigenvalue is read from the table, not off the
    subscript (on the line the '+' projector belongs to eigenvalue -1).
    Built once per space and shared by every caller, as a read-only
    mapping of read-only matrices: it cannot be changed.
    """
    evs = eigenvalues(space)
    return MappingProxyType({
        name: num.scale(ONE / _gap(evs, name))
        for name, num in projector_numerators(space).items()
    })


def check_ybe(space, R: QMatrix) -> VerificationReport:
    """Braid relation R12 R23 R12 = R23 R12 R23 on the triple tensor space."""
    rep = VerificationReport("ybe", space)
    ls = labels(space)
    d = len(ls)
    r12, r23 = {}, {}
    for (ij, kl), v in R.terms.items():
        for m in range(d):
            r12[ij * d + m, kl * d + m] = v
            r23[m * d * d + ij, m * d * d + kl] = v
    r12, r23 = QMatrix(d ** 3, r12), QMatrix(d ** 3, r23)
    lhs = r12 * r23 * r12
    rhs = r23 * r12 * r23
    triples = [a + b + c for a in ls for b in ls for c in ls]
    for a, b in sorted((lhs - rhs).terms)[:20]:
        rep.record(f"({triples[a]},{triples[b]})", str(lhs.get(a, b)), str(rhs.get(a, b)))
    if space == E3:
        rep.note(TIME_BLOCK_NOTE)
    return rep


def spectral_check(space) -> VerificationReport:
    """R equals the eigenvalue-weighted projector sum, and the minimal
    polynomial built from the eigenvalue list annihilates R.

    The sum is taken on the numerators N_a times their cofactors, which is
    the projector sum times the product C of all gaps, and compared with C R;
    a differing entry is shown divided by C, as the projector sum's entry."""
    rep = VerificationReport("spectral", space)
    R = build_R(space)
    evs = eigenvalues(space)
    cof, whole = _cofactors({name: _gap(evs, name) for name in evs})
    acc = QMatrix(R.n)
    for name, num in projector_numerators(space).items():
        acc = acc + num.scale(evs[name] * cof[name])
    for k in sorted((acc - R.scale(whole)).terms)[:10]:
        rep.record(k, str(acc.get(*k) / whole), str(R.get(*k)))
    Id = QMatrix.identity(R.n)
    minpoly = Id
    for ev in evs.values():
        minpoly = minpoly * (R - Id.scale(ev))
    for k, v in sorted(minpoly.terms.items())[:10]:
        rep.record(k, str(v), "0")
    return rep


def projector_algebra_check(space) -> VerificationReport:
    """Idempotence, mutual orthogonality, completeness, decided on the
    numerators N_a = c_a P_a, c_a the nonzero eigenvalue gap of P_a:
    N_a N_a = c_a N_a and N_a N_b = 0 hold exactly when P_a^2 = P_a and
    P_a P_b = 0, and the sum of the N_a times their cofactors is the product
    of all gaps times Id exactly when the P_a sum to Id."""
    rep = VerificationReport("projectors", space)
    N = projector_numerators(space)
    evs = eigenvalues(space)
    gaps = {a: _gap(evs, a) for a in N}
    cof, whole = _cofactors(gaps)
    Id = QMatrix.identity(len(_pair_idx(space)))
    total = QMatrix(Id.n)
    for a, na in N.items():
        total = total + na.scale(cof[a])
        if na * na != na.scale(gaps[a]):
            rep.record(f"{a}^2 != {a}", a, "")
        for b, nb in N.items():
            if a < b and na * nb:
                rep.record(f"{a}*{b} != 0", a, b)
    if total != Id.scale(whole):
        rep.record("sum != Id", "sum of projectors", "Id")
    return rep


def relations_from_projectors(space) -> dict:
    """Solve P (X (x) X) = 0 for the antisymmetric-type projectors: one
    relation per disordered label pair, {pair: {ordered pair: QScalar}},
    directed toward the canonical order.

    The elimination runs on the projector numerators, whose rows span the
    same space as the projectors' rows; the reduced row echelon form is
    unique, so the relations are the projectors' own."""
    N = projector_numerators(space)
    idx = _pair_idx(space)
    d = len(labels(space))
    # Gauss-Jordan elimination over the column order: disordered products
    # first (they become the relation left sides), then ordered products
    cols = sorted(idx, key=lambda p: (idx[p] // d <= idx[p] % d, idx[p]))
    # the q-antisymmetrizers are the negative-eigenvalue projectors; on the
    # line the printed subscript labels run against that assignment, so the
    # selection goes by eigenvalue, not by name
    mat = [
        [N[name].get(r, idx[p]) for p in cols]
        for name, ev in eigenvalues(space).items()
        if ev in (-ONE, -qpow(-4))
        for r in range(len(idx))
    ]
    lead = 0
    for j in range(len(cols)):
        pivot = next((r for r in range(lead, len(mat)) if mat[r][j]), None)
        if pivot is None:
            continue
        inv = ONE / mat[pivot][j]
        mat[pivot], mat[lead] = mat[lead], [v * inv for v in mat[pivot]]
        for r, row in enumerate(mat):
            if r != lead and row[j]:
                mat[r] = [a - row[j] * b for a, b in zip(row, mat[lead])]
        lead += 1
    rules = {}
    for row in mat[:lead]:
        (lhs, _one), *rhs = [(p, v) for p, v in zip(cols, row) if v]
        rules[lhs] = {p: -v for p, v in rhs}
    return rules


def metric_from_P0():
    """Factor the rank-one spatial block of the trace projector into
    g^{AB} g_{CD} / (g^{EF} g_{EF}), normalized so g^{33} = 1.  Returns the
    (lower, upper) metric as dicts {(A, B): QScalar} of the nonzero
    entries.  The factoring reads the numerator of the trace projector,
    its gap times the projector: every ratio below, and the rank-one
    test, is the same for both."""
    N0 = projector_numerators(E3)["P0"]
    idx = _pair_idx(E3)
    spatial = {(a, b): idx[a, b] for a in _E3_SPATIAL for b in _E3_SPATIAL}
    ref = idx["3", "3"]
    pivot = N0.get(ref, ref)
    if not pivot:
        raise ArithmeticError("vanishing (33,33) entry in the trace block")
    # rank one: each entry times the pivot is its pivot-column entry times
    # its pivot-row entry
    for r in spatial.values():
        for c in spatial.values():
            if N0.get(r, c) * pivot != N0.get(r, ref) * N0.get(ref, c):
                raise ArithmeticError("spatial trace block is not rank one")
    upper = {p: N0.get(i, ref) / pivot for p, i in spatial.items()}
    lower = {p: N0.get(ref, i) / pivot for p, i in spatial.items()}
    # fix the remaining scale by g^{AB} g_{BC} = delta^A_C at A = C = 3
    inv = ONE / sum((upper["3", b] * lower[b, "3"] for b in _E3_SPATIAL), ZERO)
    return {p: v * inv for p, v in lower.items() if v}, {p: v for p, v in upper.items() if v}


def metric_check(lower, upper) -> VerificationReport:
    """Only the (+-), (-+) and (33) entries are nonzero, the lower metric is
    the one the engine's conjugation lowers a coordinate index with,
    conj(X^A) = g_{AB} X^B, and the upper metric is its inverse."""
    rep = VerificationReport("metric", E3)
    allowed = {("+", "-"), ("-", "+"), ("3", "3")}
    for k in list(lower) + list(upper):
        if k not in allowed:
            rep.record(k, "nonzero entry", "0")
    x_of = dict(zip(LABELS[E3], X_TOKENS[E3]))
    for a in _E3_SPATIAL:
        lowered = NCElement.zero(E3)
        for b in _E3_SPATIAL:
            lowered = lowered + NCElement.generator(E3, x_of[b]).scale(lower.get((a, b), ZERO))
        conj = NCElement.generator(E3, x_of[a]).conjugate()
        rep.compare(f"conj X{a}", lowered, conj)
    for a in _E3_SPATIAL:
        for c in _E3_SPATIAL:
            s = sum((upper.get((a, b), ZERO) * lower.get((b, c), ZERO) for b in _E3_SPATIAL), ZERO)
            rep.compare(f"g^({a}B) g_(B{c})", s, ONE if a == c else ZERO)
    return rep
