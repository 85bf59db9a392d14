"""Braiding matrices, their spectral projectors, and what they generate:
the defining coordinate relations and the quantum metric.

Matrix indices are pairs of generator labels ordered (0, 1) on the line and
(0, +, 3, -) on the 3d space; the printed per-block row orders are mapped
onto this fixed order at construction time, so the block tables are pure
data.
"""

from __future__ import annotations

import functools

from .ncalgebra import NCElement
from .reports import VerificationReport
from .scalars import LAM, LAMP, ONE, ZERO, _add_term, _coeff_times, _LinComb, qpow
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
        self.n = n
        super().__init__(terms)

    def _frame(self):
        return (self.n,)

    @staticmethod
    def identity(n):
        return QMatrix(n, {(i, i): ONE for i in range(n)})

    def get(self, i, j):
        return self.terms.get((i, j), ZERO)

    def set(self, i, j, v):
        if v:
            self.terms[(i, j)] = v
        else:
            self.terms.pop((i, j), None)

    def __mul__(self, other):
        by_row = {}
        for (i, k), v in self.terms.items():
            by_row.setdefault(i, []).append((k, v))
        by_k = {}
        for (k, j), v in other.terms.items():
            by_k.setdefault(k, []).append((j, v))
        out = QMatrix(self.n)
        for i, row in by_row.items():
            acc = {}
            for k, v in row:
                for j, w in by_k.get(k, ()):
                    _add_term(acc, j, v * w)
            for j, s in acc.items():
                out.terms[(i, j)] = s
        return out

    # text form: the entries times matrix units E[i,j], row by row
    _print_order = staticmethod(tuple)

    def _mono_str(self, k):
        return "E[%d,%d]" % k

    def _term_str(self, k, c):
        return _coeff_times(c, self._mono_str(k))


class RMatrix:
    """Braiding matrix on the two-fold tensor space, indexed by label pairs."""

    def __init__(self, space, mat: QMatrix):
        self.space = space
        self.labels = labels(space)
        self.dim = len(self.labels)
        self.mat = mat
        self._pair_index = _pair_idx(space)

    def entry(self, upper, lower):
        """R^{upper}_{lower} with upper/lower label pairs like ('+', '3')."""
        return self.mat.get(self._pair_index[tuple(upper)], self._pair_index[tuple(lower)])


def _pair_idx(space):
    ls = labels(space)
    d = len(ls)
    return {(a, b): i * d + j for i, a in enumerate(ls) for j, b in enumerate(ls)}


def build_R(space) -> RMatrix:
    """Both braiding matrices, assembled from their printed blocks."""
    idx = _pair_idx(space)
    if space == "line":
        m = QMatrix(4)
        m.set(idx[("0", "0")], idx[("0", "0")], ONE)
        m.set(idx[("0", "1")], idx[("1", "0")], ONE)
        m.set(idx[("1", "0")], idx[("0", "1")], ONE)
        m.set(idx[("1", "1")], idx[("1", "1")], qpow(1))
        return RMatrix(space, m)
    ll = LAM * LAMP
    m = QMatrix(16)

    def put(rows, table):
        for a, row in zip(rows, table):
            for b, v in zip(rows, row):
                if v:
                    m.set(idx[a], idx[b], v)

    put([("+", "+"), ("-", "-")], [[ONE, ZERO], [ZERO, ONE]])
    put(
        [("+", "3"), ("3", "+")],
        [[ZERO, qpow(-2)], [qpow(-2), qpow(-2) * ll]],
    )
    put(
        [("3", "-"), ("-", "3")],
        [[ZERO, qpow(-2)], [qpow(-2), qpow(-2) * ll]],
    )
    put(
        [("+", "-"), ("3", "3"), ("-", "+")],
        [
            [ZERO, ZERO, qpow(-4)],
            [ZERO, qpow(-2), qpow(-3) * ll],
            [qpow(-4), qpow(-3) * ll, qpow(-3) * LAM * ll],
        ],
    )
    # time block: trivial braiding (see TIME_BLOCK_NOTE)
    m.set(idx[("0", "0")], idx[("0", "0")], ONE)
    for a in _E3_SPATIAL:
        m.set(idx[("0", a)], idx[(a, "0")], ONE)
        m.set(idx[(a, "0")], idx[("0", a)], ONE)
    return RMatrix(space, m)


_EIGENVALUES = SpaceTable({
    LINE: lambda: {"P-": ONE, "P+": -ONE, "P0": qpow(1)},
    E3: lambda: {"P+": ONE, "P-": -qpow(-4), "P0": qpow(-6), "P'": -ONE},
})


def eigenvalues(space):
    return _EIGENVALUES[space]()


class ProjectorSet:
    def __init__(self, space, projectors, eigvals):
        self.space = space
        self.projectors = projectors  # name -> QMatrix
        self.eigenvalues = eigvals    # name -> QScalar

    def names(self):
        return list(self.projectors)


@functools.cache
def build_projectors(space) -> ProjectorSet:
    """Spectral projectors interpolated from the eigenvalue table: the
    projector of eigenvalue lam is the product over the other eigenvalues
    mu of (R - mu) / (lam - mu).

    Each projector's eigenvalue is read from the table, not off the
    subscript (on the line the '+' projector belongs to eigenvalue -1).
    Built once per space: every caller shares the set, so none may change
    its dicts or a matrix's terms.
    """
    R = build_R(space).mat
    Id = QMatrix.identity(R.n)
    evs = eigenvalues(space)
    shifted = {name: R - Id.scale(ev) for name, ev in evs.items()}
    projs = {}
    for name, lam in evs.items():
        num, den = Id, ONE
        for other, mu in evs.items():
            if other != name:
                num = num * shifted[other]
                den = den * (lam - mu)
        projs[name] = num.scale(ONE / den)
    return ProjectorSet(space, projs, evs)


def check_ybe(R: RMatrix) -> VerificationReport:
    """Braid relation R12 R23 R12 = R23 R12 R23 on the triple tensor space."""
    rep = VerificationReport("ybe", R.space)
    d = R.dim
    n3 = d ** 3
    r12 = QMatrix(n3)
    r23 = QMatrix(n3)
    for (ij, kl), v in R.mat.terms.items():
        i, j = divmod(ij, d)
        k, l = divmod(kl, d)
        for m in range(d):
            r12.set((i * d + j) * d + m, (k * d + l) * d + m, v)
            r23.set((m * d + i) * d + j, (m * d + k) * d + l, v)
    lhs = r12 * r23 * r12
    rhs = r23 * r12 * r23
    diff = lhs - rhs
    if not diff.is_zero():
        ls = labels(R.space)
        for (a, b), v in sorted(diff.terms.items())[:20]:
            def trip(x):
                i, r = divmod(x, d * d)
                j, k = divmod(r, d)
                return ls[i] + ls[j] + ls[k]
            rep.record(f"({trip(a)},{trip(b)})", str(lhs.get(a, b)), str(rhs.get(a, b)))
    if R.space == "euclid3":
        rep.note(TIME_BLOCK_NOTE)
    return rep


def spectral_check(R: RMatrix, P: ProjectorSet) -> VerificationReport:
    """R equals the eigenvalue-weighted projector sum, and the minimal
    polynomial built from the eigenvalue list annihilates R."""
    rep = VerificationReport("spectral", R.space)
    acc = QMatrix(R.mat.n)
    for name, proj in P.projectors.items():
        acc = acc + proj.scale(P.eigenvalues[name])
    if acc != R.mat:
        diff = acc - R.mat
        for k, v in sorted(diff.terms.items())[:10]:
            rep.record(k, str(acc.get(*k)), str(R.mat.get(*k)))
    Id = QMatrix.identity(R.mat.n)
    minpoly = Id
    for name in P.projectors:
        minpoly = minpoly * (R.mat - Id.scale(P.eigenvalues[name]))
    if not minpoly.is_zero():
        for k, v in sorted(minpoly.terms.items())[:10]:
            rep.record(k, str(v), "0")
    return rep


def projector_algebra_check(P: ProjectorSet) -> VerificationReport:
    """Idempotence, mutual orthogonality, completeness."""
    rep = VerificationReport("projectors", P.space)
    names = P.names()
    n = P.projectors[names[0]].n
    Id = QMatrix.identity(n)
    total = QMatrix(n)
    for a in names:
        pa = P.projectors[a]
        total = total + pa
        if (pa * pa) != pa:
            rep.record(f"{a}^2 != {a}", str(a), "")
        for b in names:
            if a < b:
                if not (P.projectors[a] * P.projectors[b]).is_zero():
                    rep.record(f"{a}*{b} != 0", a, b)
    if total != Id:
        rep.record("sum != Id", "sum of projectors", "Id")
    return rep


class RewriteRule:
    """A directed coordinate relation: left word -> normal-ordered right side."""

    def __init__(self, lhs, rhs_terms):
        self.lhs = tuple(lhs)            # pair of labels
        self.rhs = dict(rhs_terms)       # {label pair: QScalar}


def relations_from_projectors(space) -> list:
    """Solve P (X (x) X) = 0 for the antisymmetric-type projectors and emit
    the relations as rewrite rules directed toward the canonical order."""
    P = build_projectors(space)
    ls = labels(space)
    d = len(ls)
    # the q-antisymmetrizers are the negative-eigenvalue projectors; on the
    # line the printed subscript labels run against that assignment, so the
    # selection goes by eigenvalue, not by name
    minus_one = -ONE
    which = [
        name
        for name, ev in P.eigenvalues.items()
        if ev == minus_one or ev == -qpow(-4)
    ]
    rows = []
    for name in which:
        proj = P.projectors[name]
        by_row = {}
        for (r, c), v in proj.terms.items():
            by_row.setdefault(r, {})[c] = v
        rows.extend(by_row.values())

    # Gaussian elimination over the column order: disordered products first
    # (they become the rule left sides), then ordered products.
    order = {}
    pos = 0
    pairs = [(a, b) for a in range(d) for b in range(d)]
    for a, b in sorted(pairs, key=lambda p: (p[0] <= p[1], p)):
        order[a * d + b] = pos
        pos += 1
    cols = sorted(range(d * d), key=lambda c: order[c])

    mat = [[row.get(c, ZERO) for c in cols] for row in rows]
    rules = []
    lead = 0
    for cidx in range(len(cols)):
        pivot = None
        for r in range(lead, len(mat)):
            if mat[r][cidx]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[lead], mat[pivot] = mat[pivot], mat[lead]
        inv = ONE / mat[lead][cidx]
        mat[lead] = [v * inv for v in mat[lead]]
        for r in range(len(mat)):
            if r != lead and mat[r][cidx]:
                f = mat[r][cidx]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[lead])]
        lead += 1
    for row in mat[:lead]:
        c0 = next(i for i, v in enumerate(row) if v)
        a, b = divmod(cols[c0], d)
        rhs = {}
        for i in range(c0 + 1, len(cols)):
            if row[i]:
                aa, bb = divmod(cols[i], d)
                rhs[(ls[aa], ls[bb])] = -row[i]
        rules.append(RewriteRule((ls[a], ls[b]), rhs))
    return rules


class QuantumMetric:
    """Invariant bilinear form on the spatial indices, extracted from the
    trace-part projector; only (+-), (-+), (33) entries are nonzero."""

    def __init__(self, lower, upper):
        self.lower = lower  # {(A,B): QScalar}
        self.upper = upper

    def low(self, a, b):
        return self.lower.get((a, b), ZERO)

    def up(self, a, b):
        return self.upper.get((a, b), ZERO)


def metric_from_P0() -> QuantumMetric:
    """Factor the rank-one spatial block of the trace projector into
    g^{AB} g_{CD} / (g^{EF} g_{EF}), normalized so g^{33} = 1."""
    P = build_projectors("euclid3")
    P0 = P.projectors["P0"]
    idx = _pair_idx("euclid3")
    spatial = _E3_SPATIAL
    block = {}
    for a in spatial:
        for b in spatial:
            for c in spatial:
                for e in spatial:
                    v = P0.get(idx[(a, b)], idx[(c, e)])
                    if v:
                        block[((a, b), (c, e))] = v
    # rank-1 check: every 2x2 minor over the index pairs vanishes
    keys_r = sorted({k[0] for k in block})
    keys_c = sorted({k[1] for k in block})
    get = lambda r, c: block.get((r, c), ZERO)
    for r1 in keys_r:
        for r2 in keys_r:
            for c1 in keys_c:
                for c2 in keys_c:
                    minor = get(r1, c1) * get(r2, c2) - get(r1, c2) * get(r2, c1)
                    if minor:
                        raise ArithmeticError("spatial trace block is not rank one")
    ref = ("3", "3")
    pivot = get(ref, ref)
    if not pivot:
        raise ArithmeticError("vanishing (33,33) entry in the trace block")
    upper = {}
    lower = {}
    for a in spatial:
        for b in spatial:
            u = get((a, b), ref) / pivot
            l = get(ref, (a, b)) / pivot
            if u:
                upper[(a, b)] = u
            if l:
                lower[(a, b)] = l
    # fix the remaining scale by g^{AB} g_{BC} = delta^A_C at A = C = 3
    s = ZERO
    for b in spatial:
        s = s + upper.get(("3", b), ZERO) * lower.get((b, "3"), ZERO)
    inv = ONE / s
    lower = {k: v * inv for k, v in lower.items()}
    return QuantumMetric(lower, upper)


def metric_check(g: QuantumMetric) -> VerificationReport:
    """Only the (+-), (-+) and (33) entries are nonzero, the lower metric is
    the one the engine's conjugation lowers a coordinate index with,
    conj(X^A) = g_{AB} X^B, and the upper metric is its inverse."""
    rep = VerificationReport("metric", "euclid3")
    spatial = _E3_SPATIAL
    allowed = {("+", "-"), ("-", "+"), ("3", "3")}
    for k in list(g.lower) + list(g.upper):
        if k not in allowed:
            rep.record(k, "nonzero entry", "0")
    x_of = dict(zip(LABELS[E3], X_TOKENS[E3]))
    for a in spatial:
        lowered = NCElement.zero(E3)
        for b in spatial:
            lowered = lowered + NCElement.generator(E3, x_of[b]).scale(g.low(a, b))
        conj = NCElement.generator(E3, x_of[a]).conjugate()
        if lowered != conj:
            rep.record(f"conj X{a}", str(lowered), str(conj))
    for a in spatial:
        for c in spatial:
            s = ZERO
            for b in spatial:
                s = s + g.up(a, b) * g.low(b, c)
            want = ONE if a == c else ZERO
            if s != want:
                rep.record(f"g^({a}B) g_(B{c})", str(s), str(want))
    return rep
