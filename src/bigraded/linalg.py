"""Exact linear algebra kernel.

Invariant factors and Smith normal form over Z, reduced echelon form
over fields, ranks, kernels, images, and exact (Diophantine) solving.
Everything downstream in the package reduces to these routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush

from .rings import RingSpec, ZZ, BadParameter, UnsupportedRing
from .matrices import ExactMatrix


class NoSolution(Exception):
    """The linear system has no solution over the requested ring."""


# ---------------------------------------------------------------------------
# Field echelon form
# ---------------------------------------------------------------------------

def _rref(ring: RingSpec, rows, ncols: int, limit: int | None = None):
    """Reduced row echelon form over a field, by Gauss-Jordan elimination.

    Takes rows as {column: nonzero entry} dicts over `ncols` columns,
    which it leaves unchanged, and returns (reduced rows as such dicts,
    pivot column list).  Pivots are only chosen among the first `limit`
    columns (all columns when None), so augmented systems keep their
    right-hand block passive.  The pivot of column c is the first
    remaining row with a nonzero entry there.  Over F_p every new entry
    is reduced mod p.
    """
    p = ring.p
    work = [dict(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols if limit is None else min(limit, ncols)):
        if r == len(work):
            break
        pr = next((i for i in range(r, len(work)) if c in work[i]), None)
        if pr is None:
            continue
        pivot = work[pr]
        work[pr] = work[r]
        inv = ring.inv(pivot[c])
        if inv != 1:
            pivot = {j: ring.mul(inv, x) for j, x in pivot.items()}
        work[r] = pivot
        entries = list(pivot.items())
        for row in work:
            if c not in row or row is pivot:
                continue
            f = row[c]
            for j, y in entries:
                v = row.get(j, 0) - f * y
                if p:
                    v %= p
                if v:
                    row[j] = v
                else:
                    del row[j]
        pivots.append(c)
        r += 1
    return work, pivots


class FieldSolver:
    """Factored solver for A x = b over a field, reusable for many b."""

    def __init__(self, a: ExactMatrix):
        if not a.ring.is_field:
            raise UnsupportedRing("FieldSolver needs a field")
        self.ring = a.ring
        self.a = a
        n, m = a.rows, a.cols
        one = a.ring.one()
        aug = [{**r, m + i: one} for i, r in enumerate(a.sparse_rows)]
        red, pivots = _rref(a.ring, aug, m + n, limit=m)
        self.pivots = pivots
        self.rank = len(pivots)
        # the row transform E with E A in reduced echelon form
        self.transform = [{j - m: e for j, e in row.items() if j >= m} for row in red]
        self.m = m
        self.n = n

    def solve(self, b):
        """One solution of A x = b (b a flat sequence) or None."""
        ring = self.ring
        if len(b) != self.n:
            raise BadParameter(
                f"right-hand side has length {len(b)}, expected {self.n}"
            )
        b = [ring.normalize(x) for x in b]
        ys = [ring.normalize(sum(e * b[j] for j, e in row.items()))
              for row in self.transform]
        for i in range(self.rank, self.n):
            if ys[i] != 0:
                return None
        x = [ring.zero()] * self.m
        for i, c in enumerate(self.pivots):
            x[c] = ys[i]
        # reduced rows may have free-column entries; subtract nothing since
        # free variables are set to zero
        return tuple(x)


def _snf_core(mat, n, m):
    """Smith normal form of an n x m integer matrix given as list of lists.

    Returns (d, u, v, uinv) with u*mat*v = d diagonal, u, v unimodular,
    uinv the inverse of u, and the diagonal satisfying the divisibility
    chain.
    """
    d = [list(map(int, r)) for r in mat]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    uinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, k):
        # row_i += k * row_j ; uinv col_j -= k * uinv col_i
        d[i] = [a + k * b for a, b in zip(d[i], d[j])]
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        for r in uinv:
            r[j] -= k * r[i]

    def col_add(i, j, k):
        # col_i += k * col_j
        for r in d:
            r[i] += k * r[j]
        for r in v:
            r[i] += k * r[j]

    def row_neg(i):
        d[i] = [-a for a in d[i]]
        u[i] = [-a for a in u[i]]
        for r in uinv:
            r[i] = -r[i]

    t = 0
    while t < min(n, m):
        # find minimal-absolute-value nonzero pivot in the trailing block
        best = None
        for i in range(t, n):
            for j in range(t, m):
                a = d[i][j]
                if a != 0 and (best is None or abs(a) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        if d[t][t] < 0:
            row_neg(t)
        # clear the pivot row and column
        dirty = False
        for i in range(t + 1, n):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                if q:
                    row_add(i, t, -q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, m):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                if q:
                    col_add(j, t, -q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1
    return d, u, v, uinv


@dataclass(frozen=True)
class SNFResult:
    """U @ M @ V = D with U, V unimodular and a divisibility chain on D."""

    U: ExactMatrix
    D: ExactMatrix
    V: ExactMatrix
    U_inv: ExactMatrix
    invariant_factors: tuple

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(m: ExactMatrix) -> SNFResult:
    if m.ring != ZZ:
        raise UnsupportedRing("Smith normal form requires the integers")
    d, u, v, uinv = _snf_core(m.entries, m.rows, m.cols)
    factors = tuple(
        d[i][i] for i in range(min(m.rows, m.cols)) if d[i][i] != 0
    )
    # _snf_core works on Python ints, so its rows are normalised already
    mk = lambda data, r, c: ExactMatrix(ZZ, r, c, data)
    return SNFResult(
        U=mk(u, m.rows, m.rows),
        D=mk(d, m.rows, m.cols),
        V=mk(v, m.cols, m.cols),
        U_inv=mk(uinv, m.rows, m.rows),
        invariant_factors=factors,
    )


def _has_unit(row: dict) -> bool:
    return any(x == 1 or x == -1 for x in row.values())


def invariant_factors(m: ExactMatrix) -> tuple:
    """The nonzero invariant factors of an integer matrix, each dividing
    the next, without building a transform.

    Cell differentials are sparse with mostly +-1 entries, so units go
    first: take a +-1 entry from the sparsest row that has one (in its
    sparsest column), clear that column from the other rows with
    integer row operations, and drop the pivot row and column.  Column
    operations could then clear the rest of the pivot row without
    touching another row, so this is a unimodular change, and the
    factors of m are a 1 per unit pivot followed by the factors of what
    is left.  Only that leftover goes to the dense Smith normal form.
    See Kaczynski, Mrozek and Slusarek, "Homology computation by
    reduction of chain complexes", 1998.
    """
    if m.ring != ZZ:
        raise UnsupportedRing("invariant factors require the integers")
    rows = {}
    cols = {}  # column -> ids of the rows with an entry there
    for i, r in enumerate(m.sparse_rows):
        if r:
            rows[i] = dict(r)
            for j in r:
                cols.setdefault(j, set()).add(i)
    # (length, row id) of rows with a unit; an entry is stale when the
    # row has gone or changed length, and the row is pushed again on
    # every change
    heap = [(len(row), i) for i, row in rows.items() if _has_unit(row)]
    heapify(heap)
    units = 0
    while heap:
        n, i = heappop(heap)
        pivot = rows.get(i)
        if pivot is None or len(pivot) != n:
            continue
        c = min((j for j, x in pivot.items() if x == 1 or x == -1),
                key=lambda j: len(cols[j]), default=None)
        if c is None:
            continue
        del rows[i]
        for j in pivot:
            cols[j].discard(i)
        s = pivot[c]  # +-1 is its own inverse
        others = [(j, y) for j, y in pivot.items() if j != c]
        for k in cols.pop(c):
            row = rows[k]
            f = row.pop(c) * s
            for j, y in others:
                v = row.get(j, 0) - f * y
                if v:
                    if j not in row:
                        cols[j].add(k)
                    row[j] = v
                else:
                    del row[j]
                    cols[j].discard(k)
            if not row:
                del rows[k]
            elif _has_unit(row):
                heappush(heap, (len(row), k))
        units += 1
    live = sorted(j for j, ids in cols.items() if ids)
    d, _, _, _ = _snf_core(
        [[row.get(j, 0) for j in live] for row in rows.values()],
        len(rows), len(live),
    )
    return (1,) * units + tuple(
        d[t][t] for t in range(min(len(rows), len(live))) if d[t][t]
    )


class ZSolver:
    """Factored Diophantine solver for A x = b over Z."""

    def __init__(self, a: ExactMatrix):
        self.a = a
        self.snf = smith_normal_form(a)
        self.rank = self.snf.rank

    def solve(self, b):
        if len(b) != self.a.rows:
            raise BadParameter(
                f"right-hand side has length {len(b)}, expected {self.a.rows}"
            )
        snf = self.snf
        ub = snf.U.apply(b)
        y = [0] * self.a.cols
        for i in range(self.a.rows):
            if i < self.rank:
                f = snf.D[i, i]
                if ub[i] % f != 0:
                    return None
                y[i] = ub[i] // f
            elif ub[i] != 0:
                return None
        return snf.V.apply(y)


def make_solver(a: ExactMatrix):
    return ZSolver(a) if a.ring == ZZ else FieldSolver(a)


def solve_exact(a: ExactMatrix, b):
    """One exact solution x of A x = b, or None when unsolvable."""
    return make_solver(a).solve(b)


def rank(m: ExactMatrix) -> int:
    if m.ring.is_field:
        _, pivots = _rref(m.ring, m.sparse_rows, m.cols)
        return len(pivots)
    return len(invariant_factors(m))


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Columns form a basis of ker m.

    Over a field this is the echelon kernel basis; over Z it is a
    Z-basis (the kernel of an integer matrix is free and saturated).
    """
    ring = m.ring
    if ring.is_field:
        red, pivots = _rref(ring, m.sparse_rows, m.cols)
        pivot_set = set(pivots)
        free = {c: k for k, c in enumerate(c for c in range(m.cols) if c not in pivot_set)}
        # basis vector k is e_c minus the column c of the reduced rows,
        # read at the pivots, for the k-th free column c
        rows = [None] * m.cols
        for c, k in free.items():
            rows[c] = {k: ring.one()}
        for row, pc in zip(red, pivots):
            rows[pc] = {free[c]: ring.neg(x) for c, x in row.items() if c != pc}
        return ExactMatrix._of(ring, m.cols, len(free), rows)
    snf = smith_normal_form(m)
    return snf.V[:, snf.rank:]


def image_basis(m: ExactMatrix) -> ExactMatrix:
    """Columns form a basis of im m (a Z-basis of the image over Z)."""
    ring = m.ring
    if ring.is_field:
        _, pivots = _rref(ring, m.sparse_rows, m.cols)
        picked = {c: k for k, c in enumerate(pivots)}
        return ExactMatrix._of(ring, m.rows, len(pivots), [
            {picked[c]: x for c, x in r.items() if c in picked} for r in m.sparse_rows
        ])
    snf = smith_normal_form(m)
    f = snf.invariant_factors
    return ExactMatrix._of(ring, m.rows, snf.rank, [
        {i: x * f[i] for i, x in r.items()} for r in snf.U_inv[:, :snf.rank].sparse_rows
    ])


def is_surjective(m: ExactMatrix) -> bool:
    """Whether m is surjective onto the free target module."""
    if m.ring.is_field:
        return rank(m) == m.rows
    factors = invariant_factors(m)
    return len(factors) == m.rows and all(f == 1 for f in factors)


def is_unimodular(m: ExactMatrix) -> bool:
    return m.is_square and is_surjective(m)


class QuotientModule:
    """A free module k^n modulo the column span of a relation matrix.

    Chooses a basis of representatives for the free part of the quotient
    and provides projection onto the corresponding coordinates.  Over a
    field the representatives are the standard basis vectors at
    `free_coords`.  Over Z the torsion invariant factors of the quotient
    are recorded; callers that need a free quotient must inspect
    `torsion`.
    """

    def __init__(self, ring: RingSpec, n: int, relations: ExactMatrix | None):
        self.ring = ring
        self.ambient_dim = n
        if relations is None:
            relations = ExactMatrix.zero(ring, n, 0)
        if relations.rows != n:
            raise ValueError("relation matrix has wrong ambient dimension")
        if ring.is_field:
            red, pivots = _rref(ring, relations.transpose().sparse_rows, n)
            self._echelon = list(zip(pivots, red))
            self.torsion = ()
            pivot_set = set(pivots)
            free = [j for j in range(n) if j not in pivot_set]
            self.free_coords = free
            self.rank = len(free)
            self._free_index = {j: k for k, j in enumerate(free)}
            one = ring.one()
            self.reps = ExactMatrix._of(ring, n, self.rank, [
                {self._free_index[j]: one} if j in self._free_index else {}
                for j in range(n)
            ])
        else:
            snf = smith_normal_form(relations)
            r = snf.rank
            self._snf = snf
            self.torsion = tuple(f for f in snf.invariant_factors if f != 1)
            self.rank = n - r
            self.reps = snf.U_inv[:, r:]

    def project(self, vectors: ExactMatrix) -> ExactMatrix:
        """Free-part quotient coordinates of each column."""
        ring = self.ring
        if vectors.rows != self.ambient_dim:
            raise ValueError("vector has wrong ambient dimension")
        if ring.is_field:
            # reduce each column by the echelon rows; what is left lies on
            # the free coordinates
            p, index = ring.p, self._free_index
            out = [{} for _ in range(self.rank)]
            for j, col in enumerate(vectors.transpose().sparse_rows):
                v = dict(col)
                for pc, row in self._echelon:
                    c = v.get(pc)
                    if c is None:
                        continue
                    for k, y in row.items():
                        w = v.get(k, 0) - c * y
                        if p:
                            w %= p
                        if w:
                            v[k] = w
                        else:
                            del v[k]
                for k, x in v.items():
                    out[index[k]][j] = x
            return ExactMatrix._of(ring, self.rank, vectors.cols, out)
        return (self._snf.U @ vectors)[self.ambient_dim - self.rank:, :]


class Subquotient:
    """The subquotient span(sub) / span(rel) of k^n.

    `sub` None stands for the whole of k^n and `rel` None for no
    relations; span(rel) must lie in span(sub).  `rank` is the free
    rank, `torsion` the torsion invariant factors (over Z), `reps` one
    representative in k^n per free basis class, and `classes(vectors)`
    the coordinates of the classes of vectors of span(sub) in that
    basis.  It raises NoSolution for a vector outside span(sub).

    The relations are written in the coordinates of `sub` and factored
    by a QuotientModule; without relations no quotient is factored, the
    representatives are `sub` and the classes are coordinates in it.
    """

    def __init__(self, ring: RingSpec, n: int, rel: ExactMatrix | None = None,
                 sub: ExactMatrix | None = None):
        self.ring, self.n, self.sub = ring, n, sub
        self._qm = None
        self.rank, self.torsion = (n if sub is None else sub.cols), ()
        if rel is not None and rel.cols:
            self._qm = QuotientModule(
                ring, self.rank, rel if sub is None else coordinates_in(sub, rel)
            )
            self.rank, self.torsion = self._qm.rank, self._qm.torsion

    @cached_property
    def reps(self) -> ExactMatrix:
        if self._qm is None:
            return ExactMatrix.identity(self.ring, self.n) if self.sub is None else self.sub
        return self._qm.reps if self.sub is None else self.sub @ self._qm.reps

    def classes(self, vectors: ExactMatrix) -> ExactMatrix:
        if vectors.rows != self.n:
            raise BadParameter(
                f"vectors have {vectors.rows} rows, the ambient module {self.n}"
            )
        if self.sub is not None:
            vectors = coordinates_in(self.sub, vectors)
        return vectors if self._qm is None else self._qm.project(vectors)


def coordinates_in(basis: ExactMatrix, vectors: ExactMatrix) -> ExactMatrix:
    """Express each column of `vectors` in the span of `basis` columns.

    Raises NoSolution when some column is not in the span (over Z: not in
    the lattice spanned by the basis).
    """
    if basis.ring.is_field:
        return _field_coordinates(basis, vectors)
    solver = make_solver(basis)
    cols = []
    for j in range(vectors.cols):
        x = solver.solve(vectors.col(j))
        if x is None:
            raise NoSolution(f"column {j} not in span")
        cols.append(x)
    return ExactMatrix.from_cols(basis.ring, basis.cols, cols)


def _field_coordinates(basis: ExactMatrix, vectors: ExactMatrix) -> ExactMatrix:
    """coordinates_in over a field: one reduction of [basis | vectors]
    with pivots among the basis columns.  This is the row transform a
    FieldSolver records, applied to all columns at once, so the pivots
    are the same and free variables are again set to zero."""
    ring = basis.ring
    if vectors.rows != basis.rows:
        raise BadParameter(
            f"vectors have {vectors.rows} rows, the basis {basis.rows}"
        )
    m, k = basis.cols, vectors.cols
    if k == 0:
        return ExactMatrix.zero(ring, m, 0)
    aug = []
    for a, b in zip(basis.sparse_rows, vectors.sparse_rows):
        row = dict(a)
        for j, x in b.items():
            row[m + j] = x
        aug.append(row)
    red, pivots = _rref(ring, aug, m + k, limit=m)
    # a row past the pivots has entries only among the vectors' columns
    bad = min((j for row in red[len(pivots):] for j in row), default=None)
    if bad is not None:
        raise NoSolution(f"column {bad - m} not in span")
    rows = [{} for _ in range(m)]
    for row, c in zip(red, pivots):
        rows[c] = {j - m: x for j, x in row.items() if j >= m}
    return ExactMatrix._of(ring, m, k, rows)
