"""Exact linear algebra kernel.

Invariant factors and Smith normal form over Z, reduced echelon form
over fields, ranks, kernels, images, and exact (Diophantine) solving.
Everything downstream in the package reduces to these routines.

Over a field, one echelon form of a matrix gives the kernel of each of
its column prefixes (`prefix_kernels`), and coordinates in a basis
with a unit row per column, as every such kernel basis has, are read
off those rows instead of eliminated (`coordinates_in`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from bisect import bisect_left
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
    is reduced mod p.  Only the columns that hold an entry are walked:
    elimination adds entries only in the columns of a pivot row.
    """
    p = ring.p
    work = [dict(r) for r in rows]
    pivots = []
    r = 0
    for c in sorted(set().union(*work)):
        if r == len(work) or c >= (ncols if limit is None else limit):
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
    """Solver for A x = b over a field: the coordinates of b in the
    columns of A, as `coordinates_in` finds them."""

    def __init__(self, a: ExactMatrix):
        if not a.ring.is_field:
            raise UnsupportedRing("FieldSolver needs a field")
        self.a = a

    def solve(self, b):
        """One solution of A x = b (b a flat sequence) or None."""
        a = self.a
        if len(b) != a.rows:
            raise BadParameter(
                f"right-hand side has length {len(b)}, expected {a.rows}"
            )
        rows = [{0: x} if x else {} for x in map(a.ring.normalize, b)]
        try:
            return _field_coordinates(a, ExactMatrix._of(a.ring, a.rows, 1, rows)).col(0)
        except NoSolution:
            return None


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
        # a zero row holds no pivot, and _rref copies every row it gets
        _, pivots = _rref(m.ring, [r for r in m.sparse_rows if r], m.cols)
        return len(pivots)
    return len(invariant_factors(m))


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Columns form a basis of ker m.

    Over a field this is the echelon kernel basis of `prefix_kernels`;
    over Z it is a Z-basis (the kernel of an integer matrix is free and
    saturated).
    """
    if m.ring.is_field:
        return prefix_kernels(m)(m.cols)
    snf = smith_normal_form(m)
    return snf.V[:, snf.rank:]


def prefix_kernels(m: ExactMatrix):
    """The kernels of the column prefixes of m over a field, from one
    echelon form: `kernel(k)` is the echelon basis of ker m[:, :k],
    whose vector j is e_c minus column c of the reduced rows for the
    j-th free column c; so row c is a unit row, only a 1 in column j.
    Elimination walks the columns in order, and its pivot rows after
    column k - 1 are zero on the first k columns, so the reduced rows
    and pivots of m[:, :k] are those of m cut to k columns.
    """
    ring = m.ring
    if not ring.is_field:
        raise UnsupportedRing("prefix kernels need a field")
    red, pivots = _rref(ring, m.sparse_rows, m.cols)
    one = ring.one()

    def kernel(k: int) -> ExactMatrix:
        if not 0 <= k <= m.cols:
            raise BadParameter(f"column prefix {k} outside 0..{m.cols}")
        cut = bisect_left(pivots, k)
        pivot_set = set(pivots[:cut])
        free = {c: j for j, c in enumerate(c for c in range(k) if c not in pivot_set)}
        rows = [None] * k
        for c, j in free.items():
            rows[c] = {j: one}
        for row, pc in zip(red, pivots[:cut]):
            rows[pc] = {free[c]: ring.neg(x) for c, x in row.items()
                        if c < k and c != pc}
        return ExactMatrix._of(ring, k, len(free), rows)

    return kernel


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

    def __init__(self, ring: RingSpec, n: int, relations: ExactMatrix):
        self.ring = ring
        self.ambient_dim = n
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
    Over a field, when `sub` has a unit row per column (a kernel basis
    or an identity) those coordinates are read off, not eliminated, so
    the quotient is the one elimination a subquotient makes.
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


def _unit_rows(basis: ExactMatrix) -> list | None:
    """For each column of basis, the first row whose only entry is a 1
    in that column; None when some column has no such row."""
    one = basis.ring.one()
    at = {}
    for i, row in enumerate(basis.sparse_rows):
        if len(row) == 1:
            (c, x), = row.items()
            if x == one:
                at.setdefault(c, i)
    return [at[c] for c in range(basis.cols)] if len(at) == basis.cols else None


def _field_coordinates(basis: ExactMatrix, vectors: ExactMatrix) -> ExactMatrix:
    """coordinates_in over a field.  A basis with a unit row per column
    (only a 1 in that column), as a `kernel_basis` or an identity has,
    is independent, and row i_c of basis @ x = v reads x_c = v[i_c]: the
    coordinates are the vectors' unit rows, checked by one product, and
    being unique they are the ones an elimination gives.  Any other
    basis takes one reduction of [basis | vectors] with pivots among
    the basis columns, free variables set to zero.  This is the one
    field solve: `FieldSolver` and `solve_exact` come here too."""
    ring = basis.ring
    if vectors.rows != basis.rows:
        raise BadParameter(
            f"vectors have {vectors.rows} rows, the basis {basis.rows}"
        )
    m, k = basis.cols, vectors.cols
    unit = _unit_rows(basis)
    if unit is not None:
        coords = ExactMatrix._of(ring, m, k, [vectors.sparse_rows[i] for i in unit])
        off = basis @ coords
        if off == vectors:
            return coords
        bad = min(j for row in (off - vectors).sparse_rows for j in row)
        raise NoSolution(f"column {bad} not in span")
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
