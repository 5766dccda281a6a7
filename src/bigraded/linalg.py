"""Exact linear algebra kernel.

Smith normal form over Z, reduced echelon form over fields, ranks,
kernels, images, and exact (Diophantine) solving.  Everything downstream
in the package reduces to these routines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rings import RingSpec, ZZ, BadParameter, UnsupportedRing
from .matrices import ExactMatrix


class NoSolution(Exception):
    """The linear system has no solution over the requested ring."""


# ---------------------------------------------------------------------------
# Field echelon form
# ---------------------------------------------------------------------------

def _rref_field(ring: RingSpec, rows, limit: int | None = None):
    """Reduced row echelon form over a field.

    Returns (reduced rows, pivot column list).  Input is a list of row
    lists; it is consumed.  Pivots are only chosen among the first
    `limit` columns (all columns when None), so augmented systems keep
    their right-hand block passive.
    """
    if ring.kind == "F":
        return _rref_fp(ring.p, rows, limit)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols if limit is None else min(limit, ncols)):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ring.inv(rows[r][c])
        if inv != 1:
            rows[r] = [ring.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [
                    ring.sub(x, ring.mul(f, y)) for x, y in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _rref_fp(p: int, rows, limit: int | None = None):
    """Mod-p RREF via numpy; returns (row lists, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return [list(r) for r in rows], []
    # int64 holds every intermediate, |x - c*y| <= (p-1)^2 + (p-1), only
    # for small p; above that the arithmetic runs on Python ints
    dtype = np.int64 if (p - 1) * p < 2**63 else object
    a = np.array(rows, dtype=dtype) % p
    pivots = []
    r = 0
    for c in range(ncols if limit is None else min(limit, ncols)):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a.tolist(), pivots


class FieldSolver:
    """Factored solver for A x = b over a field, reusable for many b."""

    def __init__(self, a: ExactMatrix):
        if not a.ring.is_field:
            raise UnsupportedRing("FieldSolver needs a field")
        self.ring = a.ring
        self.a = a
        n, m = a.rows, a.cols
        aug = [list(r) + [a.ring.one() if i == j else a.ring.zero() for j in range(n)]
               for i, r in enumerate(a.entries)]
        red, pivots = _rref_field(a.ring, aug, limit=m)
        self.pivots = pivots
        self.rank = len(pivots)
        self.red = red
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
        # y = E b where E is the recorded row transform
        ys = []
        for i in range(self.n):
            erow = self.red[i][self.m:]
            ys.append(sum((ring.mul(e, x) for e, x in zip(erow, b)), ring.zero())
                      if ring.kind == "Q" else
                      sum(e * x for e, x in zip(erow, b)) % ring.p)
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

    Returns (d, u, v, uinv, vinv) with u*mat*v = d diagonal, u, v
    unimodular, and the diagonal satisfying the divisibility chain.
    """
    d = [list(map(int, r)) for r in mat]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    uinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

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
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_add(i, j, k):
        # row_i += k * row_j ; uinv col_j -= k * uinv col_i
        d[i] = [a + k * b for a, b in zip(d[i], d[j])]
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        for r in uinv:
            r[j] -= k * r[i]

    def col_add(i, j, k):
        # col_i += k * col_j ; vinv row_j -= k * vinv row_i
        for r in d:
            r[i] += k * r[j]
        for r in v:
            r[i] += k * r[j]
        vinv[j] = [a - k * b for a, b in zip(vinv[j], vinv[i])]

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
    return d, u, v, uinv, vinv


@dataclass(frozen=True)
class SNFResult:
    """U @ M @ V = D with U, V unimodular and a divisibility chain on D."""

    U: ExactMatrix
    D: ExactMatrix
    V: ExactMatrix
    U_inv: ExactMatrix
    V_inv: ExactMatrix
    invariant_factors: tuple

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(m: ExactMatrix) -> SNFResult:
    if m.ring != ZZ:
        raise UnsupportedRing("Smith normal form requires the integers")
    d, u, v, uinv, vinv = _snf_core(m.entries, m.rows, m.cols)
    factors = tuple(
        d[i][i] for i in range(min(m.rows, m.cols)) if d[i][i] != 0
    )
    mk = lambda data, r, c: (
        ExactMatrix.from_rows(ZZ, data) if r and c else ExactMatrix.zero(ZZ, r, c)
    )
    return SNFResult(
        U=mk(u, m.rows, m.rows),
        D=mk(d, m.rows, m.cols),
        V=mk(v, m.cols, m.cols),
        U_inv=mk(uinv, m.rows, m.rows),
        V_inv=mk(vinv, m.cols, m.cols),
        invariant_factors=factors,
    )


class ZSolver:
    """Factored Diophantine solver for A x = b over Z."""

    def __init__(self, a: ExactMatrix):
        self.a = a
        self.snf = smith_normal_form(a)
        self.rank = self.snf.rank

    def solve(self, b):
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
        _, pivots = _rref_field(m.ring, [list(r) for r in m.entries])
        return len(pivots)
    return smith_normal_form(m).rank


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Columns form a basis of ker m.

    Over a field this is the echelon kernel basis; over Z it is a
    Z-basis (the kernel of an integer matrix is free and saturated).
    """
    ring = m.ring
    if ring.is_field:
        red, pivots = _rref_field(ring, [list(r) for r in m.entries])
        free = [c for c in range(m.cols) if c not in pivots]
        cols = []
        for c in free:
            vec = [ring.zero()] * m.cols
            vec[c] = ring.one()
            for i, pc in enumerate(pivots):
                vec[pc] = ring.neg(red[i][c])
            cols.append(vec)
        if not cols:
            return ExactMatrix.zero(ring, m.cols, 0)
        # the entries come from ring operations and are normalized already
        return ExactMatrix(ring, m.cols, len(cols), tuple(zip(*cols)))
    snf = smith_normal_form(m)
    r = snf.rank
    cols = [snf.V.col(j) for j in range(r, m.cols)]
    if not cols:
        return ExactMatrix.zero(ring, m.cols, 0)
    return ExactMatrix.from_rows(ring, list(zip(*cols)))


def image_basis(m: ExactMatrix) -> ExactMatrix:
    """Columns form a basis of im m (a Z-basis of the image over Z)."""
    ring = m.ring
    if ring.is_field:
        _, pivots = _rref_field(ring, [list(r) for r in m.entries])
        cols = [m.col(c) for c in pivots]
        if not cols:
            return ExactMatrix.zero(ring, m.rows, 0)
        return ExactMatrix.from_rows(ring, list(zip(*cols)))
    snf = smith_normal_form(m)
    cols = [
        tuple(x * snf.D[i, i] for x in snf.U_inv.col(i)) for i in range(snf.rank)
    ]
    if not cols:
        return ExactMatrix.zero(ring, m.rows, 0)
    return ExactMatrix.from_rows(ring, list(zip(*cols)))


def rank_kernel_image(m: ExactMatrix):
    """(rank, kernel basis vectors, image basis vectors)."""
    k = kernel_basis(m)
    im = image_basis(m)
    return im.cols, k.col_vectors(), im.col_vectors()


def is_surjective(m: ExactMatrix) -> bool:
    """Whether m is surjective onto the free target module."""
    if m.ring.is_field:
        return rank(m) == m.rows
    snf = smith_normal_form(m)
    return snf.rank == m.rows and all(f == 1 for f in snf.invariant_factors)


def is_unimodular(m: ExactMatrix) -> bool:
    if not m.is_square:
        return False
    if m.ring.is_field:
        return rank(m) == m.rows
    snf = smith_normal_form(m)
    return snf.rank == m.rows and all(f == 1 for f in snf.invariant_factors)


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
        self.relations = relations
        if ring.is_field:
            red, pivots = _rref_field(
                ring, [list(r) for r in relations.transpose().entries]
            )
            self._echelon = [(p, red[i]) for i, p in enumerate(pivots)]
            self.torsion = ()
            free = [j for j in range(n) if j not in pivots]
            self.free_coords = free
            self.rank = len(free)
            cols = []
            for j in free:
                v = [ring.zero()] * n
                v[j] = ring.one()
                cols.append(v)
            self.reps = (
                ExactMatrix.from_rows(ring, list(zip(*cols)))
                if cols
                else ExactMatrix.zero(ring, n, 0)
            )
        else:
            snf = smith_normal_form(relations)
            r = snf.rank
            self._snf = snf
            self.torsion = tuple(f for f in snf.invariant_factors if f != 1)
            self.rank = n - r
            cols = [snf.U_inv.col(j) for j in range(r, n)]
            self.reps = (
                ExactMatrix.from_rows(ring, list(zip(*cols)))
                if cols
                else ExactMatrix.zero(ring, n, 0)
            )

    @property
    def is_free(self) -> bool:
        return not self.torsion

    def project(self, vectors: ExactMatrix) -> ExactMatrix:
        """Free-part quotient coordinates of each column."""
        ring = self.ring
        if vectors.rows != self.ambient_dim:
            raise ValueError("vector has wrong ambient dimension")
        if ring.is_field:
            out = []
            for j in range(vectors.cols):
                v = list(vectors.col(j))
                for p, row in self._echelon:
                    c = v[p]
                    if c != 0:
                        v = [ring.sub(a, ring.mul(c, b)) for a, b in zip(v, row)]
                out.append([v[i] for i in self.free_coords])
            if not out:
                return ExactMatrix.zero(ring, self.rank, 0)
            return ExactMatrix.from_rows(ring, list(zip(*out)))
        r = self.ambient_dim - self.rank
        full = self._snf.U @ vectors
        rows = full.entries[r:]
        if not rows:
            return ExactMatrix.zero(ring, 0, vectors.cols)
        return ExactMatrix.from_rows(ring, rows)


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
    if not cols or basis.cols == 0:
        return ExactMatrix.zero(basis.ring, basis.cols, vectors.cols)
    return ExactMatrix.from_rows(basis.ring, list(zip(*cols)))


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
    red, pivots = _rref_field(
        ring,
        [list(a) + list(b) for a, b in zip(basis.entries, vectors.entries)],
        limit=m,
    )
    for j in range(k):
        if any(row[m + j] for row in red[len(pivots):]):
            raise NoSolution(f"column {j} not in span")
    rows = [(ring.zero(),) * k] * m
    for i, c in enumerate(pivots):
        rows[c] = tuple(red[i][m:])
    return ExactMatrix(ring, m, k, tuple(rows))
