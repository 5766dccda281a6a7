"""Dense exact matrices over a RingSpec.

Convention used everywhere in this package: columns index the source
basis, rows index the target basis, and composition g after f is the
matrix product ``g @ f``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .rings import RingSpec, BadParameter


@dataclass(frozen=True)
class ExactMatrix:
    ring: RingSpec
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise BadParameter("negative matrix dimension")
        if len(self.entries) != self.rows or any(
            len(r) != self.cols for r in self.entries
        ):
            raise BadParameter("inconsistent matrix data")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(ring: RingSpec, data) -> "ExactMatrix":
        rows = tuple(tuple(ring.normalize(x) for x in r) for r in data)
        ncols = len(rows[0]) if rows else 0
        return ExactMatrix(ring, len(rows), ncols, rows)

    @staticmethod
    def zero(ring: RingSpec, rows: int, cols: int) -> "ExactMatrix":
        z = ring.zero()
        return ExactMatrix(ring, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @staticmethod
    def identity(ring: RingSpec, n: int) -> "ExactMatrix":
        z, o = ring.zero(), ring.one()
        return ExactMatrix(
            ring, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        )

    @staticmethod
    def scalar(ring: RingSpec, n: int, c) -> "ExactMatrix":
        return ExactMatrix.identity(ring, n).scale(c)

    @staticmethod
    def column(ring: RingSpec, data) -> "ExactMatrix":
        return ExactMatrix.from_rows(ring, [[x] for x in data])

    # -- access ---------------------------------------------------------

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    @property
    def is_zero(self) -> bool:
        z = self.ring.zero()
        return all(x == z for r in self.entries for x in r)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -------------------------------------------------------

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise BadParameter(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        add = self.ring.add
        return ExactMatrix(
            self.ring,
            self.rows,
            self.cols,
            tuple(
                tuple(add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        neg = self.ring.neg
        return ExactMatrix(
            self.ring,
            self.rows,
            self.cols,
            tuple(tuple(neg(x) for x in r) for r in self.entries),
        )

    def scale(self, c) -> "ExactMatrix":
        c = self.ring.normalize(c)
        mul = self.ring.mul
        return ExactMatrix(
            self.ring,
            self.rows,
            self.cols,
            tuple(tuple(mul(c, x) for x in r) for r in self.entries),
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise BadParameter(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        ring = self.ring
        if self.rows == 0 or self.cols == 0 or other.cols == 0:
            return ExactMatrix.zero(ring, self.rows, other.cols)
        # Accumulate only products of two nonzero entries: the matrices of
        # this package are mostly sparse (cells, block assemblies).
        z = ring.zero()
        sparse_rows = [
            [(j, b) for j, b in enumerate(brow) if b] for brow in other.entries
        ]
        p = ring.p if ring.kind == "F" else None
        out = []
        for row in self.entries:
            acc = [z] * other.cols
            for a, nz in zip(row, sparse_rows):
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append(tuple(x % p for x in acc) if p else tuple(acc))
        return ExactMatrix(ring, self.rows, other.cols, tuple(out))

    def apply(self, vec) -> tuple:
        """Matrix times a column vector given as a flat sequence."""
        return tuple(x for x in (self @ ExactMatrix.column(self.ring, vec)).col(0))

    def transpose(self) -> "ExactMatrix":
        if self.rows == 0 or self.cols == 0:
            return ExactMatrix.zero(self.ring, self.cols, self.rows)
        return ExactMatrix(self.ring, self.cols, self.rows, tuple(zip(*self.entries)))

    # -- assembly ---------------------------------------------------------

    @staticmethod
    def hstack(ring: RingSpec, mats, rows: int | None = None) -> "ExactMatrix":
        mats = [m for m in mats]
        if not mats:
            return ExactMatrix.zero(ring, rows or 0, 0)
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise BadParameter("hstack row mismatch")
        data = tuple(
            tuple(chain.from_iterable(parts))
            for parts in zip(*(m.entries for m in mats))
        )
        return ExactMatrix(ring, r, sum(m.cols for m in mats), data)

    @staticmethod
    def vstack(ring: RingSpec, mats, cols: int | None = None) -> "ExactMatrix":
        mats = [m for m in mats]
        if not mats:
            return ExactMatrix.zero(ring, 0, cols or 0)
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise BadParameter("vstack column mismatch")
        data = tuple(row for m in mats for row in m.entries)
        return ExactMatrix(ring, sum(m.rows for m in mats), c, data)

    @staticmethod
    def block(ring: RingSpec, grid) -> "ExactMatrix":
        """Assemble from a 2d list of matrices (None means zero block)."""
        nrows = len(grid)
        ncols = len(grid[0]) if nrows else 0
        row_sizes = [None] * nrows
        col_sizes = [None] * ncols
        for i in range(nrows):
            for j in range(ncols):
                m = grid[i][j]
                if m is None:
                    continue
                if row_sizes[i] is None:
                    row_sizes[i] = m.rows
                elif row_sizes[i] != m.rows:
                    raise BadParameter("block row size mismatch")
                if col_sizes[j] is None:
                    col_sizes[j] = m.cols
                elif col_sizes[j] != m.cols:
                    raise BadParameter("block col size mismatch")
        if any(s is None for s in row_sizes) or any(s is None for s in col_sizes):
            raise BadParameter("block sizes undetermined")
        rows = []
        for i in range(nrows):
            blocks = [
                grid[i][j]
                if grid[i][j] is not None
                else ExactMatrix.zero(ring, row_sizes[i], col_sizes[j])
                for j in range(ncols)
            ]
            rows.append(ExactMatrix.hstack(ring, blocks))
        return ExactMatrix.vstack(ring, rows)

    @staticmethod
    def direct_sum(ring: RingSpec, mats) -> "ExactMatrix":
        mats = list(mats)
        n = len(mats)
        grid = [
            [mats[i] if i == j else None for j in range(n)] for i in range(n)
        ]
        if not mats:
            return ExactMatrix.zero(ring, 0, 0)
        return ExactMatrix.block(ring, grid)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product: (self kron other)[(i,k),(j,l)] = self[i,j]*other[k,l]."""
        ring = self.ring
        mul = ring.mul
        data = []
        for i in range(self.rows):
            for k in range(other.rows):
                data.append(
                    tuple(
                        mul(self.entries[i][j], other.entries[k][l])
                        for j in range(self.cols)
                        for l in range(other.cols)
                    )
                )
        return ExactMatrix(
            ring, self.rows * other.rows, self.cols * other.cols, tuple(data)
        )

    # -- misc ---------------------------------------------------------------

    def to_ring(self, ring: RingSpec) -> "ExactMatrix":
        return ExactMatrix.from_rows(ring, self.entries)

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<{self.rows}x{self.cols} over {self.ring}>"
        body = "\n".join(
            " ".join(self.ring.format_scalar(x) for x in r) for r in self.entries
        )
        return body
