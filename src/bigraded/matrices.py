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
    def from_cols(ring: RingSpec, nrows: int, cols) -> "ExactMatrix":
        """The nrows-row matrix with the given columns, whose entries are
        normalised already; no columns give an nrows x 0 matrix."""
        cols = list(cols)
        rows = tuple(zip(*cols)) if cols else ((),) * nrows
        return ExactMatrix(ring, nrows, len(cols), rows)

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
    def block(ring: RingSpec, row_sizes, col_sizes, blocks) -> "ExactMatrix":
        """Assemble a block matrix with block rows and block columns of the
        given sizes from ``blocks``, a dict {(i, j): matrix} of the blocks
        that are present.  Every other block is zero and is never built:
        rows that no block touches share one zero row."""
        row_off, col_off = [0], [0]
        for s in row_sizes:
            row_off.append(row_off[-1] + s)
        for s in col_sizes:
            col_off.append(col_off[-1] + s)
        ncols, zero = col_off[-1], ring.zero()
        out = [None] * row_off[-1]
        for (i, j), m in blocks.items():
            if not (0 <= i < len(row_sizes) and 0 <= j < len(col_sizes)):
                raise BadParameter(f"block ({i},{j}) outside the block grid")
            if m.rows != row_sizes[i] or m.cols != col_sizes[j]:
                raise BadParameter(
                    f"block ({i},{j}) is {m.rows}x{m.cols}, "
                    f"expected {row_sizes[i]}x{col_sizes[j]}"
                )
            c0, c1 = col_off[j], col_off[j + 1]
            for r, row in enumerate(m.entries, row_off[i]):
                if out[r] is None:
                    out[r] = [zero] * ncols
                out[r][c0:c1] = row
        zero_row = (zero,) * ncols
        return ExactMatrix(
            ring,
            len(out),
            ncols,
            tuple(zero_row if r is None else tuple(r) for r in out),
        )

    @staticmethod
    def direct_sum(ring: RingSpec, mats) -> "ExactMatrix":
        mats = list(mats)
        return ExactMatrix.block(
            ring,
            [m.rows for m in mats],
            [m.cols for m in mats],
            {(k, k): m for k, m in enumerate(mats)},
        )

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
