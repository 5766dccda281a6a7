"""Exact matrices over a RingSpec, stored as sparse rows.

Each row is a dict {column: nonzero entry} and no zero is ever stored,
so every operation here costs the number of nonzero entries plus the
number of rows, and equal matrices compare and hash equal however they
were built.  ``entries`` is a dense view computed on each read, for
display and tests.  Stored rows are shared between matrices and never
changed: code that reduces rows in place works on copies.

Convention used everywhere in this package: columns index the source
basis, rows index the target basis, and composition g after f is the
matrix product ``g @ f``.
"""

from __future__ import annotations

from .rings import RingSpec, BadParameter

# The one row object shared by the all-zero rows built here.
_EMPTY: dict = {}


def _sparse_row(r, cols: int, seen: dict) -> dict:
    """A row of the constructor as a new dict without zeros: a dict is
    copied (its columns checked), a sequence of cols entries read.
    Equal sequences of one matrix share one dict through `seen`."""
    if isinstance(r, dict):
        if not r:
            return _EMPTY
        if min(r) < 0 or max(r) >= cols:
            raise BadParameter(f"matrix column out of range 0..{cols - 1}")
        return {j: x for j, x in r.items() if x} or _EMPTY
    if len(r) != cols:
        raise BadParameter("inconsistent matrix data")
    key = tuple(r)
    row = seen.get(key)
    if row is None:
        row = seen[key] = {j: x for j, x in enumerate(key) if x} or _EMPTY
    return row


class ExactMatrix:
    """A rows x cols matrix.  ``ExactMatrix(ring, rows, cols, data)``
    takes one entry of `data` per row, either a dict {column: entry} or
    a sequence of cols entries, all normalised in the ring already."""

    __slots__ = ("ring", "rows", "cols", "sparse_rows")

    def __init__(self, ring: RingSpec, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise BadParameter("negative matrix dimension")
        if len(data) != rows:
            raise BadParameter("inconsistent matrix data")
        self.ring, self.rows, self.cols = ring, rows, cols
        seen = {}
        self.sparse_rows = tuple(_sparse_row(r, cols, seen) for r in data)

    @staticmethod
    def _of(ring: RingSpec, rows: int, cols: int, sparse_rows) -> "ExactMatrix":
        """A matrix on sparse rows that need no check: `rows` dicts
        without zeros whose columns lie in range, as the operations of
        this package compute them.  Data from outside goes through the
        constructor."""
        m = object.__new__(ExactMatrix)
        m.ring, m.rows, m.cols = ring, rows, cols
        m.sparse_rows = tuple(sparse_rows)
        return m

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(ring: RingSpec, data) -> "ExactMatrix":
        norm = ring.normalize
        rows = [list(map(norm, r)) for r in data]
        return ExactMatrix(ring, len(rows), len(rows[0]) if rows else 0, rows)

    @staticmethod
    def from_cols(ring: RingSpec, nrows: int, cols) -> "ExactMatrix":
        """The nrows-row matrix with the given columns, whose entries are
        normalised already; no columns give an nrows x 0 matrix."""
        cols = list(cols)
        return ExactMatrix(ring, len(cols), nrows, cols).transpose()

    @staticmethod
    def zero(ring: RingSpec, rows: int, cols: int) -> "ExactMatrix":
        if rows < 0 or cols < 0:
            raise BadParameter("negative matrix dimension")
        return ExactMatrix._of(ring, rows, cols, (_EMPTY,) * rows)

    @staticmethod
    def identity(ring: RingSpec, n: int) -> "ExactMatrix":
        if n < 0:
            raise BadParameter("negative matrix dimension")
        one = ring.one()
        return ExactMatrix._of(ring, n, n, ({i: one} for i in range(n)))

    @staticmethod
    def scalar(ring: RingSpec, n: int, c) -> "ExactMatrix":
        return ExactMatrix.identity(ring, n).scale(c)

    @staticmethod
    def column(ring: RingSpec, data) -> "ExactMatrix":
        rows = [[ring.normalize(x)] for x in data]
        return ExactMatrix(ring, len(rows), 1, rows)

    # -- access ---------------------------------------------------------

    def __getitem__(self, rc):
        """m[i, j] is an entry; m[rows, cols] with two slices of step 1
        is the block they select."""
        i, j = rc
        if isinstance(i, slice):
            return self._block_at(i, j)
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return self.sparse_rows[i].get(j, self.ring.zero())

    def _block_at(self, rows: slice, cols: slice) -> "ExactMatrix":
        r0, r1, rs = rows.indices(self.rows)
        c0, c1, cs = cols.indices(self.cols)
        if rs != 1 or cs != 1:
            raise BadParameter("a block needs slices of step 1")
        r1, c1 = max(r0, r1), max(c0, c1)
        picked = self.sparse_rows[r0:r1]
        if c0 or c1 != self.cols:
            # a row that lies in a prefix of the columns is kept as it is
            picked = [
                r if not r or (not c0 and max(r) < c1)
                else {j - c0: x for j, x in r.items() if c0 <= j < c1}
                for r in picked
            ]
        return ExactMatrix._of(self.ring, r1 - r0, c1 - c0, picked)

    @property
    def entries(self) -> tuple:
        """The dense row tuples, zeros as ring.zero(); built on each read."""
        z = self.ring.zero()
        cols = range(self.cols)
        return tuple(tuple(r.get(j, z) for j in cols) for r in self.sparse_rows)

    def col(self, j: int) -> tuple:
        z = self.ring.zero()
        return tuple(r.get(j, z) for r in self.sparse_rows)

    def flat(self) -> tuple:
        """The entries row by row as one tuple (the vec that kron acts on)."""
        out = [self.ring.zero()] * (self.rows * self.cols)
        for i, r in enumerate(self.sparse_rows):
            off = i * self.cols
            for j, x in r.items():
                out[off + j] = x
        return tuple(out)

    @property
    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.ring == other.ring
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.rows, self.cols,
                     tuple(frozenset(r.items()) for r in self.sparse_rows)))

    # -- arithmetic -------------------------------------------------------

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise BadParameter(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        p = self.ring.p
        out = []
        for ra, rb in zip(self.sparse_rows, other.sparse_rows):
            if not (ra and rb):
                out.append(ra or rb)
                continue
            row = dict(ra)
            for j, y in rb.items():
                v = row.get(j, 0) + y
                if p:
                    v %= p
                if v:
                    row[j] = v
                else:
                    del row[j]
            out.append(row)
        return ExactMatrix._of(self.ring, self.rows, self.cols, out)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        p = self.ring.p
        return ExactMatrix._of(self.ring, self.rows, self.cols, (
            {j: p - x for j, x in r.items()} if p else {j: -x for j, x in r.items()}
            for r in self.sparse_rows
        ))

    def scale(self, c) -> "ExactMatrix":
        ring = self.ring
        c = ring.normalize(c)
        if not c:
            return ExactMatrix.zero(ring, self.rows, self.cols)
        # c and every stored entry are nonzero, and so is their product
        mul = ring.mul
        return ExactMatrix._of(ring, self.rows, self.cols, (
            {j: mul(c, x) for j, x in r.items()} for r in self.sparse_rows
        ))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise BadParameter(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        p = self.ring.p
        b = other.sparse_rows
        # one scratch row for the whole product: the columns a row reaches
        # are noted, read back and set to zero again
        acc = [0] * other.cols
        out = []
        for row in self.sparse_rows:
            touched = []
            for k, a in row.items():
                for j, y in b[k].items():
                    v = acc[j]
                    if not v:
                        touched.append(j)
                    acc[j] = v + a * y
            new = {}
            for j in touched:
                v = acc[j]
                if v:
                    acc[j] = 0
                    if p:
                        v %= p
                    if v:
                        new[j] = v
            out.append(new or _EMPTY)
        return ExactMatrix._of(self.ring, self.rows, other.cols, out)

    def apply(self, vec) -> tuple:
        """Matrix times a column vector given as a flat sequence."""
        return (self @ ExactMatrix.column(self.ring, vec)).col(0)

    def transpose(self) -> "ExactMatrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.sparse_rows):
            for j, x in r.items():
                out[j][i] = x
        return ExactMatrix._of(self.ring, self.cols, self.rows, (r or _EMPTY for r in out))

    # -- assembly ---------------------------------------------------------

    @staticmethod
    def hstack(ring: RingSpec, mats, rows: int | None = None) -> "ExactMatrix":
        mats = list(mats)
        if not mats:
            return ExactMatrix.zero(ring, rows or 0, 0)
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise BadParameter("hstack row mismatch")
        return ExactMatrix.block(
            ring, [r], [m.cols for m in mats], {(0, k): m for k, m in enumerate(mats)}
        )

    @staticmethod
    def vstack(ring: RingSpec, mats, cols: int | None = None) -> "ExactMatrix":
        mats = list(mats)
        if not mats:
            return ExactMatrix.zero(ring, 0, cols or 0)
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise BadParameter("vstack column mismatch")
        return ExactMatrix._of(
            ring, sum(m.rows for m in mats), c,
            (row for m in mats for row in m.sparse_rows),
        )

    @staticmethod
    def block(ring: RingSpec, row_sizes, col_sizes, blocks) -> "ExactMatrix":
        """Assemble a block matrix with block rows and block columns of the
        given sizes from ``blocks``, a dict {(i, j): matrix or None} of the
        blocks that are present.  Every other block, and one given as None,
        is zero and is never built: only the given entries are written."""
        row_off, col_off = [0], [0]
        for s in row_sizes:
            row_off.append(row_off[-1] + s)
        for s in col_sizes:
            col_off.append(col_off[-1] + s)
        out = [_EMPTY] * row_off[-1]
        lent = set()  # rows of `out` that are a block's own row, not copies
        for (i, j), m in blocks.items():
            if m is None:
                continue
            if not (0 <= i < len(row_sizes) and 0 <= j < len(col_sizes)):
                raise BadParameter(f"block ({i},{j}) outside the block grid")
            if m.rows != row_sizes[i] or m.cols != col_sizes[j]:
                raise BadParameter(
                    f"block ({i},{j}) is {m.rows}x{m.cols}, "
                    f"expected {row_sizes[i]}x{col_sizes[j]}"
                )
            c0 = col_off[j]
            for r, row in enumerate(m.sparse_rows, row_off[i]):
                if not row:
                    continue
                if c0:
                    row = {c0 + k: x for k, x in row.items()}
                if out[r] is _EMPTY:
                    out[r] = row
                    if not c0:
                        lent.add(r)
                    continue
                if r in lent:
                    lent.discard(r)
                    out[r] = dict(out[r])
                out[r].update(row)
        return ExactMatrix._of(ring, row_off[-1], col_off[-1], out)

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
        mul, oc = self.ring.mul, other.cols
        return ExactMatrix._of(
            self.ring, self.rows * other.rows, self.cols * oc,
            (
                {j * oc + l: mul(x, y) for j, x in ra.items() for l, y in rb.items()}
                if ra and rb else _EMPTY
                for ra in self.sparse_rows
                for rb in other.sparse_rows
            ),
        )

    # -- misc ---------------------------------------------------------------

    def to_ring(self, ring: RingSpec) -> "ExactMatrix":
        norm = ring.normalize
        return ExactMatrix._of(ring, self.rows, self.cols, (
            {j: v for j, x in r.items() if (v := norm(x))} for r in self.sparse_rows
        ))

    def __repr__(self) -> str:
        return (f"ExactMatrix(ring={self.ring!r}, rows={self.rows}, "
                f"cols={self.cols}, entries={self.entries!r})")

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<{self.rows}x{self.cols} over {self.ring}>"
        body = "\n".join(
            " ".join(self.ring.format_scalar(x) for x in r) for r in self.entries
        )
        return body


def _product(a, b):
    """a @ b, or None when a factor is absent or the product is zero."""
    if a is None or b is None:
        return None
    m = a @ b
    return None if m.is_zero else m


def incidence(ring: RingSpec, targets: list, sources: list, action) -> ExactMatrix:
    """The matrix of the linear map sending the basis element s of
    `sources` to action(s), a dict {element of `targets`: integer
    coefficient}."""
    index = {x: i for i, x in enumerate(targets)}
    rows = [{} for _ in targets]
    for j, s in enumerate(sources):
        for t, c in action(s).items():
            rows[index[t]][j] = ring.from_int(c)
    # ring.from_int normalises, and the constructor drops the entries
    # that are zero in the ring
    return ExactMatrix(ring, len(targets), len(sources), rows)
