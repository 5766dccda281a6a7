import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bigraded.rings import ZZ, QQ, GF, BadParameter
from bigraded.matrices import ExactMatrix


def M(rows, ring=ZZ):
    return ExactMatrix.from_rows(ring, rows)


small_int = st.integers(min_value=-5, max_value=5)


@st.composite
def int_matrix(draw, rows=None, cols=None):
    r = rows if rows is not None else draw(st.integers(1, 4))
    c = cols if cols is not None else draw(st.integers(1, 4))
    return M([[draw(small_int) for _ in range(c)] for _ in range(r)])


def test_composition_convention():
    # columns index the source: (g @ f) acts like g after f
    f = M([[1, 2], [0, 1], [1, 0]])  # 2 -> 3
    g = M([[1, 0, 2], [0, 1, 1]])  # 3 -> 2
    assert (g @ f).rows == 2 and (g @ f).cols == 2
    v = (2, 3)
    assert (g @ f).apply(v) == g.apply(f.apply(v))


def test_degenerate_matmul_is_zero():
    a = ExactMatrix.zero(ZZ, 2, 0)
    b = ExactMatrix.zero(ZZ, 0, 3)
    assert (a @ b) == ExactMatrix.zero(ZZ, 2, 3)


def test_shape_mismatch_rejected():
    with pytest.raises(BadParameter):
        M([[1]]) @ M([[1, 2], [3, 4]])
    with pytest.raises(BadParameter):
        M([[1]]) + M([[1, 2]])


def test_from_cols_is_the_transpose_of_from_rows():
    cols = [(1, 2, 3), (4, 5, 6)]
    assert ExactMatrix.from_cols(ZZ, 3, cols) == M(cols).transpose()
    assert ExactMatrix.from_cols(QQ, 3, []) == ExactMatrix.zero(QQ, 3, 0)
    assert ExactMatrix.from_cols(QQ, 0, [(), ()]) == ExactMatrix.zero(QQ, 0, 2)
    with pytest.raises(BadParameter):
        ExactMatrix.from_cols(ZZ, 3, [(1, 2)])


def test_transpose_involution_and_degenerate():
    a = M([[1, 2, 3], [4, 5, 6]])
    assert a.transpose().transpose() == a
    z = ExactMatrix.zero(QQ, 0, 4)
    assert z.transpose().rows == 4 and z.transpose().cols == 0
    assert z.transpose().transpose() == z


def test_block_and_stacks():
    a = M([[1]])
    b = M([[2, 3]])
    grid = ExactMatrix.block(ZZ, [1, 2], [1, 2], {(0, 0): a, (1, 1): b.transpose() @ b})
    assert grid == M([[1, 0, 0], [0, 4, 6], [0, 6, 9]])
    with pytest.raises(BadParameter):
        ExactMatrix.block(ZZ, [1, 1], [2], {(0, 0): a})
    with pytest.raises(BadParameter):
        ExactMatrix.block(ZZ, [1], [1], {(0, 1): a})
    h = ExactMatrix.hstack(ZZ, [a, M([[7]])])
    assert h == M([[1, 7]])
    v = ExactMatrix.vstack(ZZ, [a, M([[7]])])
    assert v == M([[1], [7]])


def _block_reference(ring, row_sizes, col_sizes, blocks):
    """Entry by entry: the entry of block (i, j) at (k, l), else zero."""
    def locate(sizes, n):
        for i, size in enumerate(sizes):
            if n < size:
                return i, n
            n -= size

    out = []
    for r in range(sum(row_sizes)):
        i, k = locate(row_sizes, r)
        row = []
        for c in range(sum(col_sizes)):
            j, l = locate(col_sizes, c)
            m = blocks.get((i, j))
            row.append(m[k, l] if m is not None else ring.zero())
        out.append(tuple(row))
    return ExactMatrix(ring, len(out), sum(col_sizes), tuple(out))


@st.composite
def block_layouts(draw):
    ring = draw(st.sampled_from([ZZ, QQ, GF(3)]))
    sizes = st.lists(st.integers(0, 3), max_size=4)
    row_sizes, col_sizes = draw(sizes), draw(sizes)
    blocks = {}
    for i, r in enumerate(row_sizes):
        for j, c in enumerate(col_sizes):
            if draw(st.booleans()):
                blocks[(i, j)] = ExactMatrix(ring, r, c, tuple(
                    tuple(ring.from_int(draw(small_int)) for _ in range(c))
                    for _ in range(r)
                ))
    return ring, row_sizes, col_sizes, blocks


@settings(max_examples=150, deadline=None)
@given(block_layouts())
def test_block_matches_entrywise_reference(layout):
    ring, row_sizes, col_sizes, blocks = layout
    got = ExactMatrix.block(ring, row_sizes, col_sizes, blocks)
    assert got == _block_reference(ring, row_sizes, col_sizes, blocks)
    assert (got.rows, got.cols) == (sum(row_sizes), sum(col_sizes))
    assert all(type(x) is type(ring.zero()) for row in got.entries for x in row)


def test_direct_sum():
    d = ExactMatrix.direct_sum(ZZ, [M([[1]]), M([[2, 0], [0, 3]])])
    assert d == M([[1, 0, 0], [0, 2, 0], [0, 0, 3]])


def test_kron_convention():
    a = M([[1, 2]])
    b = M([[3], [4]])
    k = a.kron(b)
    # entry ((i,k),(j,l)) = a[i,j] * b[k,l]
    assert k == M([[3, 6], [4, 8]])


def test_kron_vec_identity():
    # row-major vec: vec(A F B) = (A kron B^T) vec(F)
    rng = random.Random(0)
    for _ in range(10):
        A = M([[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)])
        F = M([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        B = M([[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)])
        lhs = A @ F @ B
        vecF = tuple(x for row in F.entries for x in row)
        rhs = A.kron(B.transpose()).apply(vecF)
        assert tuple(x for row in lhs.entries for x in row) == rhs


def test_scalar_and_identity():
    assert ExactMatrix.scalar(ZZ, 2, 5) == M([[5, 0], [0, 5]])
    i3 = ExactMatrix.identity(GF(3), 3)
    assert i3 @ i3 == i3


def test_to_ring():
    a = M([[5, -1]])
    assert a.to_ring(GF(3)) == ExactMatrix.from_rows(GF(3), [[2, 2]])


@settings(max_examples=40, deadline=None)
@given(int_matrix(rows=2, cols=3), int_matrix(rows=3, cols=2), int_matrix(rows=2, cols=2))
def test_matmul_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=40, deadline=None)
@given(int_matrix(rows=3, cols=3), int_matrix(rows=3, cols=3))
def test_transpose_antihomomorphism(a, b):
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def _matmul_reference(a, b):
    ring = a.ring
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = ring.zero()
            for k in range(a.cols):
                s = ring.add(s, ring.mul(a[i, k], b[k, j]))
            row.append(s)
        out.append(tuple(row))
    return ExactMatrix(ring, a.rows, b.cols, tuple(out))


def _random_sparse(rng, ring, r, c, entry):
    """Random matrix with some all-zero rows and scattered zeros."""
    zero_rows = set(rng.sample(range(r), r // 3)) if r else set()
    return ExactMatrix.from_rows(ring, [
        [0 if i in zero_rows or rng.random() < 0.4 else entry() for _ in range(c)]
        for i in range(r)
    ]) if r and c else ExactMatrix.zero(ring, r, c)


def test_matmul_matches_triple_loop():
    rng = random.Random(5)
    entries = {
        ZZ: lambda: rng.getrandbits(200) - 2**199,
        QQ: lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        GF(7): lambda: rng.randrange(7),
        GF(4294967311): lambda: rng.randrange(4294967311),
    }
    for ring, entry in entries.items():
        for _ in range(30):
            r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
            a = _random_sparse(rng, ring, r, k, entry)
            b = _random_sparse(rng, ring, k, c, entry)
            got = a @ b
            assert got == _matmul_reference(a, b)
            assert (got.rows, got.cols) == (r, c)
        # all-zero rows hold the ring's own zero (a Fraction over Q)
        z = ExactMatrix.zero(ring, 2, 3) @ ExactMatrix.identity(ring, 3)
        assert all(type(x) is type(ring.zero()) for row in z.entries for x in row)


def test_assemblies_build_no_zero_matrix(monkeypatch):
    from bigraded.bicomplex import bic_disc
    from bigraded.chain import cone
    from bigraded.twisted import (
        boundary_inclusion, hom_twisted, tensor_twisted, tot_twisted,
        tot_twisted_map, twisted_boundary, twisted_disc,
    )

    x, y = twisted_disc(5, 0), twisted_boundary(3, 1)
    f = boundary_inclusion(3, 0)
    # no constraint system of Hom(a, b) has a trivial kernel, which
    # kernel_basis returns as an empty zero matrix (elimination, not
    # assembly)
    a, b = bic_disc(1, 1), bic_disc(2, 0)
    calls = []
    real = ExactMatrix.zero
    monkeypatch.setattr(
        ExactMatrix, "zero", staticmethod(lambda *args: calls.append(args) or real(*args))
    )
    assert tot_twisted(x).ranks
    assert tensor_twisted(twisted_disc(2, 0), y).ranks
    assert hom_twisted(a, b).ranks
    assert cone(tot_twisted_map(f)).ranks
    assert calls == []


# --- every operation against a dense reference ----------------------------------
#
# Sparse rows are the only storage; the reference below works on plain
# lists of rows with the ring's own scalar operations.

DENSE_RINGS = [ZZ, QQ, GF(2), GF(4294967311)]


def _grid(rng, ring, r, c):
    """An r x c list of normalised entries, about half of them zero."""
    def entry():
        if rng.random() < 0.5:
            return ring.zero()
        if ring.kind == "Q":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if ring.kind == "Z":
            return rng.choice((-1, 1, rng.randint(-9, 9), rng.getrandbits(70)))
        return ring.normalize(rng.randrange(ring.p))
    return [[entry() for _ in range(c)] for _ in range(r)]


def _ref_add(ring, a, b):
    return [[ring.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _ref_mul(ring, a, b, cols):
    out = []
    for row in a:
        acc = [ring.zero()] * cols
        for x, brow in zip(row, b):
            acc = [ring.add(s, ring.mul(x, y)) for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def _ref_blocks(ring, row_sizes, col_sizes, blocks):
    out = [[ring.zero()] * sum(col_sizes) for _ in range(sum(row_sizes))]
    for (i, j), grid in blocks.items():
        r0, c0 = sum(row_sizes[:i]), sum(col_sizes[:j])
        for k, row in enumerate(grid):
            out[r0 + k][c0:c0 + len(row)] = row
    return out


def _agrees(m, ring, grid, rows, cols):
    """m is the rows x cols matrix `grid` over ring, entries of the ring's
    own type, with no zero stored."""
    assert (m.ring, m.rows, m.cols) == (ring, rows, cols)
    assert m.entries == tuple(tuple(r) for r in grid)
    kind = type(ring.zero())
    assert all(type(x) is kind for row in m.entries for x in row)
    assert all(x and type(x) is kind for row in m.sparse_rows for x in row.values())
    assert m.is_zero == (not any(x for row in grid for x in row))
    for i in range(rows):
        for j in range(cols):
            assert m[i, j] == grid[i][j]
    return True


@pytest.mark.parametrize("ring", DENSE_RINGS, ids=str)
def test_every_operation_matches_a_dense_reference(ring):
    rng = random.Random(41)
    other_ring = {"Z": GF(2), "Q": QQ, "F": ZZ}[ring.kind]
    sizes = [0, 0, 1, 2, 3, 4]
    for _ in range(40):
        r, k, c, c2 = (rng.choice(sizes) for _ in range(4))
        ga, gb, gc = _grid(rng, ring, r, k), _grid(rng, ring, k, c), _grid(rng, ring, r, k)
        gd = _grid(rng, ring, r, c2)
        a, b = ExactMatrix(ring, r, k, ga), ExactMatrix(ring, k, c, gb)
        cm, d = ExactMatrix(ring, r, k, gc), ExactMatrix(ring, r, c2, gd)
        assert _agrees(a, ring, ga, r, k)
        if r:
            assert ExactMatrix.from_rows(ring, ga) == a
        cols = [[row[j] for row in ga] for j in range(k)]
        assert ExactMatrix.from_cols(ring, r, cols) == a
        assert _agrees(ExactMatrix.zero(ring, r, k), ring, [[ring.zero()] * k] * r, r, k)
        assert _agrees(ExactMatrix.identity(ring, k), ring, [
            [ring.one() if i == j else ring.zero() for j in range(k)] for i in range(k)
        ], k, k)
        first = [row[0] for row in ga] if k else [ring.zero()] * r
        assert _agrees(ExactMatrix.column(ring, first), ring, [[x] for x in first], r, 1)
        assert _agrees(a @ b, ring, _ref_mul(ring, ga, gb, c), r, c)
        assert _agrees(a + cm, ring, _ref_add(ring, ga, gc), r, k)
        neg_c = [[ring.neg(x) for x in row] for row in gc]
        assert _agrees(-cm, ring, neg_c, r, k)
        assert _agrees(a - cm, ring, _ref_add(ring, ga, neg_c), r, k)
        assert _agrees(a - a, ring, [[ring.zero()] * k] * r, r, k)
        for s in (0, 1, -1, 7):
            scaled = [[ring.mul(ring.normalize(s), x) for x in row] for row in ga]
            assert _agrees(a.scale(s), ring, scaled, r, k)
        assert _agrees(a.transpose(), ring, cols, k, r)
        r0, r1 = sorted(rng.randint(0, r) for _ in range(2))
        c0, c1 = sorted(rng.randint(0, k) for _ in range(2))
        assert _agrees(a[r0:r1, c0:c1], ring, [row[c0:c1] for row in ga[r0:r1]],
                       r1 - r0, c1 - c0)
        assert _agrees(a[:, c1:], ring, [row[c1:] for row in ga], r, k - c1)
        assert _agrees(ExactMatrix.hstack(ring, [a, d]), ring,
                       [x + y for x, y in zip(ga, gd)], r, k + c2)
        assert _agrees(ExactMatrix.vstack(ring, [a, cm]), ring, ga + gc, 2 * r, k)
        ge = _grid(rng, ring, r, c)
        grids = {(0, 0): ga, (1, 1): gb, (0, 1): ge}
        shapes = {(0, 0): (r, k), (1, 1): (k, c), (0, 1): (r, c)}
        present = [key for key in grids if rng.random() < 0.7]
        got = ExactMatrix.block(ring, [r, k], [k, c], {
            key: ExactMatrix(ring, *shapes[key], grids[key]) for key in present
        })
        ref = _ref_blocks(ring, [r, k], [k, c], {key: grids[key] for key in present})
        assert _agrees(got, ring, ref, r + k, k + c)
        assert _agrees(ExactMatrix.direct_sum(ring, [a, b]), ring,
                       _ref_blocks(ring, [r, k], [k, c], {(0, 0): ga, (1, 1): gb}),
                       r + k, k + c)
        kron = [[ring.mul(x, y) for x in row_a for y in row_b]
                for row_a in ga for row_b in gb]
        assert _agrees(a.kron(b), ring, kron, r * k, k * c)
        vec = [row[0] for row in gb] if c else [ring.one()] * k
        assert a.apply(vec) == tuple(
            row[0] for row in _ref_mul(ring, ga, [[x] for x in vec], 1)
        )
        assert _agrees(a.to_ring(other_ring), other_ring,
                       [[other_ring.normalize(x) for x in row] for row in ga], r, k)


@pytest.mark.parametrize("ring", DENSE_RINGS, ids=str)
def test_explicit_zeros_change_nothing(ring):
    rng = random.Random(43)
    for r, c in [(0, 3), (3, 0), (1, 1), (2, 3), (4, 4)]:
        grid = _grid(rng, ring, r, c)
        dense = ExactMatrix(ring, r, c, grid)
        sparse = ExactMatrix(ring, r, c, [
            {j: x for j, x in enumerate(row) if x} for row in grid
        ])
        with_zeros = ExactMatrix(ring, r, c, [dict(enumerate(row)) for row in grid])
        assert dense == sparse == with_zeros
        assert hash(dense) == hash(sparse) == hash(with_zeros)
        assert all(x for row in with_zeros.sparse_rows for x in row.values())
        # a sum that cancels equals the zero matrix it is
        assert dense + (-dense) == ExactMatrix.zero(ring, r, c)
        assert hash(dense + (-dense)) == hash(ExactMatrix.zero(ring, r, c))
        assert {dense: 1}[with_zeros] == 1
        # the constructor copies dict rows: changing them later changes nothing
        given = [dict(enumerate(row)) for row in grid]
        copied = ExactMatrix(ring, r, c, given)
        for row in given:
            row.clear()
        assert copied == dense and hash(copied) == hash(dense)


def test_bad_matrix_data_rejected():
    with pytest.raises(BadParameter):
        ExactMatrix(ZZ, 2, 3, [[1, 2, 3], [1, 2]])  # ragged
    with pytest.raises(BadParameter):
        ExactMatrix(ZZ, 2, 3, [[1, 2, 3]])  # too few rows
    with pytest.raises(BadParameter):
        ExactMatrix(ZZ, 1, 2, [{2: 1}])  # column out of range
    with pytest.raises(BadParameter):
        ExactMatrix(ZZ, 1, 2, [{-1: 1}])
    with pytest.raises(BadParameter):
        ExactMatrix(ZZ, -1, 2, [])
    with pytest.raises(BadParameter):
        ExactMatrix.from_rows(QQ, [[1, 2], [3]])
    with pytest.raises(BadParameter):
        ExactMatrix.zero(GF(2), 2, -1)
    with pytest.raises(BadParameter):
        ExactMatrix.identity(GF(2), 3).apply((1, 0))
