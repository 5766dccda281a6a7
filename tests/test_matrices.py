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
