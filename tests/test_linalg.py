import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bigraded.rings import ZZ, QQ, GF, BadParameter
from bigraded.matrices import ExactMatrix
from bigraded.linalg import (
    FieldSolver,
    NoSolution,
    QuotientModule,
    coordinates_in,
    image_basis,
    is_surjective,
    is_unimodular,
    kernel_basis,
    rank,
    smith_normal_form,
    solve_exact,
)


def M(rows, ring=ZZ):
    return ExactMatrix.from_rows(ring, rows)


def rand_int_matrix(rng, r, c, bound=9):
    return M([[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)])


def test_snf_known_example():
    res = smith_normal_form(M([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert res.invariant_factors == (2, 2, 156)


def test_snf_contract_random():
    rng = random.Random(0)
    for _ in range(200):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        m = rand_int_matrix(rng, r, c)
        res = smith_normal_form(m)
        assert res.U @ m @ res.V == res.D
        assert is_unimodular(res.U) and is_unimodular(res.V)
        assert res.U @ res.U_inv == ExactMatrix.identity(ZZ, m.rows)
        assert res.V @ res.V_inv == ExactMatrix.identity(ZZ, m.cols)
        facts = res.invariant_factors
        assert all(facts[i] > 0 for i in range(len(facts)))
        assert all(facts[i + 1] % facts[i] == 0 for i in range(len(facts) - 1))


def test_solve_exact_over_rings():
    a = M([[2, 0], [0, 3]])
    assert solve_exact(a, (4, 9)) == (2, 3)
    assert solve_exact(a, (1, 0)) is None  # 1 not in 2Z
    aq = a.to_ring(QQ)
    assert solve_exact(aq, (Fraction(1), Fraction(0))) == (Fraction(1, 2), Fraction(0))
    af = a.to_ring(GF(5))
    x = solve_exact(af, (1, 0))
    assert af.apply(x) == (1, 0)
    # a right-hand side of the wrong length is refused on every ring
    tall = [[1, 0], [0, 1], [0, 0]]
    for ring in (ZZ, GF(5), QQ, GF(4294967311)):
        for b in ((1, 2), (1, 2, 0, 4)):
            with pytest.raises(BadParameter):
                solve_exact(M(tall, ring), b)


def test_solve_inconsistent():
    a = M([[1], [1]])
    assert solve_exact(a, (0, 1)) is None


def test_kernel_saturated_over_z():
    # kernel of [1 1] over Z is spanned by (1, -1), not a multiple
    k = kernel_basis(M([[2, 2]]))
    assert k.cols == 1
    col = k.col(0)
    assert sorted(abs(x) for x in col) == [1, 1]


def test_kernel_of_zero_and_empty():
    assert kernel_basis(ExactMatrix.zero(ZZ, 0, 3)) == ExactMatrix.identity(ZZ, 3)
    assert kernel_basis(ExactMatrix.zero(QQ, 2, 0)).cols == 0


def test_kernel_image_ranks():
    rng = random.Random(1)
    for ring in (ZZ, QQ, GF(3)):
        for _ in range(40):
            m = rand_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)).to_ring(ring)
            k, im = kernel_basis(m), image_basis(m)
            assert k.cols + im.cols == m.cols or ring is ZZ
            if ring is ZZ:
                assert k.cols + rank(m) == m.cols
            assert (m @ k).is_zero


def test_is_surjective():
    assert is_surjective(M([[1, 0], [0, 1]]))
    assert not is_surjective(M([[2]]))  # x2 is not onto over Z
    assert is_surjective(M([[2]], ring=QQ))
    assert is_surjective(ExactMatrix.zero(ZZ, 0, 2))


def test_quotient_module_torsion():
    qm = QuotientModule(ZZ, 2, M([[2, 0], [0, 1]]))
    assert qm.rank == 0
    assert qm.torsion == (2,)
    qm2 = QuotientModule(ZZ, 2, M([[1], [0]]))
    assert qm2.rank == 1 and qm2.torsion == ()


def test_quotient_module_project_kills_relations():
    rel = M([[1], [1]], ring=QQ)
    qm = QuotientModule(QQ, 2, rel)
    assert qm.rank == 1
    assert qm.project(rel).is_zero
    # projection of representatives is the identity on the quotient
    assert qm.project(qm.reps) == ExactMatrix.identity(QQ, qm.rank)


def test_coordinates_in():
    basis = M([[1, 0], [0, 2]])
    c = coordinates_in(basis, M([[3], [4]]))
    assert basis @ c == M([[3], [4]])
    with pytest.raises(NoSolution):
        coordinates_in(basis, M([[0], [1]]))  # 1 not in 2Z
    empty = coordinates_in(ExactMatrix.zero(ZZ, 3, 0), ExactMatrix.zero(ZZ, 3, 0))
    assert empty.rows == 0 and empty.cols == 0
    z = coordinates_in(ExactMatrix.zero(ZZ, 2, 0), ExactMatrix.zero(ZZ, 2, 2))
    assert z.rows == 0 and z.cols == 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_contract_hypothesis(rows):
    m = M(rows)
    res = smith_normal_form(m)
    assert res.U @ m @ res.V == res.D
    assert is_unimodular(res.U) and is_unimodular(res.V)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=2, max_size=4),
        min_size=2,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_solution_is_exact(rows):
    m = M(rows)
    rng = random.Random(0)
    x = tuple(rng.randint(-3, 3) for _ in range(m.cols))
    b = m.apply(x)
    got = solve_exact(m, b)
    assert got is not None
    assert m.apply(got) == b


LARGE_PRIMES = (4294967311, 2**61 - 1)


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_large_prime_kernels_are_exact(p):
    # int64 elimination overflowed here without any error
    ring = GF(p)
    rng = random.Random(11)
    for _ in range(50):
        m = M([[rng.randrange(p) for _ in range(6)] for _ in range(4)], ring)
        k = kernel_basis(m)
        assert k.cols == 6 - rank(m)
        assert (m @ k).is_zero


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_large_prime_solve_round_trip(p):
    ring = GF(p)
    rng = random.Random(12)
    for _ in range(20):
        a = M([[rng.randrange(p) for _ in range(4)] for _ in range(6)], ring)
        x = tuple(rng.randrange(p) for _ in range(4))
        b = a.apply(x)
        assert a.apply(solve_exact(a, b)) == b
        vecs = a @ M([[rng.randrange(p) for _ in range(3)] for _ in range(4)], ring)
        assert a @ coordinates_in(a, vecs) == vecs


def _coordinates_by_solver(basis, vectors):
    solver = FieldSolver(basis)
    cols = []
    for j in range(vectors.cols):
        x = solver.solve(vectors.col(j))
        if x is None:
            raise NoSolution(f"column {j} not in span")
        cols.append(x)
    if not cols or basis.cols == 0:
        return ExactMatrix.zero(basis.ring, basis.cols, vectors.cols)
    return ExactMatrix.from_rows(basis.ring, list(zip(*cols)))


@pytest.mark.parametrize("ring", [QQ, GF(3), GF(4294967311)], ids=str)
def test_coordinates_in_matches_field_solver(ring):
    rng = random.Random(13)

    def rand(r, c):
        if not (r and c):
            return ExactMatrix.zero(ring, r, c)
        return M([[rng.choice((0, 0, 1, -1, 2)) for _ in range(c)]
                  for _ in range(r)], ring)

    for _ in range(60):
        n, m, k = rng.randint(0, 6), rng.randint(0, 4), rng.randint(0, 4)
        basis = rand(n, m)
        inside = basis @ rand(m, k)
        assert coordinates_in(basis, inside) == _coordinates_by_solver(basis, inside)
        outside = ExactMatrix.hstack(ring, [inside, rand(n, 1)])
        try:
            expect = _coordinates_by_solver(basis, outside)
        except NoSolution:
            with pytest.raises(NoSolution):
                coordinates_in(basis, outside)
        else:
            assert coordinates_in(basis, outside) == expect
    # a zero-column basis spans only the zero vector
    empty = ExactMatrix.zero(ring, 3, 0)
    assert coordinates_in(empty, ExactMatrix.zero(ring, 3, 2)) == \
        ExactMatrix.zero(ring, 0, 2)
    with pytest.raises(NoSolution):
        coordinates_in(empty, ExactMatrix.identity(ring, 3))
    # no vectors at all
    basis = ExactMatrix.identity(ring, 3)
    assert coordinates_in(basis, ExactMatrix.zero(ring, 3, 0)) == \
        ExactMatrix.zero(ring, 3, 0)
