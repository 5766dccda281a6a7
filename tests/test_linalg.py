import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bigraded.rings import ZZ, QQ, GF, BadParameter
from bigraded.matrices import ExactMatrix
from bigraded.linalg import (
    FieldSolver,
    _rref,
    NoSolution,
    QuotientModule,
    Subquotient,
    coordinates_in,
    image_basis,
    invariant_factors,
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
        facts = res.invariant_factors
        assert all(facts[i] > 0 for i in range(len(facts)))
        assert all(facts[i + 1] % facts[i] == 0 for i in range(len(facts) - 1))


def _sympy_invariant_factors(m):
    from sympy import Matrix, ZZ as SZZ
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    flat = [x for r in m.entries for x in r]
    factors = sympy_factors(Matrix(m.rows, m.cols, flat), domain=SZZ)
    return tuple(int(f) for f in factors if f)


def _hidden_block(rng, k, block):
    """[[I_k, X], [Y, Y X + K]]: unimodularly equivalent to diag(I_k, K),
    so its factors are k ones followed by those of K."""
    a, b = block.rows, block.cols
    x = [[rng.randint(-2, 2) for _ in range(b)] for _ in range(k)]
    y = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(a)]
    top = [[int(i == j) for j in range(k)] + x[i] for i in range(k)]
    bottom = [y[i] + [sum(y[i][t] * x[t][j] for t in range(k)) + block[i, j]
                      for j in range(b)] for i in range(a)]
    return M(top + bottom)


def test_invariant_factors_match_sympy_and_snf():
    from test_chain import planted_torsion_complex

    rng = random.Random(31)
    cases = [ExactMatrix.zero(ZZ, r, c) for r, c in ((0, 0), (0, 4), (4, 0))]
    for _ in range(25):
        r, c = rng.randint(1, 12), rng.randint(1, 12)
        # sparse +-1, as in cell differentials
        cases.append(M([[rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(c)]
                        for _ in range(r)]))
        # no unit entry at all: everything is left for the Smith form
        no_unit = M([[rng.choice((0, 2, -2, 3, -4, 6, 9)) for _ in range(c)]
                     for _ in range(r)])
        cases.append(no_unit)
        # a dense unit-free leftover behind a block of units
        cases.append(_hidden_block(rng, rng.randint(0, 5), no_unit))
        # entries of about 200 bits beside a few units; kept to 6 x 6,
        # where the transforms of smith_normal_form stay cheap
        r, c = min(r, 6), min(c, 6)
        big = [[rng.choice((0, 1, -1, rng.getrandbits(200) - 2**199))
                for _ in range(c)] for _ in range(r)]
        big[0][0] = 2**199 + 1
        cases.append(M(big))
    for n0 in range(5, 11):
        cases.append(planted_torsion_complex(rng, n0)[0].d[1])
    for m in cases:
        got = invariant_factors(m)
        assert got == _sympy_invariant_factors(m), m
        assert got == smith_normal_form(m).invariant_factors, m


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
            with pytest.raises(BadParameter, match=f"length {len(b)}, expected 3"):
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


def _random_matrix(rng, ring, r, c, bound=3):
    return ExactMatrix.from_rows(
        ring, [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]
    )


@pytest.mark.parametrize("ring", [QQ, GF(3), ZZ], ids=str)
def test_subquotient_matches_quotient_module_composition(ring, monkeypatch):
    """Subquotient against the composition it replaces: the relations in
    the coordinates of sub, a QuotientModule of those, sub @ reps and
    project(coordinates_in(sub, v))."""
    rng = random.Random(10)
    torsion_seen = False
    for _ in range(60):
        n = rng.randint(0, 5)
        sub = image_basis(_random_matrix(rng, ring, n, rng.randint(0, 4)))
        rel = sub @ _random_matrix(rng, ring, sub.cols, rng.randint(1, 3))
        vecs = sub @ _random_matrix(rng, ring, sub.cols, 2)
        sq = Subquotient(ring, n, rel=rel, sub=sub)
        qm = QuotientModule(ring, sub.cols, coordinates_in(sub, rel))
        assert (sq.rank, sq.torsion) == (qm.rank, qm.torsion)
        assert sq.reps == sub @ qm.reps
        assert sq.classes(vecs) == qm.project(coordinates_in(sub, vecs))
        torsion_seen = torsion_seen or bool(sq.torsion)
        # sub=None: the whole module modulo rel
        whole = Subquotient(ring, n, rel=rel)
        qm = QuotientModule(ring, n, rel)
        assert (whole.rank, whole.torsion) == (qm.rank, qm.torsion)
        assert whole.reps == qm.reps
        assert whole.classes(vecs) == qm.project(vecs)
    assert torsion_seen == (ring == ZZ)
    # rel=None factors no quotient: the classes are coordinates in sub
    monkeypatch.setattr(
        "bigraded.linalg.QuotientModule",
        lambda *a: pytest.fail("a quotient was factored without relations"),
    )
    for _ in range(20):
        n = rng.randint(0, 5)
        sub = image_basis(_random_matrix(rng, ring, n, rng.randint(0, 4)))
        vecs = sub @ _random_matrix(rng, ring, sub.cols, 2)
        sq = Subquotient(ring, n, sub=sub)
        assert (sq.rank, sq.torsion) == (sub.cols, ())
        assert sq.reps is sub
        assert sq.classes(vecs) == coordinates_in(sub, vecs)
    whole = Subquotient(ring, 3)
    assert whole.rank == 3 and whole.reps == ExactMatrix.identity(ring, 3)


def test_subquotient_edge_cases():
    empty = Subquotient(QQ, 3, sub=ExactMatrix.zero(QQ, 3, 0))
    assert empty.rank == 0 and (empty.reps.rows, empty.reps.cols) == (3, 0)
    assert empty.classes(ExactMatrix.zero(QQ, 3, 2)) == ExactMatrix.zero(QQ, 0, 2)
    torsion = Subquotient(ZZ, 2, rel=M([[2, 0], [0, 1]]))
    assert (torsion.rank, torsion.torsion) == (0, (2,))
    even = Subquotient(ZZ, 2, rel=M([[4], [0]]), sub=M([[2], [0]]))
    assert (even.rank, even.torsion) == (0, (2,))
    with pytest.raises(NoSolution):
        even.classes(M([[1], [0]]))  # 1 is not in 2Z
    line = Subquotient(GF(3), 2, sub=M([[1], [0]], ring=GF(3)))
    with pytest.raises(NoSolution):
        line.classes(M([[0], [1]], ring=GF(3)))
    with pytest.raises(BadParameter):
        line.classes(M([[1]], ring=GF(3)))


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


def _sympy_rref(ring, rows, ncols):
    """sympy's reduced row echelon form of `rows`, as row lists over ring."""
    from sympy import GF as SGF, QQ as SQQ
    from sympy.polys.matrices import DomainMatrix

    dom = SQQ if ring.kind == "Q" else SGF(ring.p)
    data = [[dom(int(x)) if ring.kind == "F" else
             dom(x.numerator, x.denominator) for x in row] for row in rows]
    red, pivots = DomainMatrix(data, (len(rows), ncols), dom).rref()

    def back(x):
        s = dom.to_sympy(x)
        return ring.normalize(Fraction(int(s.p), int(s.q)))

    return [[back(x) for x in row] for row in red.to_list()], list(pivots)


def _dense_rref(ring, rows, ncols, limit=None):
    """_rref on dense rows, read back as dense rows; the sparse input
    rows must come back unchanged."""
    sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
    before = [dict(r) for r in sparse]
    red, pivots = _rref(ring, sparse, ncols, limit)
    assert sparse == before
    assert all(x for r in red for x in r.values())
    return [[r.get(j, ring.zero()) for j in range(ncols)] for r in red], pivots


@pytest.mark.parametrize(
    "ring", [QQ, GF(2), GF(3), GF(2**31 - 1), GF(4294967311)], ids=str
)
def test_rref_matches_sympy(ring):
    rng = random.Random(19)

    def entry():
        if rng.random() < 0.5:
            return ring.zero()
        if ring.kind == "Q":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return ring.normalize(rng.randint(-ring.p, ring.p))

    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (1, 6), (6, 1), (3, 8), (8, 3)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(60)]
    for n, m in shapes:
        rows = [[entry() for _ in range(m)] for _ in range(n)]
        if n > 2 and rng.random() < 0.5:
            # a repeated row makes the rank deficient
            rows[-1] = list(rows[0])
        assert _dense_rref(ring, rows, m) == _sympy_rref(ring, rows, m), (n, m)
        # pivots among the first `limit` columns: those columns of the
        # result are the reduced form of that block
        limit = rng.randint(0, m)
        red, pivots = _dense_rref(ring, rows, m, limit)
        expect, expect_pivots = _sympy_rref(ring, [r[:limit] for r in rows], limit)
        assert pivots == expect_pivots, (n, m, limit)
        assert [r[:limit] for r in red[:len(pivots)]] == expect[:len(pivots)]


def test_field_linear_algebra_runs_without_numpy():
    # numpy is not a dependency: with it unimportable, the field kernel,
    # solving and spectral pages still run, over Q and a prime above 2^32
    code = """
import sys
sys.modules["numpy"] = None
from bigraded.rings import QQ, GF
from bigraded.matrices import ExactMatrix
from bigraded.linalg import kernel_basis, rank, solve_exact
from bigraded.spectral import pages
from bigraded.twisted import twisted_boundary
for ring in (QQ, GF(4294967311)):
    m = ExactMatrix.from_rows(ring, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2
    k = kernel_basis(m)
    assert k.cols == 1 and (m @ k).is_zero
    b = m.apply((1, 1, 1))
    assert m.apply(solve_exact(m, b)) == b
    data = pages(twisted_boundary(3, 0, ring))
    assert data.page(1) == {(2, -1): 1, (3, -1): 1} and not data.einf
print("ok")
"""
    src = str(Path(__import__("bigraded").__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
