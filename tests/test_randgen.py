import hashlib
import random

from hypothesis import given, settings, strategies as st

from bigraded.rings import ZZ, QQ, GF
from bigraded.twisted import validate_twisted
from bigraded.randgen import (
    MatrixSystem,
    random_bicomplex,
    random_bicomplex_map,
    random_chain_complex,
    random_int_matrix,
    random_strict_map,
    random_twisted,
    random_twisted_map,
)
from bigraded.matrices import ExactMatrix
from bigraded.docio import serialize


RINGS = (ZZ, QQ, GF(2), GF(5))


def test_random_objects_valid():
    rng = random.Random(0)
    for ring in RINGS:
        for _ in range(10):
            random_chain_complex(rng, ring)  # ctor validates
            assert validate_twisted(random_bicomplex(rng, ring)) == []
            assert validate_twisted(random_twisted(rng, ring)) == []


def test_random_twisted_has_higher_structure():
    rng = random.Random(1)
    seen = set()
    for _ in range(40):
        seen |= set(random_twisted(rng, QQ).indices())
    assert 2 in seen and 3 in seen


def test_random_maps_valid_and_varied():
    rng = random.Random(2)
    kinds = set()
    for _ in range(30):
        f = random_bicomplex_map(rng, GF(3))  # ctor validates
        kinds.add(f.source is f.target)
        random_twisted_map(rng, GF(3))
    assert True in kinds or False in kinds


def test_random_strict_map_commutes():
    rng = random.Random(3)
    x = random_twisted(rng, QQ)
    y = random_twisted(rng, QQ)
    random_strict_map(rng, x, y)  # TwistedMap ctor validates


def test_matrix_system_solves_sylvester():
    # X satisfying A X - X B = C, checked by substitution
    rng = random.Random(5)
    A = ExactMatrix.from_rows(QQ, [[1, 2], [0, 1]])
    B = ExactMatrix.from_rows(QQ, [[3]])
    C = ExactMatrix.from_rows(QQ, [[1], [1]])
    sys = MatrixSystem(QQ, {"x": (2, 1)})
    sys.add_equation([("x", A, None, 1), ("x", None, B, -1)], C)
    sol = sys.solve_random(rng)
    X = sol["x"]
    assert A @ X - X @ B == C


def test_matrix_system_unsolvable():
    rng = random.Random(6)
    sys = MatrixSystem(ZZ, {"x": (1, 1)})
    two = ExactMatrix.from_rows(ZZ, [[2]])
    one = ExactMatrix.from_rows(ZZ, [[1]])
    sys.add_equation([("x", two, None, 1)], one)  # 2x = 1 over Z
    assert sys.solve_random(rng) is None


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_seeded_reproducibility(seed):
    a = random_bicomplex(random.Random(seed), GF(2))
    b = random_bicomplex(random.Random(seed), GF(2))
    assert a.ranks == b.ranks and a.d_h == b.d_h and a.d_v == b.d_v


def test_random_int_matrix_shape():
    rng = random.Random(7)
    m = random_int_matrix(rng, 3, 5, bound=4)
    assert m.rows == 3 and m.cols == 5
    assert all(abs(x) <= 4 for row in m.entries for x in row)


# SHA-256 of the serialized random_twisted and random_twisted_map outputs
# over Z for seeds 0..149, each followed by the next draw of the generator,
# computed on commit f299031, while `_solve_structure_map` still entered
# zero matrices for absent structure maps into its system.
TWISTED_OVER_Z = "f5e0c6a5691931fb1167e4efac75011816e6a4232a56018cb32bbff298a6a565"


def twisted_over_z_digest() -> str:
    h = hashlib.sha256()
    for seed in range(150):
        rng = random.Random(seed)
        h.update(serialize(random_twisted(rng, ZZ)).encode())
        h.update(serialize(random_twisted_map(rng, ZZ)).encode())
        h.update(repr(rng.random()).encode())
    return h.hexdigest()


def test_random_twisted_over_z_is_pinned():
    assert twisted_over_z_digest() == TWISTED_OVER_Z
