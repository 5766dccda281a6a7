import random

import pytest

from bigraded.rings import ZZ, QQ, GF, BadParameter
from bigraded.matrices import ExactMatrix
from bigraded.chain import (
    ChainComplex,
    ChainMap,
    ModuleClass,
    cone,
    direct_sum,
    disc,
    homology,
    homology_at,
    is_acyclic,
    is_quasi_iso,
    relative_simplex_cochain,
    simplex_chain,
    simplex_cochain,
    sphere,
    standard_chain,
    tensor,
    truncate_nonneg,
)
from bigraded.randgen import random_chain_complex


def M(rows, ring=ZZ):
    return ExactMatrix.from_rows(ring, rows)


def test_module_class_str():
    assert str(ModuleClass(2, (2, 4))) == "k^2 + Z/2 + Z/4"
    assert str(ModuleClass(0)) == "0"
    assert ModuleClass(0).is_zero


def test_sphere_and_disc_homology():
    for ring in (ZZ, QQ, GF(2)):
        assert homology(sphere(3, 2, ring)) == {3: ModuleClass(2)}
        assert is_acyclic(disc(3, 2, ring))


def test_invalid_complex_rejected():
    with pytest.raises(BadParameter):
        ChainComplex(ZZ, {0: 1, 1: 1, 2: 1},
                     {1: M([[1]]), 2: M([[1]])})  # d*d = 1 != 0


def test_times_two_complex():
    c = ChainComplex(ZZ, {0: 1, 1: 1}, {1: M([[2]])})
    assert homology(c) == {0: ModuleClass(0, (2,))}
    assert homology_at(c, 1).is_zero
    # over Q the same complex is acyclic
    assert is_acyclic(ChainComplex(QQ, {0: 1, 1: 1}, {1: M([[2]], ring=QQ)}))


def test_simplex_chain_is_acyclic():
    # coaugmented: the simplex is contractible
    for n in range(5):
        assert is_acyclic(simplex_chain(n, ZZ))
        assert is_acyclic(simplex_cochain(n, QQ))


def test_simplex_chain_ranks():
    from math import comb

    c = simplex_chain(4, ZZ)
    for t in range(-1, 5):
        assert c.rank(t) == comb(5, t + 1)


def test_relative_simplex_cochain():
    # quotienting the (n, m) front face leaves an acyclic complex
    for n in range(2, 5):
        for m in range(0, n - 1):
            rel = relative_simplex_cochain(n, m, QQ)
            assert is_acyclic(rel)


def test_standard_chain_dispatch():
    assert standard_chain("sphere", 2, 1, ring=ZZ) == sphere(2, 1, ZZ)
    with pytest.raises(BadParameter):
        standard_chain("torus", 1, ring=ZZ)


def test_cone_detects_quasi_iso():
    c = sphere(0, 1, ZZ)
    assert is_quasi_iso(ChainMap.identity(c))
    assert is_acyclic(cone(ChainMap.identity(c)))
    assert not is_quasi_iso(ChainMap.zero(c, c))
    # x2 on a sphere: injective but not surjective in homology over Z
    x2 = ChainMap(c, c, {0: M([[2]])})
    assert not is_quasi_iso(x2)
    assert is_quasi_iso(ChainMap(sphere(0, 1, QQ), sphere(0, 1, QQ),
                                 {0: M([[2]], ring=QQ)}))


def test_truncate_nonneg():
    # degree 0 becomes the kernel of the last differential, so the
    # truncation of an acyclic complex stays acyclic
    t = truncate_nonneg(simplex_chain(2, ZZ))
    assert t.rank(-1) == 0
    assert is_acyclic(t)
    # truncating a complex with nothing below 0 changes nothing
    s = sphere(2, 1, ZZ)
    assert truncate_nonneg(s) == s


def test_direct_sum_homology():
    s = direct_sum([sphere(1, 1, ZZ), sphere(3, 2, ZZ)])
    assert homology(s) == {1: ModuleClass(1), 3: ModuleClass(2)}


def test_tensor_kunneth_free():
    # over a field: dim H_n(X tensor Y) = sum dim H_i * dim H_j
    x = sphere(1, 2, QQ)
    y = sphere(2, 3, QQ)
    t = tensor(x, y)
    assert homology(t) == {3: ModuleClass(6)}


def test_tensor_torsion():
    # (Z -2-> Z) tensor (Z -2-> Z): H_0 = Z/2, H_1 = Z/2
    c = ChainComplex(ZZ, {0: 1, 1: 1}, {1: M([[2]])})
    t = tensor(c, c)
    h = homology(t)
    assert h[0] == ModuleClass(0, (2,))
    assert h[1] == ModuleClass(0, (2,))


def test_tensor_differential_squares_to_zero_random():
    rng = random.Random(7)
    for ring in (ZZ, GF(2)):
        for _ in range(10):
            x = random_chain_complex(rng, ring, degrees=(0, 2))
            y = random_chain_complex(rng, ring, degrees=(-1, 1))
            tensor(x, y)  # constructor validates d*d = 0


def test_euler_characteristic_additive_under_tensor():
    rng = random.Random(3)
    for _ in range(10):
        x = random_chain_complex(rng, QQ, degrees=(0, 2))
        y = random_chain_complex(rng, QQ, degrees=(0, 2))
        chi = lambda c: sum((-1) ** n * r for n, r in c.ranks.items())
        assert chi(tensor(x, y)) == chi(x) * chi(y)


def test_is_acyclic_over_fields_matches_homology():
    # the rank count over a field against the homology it replaces, on
    # random complexes, the acyclic cones of identities and zero maps
    rng = random.Random(7)
    seen = set()
    for ring in (GF(2), GF(3), QQ):
        for _ in range(20):
            c = random_chain_complex(rng, ring, degrees=(-1, 3))
            for x in (c, cone(ChainMap.identity(c)), cone(ChainMap.zero(c, c))):
                expect = all(homology_at(x, n).is_zero for n in x.degrees())
                assert is_acyclic(x) == expect
                seen.add(expect)
    assert seen == {True, False}
