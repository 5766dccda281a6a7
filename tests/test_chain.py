import json
import random
import time
import tracemalloc

import pytest

from bigraded import chain, linalg
from bigraded.rings import ZZ, QQ, GF, BadParameter
from bigraded.matrices import ExactMatrix
from bigraded.linalg import QuotientModule, coordinates_in, image_basis, kernel_basis
from bigraded.docio import parse
from bigraded.twisted import embed, line, tot_twisted, twisted_boundary, twisted_disc, validate_twisted
from bigraded.chain import (
    ChainComplex,
    ChainMap,
    ModuleClass,
    cone,
    direct_sum,
    disc,
    homology,
    is_acyclic,
    is_quasi_iso,
    relative_simplex_cochain,
    simplex_chain,
    simplex_cochain,
    sphere,
    tensor,
    truncate_nonneg,
)
from bigraded.randgen import random_bicomplex, random_chain_complex


def M(rows, ring=ZZ):
    return ExactMatrix.from_rows(ring, rows)


def oracle_homology_at(c, n):
    """H_n from explicit bases, the reference for `homology`: the
    cycles, the boundaries, the boundaries' coordinates in the cycles,
    and the quotient module they present.  It shares no formula with
    the rank and invariant-factor count it checks."""
    cycles = kernel_basis(c.diff(n))
    boundaries = image_basis(c.diff(n + 1))
    rels = coordinates_in(cycles, boundaries)
    q = QuotientModule(c.ring, cycles.cols, rels)
    return ModuleClass(q.rank, q.torsion)


def oracle_homology(c):
    out = {n: oracle_homology_at(c, n) for n in c.degrees()}
    return {n: cls for n, cls in out.items() if not cls.is_zero}


def test_module_class_str():
    assert str(ModuleClass(2, (2, 4))) == "k^2 + Z/2 + Z/4"
    assert str(ModuleClass(0)) == "0"
    assert ModuleClass(0).is_zero


def test_module_class_prints_integers_past_the_str_digit_limit():
    # str() of an int refuses more than 4,300 digits by default
    huge = 10**5000 + 1
    assert str(ModuleClass(0, (huge,))) == "Z/1" + "0" * 4999 + "1"
    assert str(ModuleClass(2, (3, 7 * 10**1300))) == "k^2 + Z/3 + Z/7" + "0" * 1300
    # the homology the library computes prints too
    c = ChainComplex(ZZ, {0: 1, 1: 1}, {1: ExactMatrix.from_rows(ZZ, [[huge]])})
    assert str(homology(c)[0]) == "Z/1" + "0" * 4999 + "1"


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
    assert homology(c).get(1, ModuleClass(0)).is_zero
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
        assert c.rank(0, t) == comb(5, t + 1)


def test_relative_simplex_cochain():
    # quotienting the (n, m) front face leaves an acyclic complex
    for n in range(2, 5):
        for m in range(0, n - 1):
            rel = relative_simplex_cochain(n, m, QQ)
            assert is_acyclic(rel)


def _face_loop_cochain(n, ring, m=None):
    """The cochain complex of the n-simplex (modulo the front face on
    {0,...,m} when m is given) built by the face loop the builders once
    ran: the coefficient of tau* in delta(sigma*) is the sign of sigma
    as a face of tau.  An oracle for the transposed face differential."""
    bases = {}
    for t in range(-1, n + 1):
        simps = chain.simplex_basis(n, t)
        if m is not None:
            simps = [s for s in simps if s and max(s) > m]
        bases[t] = simps
    d = {}
    for t in range(-1, n):
        src, tgt = bases[t], bases[t + 1]
        sidx = {s: j for j, s in enumerate(src)}
        rows = [{} for _ in tgt]
        for i, tau in enumerate(tgt):
            for pos in range(len(tau)):
                j = sidx.get(tau[:pos] + tau[pos + 1:])
                if j is not None:
                    rows[i][j] = ring.from_int(-1 if pos % 2 else 1)
        d[-t] = ExactMatrix(ring, len(tgt), len(src), rows)
    return ChainComplex(ring, {-t: len(b) for t, b in bases.items()}, d)


@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=str)
def test_cochain_builders_match_the_face_loop(ring):
    for n in range(7):
        assert simplex_cochain(n, ring) == _face_loop_cochain(n, ring)
        for m in range(n):
            assert relative_simplex_cochain(n, m, ring) == _face_loop_cochain(n, ring, m)


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


def test_compose_multiplies_stored_components_only(monkeypatch):
    # an absent component is the zero map: composing never builds one,
    # and a product that vanishes is not stored
    x = ChainComplex(QQ, {0: 2, 1: 3, 2: 1, 3: 2}, {})
    f = ChainMap(x, x, {0: M([[1, 2], [0, 1]], QQ), 2: M([[2]], QQ),
                        3: M([[1, 0], [0, 0]], QQ)})
    g = ChainMap(x, x, {1: M([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ), 2: M([[3]], QQ),
                        3: M([[0, 0], [0, 1]], QQ)})
    zeros = []
    real = ExactMatrix.zero
    monkeypatch.setattr(ExactMatrix, "zero", staticmethod(
        lambda *a: zeros.append(a) or real(*a)))
    assert g.compose(f).f == {(0, 2): M([[6]], QQ)}
    assert f.compose(g).f == {(0, 2): M([[6]], QQ)}
    assert zeros == []


def test_truncate_nonneg():
    # degree 0 becomes the kernel of the last differential, so the
    # truncation of an acyclic complex stays acyclic
    t = truncate_nonneg(simplex_chain(2, ZZ))
    assert t.rank(0, -1) == 0
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
            assert validate_twisted(embed(tensor(x, y))) == []


def test_euler_characteristic_additive_under_tensor():
    rng = random.Random(3)
    for _ in range(10):
        x = random_chain_complex(rng, QQ, degrees=(0, 2))
        y = random_chain_complex(rng, QQ, degrees=(0, 2))
        chi = lambda c: sum((-1) ** n * r for (_, n), r in c.ranks.items())
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
                expect = not oracle_homology(x)
                assert is_acyclic(x) == expect
                seen.add(expect)
    assert seen == {True, False}


def _unimodular(rng, n):
    """A dense n x n integer matrix of determinant 1."""
    def tri(lower):
        return M([[1 if i == j else
                   (rng.randint(-1, 1) if (i > j) == lower else 0)
                   for j in range(n)] for i in range(n)])
    return tri(True) @ tri(False)


def planted_torsion_complex(rng, n0):
    """Z^(n0+2) -> Z^n0 with a dense differential L D R whose invariant
    factors D are chosen here; returns the complex and its homology."""
    n1 = n0 + 2
    r = n0 - rng.randint(0, 2)
    torsion = [rng.choice((2, 3))]
    for _ in range(rng.randint(0, 2)):
        torsion.append(torsion[-1] * rng.choice((1, 2, 3)))
    factors = [1] * (r - len(torsion)) + torsion
    diag = M([[factors[i] if i == j and i < r else 0 for j in range(n1)]
              for i in range(n0)])
    d = _unimodular(rng, n0) @ diag @ _unimodular(rng, n1)
    c = ChainComplex(ZZ, {0: n0, 1: n1}, {1: d})
    expect = {0: ModuleClass(n0 - r, tuple(torsion)), 1: ModuleClass(n1 - r)}
    return c, {n: cls for n, cls in expect.items() if not cls.is_zero}


def _assert_matches_oracle(c):
    assert homology(c) == oracle_homology(c)
    lo, hi = (min(c.degrees()), max(c.degrees())) if c.ranks else (0, 0)
    for n in range(lo - 1, hi + 2):
        assert homology(c).get(n, ModuleClass(0)) == oracle_homology_at(c, n), n


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=str)
def test_homology_matches_oracle_on_cells(ring):
    for p in range(7):
        for q in (0, 1):
            _assert_matches_oracle(tot_twisted(twisted_disc(p, q, ring)))
            _assert_matches_oracle(tot_twisted(twisted_boundary(p, q, ring)))
            for u in range(p + 1):
                _assert_matches_oracle(line(twisted_boundary(p, q, ring), 0, u))


def test_homology_matches_oracle_on_planted_torsion():
    rng = random.Random(23)
    for n0 in list(range(5, 11)) * 3:
        c, expect = planted_torsion_complex(rng, n0)
        assert homology(c) == expect
        _assert_matches_oracle(c)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=str)
def test_homology_matches_oracle_on_lines_and_totals(ring):
    rng = random.Random(29)
    torsion = False
    for _ in range(25):
        x = random_bicomplex(rng, ring, p_range=(0, 3), q_range=(-1, 2))
        lines = [tot_twisted(x)]
        lines += [line(x, 1, q) for q in range(-1, 3)]
        lines += [line(x, 0, p) for p in range(4)]
        for c in lines:
            _assert_matches_oracle(c)
            torsion |= any(cls.torsion for cls in homology(c).values())
    assert torsion == (ring == ZZ)


def test_homology_factors_each_differential_once(monkeypatch):
    # one factorisation per nonzero differential, shared by the two
    # degrees it touches; none for the absent ones, and over Z no Smith
    # normal form: homology reads only the invariant factors
    seen = []
    real = linalg.invariant_factors

    def counting(m):
        seen.append(id(m))
        return real(m)

    def refused(m):
        raise AssertionError("homology over Z built a Smith normal form")

    monkeypatch.setattr(linalg, "invariant_factors", counting)
    monkeypatch.setattr(chain, "invariant_factors", counting)
    monkeypatch.setattr(linalg, "smith_normal_form", refused)
    c = tot_twisted(twisted_disc(6, 0))
    assert homology(c) == {}
    assert sorted(seen) == sorted(id(m) for m in c.d.values())
    seen.clear()
    c, expect = planted_torsion_complex(random.Random(5), 8)
    assert homology(c) == expect
    assert seen == [id(c.d[1])]


def test_integer_homology_of_the_9_0_cell_within_budget():
    # the unit pivots of a cell differential are eliminated sparsely
    # before any Smith normal form; a dense Smith normal form of each
    # differential takes about 2 s here
    x = twisted_disc(9, 0)
    t0 = time.perf_counter()
    assert homology(tot_twisted(x)) == {}
    dt = time.perf_counter() - t0
    assert dt < 1, f"homology of the totalised (9, 0) cell took {dt:.2f}s"


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rank_only_documents_stay_small():
    # absent differentials are never built as dense zero matrices: not
    # to validate a complex or a map, nor to take homology or a cone
    text = json.dumps({
        "schema_version": 1, "kind": "chain", "ring": "Q",
        "ranks": [[0, 1500], [1, 1500]],
    }, separators=(",", ":"))
    assert len(text) == 74

    def chain_homology():
        assert homology(parse(text)) == {0: ModuleClass(1500), 1: ModuleClass(1500)}

    assert _peak_bytes(chain_homology) < 2 * 2**20
    end = {"schema_version": 1, "kind": "chain", "ring": "Q"}
    text = json.dumps({
        "schema_version": 1, "kind": "map", "ring": "Q", "map_kind": "chain",
        "source": {**end, "ranks": [[0, 1]]},
        "target": {**end, "ranks": [[-1, 1500], [0, 1500]]},
        "components": [[[0], [[7, 0, "1"]]]],
    }, separators=(",", ":"))
    assert len(text) == 253

    def map_homology():
        f = parse(text)
        assert f.f[(0, 0)][7, 0] == 1
        assert homology(f.target) == {-1: ModuleClass(1500), 0: ModuleClass(1500)}
        assert not is_quasi_iso(f)

    assert _peak_bytes(map_homology) < 2 * 2**20
    # over Z the 1500 x 1 differential of the cone is one unit pivot:
    # no transform of 1500 x 1500 is built for it
    text = text.replace('"ring":"Q"', '"ring":"Z"')
    assert len(text) == 253 and parse(text).target.ring == ZZ

    def integer_quasi_iso():
        assert not is_quasi_iso(parse(text))

    assert _peak_bytes(integer_quasi_iso) < 2 * 2**20
