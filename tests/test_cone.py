"""The mapping cone along d_0 or d_1 and the quasi-isomorphism tests read
off it.  The references here build, for each line of f, the chain map f
induces on it, validate it, and assemble its cone block by block: the
rule the classifiers and `e2_iso` used before they read lines of one
cone."""

import random

import pytest

from bigraded import chain
from bigraded.bicomplex import BicomplexMap, TorsionInSubquotient, e2_iso, subquotient_map
from bigraded.chain import ChainComplex, ChainMap, homology, is_acyclic
from bigraded.matrices import ExactMatrix
from bigraded.model import STRUCTURES, classify_map
from bigraded.randgen import random_bicomplex_map, random_twisted_map
from bigraded.rings import GF, QQ, ZZ, BadParameter
from bigraded.twisted import cone_twisted, line, tot_twisted, tot_twisted_map, validate_twisted

RINGS = (GF(2), GF(3), QQ, ZZ)


def _maps(seed, n, rings=RINGS, **ranges):
    """n seeded maps, bicomplex and twisted in turn, over each ring in turn."""
    rng = random.Random(seed)
    for k in range(n):
        make = random_twisted_map if k % 2 else random_bicomplex_map
        yield make(rng, rings[k % len(rings)], **ranges)


def _line_map(f, i, n) -> ChainMap:
    """The chain map f induces on column n (i = 0) or row n (i = 1)."""
    comps = {pq[1 - i]: m for pq, m in f.f.items() if pq[i] == n}
    return ChainMap(line(f.source, i, n), line(f.target, i, n), comps)


def _reference_cone(f: ChainMap) -> ChainComplex:
    """The cone of a chain map, block by block: degree n is X_{n-1} + Y_n
    with differential [[-d^X, 0], [f, d^Y]]; validated on construction."""
    x, y = f.source, f.target
    ranks = {n: x.rank(0, n - 1) + y.rank(0, n)
             for n in {n + 1 for n in x.degrees()} | set(y.degrees())}
    d = {}
    for n in ranks:
        blocks = {(1, 0): f.f.get((0, n - 1)), (1, 1): y.d.get(n)}
        if n - 1 in x.d:
            blocks[(0, 0)] = -x.d[n - 1]
        d[n] = ExactMatrix.block(
            x.ring, [x.rank(0, n - 2), y.rank(0, n - 1)], [x.rank(0, n - 1), y.rank(0, n)],
            blocks,
        )
    return ChainComplex(x.ring, ranks, d)


@pytest.mark.parametrize("i", [0, 1])
def test_cone_satisfies_the_twisted_relations(i):
    for f in _maps(31 + i, 120):
        assert validate_twisted(cone_twisted(f, i)) == []
    f = next(_maps(31, 1))
    for bad in (-1, 2):
        with pytest.raises(BadParameter):
            cone_twisted(f, bad)


def test_cone_lines_are_the_cones_of_the_line_maps():
    rows = 0
    for f in _maps(37, 220):
        c = cone_twisted(f, 0)
        for p in range(-1, 5):
            g = _line_map(f, 0, p)
            assert line(c, 0, p) == _reference_cone(g) == chain.cone(g), p
        # Tot of the cone is the cone of Tot f up to the order of summands
        assert homology(tot_twisted(c)) == homology(_reference_cone(tot_twisted_map(f)))
        # a row of a twisted complex with d_2 need not square to zero
        if isinstance(f, BicomplexMap):
            c = cone_twisted(f, 1)
            for q in range(-3, 4):
                assert line(c, 1, q) == _reference_cone(_line_map(f, 1, q)), q
            rows += 1
    assert rows == 110


def _e2_iso_reference(f) -> bool:
    """Whether the map f induces on vertical homology is a
    quasi-isomorphism on every row."""
    hf = subquotient_map(f, "v", "H")
    rows = {q for _, q in set(hf.source.ranks) | set(hf.target.ranks)}
    return all(is_acyclic(_reference_cone(_line_map(hf, 1, q))) for q in rows)


def test_e2_iso_reads_the_rows_of_the_vertical_homology_map():
    seen = {}
    rings = (GF(2), GF(3), GF(5), QQ, ZZ)
    for k, f in enumerate(_maps(41, 250, rings, p_range=(0, 2), q_range=(-1, 1))):
        try:
            expect = _e2_iso_reference(f)
        except TorsionInSubquotient:
            with pytest.raises(TorsionInSubquotient):
                e2_iso(f)
            expect = "torsion"
        else:
            assert e2_iso(f) == expect, k
        seen[expect] = seen.get(expect, 0) + 1
    assert set(seen) == {True, False, "torsion"}, seen


def test_classifiers_build_no_chain_map(monkeypatch):
    built = []
    setter = ChainMap._set

    # every map is built through _set, checked by its constructor or not
    def spy(self, *args, **kwargs):
        built.append(type(self))
        setter(self, *args, **kwargs)

    monkeypatch.setattr(ChainMap, "_set", spy)
    for f in _maps(43, 60):
        for structure in STRUCTURES if isinstance(f, BicomplexMap) else ("twisted-tot",):
            classify_map(f, structure)
        try:
            e2_iso(f)
        except TorsionInSubquotient:
            pass
    assert built == []
    ChainMap.identity(chain.sphere(0, 1, ZZ))
    assert built == [ChainMap]


def test_ce_classifier_builds_two_cones_per_map(monkeypatch):
    # the cone of f along d_1, shared by the row tests and the E2 test,
    # and the cone of the map f induces on vertical cycles
    from bigraded import bicomplex, model, twisted

    built = []
    real = twisted.cone_twisted

    def spy(f, i):
        built.append(i)
        return real(f, i)

    for module in (twisted, bicomplex, model):
        monkeypatch.setattr(module, "cone_twisted", spy)
    maps = [f for f in _maps(47, 40) if isinstance(f, BicomplexMap)]
    for f in maps:
        classify_map(f, "ce")
    assert built == [1, 1] * len(maps)
