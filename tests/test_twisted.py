import random
from math import comb

import pytest

from bigraded.rings import ZZ, QQ, GF, BadParameter
from bigraded.matrices import ExactMatrix
from bigraded.chain import ModuleClass, homology, is_acyclic, tensor as chain_tensor
from bigraded.bicomplex import (
    Bicomplex,
    bic_disc,
    directional_subquotient,
    h_boundary,
    v_boundary,
    validate,
)
from bigraded.twisted import (
    MismatchAt,
    TwistedComplex,
    TwistedMap,
    alternative_basis_change,
    alternative_disc_words,
    boundary_inclusion,
    boundary_words,
    cokernel_twisted,
    column_twisted,
    compare_to_simplex_cochain,
    disc_words,
    embed,
    hom_twisted,
    morphism_space_basis,
    normal_form,
    quotient_to_bicomplex,
    tensor_twisted,
    to_bicomplex,
    tot_twisted,
    tot_twisted_map,
    truncated_boundary,
    twisted_boundary,
    twisted_disc,
    validate_twisted,
    vertical_homology_twisted,
    word_to_simplex,
)
from bigraded.linalg import is_unimodular, kernel_basis
from bigraded.verify import (
    BOUNDARY_4_0_RANKS,
    DISC_4_0_RANKS,
    boundary_rank_formula,
    disc_rank_formula,
)


def test_normal_form_zero_pushing():
    assert normal_form((0, 2)) == {(2, 0): -1, (1, 1): -1}
    assert normal_form((0, 1)) == {(1, 0): -1}
    assert normal_form((0, 1, 0)) == {}
    assert normal_form((0, 2, 0)) == {(1, 1, 0): -1}
    # already-canonical words are fixed
    assert normal_form((2, 1, 0)) == {(2, 1, 0): 1}
    assert normal_form((3,)) == {(3,): 1}


def test_disc_ranks_match_reference_tables():
    assert dict(twisted_disc(4, 0).ranks) == DISC_4_0_RANKS
    assert dict(twisted_boundary(4, 0).ranks) == BOUNDARY_4_0_RANKS


def test_rank_binomial_formulas():
    for p in range(7):
        for q in (-1, 0, 2):
            assert dict(twisted_disc(p, q).ranks) == disc_rank_formula(p, q)
            assert dict(twisted_boundary(p, q).ranks) == boundary_rank_formula(p, q)


def test_word_counts():
    # weight-s words of length n: compositions of s into n positive parts
    ws = disc_words(5, 0)
    for (pp, qq), words in ws.items():
        s = 5 - pp
        for w in words:
            assert sum(w) == s
    bw = boundary_words(5, 0)
    n_all = sum(len(v) for v in bw.values())
    assert n_all == 1 + sum(comb(s - 1, n - 1)
                            for s in range(1, 6) for n in range(1, s + 1))


def test_structure_relations_validate():
    for p in range(6):
        assert validate_twisted(twisted_disc(p, 1)) == []
        assert validate_twisted(twisted_boundary(p, -2)) == []


def test_cells_acyclic():
    for p in range(5):
        for ring in (ZZ, QQ, GF(2)):
            assert is_acyclic(tot_twisted(twisted_disc(p, 0, ring)))
            if p >= 1:
                assert is_acyclic(tot_twisted(twisted_boundary(p, 0, ring)))
    # the column-zero boundary is a sphere
    assert homology(tot_twisted(twisted_boundary(0, 5))) == {4: ModuleClass(1)}


def test_boundary_inclusion_cokernel():
    for p in (0, 1, 2, 3):
        inc = boundary_inclusion(p, 0, QQ)
        ck, _ = cokernel_twisted(inc)
        assert ck == twisted_boundary(p, 1, QQ)


def test_truncated_boundary_interpolates():
    for p in (3, 4):
        for s in range(p, p + 2):
            assert dict(truncated_boundary(p, 0, s).ranks) == \
                dict(twisted_boundary(p, 0).ranks)
        assert dict(truncated_boundary(p, 0, 0).ranks) == {(p, -1): 1}


def test_simplicial_identification_absolute():
    for p in range(2, 7):
        for u in range(0, p - 1):
            bij = compare_to_simplex_cochain(p, 0, None, u)
            assert bij


def test_simplicial_identification_relative():
    for p in range(2, 7):
        for s in range(0, p + 1):
            for u in range(0, p - s - 1):
                compare_to_simplex_cochain(p, 2, s, u)


def test_simplicial_mismatch_guard():
    with pytest.raises(BadParameter):
        compare_to_simplex_cochain(2, 0, None, 1)  # column too close to p


def test_word_to_simplex_is_increasing():
    for w in [(3, 1, 2), (1, 1, 1), (4,)]:
        seq = word_to_simplex(w)
        assert list(seq) == sorted(set(seq))


def test_alternative_basis_unimodular():
    for p in range(5):
        for q in (-1, 0, 2):
            words = alternative_disc_words(p, q)
            change = alternative_basis_change(p, q, ZZ)
            disc = twisted_disc(p, q)
            for pq, m in change.items():
                assert m.rows == m.cols == disc.rank(*pq)
                assert is_unimodular(m)
                assert len(words[pq]) == disc.rank(*pq)


def test_embed_and_to_bicomplex_round_trip():
    b = bic_disc(2, 1, 1, QQ)
    assert to_bicomplex(embed(b)) == b
    with pytest.raises(BadParameter):
        to_bicomplex(twisted_disc(2, 0, QQ))  # has d_2


def test_column_twisted():
    d = twisted_disc(3, 0, QQ)
    col = column_twisted(d, 1)
    assert dict(col.ranks) == {q: r for (p, q), r in d.ranks.items() if p == 1}


def test_tot_twisted_map_identity():
    d = twisted_disc(2, 0, QQ)
    tm = tot_twisted_map(TwistedMap.identity(d))
    assert all(m == ExactMatrix.identity(QQ, m.rows) for m in tm.f.values())


def test_vertical_homology():
    for p in (1, 2, 3):
        vh = vertical_homology_twisted(twisted_boundary(p, 0, QQ))
        assert dict(vh.ranks) == dict(v_boundary(p, 0, 1, QQ).ranks)
        assert validate(vh) == []
        assert vertical_homology_twisted(twisted_disc(p, 0, QQ)).is_zero
    for obj in (bic_disc(2, 1, 1, QQ), v_boundary(2, 0, 1, QQ),
                h_boundary(1, 0, 1, QQ)):
        a = vertical_homology_twisted(embed(obj))
        b = directional_subquotient(obj, "v", "H")
        assert a.ranks == b.ranks


def test_quotient_to_bicomplex():
    d2ex = TwistedComplex(QQ, {(2, 0): 1, (0, 1): 1},
                          {2: {(2, 0): ExactMatrix.identity(QQ, 1)}})
    qb = quotient_to_bicomplex(d2ex)
    assert dict(qb.ranks) == {(2, 0): 1}
    emb = embed(bic_disc(2, 0, 1, QQ))
    assert quotient_to_bicomplex(emb).ranks == bic_disc(2, 0, 1, QQ).ranks


def test_hom_twisted_unit_and_zero():
    from bigraded.chain import sphere as chain_sphere

    unit = embed(chain_sphere(0, 1, QQ))
    y = embed(bic_disc(2, 1, 1, QQ))
    assert hom_twisted(unit, y) == y
    assert hom_twisted(y, TwistedComplex(QQ, {}, {})).is_zero


def test_hom_twisted_refuses_higher_structure_maps():
    # every ordered pair of cells either has a Hom or is refused up front
    # with BadParameter naming the index, never a failure inside the build
    returned = refused = 0
    for ring in (QQ, GF(2)):
        cells = [make(p, 0, ring) for make in (twisted_disc, twisted_boundary)
                 for p in range(4)]
        for x in cells:
            for y in cells:
                higher = [i for i in x.indices() + y.indices() if i >= 2]
                if higher:
                    with pytest.raises(BadParameter, match=r"d_\d+ != 0"):
                        hom_twisted(x, y)
                    refused += 1
                else:
                    assert not any(i >= 2 for i in hom_twisted(x, y).indices())
                    returned += 1
    assert (returned, refused) == (32, 96)


def test_morphism_space_dimensions():
    # strict maps out of the cell at (p, q) correspond to elements of
    # the target at (p, q); out of the boundary, to vertical cycles
    x = twisted_disc(2, 0, QQ)
    assert morphism_space_basis(twisted_disc(2, 0, QQ), x).cols == x.rank(2, 0)
    assert morphism_space_basis(twisted_boundary(2, 0, QQ), x).cols == \
        kernel_basis(x.d(0, 2, -1)).cols


def test_hom_tensor_adjunction_dimensions():
    from bigraded.randgen import random_bicomplex

    rng = random.Random(1)
    for _ in range(10):
        x = embed(random_bicomplex(rng, GF(2), p_range=(0, 1), q_range=(0, 1)))
        y = embed(random_bicomplex(rng, GF(2), p_range=(0, 1), q_range=(0, 1)))
        z = embed(random_bicomplex(rng, GF(2), p_range=(0, 1), q_range=(0, 1)))
        lhs = morphism_space_basis(tensor_twisted(x, y), z).cols
        rhs = morphism_space_basis(x, hom_twisted(y, z)).cols
        assert lhs == rhs


def test_tensor_twisted_matches_bicomplex_tensor():
    x, y = bic_disc(1, 0, 1), v_boundary(2, 1, 1)
    assert embed(tensor_twisted(x, y)) == tensor_twisted(embed(x), embed(y))


def test_tot_monoidal_with_higher_structure():
    d2ex = TwistedComplex(QQ, {(2, 0): 1, (0, 1): 1},
                          {2: {(2, 0): ExactMatrix.identity(QQ, 1)}})
    for x, y in [(d2ex, d2ex), (twisted_disc(2, 0, QQ), d2ex)]:
        lhs = tot_twisted(tensor_twisted(x, y))
        rhs = chain_tensor(tot_twisted(x), tot_twisted(y))
        assert lhs.ranks == rhs.ranks


def test_invalid_twisted_rejected():
    one = ExactMatrix.identity(ZZ, 1)
    with pytest.raises(BadParameter):
        # d_1 with no matching d_0 relation partner: d0 d1 + d1 d0 != 0
        TwistedComplex(
            ZZ,
            {(1, 0): 1, (0, 0): 1, (0, -1): 1, (1, -1): 1},
            {0: {(0, 0): one, (1, 0): one}, 1: {(1, 0): one}},
        )


def test_compose_refuses_a_map_into_another_object():
    # Y and Y2 have equal ranks; only Y has d_0, so the identity
    # components of id_Y after id_Y2 would not commute with it at (0,0)
    ranks = {(0, 0): 1, (0, -1): 1}
    one = ExactMatrix.identity(ZZ, 1)
    y = TwistedComplex(ZZ, ranks, {0: {(0, 0): one}})
    y2 = TwistedComplex(ZZ, ranks, {})
    with pytest.raises(BadParameter, match="composition"):
        TwistedMap.identity(y).compose(TwistedMap.identity(y2))
    by, by2 = to_bicomplex(y), to_bicomplex(y2)
    with pytest.raises(BadParameter, match="composition"):
        TwistedMap.identity(by).compose(TwistedMap.identity(by2))
    # an equal copy of the source is accepted
    same = TwistedComplex(ZZ, ranks, {0: {(0, 0): one}})
    assert TwistedMap.identity(y).compose(TwistedMap.identity(same)).f == \
        TwistedMap.identity(y).f


# --- relation checking ----------------------------------------------------------

def _disc_with_d1_entry_changed(ring, key, i, j):
    """twisted_disc(4, 0) with 1 added to entry (i, j) of d_1 at key."""
    x = twisted_disc(4, 0, ring)
    rows = [list(r) for r in x.ds[1][key].entries]
    rows[i][j] = ring.add(rows[i][j], 1)
    ds = {n: dict(fam) for n, fam in x.ds.items()}
    ds[1][key] = ExactMatrix.from_rows(ring, rows)
    return TwistedComplex(ring, x.ranks, ds, check=False)


# The failure lists of validate_twisted and of parsing the serialized
# cell, recorded before matrices were stored as sparse rows.
_CORRUPTED = [
    ((2, -1), 0, 0,
     ["d_0 and d_1 do not anticommute at (2,0)",
      "relation n=2 fails at (3,-1)", "relation n=2 fails at (2,-1)"],
     ["d_0 and d_1 do not anticommute at (2,0)",
      "relation n=2 fails at (2,-1)", "relation n=2 fails at (3,-1)"]),
    ((1, 1), 2, 1,
     ["d_0 and d_1 do not anticommute at (1,2)",
      "d_0 and d_1 do not anticommute at (1,1)", "relation n=3 fails at (3,0)"],
     ["d_0 and d_1 do not anticommute at (1,1)",
      "d_0 and d_1 do not anticommute at (1,2)", "relation n=3 fails at (3,0)"]),
    ((1, 0), 3, 2,
     ["d_0 and d_1 do not anticommute at (1,1)",
      "d_0 and d_1 do not anticommute at (1,0)", "relation n=3 fails at (3,-1)"],
     ["d_0 and d_1 do not anticommute at (1,0)",
      "d_0 and d_1 do not anticommute at (1,1)", "relation n=3 fails at (3,-1)"]),
]


@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=str)
@pytest.mark.parametrize("key, i, j, direct, parsed", _CORRUPTED)
def test_relation_failures_are_pinned(ring, key, i, j, direct, parsed):
    from bigraded import docio

    y = _disc_with_d1_entry_changed(ring, key, i, j)
    assert validate_twisted(y) == direct
    with pytest.raises(BadParameter):
        TwistedComplex(ring, y.ranks, y.ds)
    with pytest.raises(docio.ValidationError) as err:
        docio.parse(docio.serialize(y))
    assert err.value.violations == parsed


def test_relations_zero_mod_p_validate():
    from bigraded import docio

    def maps(ring):
        m = lambda rows: ExactMatrix.from_rows(ring, rows)
        # d_0 d_0 = 2 + 3 at (0, 0) and d_0 d_1 + d_1 d_0 = 2 + 3 at (2, 0):
        # both 5, so zero over GF(5) only
        return {
            0: {(0, 0): m([[1], [1]]), (0, -1): m([[2, 3]]),
                (2, 0): m([[1]]), (1, 0): m([[2]])},
            1: {(2, 0): m([[1]]), (2, -1): m([[3]])},
        }

    ranks = {(0, 0): 1, (0, -1): 2, (0, -2): 1,
             (2, 0): 1, (1, 0): 1, (2, -1): 1, (1, -1): 1}
    over_z = TwistedComplex(ZZ, ranks, maps(ZZ), check=False)
    assert validate_twisted(over_z) == [
        "d_0^2 != 0 at (0,0)", "d_0 and d_1 do not anticommute at (2,0)",
    ]
    f5 = GF(5)
    x = TwistedComplex(f5, ranks, maps(f5))
    assert validate_twisted(x) == []
    assert docio.parse(docio.serialize(x)) == x

