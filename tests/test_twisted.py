import random
from itertools import product
from math import comb

import pytest

from bigraded.rings import ZZ, QQ, GF, BadParameter
from bigraded.matrices import ExactMatrix
from bigraded.chain import (
    ChainComplex, ModuleClass, direct_sum, disc, homology, is_acyclic, tensor as chain_tensor,
)
from bigraded.bicomplex import (
    Bicomplex,
    bic_disc,
    directional_subquotient,
    h_boundary,
    v_boundary,
)
from bigraded import bicomplex, twisted
from bigraded.twisted import (
    MismatchAt,
    TwistedComplex,
    TorsionQuotient,
    TwistedMap,
    alternative_basis_change,
    alternative_disc_words,
    boundary_inclusion,
    boundary_words,
    cokernel_twisted,
    compare_to_simplex_cochain,
    complex_like,
    direct_sum_twisted,
    disc_words,
    embed,
    line,
    morphism_space_basis,
    normal_form,
    quotient_to_bicomplex,
    tensor_twisted,
    tot_twisted,
    tot_twisted_map,
    truncated_boundary,
    twisted_boundary,
    twisted_disc,
    validate_twisted,
    vertical_homology_twisted,
    word_to_simplex,
)
from bigraded.linalg import is_unimodular, rank
from bigraded.randgen import random_bicomplex, random_twisted
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


def _rewrite(word):
    """The rewriting recursion the closed formula of normal_form replaced:
    push the leftmost zero not in the last position right by one step via
    d_0 d_m = -sum_{a+b=m} d_a d_b (a >= 1); adjacent zeros kill the word."""
    k = next((k for k, i in enumerate(word[:-1]) if i == 0), None)
    if k is None:
        return {word: 1}
    m, out = word[k + 1], {}
    for a in range(1, m + 1):
        for w, c in _rewrite(word[:k] + (a, m - a) + word[k + 2:]).items():
            out[w] = out.get(w, 0) - c
            if out[w] == 0:
                del out[w]
    return out


def test_normal_form_matches_the_rewriting_oracle(monkeypatch):
    # every word the cells and the alternative basis change rewrite
    seen = set()

    def spy(word):
        seen.add(word)
        return normal_form(word)

    monkeypatch.setattr(twisted, "normal_form", spy)
    for p in range(10):
        twisted_disc(p, 0, GF(2))
        twisted_boundary(p, 0, GF(2))
        alternative_basis_change(p, 0, GF(2))
        for s in range(p + 1):
            truncated_boundary(p, 0, s, GF(2))
    assert len(seen) > 2000
    for word in seen:
        assert normal_form(word) == _rewrite(word), word


def test_normal_form_and_compositions_do_not_recurse(monkeypatch):
    calls = []
    for name in ("normal_form", "_compositions"):
        def spy(*args, f=getattr(twisted, name)):
            calls.append(args)
            return f(*args)
        monkeypatch.setattr(twisted, name, spy)
    assert twisted.normal_form((0, 3, 2, 4)) == _rewrite((0, 3, 2, 4))
    assert twisted._compositions(6, 3)
    assert calls == [((0, 3, 2, 4),), (6, 3)]


@pytest.mark.parametrize("word", [(1, 0, 2), (0, 0, 1), (0, 2, 0, 0), (-1,), (1, -2)])
def test_normal_form_refuses_a_word_outside_the_basis(word):
    with pytest.raises(BadParameter):
        normal_form(word)


def test_compositions_match_brute_force():
    for s in range(10):
        for n in range(-1, s + 3):
            # no part of a length-n composition of s exceeds s - n + 1
            parts = range(1, s - n + 2)
            brute = sorted(c for c in product(parts, repeat=n) if sum(c) == s) if n >= 0 else []
            assert twisted._compositions(s, n) == brute, (s, n)


def test_quotients_take_spanning_relations_without_image_basis(monkeypatch):
    def refused(m):
        raise AssertionError("image_basis called")

    monkeypatch.setattr(bicomplex, "image_basis", refused)
    monkeypatch.setattr(twisted, "image_basis", refused)
    rng = random.Random(5)
    for ring in (GF(3), QQ):
        for _ in range(10):
            x = random_bicomplex(rng, ring)
            for direction, own in (("v", 0), ("h", 1)):
                h = directional_subquotient(x, direction, "H")
                d = x.ds.get(own, {})
                for p, q in x.bidegrees():
                    d_out, d_in = d.get((p, q)), d.get((p + own, q - own + 1))
                    cycles = x.rank(p, q) - (0 if d_out is None else rank(d_out))
                    assert h.rank(p, q) == cycles - (0 if d_in is None else rank(d_in))
    for p in (0, 1, 2, 3):
        for ring in (ZZ, GF(3)):
            ck, _ = cokernel_twisted(boundary_inclusion(p, 0, ring))
            # over Z the quotient basis need not be the word basis
            assert ck.ranks == twisted_boundary(p, 1, ring).ranks
            assert ring == ZZ or ck == twisted_boundary(p, 1, ring)


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


def test_simplicial_identification_catches_a_flipped_sign(monkeypatch):
    """One coboundary entry with its sign flipped breaks the identity
    P_{t+1} d_0 = (-1)^t delta_t P_t, absolute and relative alike."""
    from bigraded import chain

    build = chain._cochain

    def flipped(n, ring, front):
        c = build(n, ring, front)
        deg = max(c.d)  # the coboundary out of the lowest cochain degree
        rows = [dict(r) for r in c.d[deg].sparse_rows]
        i = next(i for i, r in enumerate(rows) if r)
        j = min(rows[i])
        rows[i][j] = ring.neg(rows[i][j])
        d = dict(c.d)
        d[deg] = ExactMatrix(ring, c.d[deg].rows, c.d[deg].cols, rows)
        return ChainComplex._of(ring, c.ranks, {0: {(0, n): m for n, m in d.items()}})

    compare_to_simplex_cochain(5, 0, None, 1)
    compare_to_simplex_cochain(5, 0, 2, 1)
    monkeypatch.setattr(chain, "_cochain", flipped)
    for s in (None, 2):
        with pytest.raises(MismatchAt) as err:
            compare_to_simplex_cochain(5, 0, s, 1)
        assert err.value.bidegree[0] == 1 and err.value.element is not None


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
    e = embed(b)
    assert e is b
    assert Bicomplex(QQ, e.ranks, e.ds[1], e.ds[0]) == b
    x = twisted_disc(2, 0, QQ)  # has d_2
    with pytest.raises(BadParameter):
        complex_like((b,), QQ, x.ranks, x.ds)


def test_line_columns_and_rows():
    d = twisted_disc(3, 0, QQ)
    col = line(d, 0, 1)
    assert dict(col.ranks) == {(0, q): r for (p, q), r in d.ranks.items() if p == 1}
    assert col.d == {q: m for (p, q), m in d.ds[0].items() if p == 1}
    b = bic_disc(2, 1, 1, QQ)
    row = line(b, 1, 0)
    assert dict(row.ranks) == {(0, 1): 1, (0, 2): 1}
    assert row.d == {2: b.ds[1][(2, 0)]}
    with pytest.raises(BadParameter):
        line(d, 2, 0)


def test_tot_twisted_map_identity():
    d = twisted_disc(2, 0, QQ)
    tm = tot_twisted_map(TwistedMap.identity(d))
    assert all(m == ExactMatrix.identity(QQ, m.rows) for m in tm.f.values())


def test_vertical_homology():
    for p in (1, 2, 3):
        vh = vertical_homology_twisted(twisted_boundary(p, 0, QQ))
        assert dict(vh.ranks) == dict(v_boundary(p, 0, 1, QQ).ranks)
        assert validate_twisted(vh) == []
        assert max(vh.indices(), default=0) < 2
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


def test_quotient_over_z_is_the_lattice_closure():
    # Q is flat over Z, so a free quotient over Z has the ranks of the
    # quotient over Q; a closure that keeps only the images that raise
    # the rank (a field notion) misses lattice generators, and raised
    # TorsionQuotient on the seeds below and on 44 complexes in all
    torsion, free = [], []
    for s in range(300):
        x = random_twisted(random.Random(s), ZZ)
        if not any(i >= 2 for i in x.ds):
            continue
        try:
            b = quotient_to_bicomplex(x)
        except TorsionQuotient:
            torsion.append(s)
            continue
        free.append(s)
        assert b.ranks == quotient_to_bicomplex(x.to_ring(QQ)).ranks, s
    assert len(torsion) + len(free) == 276
    assert len(torsion) == 37
    assert {15, 51, 77, 103, 155, 161, 225} <= set(free)


@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=str)
def test_quotient_of_a_twisted_cell_is_the_bicomplex_cell(ring):
    # the quotient is left adjoint to the inclusion of bicomplexes, so it
    # sends the free twisted cells to the free bicomplex cells
    for p in range(1, 8):
        cell = quotient_to_bicomplex(twisted_disc(p, 0, ring))
        assert cell.ranks == bic_disc(p, 0, 1, ring).ranks
        boundary = quotient_to_bicomplex(twisted_boundary(p, 0, ring))
        assert boundary.ranks == v_boundary(p, 0, 1, ring).ranks


def test_morphism_space_dimensions():
    # strict maps out of the cell at (p, q) correspond to elements of
    # the target at (p, q); out of the boundary, to vertical cycles
    x = twisted_disc(2, 0, QQ)
    assert morphism_space_basis(twisted_disc(2, 0, QQ), x).cols == x.rank(2, 0)
    # d_0 out of (2, -1) is absent, so all of x there is vertical cycles
    assert (2, -1) not in x.ds[0]
    assert morphism_space_basis(twisted_boundary(2, 0, QQ), x).cols == x.rank(2, -1)


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
    by, by2 = Bicomplex(ZZ, ranks, {}, y.ds[0]), Bicomplex(ZZ, ranks, {}, {})
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
    return TwistedComplex._of(ring, x.ranks, ds)


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
    over_z = TwistedComplex._of(ZZ, ranks, maps(ZZ))
    assert validate_twisted(over_z) == [
        "d_0^2 != 0 at (0,0)", "d_0 and d_1 do not anticommute at (2,0)",
    ]
    f5 = GF(5)
    x = TwistedComplex(f5, ranks, maps(f5))
    assert validate_twisted(x) == []
    assert docio.parse(docio.serialize(x)) == x


def test_direct_sum_refuses_summands_over_different_rings():
    with pytest.raises(BadParameter, match="different rings"):
        direct_sum_twisted([twisted_disc(1, 0, ZZ), twisted_disc(1, 0, QQ)])
    with pytest.raises(BadParameter, match="different rings"):
        direct_sum([disc(1, 1, ZZ), disc(1, 1, QQ)])
