import random

import pytest

from bigraded.rings import ZZ, QQ, GF, BadParameter
from bigraded.matrices import ExactMatrix
from bigraded.chain import (
    ChainComplex,
    disc as chain_disc,
    homology,
    is_acyclic,
    sphere as chain_sphere,
    tensor as chain_tensor,
)
from bigraded.bicomplex import (
    Bicomplex,
    BicomplexMap,
    bic_disc,
    bic_sphere,
    c_row,
    directional_subquotient,
    e2,
    e2_iso,
    ev0,
    h_boundary,
    include_chain,
    koszul_swap,
    subquotient_map,
    v_boundary,
    z_row,
)
from bigraded.docio import serialize, to_document
from bigraded.linalg import is_unimodular, rank
from bigraded.model import (
    GeneratorRef,
    LiftingProblem,
    generator_map,
    pushout,
    solve_lift,
)
from bigraded.randgen import random_bicomplex, random_bicomplex_map, random_strict_map
from bigraded.twisted import (
    TwistedComplex,
    TwistedMap,
    boundary_inclusion,
    cokernel_twisted,
    cone_twisted,
    direct_sum_twisted,
    kernel_twisted,
    line,
    tensor_twisted,
    tensor_twisted_map,
    tot_twisted,
    tot_twisted_map,
    twisted_boundary,
    twisted_disc,
    validate_twisted,
)


def I(ring=ZZ, n=1):
    return ExactMatrix.identity(ring, n)


def test_generators_are_valid_and_acyclic():
    for ring in (ZZ, QQ, GF(2)):
        for p in (1, 2, 3):
            assert is_acyclic(tot_twisted(bic_disc(p, 0, 1, ring)))
            assert is_acyclic(tot_twisted(h_boundary(p, 0, 1, ring)))
            assert is_acyclic(tot_twisted(v_boundary(p, 0, 1, ring)))


def test_sphere_tot():
    assert tot_twisted(bic_sphere(2, 3, 1)) == chain_sphere(5, 1)
    assert homology(tot_twisted(bic_sphere(0, -2, 2, QQ))) != {}


def test_row_builders():
    for p in (1, 2, 3):
        assert z_row(-1, chain_disc(p, 1)) == v_boundary(p, 0, 1)
        assert c_row(0, chain_disc(p, 1)).ranks == bic_disc(p, 0, 1).ranks
        assert c_row(0, chain_sphere(p - 1, 1)).ranks == h_boundary(p, 0, 1).ranks


def test_include_chain_round_trip():
    c = ChainComplex(ZZ, {0: 2, 1: 1}, {1: ExactMatrix.from_rows(ZZ, [[2], [0]])})
    assert tot_twisted(include_chain(c)) == c
    assert ev0(include_chain(c)) == c


def test_invalid_bicomplex_messages():
    one = I()
    bad = validate_twisted(Bicomplex._of(
        ZZ, {(0, 0): 1, (1, 0): 1, (0, -1): 1, (1, -1): 1},
        {1: {(1, 0): one, (1, -1): one}, 0: {(0, 0): one, (1, 0): one}},
    ))
    assert any("anticommute" in msg for msg in bad)


def test_kernel_cokernel():
    v = v_boundary(2, 0, 1)
    d = bic_disc(2, 0, 1)
    incl = BicomplexMap(v, d, {pq: I() for pq in v.ranks})
    ck, proj = cokernel_twisted(incl)
    assert ck.ranks == v_boundary(2, 1, 1).ranks
    k, _ = kernel_twisted(BicomplexMap.identity(d))
    assert k.is_zero


def test_cokernel_of_sphere_in_h_boundary():
    hb = h_boundary(1, 0, 1)
    sp = bic_sphere(0, -1, 1)
    ck, _ = cokernel_twisted(BicomplexMap(sp, hb, {(0, -1): I()}))
    assert ck == bic_sphere(0, 0, 1)


def test_directional_subquotients():
    assert directional_subquotient(bic_disc(2, 0, 1), "v", "H").is_zero
    zv = directional_subquotient(v_boundary(2, 0, 1), "v", "Z")
    assert zv.ranks == v_boundary(2, 0, 1).ranks
    bv = directional_subquotient(bic_disc(2, 0, 1), "v", "B")
    assert bv.ranks == v_boundary(2, 0, 1).ranks


def test_subquotient_map_identity_and_zero():
    d = bic_disc(2, 0, 1, QQ)
    s = bic_sphere(1, 1, 1, QQ)
    m = subquotient_map(BicomplexMap.identity(s), "v", "H")
    assert m.source.ranks == s.ranks
    assert all(mm == I(QQ) for mm in m.f.values())
    z = subquotient_map(BicomplexMap.zero(s, s), "h", "Z")
    assert not z.f


def test_e2_fixtures():
    assert e2(bic_sphere(2, 1, 1, QQ)) == {(2, 1): 1}
    assert e2(bic_disc(2, 1, 1, QQ)) == {}
    assert e2(h_boundary(1, 0, 1, GF(2))) == {}


def test_line_quasi_iso():
    # f is a quasi-isomorphism on column p (row q) exactly when column p
    # of its cone along d_0 (row q of its cone along d_1) is acyclic
    def line_quasi_iso(f, i, n):
        return is_acyclic(line(cone_twisted(f, i), i, n))

    d = bic_disc(2, 0, 1, QQ)
    idm = BicomplexMap.identity(d)
    assert line_quasi_iso(idm, 0, 2)
    assert line_quasi_iso(idm, 1, 0)
    z = Bicomplex(QQ, {}, {}, {})
    assert line_quasi_iso(BicomplexMap.zero(d, z), 0, 2)
    assert not line_quasi_iso(BicomplexMap.zero(bic_sphere(0, 0, 1, QQ), z), 0, 0)
    assert not line_quasi_iso(BicomplexMap.zero(bic_sphere(0, 0, 1, QQ), z), 1, 0)


def test_tensor_rank_identities():
    def iso_ranks(a, b):
        return dict(a.ranks) == dict(b.ranks)

    for (p, q), (s, t) in [((1, 0), (1, 0)), ((2, 0), (1, 2)), ((2, -1), (3, 2))]:
        lhs = tensor_twisted(v_boundary(p, q, 1, QQ), v_boundary(s, t, 1, QQ))
        rhs = direct_sum_twisted([v_boundary(p + s, q + t - 1, 1, QQ),
                                  v_boundary(p + s - 1, q + t - 1, 1, QQ)])
        assert iso_ranks(lhs, rhs)
    assert tensor_twisted(bic_sphere(0, 1, 1), bic_sphere(0, 2, 1)) == bic_sphere(0, 3, 1)
    assert iso_ranks(tensor_twisted(v_boundary(2, 0, 1, QQ), h_boundary(1, 3, 1, QQ)),
                     bic_disc(2, 2, 1, QQ))
    assert iso_ranks(tensor_twisted(bic_sphere(0, 1, 1, QQ), h_boundary(1, 2, 1, QQ)),
                     h_boundary(1, 3, 1, QQ))
    assert iso_ranks(tensor_twisted(v_boundary(2, 1, 1, QQ), bic_sphere(0, 3, 1, QQ)),
                     v_boundary(2, 4, 1, QQ))


def test_tot_monoidal_on_ranks():
    rng = random.Random(2)
    for _ in range(5):
        x = random_bicomplex(rng, QQ, p_range=(0, 2), q_range=(-1, 1))
        y = random_bicomplex(rng, QQ, p_range=(0, 1), q_range=(0, 1))
        lhs = tot_twisted(tensor_twisted(x, y))
        assert lhs.ranks == chain_tensor(tot_twisted(x), tot_twisted(y)).ranks


def test_koszul_swap_unimodular():
    for a, b in [(bic_disc(1, 0, 1), v_boundary(2, 1, 1)),
                 (h_boundary(2, 2, 1), bic_sphere(1, 1, 1))]:
        sw = koszul_swap(a, b)
        assert all(is_unimodular(m) for m in sw.f.values())


def test_koszul_swap_is_an_involution():
    rng = random.Random(3)
    for ring in (ZZ, GF(3)):
        for _ in range(4):
            x = random_bicomplex(rng, ring, p_range=(0, 2), q_range=(-1, 1))
            y = random_bicomplex(rng, ring, p_range=(0, 1), q_range=(-1, 1))
            back = koszul_swap(y, x).compose(koszul_swap(x, y))
            assert back.f == BicomplexMap.identity(tensor_twisted(x, y)).f


def test_tensor_map_functorial():
    rng = random.Random(5)
    x = random_bicomplex(rng, GF(3), p_range=(0, 1), q_range=(0, 1))
    y = random_bicomplex(rng, GF(3), p_range=(0, 1), q_range=(0, 1))
    f = random_strict_map(rng, x, y)
    g = BicomplexMap.identity(x)
    tensor_twisted_map(f, g)  # constructor validates commutation


def test_tot_map_of_identity():
    d = bic_disc(2, 1, 1)
    tm = tot_twisted_map(BicomplexMap.identity(d))
    assert tm.source == tot_twisted(d)
    assert all(m == ExactMatrix.identity(ZZ, m.rows) for m in tm.f.values())


def test_negative_column_rejected():
    with pytest.raises(BadParameter):
        Bicomplex(ZZ, {(-1, 0): 1}, {}, {})


def _carrier_results(x, y, inc):
    """Every operation under the carrier rule, applied to the objects x,
    y and the identity-block inclusion inc."""
    one_b = TwistedMap.identity(inc.target)
    return [
        ("tensor", tensor_twisted(x, y)),
        ("tensor map", tensor_twisted_map(inc, inc)),
        *zip(("kernel", "kernel inclusion"), kernel_twisted(inc)),
        *zip(("cokernel", "cokernel projection"), cokernel_twisted(inc)),
        ("direct sum", direct_sum_twisted([x, y])),
        *zip(("pushout", "pushout inclusion"),
             pushout(inc, TwistedMap.identity(inc.source))),
        ("lift", solve_lift(LiftingProblem(inc, one_b, inc, one_b))),
        ("compose", inc.compose(TwistedMap.identity(inc.source))),
        ("identity", TwistedMap.identity(x)),
        ("zero", TwistedMap.zero(x, y)),
        ("to_ring", x.to_ring(QQ if x.ring == ZZ else x.ring)),
        ("subquotient", directional_subquotient(x, "v", "H")),
        ("subquotient map", subquotient_map(inc, "v", "H")),
    ]


@pytest.mark.parametrize("ring", [ZZ, GF(3)])
def test_carrier_follows_inputs(ring):
    inc = generator_map(GeneratorRef("TotI_VBoundaryToDisc", 1, 0), ring)
    bic = _carrier_results(bic_disc(1, 0, 1, ring), v_boundary(2, 1, 1, ring), inc)
    for name, out in bic:
        assert type(out) in (Bicomplex, BicomplexMap), name
    # twisted_disc(0, 0) has only d_0 and stays a twisted complex
    disc = twisted_disc(0, 0, ring)
    assert disc.indices() == [0]
    twi = _carrier_results(disc, twisted_boundary(1, 0, ring),
                           boundary_inclusion(0, 0, ring))
    for name, out in twi + [("disc", disc)]:
        assert type(out) in (TwistedComplex, TwistedMap), name
        doc = to_document(out)
        assert doc.get("map_kind", doc["kind"]) == "twisted", name
    assert '"kind": "twisted"' in serialize(disc)


def test_e2_iso_matches_page_two_components():
    # reference: the map induced on H_h(H_v) is square and invertible
    # in every bidegree
    def reference(f):
        e2m = subquotient_map(subquotient_map(f, "v", "H"), "h", "H")
        keys = set(e2m.source.ranks) | set(e2m.target.ranks)
        comps = [e2m.component(*pq) for pq in keys]
        return all(m.rows == m.cols == rank(m) for m in comps)

    rng = random.Random(5)
    seen = set()
    for k in range(60):
        ring = (QQ, GF(2), GF(3))[k % 3]
        f = random_bicomplex_map(rng, ring, p_range=(0, 2), q_range=(-1, 1))
        assert e2_iso(f) == reference(f), k
        seen.add(e2_iso(f))
    assert seen == {True, False}
    assert e2_iso(BicomplexMap.identity(bic_disc(2, 0, 1, QQ)))
