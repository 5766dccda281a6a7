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
    cokernel,
    directional_subquotient,
    direct_sum,
    e2,
    ev0,
    h_boundary,
    include_chain,
    kernel,
    koszul_swap,
    line_quasi_iso,
    standard_bicomplex,
    subquotient_map,
    tensor,
    tensor_map,
    tot,
    tot_map,
    v_boundary,
    validate,
    z_row,
)
from bigraded.docio import serialize, to_document
from bigraded.linalg import is_unimodular
from bigraded.model import (
    GeneratorRef,
    LiftingProblem,
    generator_map,
    pushout,
    solve_lift,
)
from bigraded.randgen import random_bicomplex, random_strict_map
from bigraded.twisted import (
    TwistedComplex,
    TwistedMap,
    boundary_inclusion,
    cokernel_twisted,
    direct_sum_twisted,
    hom_twisted,
    kernel_twisted,
    tensor_twisted,
    tensor_twisted_map,
    twisted_boundary,
    twisted_disc,
)


def I(ring=ZZ, n=1):
    return ExactMatrix.identity(ring, n)


def test_generators_are_valid_and_acyclic():
    for ring in (ZZ, QQ, GF(2)):
        for p in (1, 2, 3):
            assert is_acyclic(tot(bic_disc(p, 0, 1, ring)))
            assert is_acyclic(tot(h_boundary(p, 0, 1, ring)))
            assert is_acyclic(tot(v_boundary(p, 0, 1, ring)))


def test_sphere_tot():
    assert tot(bic_sphere(2, 3, 1)) == chain_sphere(5, 1)
    assert homology(tot(bic_sphere(0, -2, 2, QQ))) != {}


def test_row_builders():
    for p in (1, 2, 3):
        assert z_row(-1, chain_disc(p, 1)) == v_boundary(p, 0, 1)
        assert c_row(0, chain_disc(p, 1)).ranks == bic_disc(p, 0, 1).ranks
        assert c_row(0, chain_sphere(p - 1, 1)).ranks == h_boundary(p, 0, 1).ranks


def test_include_chain_round_trip():
    c = ChainComplex(ZZ, {0: 2, 1: 1}, {1: ExactMatrix.from_rows(ZZ, [[2], [0]])})
    assert tot(include_chain(c)) == c
    assert ev0(include_chain(c)) == c


def test_invalid_bicomplex_messages():
    one = I()
    bad = validate(Bicomplex(
        ZZ, {(0, 0): 1, (1, 0): 1, (0, -1): 1, (1, -1): 1},
        {(1, 0): one, (1, -1): one}, {(0, 0): one, (1, 0): one},
        check=False,
    ))
    assert any("anticommute" in msg for msg in bad)


def test_kernel_cokernel():
    v = v_boundary(2, 0, 1)
    d = bic_disc(2, 0, 1)
    incl = BicomplexMap(v, d, {pq: I() for pq in v.ranks})
    ck, proj = cokernel(incl)
    assert ck.ranks == v_boundary(2, 1, 1).ranks
    k, _ = kernel(BicomplexMap.identity(d))
    assert k.is_zero


def test_cokernel_of_sphere_in_h_boundary():
    hb = h_boundary(1, 0, 1)
    sp = bic_sphere(0, -1, 1)
    ck, _ = cokernel(BicomplexMap(sp, hb, {(0, -1): I()}))
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
    d = bic_disc(2, 0, 1, QQ)
    idm = BicomplexMap.identity(d)
    assert line_quasi_iso(idm, "v", 2)
    assert line_quasi_iso(idm, "h", 0)
    z = Bicomplex(QQ, {}, {}, {})
    assert line_quasi_iso(BicomplexMap.zero(d, z), "v", 2)
    assert not line_quasi_iso(BicomplexMap.zero(bic_sphere(0, 0, 1, QQ), z), "v", 0)


def test_tensor_rank_identities():
    def iso_ranks(a, b):
        return dict(a.ranks) == dict(b.ranks)

    for (p, q), (s, t) in [((1, 0), (1, 0)), ((2, 0), (1, 2)), ((2, -1), (3, 2))]:
        lhs = tensor(v_boundary(p, q, 1, QQ), v_boundary(s, t, 1, QQ))
        rhs = direct_sum([v_boundary(p + s, q + t - 1, 1, QQ),
                          v_boundary(p + s - 1, q + t - 1, 1, QQ)])
        assert iso_ranks(lhs, rhs)
    assert tensor(bic_sphere(0, 1, 1), bic_sphere(0, 2, 1)) == bic_sphere(0, 3, 1)
    assert iso_ranks(tensor(v_boundary(2, 0, 1, QQ), h_boundary(1, 3, 1, QQ)),
                     bic_disc(2, 2, 1, QQ))
    assert iso_ranks(tensor(bic_sphere(0, 1, 1, QQ), h_boundary(1, 2, 1, QQ)),
                     h_boundary(1, 3, 1, QQ))
    assert iso_ranks(tensor(v_boundary(2, 1, 1, QQ), bic_sphere(0, 3, 1, QQ)),
                     v_boundary(2, 4, 1, QQ))


def test_tot_monoidal_on_ranks():
    rng = random.Random(2)
    for _ in range(5):
        x = random_bicomplex(rng, QQ, p_range=(0, 2), q_range=(-1, 1))
        y = random_bicomplex(rng, QQ, p_range=(0, 1), q_range=(0, 1))
        assert tot(tensor(x, y)).ranks == chain_tensor(tot(x), tot(y)).ranks


def test_koszul_swap_unimodular():
    for a, b in [(bic_disc(1, 0, 1), v_boundary(2, 1, 1)),
                 (h_boundary(2, 2, 1), bic_sphere(1, 1, 1))]:
        sw = koszul_swap(a, b)
        assert all(is_unimodular(m) for m in sw.f.values())


def test_tensor_map_functorial():
    rng = random.Random(5)
    x = random_bicomplex(rng, GF(3), p_range=(0, 1), q_range=(0, 1))
    y = random_bicomplex(rng, GF(3), p_range=(0, 1), q_range=(0, 1))
    f = random_strict_map(rng, x, y)
    g = BicomplexMap.identity(x)
    tensor_map(f, g)  # constructor validates commutation


def test_tot_map_of_identity():
    d = bic_disc(2, 1, 1)
    tm = tot_map(BicomplexMap.identity(d))
    assert tm.source == tot(d)
    assert all(m == ExactMatrix.identity(ZZ, m.rows) for m in tm.f.values())


def test_standard_bicomplex_dispatch():
    assert standard_bicomplex("disc", 2, 0, 1, ring=QQ) == bic_disc(2, 0, 1, QQ)
    with pytest.raises(BadParameter):
        standard_bicomplex("moebius", 1, 1, 1, ring=QQ)


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
        ("hom", hom_twisted(x, y)),
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
