import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bigraded.rings import ZZ, QQ, GF, BadParameter
from bigraded.matrices import ExactMatrix
from bigraded.linalg import coordinates_in, kernel_basis, make_solver, rank
from bigraded.chain import ChainComplex, homology, is_acyclic, is_quasi_iso
from bigraded.bicomplex import (
    Bicomplex,
    BicomplexMap,
    bic_disc,
    bic_sphere,
    include_chain,
    v_boundary,
)
from bigraded.twisted import (
    TwistedMap,
    cone_twisted,
    embed_map,
    hom_layout,
    morphism_space_basis,
    morphism_to_vector,
    post_operator,
    pre_operator,
    tot_twisted,
    tot_twisted_map,
    twisted_disc,
)
from bigraded.docio import parse
from bigraded.randgen import (
    random_bicomplex_map,
    random_strict_map,
    random_twisted,
    random_twisted_map,
)
from bigraded.model import (
    GENERATING_FAMILIES,
    STRUCTURES,
    BadSquare,
    GeneratorRef,
    LiftingProblem,
    NoLift,
    ce_resolution,
    classify_map,
    cofibrancy_report,
    generator_map,
    has_rlp,
    pushout,
    relevant_generators,
    rlp_report,
    solve_lift,
    verify_generator_identities,
)


def I(ring=ZZ, n=1):
    return ExactMatrix.identity(ring, n)


def family_from_vector(src, tgt, vec) -> TwistedMap:
    """The family of degree (0, 0) from src to tgt flattened row-major
    in `vec`, in the order of hom_layout.  Built unchecked: a column of
    a basis of all families need not commute with the d_i."""
    comps, off = {}, 0
    for (s, t), n in hom_layout(src, tgt, 0, 0).items():
        rx = src.rank(s, t)
        comps[(s, t)] = ExactMatrix.from_rows(
            src.ring, [vec[k:k + rx] for k in range(off, off + n, rx)])
        off += n
    return TwistedMap._of(src, tgt, comps)


def morphism_matrix(src, tgt, basis, post, out_src, out_tgt) -> ExactMatrix:
    """Columns: flatten(post(m_j)) for the morphisms m_j: src -> tgt
    encoded by the columns of `basis`; post(m) must land in
    Mor(out_src, out_tgt).  Decodes, composes and flattens each column,
    independently of the composition operators of `twisted`."""
    nrows = sum(hom_layout(out_src, out_tgt, 0, 0).values())
    cols = [
        morphism_to_vector(post(family_from_vector(src, tgt, basis.col(j))))
        for j in range(basis.cols)
    ]
    return ExactMatrix.from_cols(src.ring, nrows, cols)


def oracle_has_rlp(g, gen) -> bool:
    """Whether g has the right lifting property against the inclusion
    `gen`, decided on whole Hom spaces: every commuting square (u, f) is
    (h∘i, g∘h) for a diagonal h.  Slow and independent of the generator
    data that `has_rlp` uses."""
    it = embed_map(gen)
    gt = embed_map(g)
    a, b = it.source, it.target
    x, y = gt.source, gt.target
    ring = x.ring
    u_basis = morphism_space_basis(a, x)
    f_basis = morphism_space_basis(b, y)
    if u_basis.cols + f_basis.cols == 0:
        return True
    # squares: pairs (u, f) with f∘i = g∘u, in morphism-basis coordinates
    pu = morphism_matrix(a, x, u_basis, lambda u: gt.compose(u), a, y)
    pf = morphism_matrix(b, y, f_basis, lambda f: f.compose(it), a, y)
    squares = kernel_basis(ExactMatrix.hstack(ring, [pu, -pf]))
    if squares.cols == 0:
        return True
    # image of a diagonal h: the square (h∘i, g∘h)
    h_basis = morphism_space_basis(b, x)
    top = morphism_matrix(b, x, h_basis, lambda h: h.compose(it), a, x)
    bot = morphism_matrix(b, x, h_basis, lambda h: gt.compose(h), b, y)
    psi = ExactMatrix.vstack(
        ring,
        [coordinates_in(u_basis, top), coordinates_in(f_basis, bot)],
        cols=h_basis.cols,
    )
    if ring.is_field:
        both = ExactMatrix.hstack(ring, [psi, squares])
        return rank(both) == rank(psi)
    solver = make_solver(psi)
    return all(
        solver.solve(squares.col(j)) is not None for j in range(squares.cols)
    )


def proj_disc_to_vboundary(p, q, ring=ZZ):
    """The quotient of the (p, q) cell by its own vertical boundary,
    landing on the vertical boundary one row up."""
    d = bic_disc(p, q, 1, ring)
    b = v_boundary(p, q + 1, 1, ring)
    return BicomplexMap(d, b, {pq: I(ring) for pq in b.ranks})


# --- generating sets -------------------------------------------------------

def test_all_generator_families_build():
    for (structure, which), fams in GENERATING_FAMILIES.items():
        for fam in fams:
            ref = GeneratorRef(fam, 2, 0)
            try:
                g = generator_map(ref, ZZ)
            except BadParameter:
                g = generator_map(GeneratorRef(fam, 1, 0), ZZ)
            assert g.source is not None and g.target is not None


def test_j_generators_are_weak_equivalences():
    # every trivial-cofibration generator has acyclic cofiber content:
    # source and target have the same total homology
    for fam_ref in [GeneratorRef("TotJ_ZeroToHBoundary", 0, 1),
                    GeneratorRef("TotI_VBoundaryToDisc", 2, 0),
                    GeneratorRef("TwJ_ZeroToDisc0", 0, 0),
                    GeneratorRef("TwI_BoundaryToDisc", 2, 0)]:
        g = generator_map(fam_ref, QQ)
        if isinstance(g, BicomplexMap):
            assert is_quasi_iso(tot_twisted_map(g))
        else:
            src = tot_twisted(g.source)
            tgt = tot_twisted(g.target)
            assert homology(src) == homology(tgt)


def test_relevant_generators_track_support():
    f = BicomplexMap.identity(bic_sphere(1, 1, 1))
    refs = relevant_generators(f, "tot", "I")
    assert refs
    assert all(0 <= r.p <= 2 for r in refs)
    zero = BicomplexMap.identity(Bicomplex(ZZ, {}, {}, {}))
    assert relevant_generators(zero, "ce", "J") == []


# --- lifting ----------------------------------------------------------------

def test_solve_lift_identity_square():
    i = generator_map(GeneratorRef("TotI_VBoundaryToDisc", 2, 0), ZZ)
    zero = Bicomplex(ZZ, {}, {}, {})
    g = BicomplexMap(i.target, zero, {})
    f = BicomplexMap(i.target, zero, {})
    h = solve_lift(LiftingProblem(i, g, i, f))
    assert h.source == i.target
    # h restricted along i is i itself
    for pq in i.source.ranks:
        assert h.component(*pq) @ i.component(*pq) == i.component(*pq)


def test_solve_lift_rejects_bad_square():
    i = generator_map(GeneratorRef("TotI_VBoundaryToDisc", 2, 0), ZZ)
    g = BicomplexMap.identity(i.target)
    u = BicomplexMap(i.source, i.target, {})  # zero top map
    with pytest.raises(BadSquare):
        # g*u = 0 but f*i = i != 0
        solve_lift(LiftingProblem(i, g, u, BicomplexMap.identity(i.target)))


def test_solve_lift_no_lift():
    # retract of the vertical boundary off its cell does not exist
    i = generator_map(GeneratorRef("TotI_VBoundaryToDisc", 2, 0), ZZ)
    u = BicomplexMap.identity(i.source)
    with pytest.raises(NoLift):
        solve_lift(LiftingProblem(i, i, u, BicomplexMap.identity(i.target)))


def test_has_rlp_hand_verified_negative():
    # the quotient cell -> vertical boundary does not lift against the
    # boundary inclusion in the same bidegree: the candidate diagonal is
    # a scalar forced two different ways
    g = proj_disc_to_vboundary(2, 0, QQ)
    ref = GeneratorRef("TotI_VBoundaryToDisc", 2, 0)
    assert not has_rlp(g, ref)
    assert not oracle_has_rlp(g, generator_map(ref, QQ))


def test_has_rlp_rejects_bad_refs():
    g = proj_disc_to_vboundary(2, 0, QQ)
    with pytest.raises(BadParameter):
        has_rlp(g, GeneratorRef("NoSuchFamily", 1, 0))
    with pytest.raises(BadParameter):
        has_rlp(g, GeneratorRef("CEI_HBoundaryToDisc", 0, 0))


@pytest.mark.parametrize("ring", [GF(2), GF(3), QQ, ZZ], ids=str)
def test_has_rlp_matches_hom_space_oracle(ring):
    # 30 seeded maps per structure; every (map, generator) pair of
    # rlp_report against the Hom-space oracle
    rng = random.Random(1802)
    families = {fam for fams in GENERATING_FAMILIES.values() for fam in fams}
    seen = set()
    for structure in STRUCTURES:
        make = random_twisted_map if structure == "twisted-tot" else random_bicomplex_map
        for k in range(30):
            f = make(rng, ring, p_range=(0, 2), q_range=(-1, 1))
            rep = rlp_report(f, structure)
            oracle = {}
            for (which, ref), flag in rep.per_generator.items():
                if ref not in oracle:
                    oracle[ref] = oracle_has_rlp(f, generator_map(ref, ring))
                assert flag == oracle[ref], (structure, k, which, ref)
                seen.add((ref.family, flag))
    assert {fam for fam, _ in seen} == families
    assert {flag for _, flag in seen} == {True, False}


@pytest.mark.parametrize("ring", [GF(3), QQ, ZZ], ids=str)
def test_composition_operators_match_decode_compose_flatten(ring):
    # on every family (the identity basis of the ambient space), not only
    # on strict morphisms
    rng = random.Random(77)
    for make in (random_bicomplex_map, random_twisted_map):
        for _ in range(6):
            g = make(rng, ring, p_range=(0, 2), q_range=(-1, 1))
            e = make(rng, ring, p_range=(0, 2), q_range=(-1, 1))
            # f |-> g f on the families x -> y = g.source
            x = e.target
            y, z = g.source, g.target
            every = ExactMatrix.identity(ring, sum(hom_layout(x, y, 0, 0).values()))
            assert post_operator(g.f, x, y, z, (0, 0)) == morphism_matrix(
                x, y, every, lambda m: g.compose(m), x, z)
            # f |-> f e on the families e.target -> y
            w, x = e.source, e.target
            every = ExactMatrix.identity(ring, sum(hom_layout(x, y, 0, 0).values()))
            assert pre_operator(e.f, w, x, y, (0, 0)) == morphism_matrix(
                x, y, every, lambda m: m.compose(e), w, y)


def test_strict_morphisms_commute_through_both_operators():
    # d_i f = f d_i on a basis of strict morphisms, for every i: the two
    # operators agree in the degrees (-i, i-1) of the structure maps
    rng = random.Random(78)
    for ring in (GF(3), ZZ):
        for _ in range(6):
            f = random_twisted_map(rng, ring, p_range=(0, 2), q_range=(-1, 1))
            x, y = f.source, f.target
            basis = morphism_space_basis(x, y)
            for i in sorted(set(x.ds) | set(y.ds)):
                delta = (-i, i - 1)
                post = post_operator(y.ds.get(i, {}), x, y, y, delta)
                pre = pre_operator(x.ds.get(i, {}), x, x, y, delta)
                assert post @ basis == pre @ basis


def test_identity_has_rlp_against_everything():
    for ring in (ZZ, GF(2)):
        d = bic_disc(2, 0, 1, ring)
        idm = BicomplexMap.identity(d)
        for structure in ("tot", "ce"):
            rep = rlp_report(idm, structure)
            assert rep.has_rlp_I and rep.has_rlp_J
            assert all(rep.per_generator.values())
        t = TwistedMap.identity(twisted_disc(2, 0, ring))
        rep = rlp_report(t, "twisted-tot")
        assert rep.has_rlp_I and rep.has_rlp_J


# --- classification ----------------------------------------------------------

@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=str)
def test_bicomplex_structures_refuse_twisted_inputs(ring):
    rng = random.Random(5)
    x = random_twisted(rng, ring, p_range=(0, 3), q_range=(-1, 1))
    while not any(i >= 2 for i in x.indices()):
        x = random_twisted(rng, ring, p_range=(0, 3), q_range=(-1, 1))
    f = TwistedMap.identity(x)
    i = min(i for i in x.indices() if i >= 2)
    cell = twisted_disc(3, 0, ring)
    for structure in ("tot", "ce"):
        for call, index in (
            (lambda: rlp_report(f, structure), i),
            (lambda: classify_map(f, structure), i),
            (lambda: cofibrancy_report(x, structure), i),
            (lambda: cofibrancy_report(cell, structure), 2),
        ):
            with pytest.raises(BadParameter, match=f"'{structure}'.*d_{index} "):
                call()
    # twisted-tot takes both carriers
    assert rlp_report(f, "twisted-tot").has_rlp_J
    assert classify_map(f, "twisted-tot").is_fibration
    bic = BicomplexMap.identity(bic_disc(2, 0, 1, ring))
    assert rlp_report(bic, "twisted-tot").has_rlp_I
    assert classify_map(bic, "twisted-tot").is_trivial_fibration
    assert cofibrancy_report(bic.source, "twisted-tot").passes

def test_classify_quotient_map():
    # weak equivalence for the total structure, but not a fibration:
    # vertical homology of the target is not hit
    g = proj_disc_to_vboundary(2, 0, QQ)
    rep = classify_map(g, "tot")
    assert rep.is_weq
    assert not rep.is_fibration
    assert not rep.is_trivial_fibration
    rep_ce = classify_map(g, "ce")
    assert not rep_ce.is_fibration
    assert (2, 0) in rep_ce.evidence["vertical_cycles_failures"]


def test_classify_agrees_with_rlp_on_quotient():
    g = proj_disc_to_vboundary(2, 0, GF(2))
    for structure in ("tot", "ce"):
        rep = rlp_report(g, structure)
        cls = classify_map(g, structure)
        assert rep.has_rlp_J == cls.is_fibration
        assert rep.has_rlp_I == cls.is_trivial_fibration


def test_classify_trivial_fibration_asserts_consistency():
    d = bic_disc(1, 0, 1, QQ)
    rep = classify_map(BicomplexMap.identity(d), "tot")
    assert rep.is_weq and rep.is_fibration and rep.is_trivial_fibration


def test_acyclic_columns_decide_tot_weq_without_the_tot_of_the_cone(monkeypatch):
    # every column of the cone acyclic makes E_1 of its column filtration
    # zero, so its Tot is acyclic: the classifier does not build it
    import bigraded.model as model

    real = model.tot_twisted
    calls = []
    monkeypatch.setattr(model, "tot_twisted", lambda c: calls.append(c) or real(c))
    rng = random.Random(26)
    maps = [("tot", BicomplexMap.identity(bic_disc(2, 0, 1, QQ)))]
    maps += [(s, make(rng, ring)) for ring in (QQ, GF(2), ZZ) for _ in range(8)
             for s, make in (("tot", random_bicomplex_map), ("twisted-tot", random_twisted_map))]
    seen = set()
    for structure, f in maps:
        calls.clear()
        rep = classify_map(f, structure)
        skipped = all(rep.evidence["column_homology_iso"].values())
        assert bool(calls) != skipped
        assert rep.is_weq == is_acyclic(real(cone_twisted(f, 0)))
        seen.add(skipped)
    assert seen == {True, False}


def test_classify_ce_weq_unavailable_over_z():
    c = ChainComplex(ZZ, {0: 1, 1: 1}, {1: ExactMatrix.from_rows(ZZ, [[2]])})
    x = include_chain(c)
    rep = classify_map(BicomplexMap.identity(x), "ce")
    assert rep.is_weq is None
    assert "weq_unavailable" in rep.evidence


# --- absent blocks are never built ---------------------------------------------

def test_lifting_and_classifiers_build_no_zero_matrix(monkeypatch):
    # has_rlp, the classifiers and solve_lift read only stored blocks: a
    # block that is absent from a map or complex is never built as zeros
    rng = random.Random(7)
    maps = [
        (structure, make(rng, ring))
        for ring in (GF(2), GF(3))
        for structure, make in (
            ("tot", random_bicomplex_map), ("ce", random_bicomplex_map),
            ("twisted-tot", random_twisted_map),
        )
        for _ in range(3)
    ]
    squares = []
    for ring, make in ((GF(2), random_twisted_map), (GF(3), random_bicomplex_map)):
        for _ in range(2):
            i, g = make(rng, ring), make(rng, ring)
            h = random_strict_map(rng, i.target, g.source)
            squares.append(LiftingProblem(i, g, h.compose(i), g.compose(h)))

    def refuse(*args):
        raise AssertionError(f"a zero matrix {args[1:]} was built")

    monkeypatch.setattr(ExactMatrix, "zero", staticmethod(refuse))
    for structure, f in maps:
        rep, cls = rlp_report(f, structure), classify_map(f, structure)
        assert (rep.has_rlp_I, rep.has_rlp_J) == (cls.is_trivial_fibration, cls.is_fibration)
    for square in squares:
        h = solve_lift(square)
        assert h.compose(square.i).f == square.u.f
        assert square.g.compose(h).f == square.f.f


def test_classifier_failures_follow_the_target_order():
    # an absent component fails at every bidegree of the target, and both
    # failure lists keep the order in which the target stores its ranks
    y = Bicomplex(GF(3), {(2, 1): 1, (1, 0): 1, (3, -1): 2, (0, 0): 1}, {}, {})
    rep = classify_map(BicomplexMap(Bicomplex(GF(3), {}, {}, {}), y, {}), "ce")
    assert rep.evidence["surjective_failures"] == [(2, 1), (1, 0), (3, -1), (0, 0)]
    assert rep.evidence["vertical_cycles_failures"] == [(2, 1), (1, 0), (3, -1)]


def _rank_only_map_document(rank: int) -> str:
    """A map of F2 bicomplexes, each of rank `rank` at (1, 0), with no
    components: a few hundred bytes that declare a large space."""
    end = {"schema_version": 1, "kind": "bicomplex", "ring": "F2",
           "ranks": [[1, 0, rank]], "differentials": {"dh": [], "dv": []}}
    return json.dumps({"schema_version": 1, "kind": "map", "ring": "F2",
                       "map_kind": "bicomplex", "source": end, "target": end,
                       "components": []})


@pytest.mark.parametrize("structure", STRUCTURES)
def test_rank_only_document_costs_its_entries_not_its_ranks(structure):
    f = parse(_rank_only_map_document(5000))
    t0 = time.perf_counter()
    rep, cls = rlp_report(f, structure), classify_map(f, structure)
    assert time.perf_counter() - t0 < 2
    # the zero map onto a nonzero space is no fibration
    assert not (rep.has_rlp_I or rep.has_rlp_J)
    assert not (cls.is_weq or cls.is_fibration or cls.is_trivial_fibration)
    assert cls.evidence["surjective_failures"] == [(1, 0)]


@pytest.mark.parametrize("structure", STRUCTURES)
def test_rank_only_document_builds_no_identity_of_its_rank(structure, monkeypatch):
    # where no relation is stored every element is a cycle: the lifting
    # test reads that without building an identity of the declared rank
    big = parse(_rank_only_map_document(200_000))
    small = parse(_rank_only_map_document(1))
    sizes = []
    real = ExactMatrix.identity
    monkeypatch.setattr(ExactMatrix, "identity", staticmethod(
        lambda ring, n: sizes.append(n) or real(ring, n)))
    rep, cls = rlp_report(big, structure), classify_map(big, structure)
    assert max(sizes, default=0) < 1000
    assert not (rep.has_rlp_I or rep.has_rlp_J)
    assert not (cls.is_weq or cls.is_fibration or cls.is_trivial_fibration)
    # the same answers as the same document at rank 1
    assert rep == rlp_report(small, structure)
    assert repr(cls) == repr(classify_map(small, structure))


def test_cli_classifies_a_rank_only_document(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(_rank_only_map_document(200_000))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for structure in STRUCTURES:
        proc = subprocess.run(
            [sys.executable, "-m", "bigraded.cli", "classify", str(path),
             "--structure", structure],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fibration: false" in proc.stdout


# --- cofibrancy ---------------------------------------------------------------

def test_cofibrancy_sphere_cases():
    ok = cofibrancy_report(bic_sphere(0, 3, 1, QQ), "tot")
    assert ok.passes
    bad = cofibrancy_report(bic_sphere(2, 0, 1, QQ), "tot")
    assert not bad.passes
    assert cofibrancy_report(twisted_disc(2, 0, QQ), "twisted-tot").passes


# --- pushouts ------------------------------------------------------------------

def test_pushout_attaches_cell():
    gen = generator_map(GeneratorRef("TwJ_ZeroToDisc0", 0, 5), ZZ)
    a = TwistedMap.zero(gen.source, twisted_disc(1, 0, ZZ))
    x2, incl = pushout(gen, a)
    d = twisted_disc(1, 0, ZZ)
    for (p, q), r in twisted_disc(0, 5).ranks.items():
        assert x2.rank(p, q) == d.rank(p, q) + r


def test_pushout_of_vboundary_inclusion():
    gen = generator_map(GeneratorRef("TotI_VBoundaryToDisc", 2, 0), ZZ)
    a = BicomplexMap.identity(gen.source)
    x2, incl = pushout(gen, a)
    assert dict(x2.ranks) == dict(gen.target.ranks)
    assert is_acyclic(tot_twisted(x2))


# --- chain inputs ----------------------------------------------------------------

def _chain_map():
    from bigraded.chain import ChainMap, disc

    return ChainMap.identity(disc(1, 1, QQ))


_CHAIN_ENTRY_POINTS = {
    "rlp_report": lambda f: rlp_report(f, "tot"),
    "classify_map": lambda f: classify_map(f, "tot"),
    "has_rlp": lambda f: has_rlp(f, GeneratorRef("TotI_VBoundaryToDisc", 1, 0)),
    "cofibrancy_report": lambda f: cofibrancy_report(f.source, "tot"),
    "solve_lift": lambda f: solve_lift(LiftingProblem(f, f, f, f)),
    "pushout": lambda f: pushout(f, f),
}


@pytest.mark.parametrize("entry", sorted(_CHAIN_ENTRY_POINTS))
def test_model_entry_points_refuse_chain_inputs(entry):
    with pytest.raises(BadParameter, match="embed.*include_chain"):
        _CHAIN_ENTRY_POINTS[entry](_chain_map())


def test_q_indexed_generators_are_cached_once_per_bidegree():
    for family in ("TwJ_ZeroToDisc0", "CEI_ZeroToSphere"):
        maps = {id(generator_map(GeneratorRef(family, p, 2), QQ)) for p in range(-1, 5)}
        assert len(maps) == 1
    # the p-indexed families still get one map per p
    refs = [GeneratorRef("TotI_VBoundaryToDisc", p, 2) for p in (1, 2)]
    assert generator_map(refs[0], QQ) is not generator_map(refs[1], QQ)


# --- resolutions ---------------------------------------------------------------

def test_ce_resolution_times_two():
    c = ChainComplex(ZZ, {0: 1, 1: 1}, {1: ExactMatrix.from_rows(ZZ, [[2]])})
    p, eps = ce_resolution(c)
    assert dict(p.ranks) == {(0, 0): 2, (0, 1): 1, (1, 0): 1}
    rep = classify_map(eps, "ce")
    assert rep.is_fibration and rep.is_trivial_fibration
    assert cofibrancy_report(p, "ce").passes


def test_ce_resolution_zero_and_field():
    z = ChainComplex(ZZ, {}, {})
    p, _ = ce_resolution(z)
    assert not p.ranks
    cq = ChainComplex(QQ, {0: 2, 1: 1},
                      {1: ExactMatrix.from_rows(QQ, [[1], [0]])})
    p, eps = ce_resolution(cq)
    assert classify_map(eps, "ce").is_trivial_fibration


def test_ce_resolution_random_contract():
    from bigraded.randgen import random_chain_complex

    rng = random.Random(11)
    for _ in range(10):
        y = random_chain_complex(rng, ZZ, degrees=(0, 3), max_rank=3)
        p, eps = ce_resolution(y)
        assert all(pp <= 1 for pp, _ in p.ranks)  # width at most two
        assert classify_map(eps, "ce").is_trivial_fibration
        assert cofibrancy_report(p, "ce").passes


# --- tensor identities -----------------------------------------------------------

def test_generator_identities_small():
    results = verify_generator_identities(pmax=2, qs=(0, 2), seed=0)
    assert results
    assert all(r["ok"] for r in results)
