"""End-to-end acceptance checks.

Each test covers one numbered criterion, asserts exact results within
its wall-clock budget, and prints a single pass/fail line.  Criteria:

 1. rank tables of the twisted cells against the closed formulas and
    the frozen (4, 0) reference tables
 2. acyclicity of the totalised cells over Q, F2, F3 and Z
 3. simplicial cochain identifications, absolute and relative
 4. the tensor identity suite with explicit invertible intertwiners
 5. lifting-property flags equal classifier flags on seeded random maps
    over F2 and F3, and over Z and Q
 6. spectral page two, strong convergence, page-two-iso implies
    total weak equivalence
 7. projective resolution contracts on random bounded free complexes
 8. adjunction sanity for the column-zero inclusion and evaluation
 9. integer torsion in homology and Smith normal form contracts
10. the command-line verification suite passes end to end
"""

import random
import subprocess
import sys
import time

from bigraded.rings import ZZ, QQ, GF
from bigraded.matrices import ExactMatrix
from bigraded.chain import (
    ChainComplex,
    ModuleClass,
    homology,
    is_acyclic,
    is_quasi_iso,
)
from bigraded.bicomplex import (
    BicomplexMap,
    bic_disc,
    bic_sphere,
    directional_subquotient,
    e2_iso,
    ev0,
    include_chain,
)
from bigraded.twisted import (
    compare_to_simplex_cochain,
    direct_sum_twisted,
    tot_twisted,
    tot_twisted_map,
    twisted_boundary,
    twisted_disc,
)
from bigraded.linalg import is_unimodular, smith_normal_form
from bigraded.model import (
    ce_resolution,
    classify_map,
    cofibrancy_report,
    rlp_report,
    verify_generator_identities,
)
from bigraded.spectral import convergence_check, pages
from bigraded.verify import (
    BOUNDARY_4_0_RANKS,
    DISC_4_0_RANKS,
    boundary_rank_formula,
    disc_rank_formula,
    e2_of_vertical,
)
from bigraded import randgen


def report(n, label, t0, budget):
    dt = time.time() - t0
    assert dt < budget, f"criterion {n} took {dt:.1f}s (budget {budget}s)"
    print(f"[PASS] criterion {n}: {label} ({dt:.2f}s)")


def test_criterion_1_rank_tables():
    t0 = time.time()
    for p in range(7):
        for q in (-1, 0, 2):
            assert dict(twisted_disc(p, q).ranks) == disc_rank_formula(p, q)
            assert dict(twisted_boundary(p, q).ranks) == \
                boundary_rank_formula(p, q)
    assert dict(twisted_disc(4, 0).ranks) == DISC_4_0_RANKS
    assert dict(twisted_boundary(4, 0).ranks) == BOUNDARY_4_0_RANKS
    report(1, "rank tables and (4,0) reference figures", t0, 1)


def test_criterion_2_acyclicity():
    t0 = time.time()
    for ring in (QQ, GF(2), GF(3), ZZ):
        for q in (-1, 0, 2):
            for p in range(7):
                assert is_acyclic(tot_twisted(twisted_disc(p, q, ring)))
            for p in range(1, 7):
                assert is_acyclic(tot_twisted(twisted_boundary(p, q, ring)))
    report(2, "totalised cells acyclic over Q, F2, F3, Z", t0, 5)


def test_criterion_3_simplicial_identification():
    t0 = time.time()
    n_abs = n_rel = 0
    for p in range(7):
        for q in (-1, 0, 2):
            for u in range(0, p - 1):
                compare_to_simplex_cochain(p, q, None, u)
                n_abs += 1
            for s in range(0, p + 1):
                for u in range(0, p - s - 1):
                    compare_to_simplex_cochain(p, q, s, u)
                    n_rel += 1
    assert n_abs and n_rel
    report(3, f"{n_abs} absolute + {n_rel} relative cochain matches", t0, 5)


def test_criterion_4_tensor_identities():
    t0 = time.time()
    results = verify_generator_identities(pmax=3, qs=(-1, 0, 2), seed=0)
    assert results and all(r["ok"] for r in results)
    report(4, f"{len(results)} certified tensor intertwiners", t0, 10)


def test_criterion_5_rlp_agreement():
    t0 = time.time()
    rng = random.Random(42)
    rings = (GF(2), GF(3))
    per_structure = 200
    for structure in ("tot", "ce", "twisted-tot"):
        for k in range(per_structure):
            ring = rings[k % 2]
            if structure == "twisted-tot":
                f = randgen.random_twisted_map(rng, ring)
            else:
                f = randgen.random_bicomplex_map(rng, ring)
            rep = rlp_report(f, structure)
            cls = classify_map(f, structure)
            assert rep.has_rlp_J == cls.is_fibration, (structure, k)
            assert rep.has_rlp_I == cls.is_trivial_fibration, (structure, k)
    report(5, f"{3 * per_structure} maps: lifting flags == classifier flags",
           t0, 30)


def test_criterion_5_rlp_agreement_over_z_and_q():
    t0 = time.time()
    rng = random.Random(43)
    per_structure = 60
    for ring in (ZZ, QQ):
        for structure in ("tot", "ce", "twisted-tot"):
            for k in range(per_structure):
                if structure == "twisted-tot":
                    f = randgen.random_twisted_map(rng, ring)
                else:
                    f = randgen.random_bicomplex_map(rng, ring)
                rep = rlp_report(f, structure)
                cls = classify_map(f, structure)
                assert rep.has_rlp_J == cls.is_fibration, (ring, structure, k)
                assert rep.has_rlp_I == cls.is_trivial_fibration, \
                    (ring, structure, k)
    report(5, f"{6 * per_structure} maps over Z and Q: lifting flags == "
           "classifier flags", t0, 30)


def test_criterion_6_spectral_consistency():
    t0 = time.time()
    rng = random.Random(42)
    from bigraded.bicomplex import e2
    from bigraded.twisted import vertical_homology_twisted

    n = 0
    for _ in range(50):
        for make in (randgen.random_bicomplex, randgen.random_twisted):
            x = make(rng, QQ, p_range=(0, 3), q_range=(-1, 2))
            if hasattr(x, "d_h"):
                expect = {pq: d for pq, d in e2(x).items() if d}
            else:
                expect = {pq: d for pq, d in
                          e2_of_vertical(vertical_homology_twisted(x)).items()
                          if d}
            data = pages(x, r_max=2)
            assert {pq: d for pq, d in data.page(2).items() if d} == expect
            assert convergence_check(x)["ok"]
            n += 1
    # page-two isomorphism implies total weak equivalence, on random
    # maps plus inclusions with collapsing complement
    for k in range(20):
        f = randgen.random_bicomplex_map(rng, QQ, p_range=(0, 2),
                                         q_range=(-1, 1))
        if e2_iso(f):
            assert is_quasi_iso(tot_twisted_map(f))
        x = randgen.random_bicomplex(rng, QQ, p_range=(0, 2), q_range=(-1, 1))
        d = bic_disc(1 + k % 2, 0, 1, QQ)
        s = direct_sum_twisted([x, d])
        incl = BicomplexMap(x, s, {
            pq: ExactMatrix.vstack(QQ, [
                ExactMatrix.identity(QQ, r),
                ExactMatrix.zero(QQ, d.rank(*pq), r),
            ]) for pq, r in x.ranks.items()})
        assert e2_iso(incl)
        assert is_quasi_iso(tot_twisted_map(incl))
    report(6, f"{n} objects: page two, convergence, page-two-iso => tot-weq",
           t0, 60)


def test_criterion_7_resolutions():
    t0 = time.time()
    rng = random.Random(42)
    for k in range(50):
        y = randgen.random_chain_complex(rng, ZZ, degrees=(0, 3), max_rank=3)
        p, eps = ce_resolution(y)
        assert all(pp <= 1 for pp, _ in p.ranks), k  # horizontal width <= 2
        # every nonempty row is exact in positive horizontal degrees:
        # width two means the row differential must be injective
        for (pp, q), m in p.d_h.items():
            assert pp == 1
            k_b = m.cols
            assert smith_normal_form(m).rank == k_b
        cls = classify_map(eps, "ce")
        assert cls.is_trivial_fibration, k
        assert cofibrancy_report(p, "ce").passes, k
    report(7, "50 random resolutions: width, exactness, classification",
           t0, 60)


def test_criterion_8_adjunction_sanity():
    t0 = time.time()
    rng = random.Random(42)
    for _ in range(10):
        c = randgen.random_chain_complex(rng, ZZ, degrees=(0, 3))
        x = include_chain(c)
        assert ev0(x) == c
        assert homology(tot_twisted(x)) == homology(c)
    # a complex concentrated in column zero is fibrant for the total
    # structure; its column computes the homology of the totalisation
    for y in (include_chain(randgen.random_chain_complex(rng, QQ)),
              bic_sphere(0, 2, 3, QQ)):
        assert directional_subquotient(y, "v", "H").ranks == \
            {pq: r for pq, r in
             directional_subquotient(y, "v", "H").ranks.items() if pq[0] == 0}
        col = ChainComplex(y.ring,
                           {q: r for (p, q), r in y.ranks.items() if p == 0},
                           {q: m for (p, q), m in y.d_v.items() if p == 0})
        assert homology(col) == homology(tot_twisted(y))
    report(8, "column-zero inclusion and evaluation adjunction sanity", t0, 10)


def test_criterion_9_torsion_and_snf():
    t0 = time.time()
    c = ChainComplex(ZZ, {0: 1, 1: 1}, {1: ExactMatrix.from_rows(ZZ, [[2]])})
    assert homology(c)[0] == ModuleClass(0, (2,))
    rng = random.Random(42)
    for _ in range(1000):
        m = randgen.random_int_matrix(rng, rng.randint(0, 8), rng.randint(0, 8))
        res = smith_normal_form(m)
        assert res.U @ m @ res.V == res.D
        assert is_unimodular(res.U) and is_unimodular(res.V)
        f = res.invariant_factors
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
    report(9, "Z/2 in degree zero; 1000 Smith normal form contracts", t0, 30)


# The whole report of `verify-paper --max-p 5 --seed 42`: the counts in
# each line move when a check, a random draw or a cell changes.
VERIFY_PAPER_5_42 = [
    "[PASS] rank-tables: all rank tables match",
    "[PASS] reference-tables-(4,0): entry-for-entry match",
    "[PASS] cell-acyclicity: all totalisations acyclic",
    "[PASS] simplicial-identification: 30 absolute + 60 relative columns match",
    "[PASS] tensor-identities: 162 certified isomorphisms",
    "[PASS] rlp-vs-classifier: 90 random maps agree",
    "[PASS] spectral-convergence: 12 bicomplexes and twisted complexes converge",
    "7/7 checks passed",
]


def test_criterion_10_cli_suite():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "bigraded.cli", "verify-paper",
         "--max-p", "5", "--seed", "42"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == VERIFY_PAPER_5_42
    report(10, "command-line verification suite exits 0", t0, 300)
