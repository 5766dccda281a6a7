"""One-shot verification suite over the core identities of the library.

Each check returns {"name", "ok", "detail"}; run_suite collects them all
and format_report renders one line per check.  The suite covers the
combinatorial rank formulas of the twisted cells, acyclicity of their
totalisations, the simplicial cochain identifications, the tensor
identities of the generating cofibrations, agreement of the lifting
criterion with the homological classifiers on seeded random maps, and
strong convergence of the column-filtration spectral sequence.
"""

from __future__ import annotations

import random
from math import comb

from .rings import ZZ, QQ, GF
from .chain import is_acyclic
from .twisted import (
    MismatchAt,
    compare_to_simplex_cochain,
    cone_twisted,
    tot_twisted,
    twisted_boundary,
    twisted_disc,
)
from .bicomplex import directional_subquotient, e2, e2_iso
from .model import classify_map, rlp_report, verify_generator_identities
from .spectral import convergence_check, pages
from . import randgen

# Ranks of the twisted cell on a generator in bidegree (4, 0) and of its
# vertical boundary, frozen as an independent cross-check of the
# binomial formulas below.
DISC_4_0_RANKS = {
    (4, 0): 1, (4, -1): 1, (3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1,
    (3, -1): 1, (2, 0): 2, (1, 1): 3, (0, 2): 4,
    (2, -1): 1, (1, 0): 3, (0, 1): 6,
    (1, -1): 1, (0, 0): 4, (0, -1): 1,
}
BOUNDARY_4_0_RANKS = {
    (4, -1): 1, (3, -1): 1, (2, 0): 1, (1, 1): 1, (0, 2): 1,
    (2, -1): 1, (1, 0): 2, (0, 1): 3,
    (1, -1): 1, (0, 0): 3, (0, -1): 1,
}


# The rows q of the generators of the cells the checks build; cell
# acyclicity is checked for generators in row 0 over each ring listed.
QS = (-1, 0, 2)
ACYCLICITY_RINGS = (QQ, GF(2), GF(3), ZZ)
# Seeded random maps per model structure in the lifting check, over the
# rings listed in turn, and seeded samples in the spectral check.
RLP_MAPS_PER_STRUCTURE = 30
RLP_RINGS = (GF(2), GF(3))
SPECTRAL_SAMPLES = 12


def disc_rank_formula(p: int, q: int) -> dict:
    """Closed-form ranks of the twisted cell on a generator at (p, q):
    C(s-1, n-1) + C(s-1, n-2) words of weight s and length n."""
    out = {(p, q): 1, (p, q - 1): 1}
    for s in range(1, p + 1):
        for n in range(1, s + 2):
            r = comb(s - 1, n - 1) + (comb(s - 1, n - 2) if n >= 2 else 0)
            if r:
                out[(p - s, q + s - n)] = out.get((p - s, q + s - n), 0) + r
    return out


def boundary_rank_formula(p: int, q: int) -> dict:
    """Closed-form ranks of the vertical boundary of the (p, q) cell:
    C(s-1, n-1) words of weight s and length n on the cycle generator."""
    out = {(p, q - 1): 1}
    for s in range(1, p + 1):
        for n in range(1, s + 1):
            r = comb(s - 1, n - 1)
            if r:
                key = (p - s, q - 1 + s - n)
                out[key] = out.get(key, 0) + r
    return out


def check_rank_tables(max_p: int) -> dict:
    bad = []
    for p in range(max_p + 1):
        for q in QS:
            if dict(twisted_disc(p, q).ranks) != disc_rank_formula(p, q):
                bad.append(f"disc ({p},{q})")
            if dict(twisted_boundary(p, q).ranks) != boundary_rank_formula(p, q):
                bad.append(f"boundary ({p},{q})")
    ok = not bad
    detail = "all rank tables match" if ok else "mismatch at " + ", ".join(bad)
    return {"name": "rank-tables", "ok": ok, "detail": detail}


def check_figure_tables() -> dict:
    """The (4, 0) cell and boundary against the frozen reference tables."""
    d_ok = dict(twisted_disc(4, 0).ranks) == DISC_4_0_RANKS
    b_ok = dict(twisted_boundary(4, 0).ranks) == BOUNDARY_4_0_RANKS
    ok = d_ok and b_ok
    return {
        "name": "reference-tables-(4,0)",
        "ok": ok,
        "detail": "entry-for-entry match" if ok else
        f"disc match={d_ok}, boundary match={b_ok}",
    }


def check_acyclicity(max_p: int) -> dict:
    bad = []
    for ring in ACYCLICITY_RINGS:
        for p in range(max_p + 1):
            if not is_acyclic(tot_twisted(twisted_disc(p, 0, ring))):
                bad.append(f"disc ({p},0) over {ring}")
        for p in range(1, max_p + 1):
            if not is_acyclic(tot_twisted(twisted_boundary(p, 0, ring))):
                bad.append(f"boundary ({p},0) over {ring}")
    ok = not bad
    return {
        "name": "cell-acyclicity",
        "ok": ok,
        "detail": "all totalisations acyclic" if ok else "; ".join(bad),
    }


def check_simplicial(max_p: int) -> dict:
    bad = []
    n_abs = n_rel = 0
    for p in range(max_p + 1):
        for q in QS:
            for u in range(0, p - 1):
                try:
                    compare_to_simplex_cochain(p, q, None, u)
                    n_abs += 1
                except MismatchAt as exc:
                    bad.append(f"column {u} of boundary ({p},{q}): {exc}")
            for s in range(0, p + 1):
                for u in range(0, p - s - 1):
                    try:
                        compare_to_simplex_cochain(p, q, s, u)
                        n_rel += 1
                    except MismatchAt as exc:
                        bad.append(
                            f"column {u} of ({p},{q}) truncated at {s}: {exc}"
                        )
    ok = not bad
    return {
        "name": "simplicial-identification",
        "ok": ok,
        "detail": f"{n_abs} absolute + {n_rel} relative columns match"
        if ok else "; ".join(bad[:4]),
    }


def check_tensor_identities(pmax: int = 3, seed: int = 0) -> dict:
    results = verify_generator_identities(pmax=pmax, qs=QS, seed=seed)
    bad = [r for r in results if not r["ok"]]
    return {
        "name": "tensor-identities",
        "ok": not bad,
        "detail": f"{len(results)} certified isomorphisms"
        if not bad else f"{len(bad)} of {len(results)} failed: "
        + "; ".join(f"{r['identity']}{r['params']}" for r in bad[:3]),
    }


def check_rlp_agreement(seed: int) -> dict:
    rng = random.Random(seed)
    bad = []
    checked = 0
    for structure in ("tot", "ce", "twisted-tot"):
        for k in range(RLP_MAPS_PER_STRUCTURE):
            ring = RLP_RINGS[k % len(RLP_RINGS)]
            if structure == "twisted-tot":
                f = randgen.random_twisted_map(rng, ring)
            else:
                f = randgen.random_bicomplex_map(rng, ring)
            rep = rlp_report(f, structure)
            cls = classify_map(f, structure)
            checked += 1
            if rep.has_rlp_J != cls.is_fibration:
                bad.append(f"{structure} #{k}: J-RLP {rep.has_rlp_J} "
                           f"vs fibration {cls.is_fibration}")
            if rep.has_rlp_I != cls.is_trivial_fibration:
                bad.append(f"{structure} #{k}: I-RLP {rep.has_rlp_I} vs "
                           f"trivial fibration {cls.is_trivial_fibration}")
    ok = not bad
    return {
        "name": "rlp-vs-classifier",
        "ok": ok,
        "detail": f"{checked} random maps agree" if ok else "; ".join(bad[:4]),
    }


def check_spectral(seed: int) -> dict:
    rng = random.Random(seed)
    bad = []
    for k in range(SPECTRAL_SAMPLES):
        for make in (randgen.random_bicomplex, randgen.random_twisted):
            x = make(rng, QQ, p_range=(0, 3), q_range=(-1, 2))
            res = convergence_check(x)
            if not res["ok"]:
                bad.append(f"convergence fails on sample {k}: {res['table']}")
            data = pages(x, r_max=2)
            expect = {pq: c for pq, c in e2(x).items() if c}
            got = {pq: d for pq, d in data.page(2).items() if d}
            if expect != got:
                bad.append(f"page 2 mismatch on sample {k}")
        # implication: a map inducing page-2 isomorphisms is a total
        # weak equivalence; exercised on an inclusion with acyclic
        # complement and on a plain random map
        f = randgen.random_bicomplex_map(rng, QQ, p_range=(0, 2), q_range=(-1, 1))
        if e2_iso(f) and not is_acyclic(tot_twisted(cone_twisted(f, 0))):
            bad.append(f"page-2 iso without total weq on sample {k}")
    ok = not bad
    return {
        "name": "spectral-convergence",
        "ok": ok,
        "detail": f"{SPECTRAL_SAMPLES} bicomplexes and twisted complexes converge"
        if ok else "; ".join(bad[:4]),
    }


def e2_of_vertical(hv_bicomplex) -> dict:
    """Horizontal homology ranks of a vertical-homology bicomplex."""
    h = directional_subquotient(hv_bicomplex, "h", "H")
    return dict(h.ranks)


def run_suite(max_p: int = 5, seed: int = 42) -> list:
    return [
        check_rank_tables(max_p),
        check_figure_tables(),
        check_acyclicity(max_p),
        check_simplicial(max_p),
        check_tensor_identities(pmax=min(max_p, 3), seed=seed),
        check_rlp_agreement(seed),
        check_spectral(seed),
    ]


def format_report(checks: list) -> str:
    lines = []
    for c in checks:
        lines.append(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
    n_ok = sum(1 for c in checks if c["ok"])
    lines.append(f"{n_ok}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"
