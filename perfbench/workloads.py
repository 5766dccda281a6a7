"""The three seeded workloads of the benchmark.

A workload builds its inputs from a seed through the library (that is
the set-up the benchmark times as ``setup_s``), groups them into rounds
of items, runs one user-level call per item (``run``), and checks each
answer afterwards against an oracle that does not use the code path
under test (``expect`` and ``agrees``).  Rounds are repeated whole, so
every run sees the same mix of items whatever its length.

All calls go through module attributes (``model.rlp_report``, not a
name imported by value) so that the tracer sees them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from bigraded import (
    bicomplex, chain, docio, model, randgen, spectral, twisted, verify,
)
from bigraded.matrices import ExactMatrix
from bigraded.rings import GF, QQ, ZZ

import oracles

# A prime above 2**32: F_p elimination works in numpy int64 and its
# products overflow for p this large (ROADMAP item 2).
LARGE_PRIME = 4294967311
# Fixed stream for the shapes of the random complexes of `spectral`;
# the run's seed changes their bases (see _change_basis).
SHAPES_SEED = 1802


@dataclass(frozen=True)
class Item:
    key: str  # stable across rounds when the input is the same
    kind: str
    data: object


def _cells(ring, discs, boundaries, suffix, q=0):
    return [
        Item(f"disc({p},{q})/{suffix}", "cell", twisted.twisted_disc(p, q, ring))
        for p in discs
    ] + [
        Item(f"boundary({p},{q})/{suffix}", "cell",
             twisted.twisted_boundary(p, q, ring))
        for p in boundaries
    ]


def _homology_summary(h: dict) -> dict:
    return {n: (cls.free_rank, tuple(cls.torsion)) for n, cls in h.items()}


class Lifting:
    """Random maps over GF(2) and GF(3) for the tot, ce and twisted-tot
    structures: ``rlp_report`` plus ``classify_map`` on each, and one
    ``solve_lift`` per round on a square with a planted diagonal."""

    name = "lifting"
    rounds = 80          # distinct rounds built per set-up
    trace_rounds = 15    # rounds timed untraced and then traced
    setup_reps = 3
    known_failures = frozenset()

    def build(self, seed: int):
        rng = random.Random(seed)
        rings = (GF(2), GF(3))
        out = []
        for r in range(self.rounds):
            items = []
            for structure in ("tot", "ce", "twisted-tot"):
                for ring in rings:
                    if structure == "twisted-tot":
                        f = randgen.random_twisted_map(rng, ring)
                    else:
                        f = randgen.random_bicomplex_map(rng, ring)
                    items.append(
                        Item(f"r{r}.{structure}/{ring}", "rlp", (structure, f))
                    )
            ring = rings[r % 2]
            category = "twisted" if r % 4 < 2 else "bicomplex"
            make = (
                randgen.random_twisted_map
                if category == "twisted"
                else randgen.random_bicomplex_map
            )
            i, g = make(rng, ring), make(rng, ring)
            h = randgen.random_strict_map(rng, i.target, g.source)
            square = model.LiftingProblem(i, g, h.compose(i), g.compose(h))
            items.append(Item(f"r{r}.lift.{category}/{ring}", "lift", square))
            out.append(items)
        return out

    def run(self, item):
        if item.kind == "rlp":
            structure, f = item.data
            rep = model.rlp_report(f, structure)
            cls = model.classify_map(f, structure)
            return (rep.has_rlp_I, rep.has_rlp_J,
                    cls.is_trivial_fibration, cls.is_fibration)
        return model.solve_lift(item.data)

    def canonical(self, item, answer):
        if item.kind == "rlp":
            return answer
        return sorted((pq, m.entries) for pq, m in answer.f.items())

    def expect(self, item):
        return None  # both checks below are self-contained

    def agrees(self, item, answer, expected) -> bool:
        if item.kind == "rlp":
            rlp_i, rlp_j, triv, fib = answer
            return rlp_i == triv and rlp_j == fib
        return oracles.lift_holds(item.data, answer)


class Spectral:
    """``pages`` plus ``convergence_check`` on the twisted cells over F3
    up to (7, 0), on small cells over GF(LARGE_PRIME), and on seeded
    random bicomplexes and twisted complexes over Q and F3."""

    name = "spectral"
    rounds = 3
    trace_rounds = 1
    setup_reps = 3
    # 35 cells + 20 random complexes = 55 items.  p90 is then the 5.5th
    # largest item of a round, which falls among the disc(5,q) cells: the
    # tail is set by fixed cells, not by the size of a random complex.
    random_per_round = 20
    # cells that raise NoSolution at the seed because of the int64
    # overflow in the F_p elimination; kept, counted as failed, listed
    known_failures = frozenset(
        [f"disc({p},0)/GF({LARGE_PRIME})" for p in (2, 3, 4)]
        + [f"boundary({p},0)/GF({LARGE_PRIME})" for p in (3, 4)]
    )

    def build(self, seed: int):
        shapes, rng = random.Random(SHAPES_SEED), random.Random(seed)
        f3 = GF(3)
        cells = _cells(f3, range(0, 8), range(1, 8), "GF(3)")
        cells += _cells(f3, range(0, 6), range(1, 6), "GF(3)", q=1)
        cells += _cells(GF(LARGE_PRIME), range(0, 5), range(1, 5),
                        f"GF({LARGE_PRIME})")
        out = []
        for r in range(self.rounds):
            items = []
            for k in range(self.random_per_round):
                ring = (QQ, f3)[k % 2]
                if (k // 2) % 2 == 0:
                    kind, make = "bicomplex", randgen.random_bicomplex
                else:
                    kind, make = "twisted", randgen.random_twisted
                x = make(shapes, ring, p_range=(0, 3), q_range=(-1, 2))
                items.append(Item(f"r{r}.{kind}{k}/{ring}", "random",
                                  _change_basis(rng, x)))
            out.append(items + cells)
        return out

    def run(self, item):
        data = spectral.pages(item.data)
        conv = spectral.convergence_check(item.data)
        page2 = {pq: d for pq, d in data.page(2).items() if d}
        return data.einf, page2, conv["ok"]

    def canonical(self, item, answer):
        einf, page2, ok = answer
        return sorted(einf.items()), sorted(page2.items()), ok

    def expect(self, item):
        x = item.data
        homology = oracles.total_homology_dims(x)
        if x.ring.kind == "F" and x.ring.p == LARGE_PRIME:
            # the page-two reference below runs the same F_p elimination
            # that overflows; these items are checked on E-infinity only
            return homology, None
        if hasattr(x, "d_h"):
            page2 = bicomplex.e2(x)
        else:
            page2 = verify.e2_of_vertical(twisted.vertical_homology_twisted(x))
        return homology, {pq: d for pq, d in page2.items() if d}

    def agrees(self, item, answer, expected) -> bool:
        einf, page2, conv_ok = answer
        homology, page2_ref = expected
        sums = {}
        for (p, q), d in einf.items():
            sums[p + q] = sums.get(p + q, 0) + d
        sums = {n: d for n, d in sums.items() if d}
        return (
            conv_ok
            and sums == homology
            and (page2_ref is None or page2 == page2_ref)
        )


def _random_basis(rng, ring, r):
    """A random invertible r x r matrix and its inverse: random signs on
    the diagonal, then r(r-1) operations adding ±1 times a row to
    another row."""
    def matrix(entry):
        return ExactMatrix.from_rows(
            ring, [[entry(a, b) for b in range(r)] for a in range(r)]
        )

    signs = [rng.choice((1, -1)) for _ in range(r)]
    p = p_inv = matrix(lambda a, b: signs[a] if a == b else 0)
    for _ in range(r * (r - 1)):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((1, -1))
        e = matrix(lambda a, b: c if (a, b) == (i, j) else int(a == b))
        e_inv = matrix(lambda a, b: -c if (a, b) == (i, j) else int(a == b))
        p, p_inv = e @ p, p_inv @ e_inv
    return p, p_inv


def _change_basis(rng, x):
    """An isomorphic copy of a bicomplex or twisted complex: every
    structure map d: X_s -> X_t becomes P_t d P_s^-1, for a seeded
    invertible P_s in each bidegree s.  The copy has the same pages and
    about the same cost, so the seed changes the matrices but not the
    amount of work."""
    bases = {pq: _random_basis(rng, x.ring, r) for pq, r in sorted(x.ranks.items())}

    def move(fam, di, dj):
        return {
            (p, q): bases[(p + di, q + dj)][0] @ m @ bases[(p, q)][1]
            for (p, q), m in fam.items()
        }

    if hasattr(x, "d_h"):
        return bicomplex.Bicomplex(
            x.ring, x.ranks, move(x.d_h, -1, 0), move(x.d_v, 0, -1)
        )
    return twisted.TwistedComplex(
        x.ring, x.ranks, {i: move(fam, -i, i - 1) for i, fam in x.ds.items()}
    )


def _unimodular(rng, n):
    """A dense n x n integer matrix of determinant 1: a random unit
    lower triangular times a random unit upper triangular matrix."""
    def tri(lower):
        return ExactMatrix.from_rows(ZZ, [
            [1 if i == j else
             (rng.randint(-1, 1) if (i > j) == lower else 0)
             for j in range(n)]
            for i in range(n)
        ])
    return tri(True) @ tri(False)


def planted_complex(rng, n0: int):
    """A two-term complex Z^(n0+2) -> Z^n0 whose dense differential
    L D R has invariant factors chosen here; returns the complex and
    its expected homology summary and factors."""
    n1 = n0 + 2
    r = n0 - rng.randint(0, 2)
    chain_f = [rng.choice((2, 3))]
    for _ in range(rng.randint(0, 2)):
        chain_f.append(chain_f[-1] * rng.choice((1, 2, 3)))
    factors = [1] * (r - len(chain_f)) + chain_f
    diag = ExactMatrix.from_rows(ZZ, [
        [factors[i] if i == j and i < r else 0 for j in range(n1)]
        for i in range(n0)
    ])
    d = _unimodular(rng, n0) @ diag @ _unimodular(rng, n1)
    c = chain.ChainComplex(ZZ, {0: n0, 1: n1}, {1: d})
    homology = {0: (n0 - r, tuple(chain_f)), 1: (n1 - r, ())}
    return c, homology, tuple(factors)


class HomologyZ:
    """The in-process path of ``bigraded gen`` then ``bigraded homology``
    over Z: build a cell, serialize, parse, totalise, homology; plus
    seeded two-term complexes with dense differentials and planted
    invariant factors."""

    name = "homology-z"
    rounds = 3
    trace_rounds = 1
    setup_reps = 5
    # 27 cells + 28 dense items = 55 items.  p90 is then the 5.5th
    # largest item of a round, which falls among boundary(8,0) and the
    # three disc(7,q) cells, all about 0.17 s: a short stall of the
    # machine moves one of twelve such items per run, not the p90.
    # The largest dense item (19 x 21) takes under 0.05 s.
    # A dense complex of 32 x 32 already takes about 26 s because SNF
    # entries grow, which is why no 60 x 60 matrix is used here.
    dense_sizes = tuple(range(6, 20)) * 2
    known_failures = frozenset()

    def build(self, seed: int):
        rng = random.Random(seed)
        cells = [
            Item(f"{kind}({p},{q})/Z", "cell", (kind, p, q))
            for q in (-1, 0, 1)
            for kind, ps in (("disc", range(10)), ("boundary", range(1, 10)))
            for p in ps
            if q == 0 or p in (6, 7)
        ]
        out = []
        for r in range(self.rounds):
            items = []
            for k, n in enumerate(self.dense_sizes):
                c, homology, factors = planted_complex(rng, n)
                # sympy re-derives the planted factors of the first
                # dense complex of each size
                cross_check = r == 0 and n not in self.dense_sizes[:k]
                items.append(Item(f"r{r}.dense{k}.{n}x{n + 2}", "dense",
                                  (c, homology, factors, cross_check)))
            out.append(items + cells)
        return out

    def run(self, item):
        if item.kind == "cell":
            kind, p, q = item.data
            make = twisted.twisted_disc if kind == "disc" else twisted.twisted_boundary
            text = docio.serialize(make(p, q, ZZ))
            obj = docio.parse(text)
            h = chain.homology(twisted.tot_twisted(twisted.embed(obj)))
            return dict(obj.ranks), _homology_summary(h)
        text = docio.serialize(item.data[0])
        return _homology_summary(chain.homology(docio.parse(text)))

    def canonical(self, item, answer):
        if item.kind == "cell":
            ranks, h = answer
            return sorted(ranks.items()), sorted(h.items())
        return sorted(answer.items())

    def expect(self, item):
        if item.kind == "cell":
            kind, p, q = item.data
            formula = (
                verify.disc_rank_formula if kind == "disc"
                else verify.boundary_rank_formula
            )
            return formula(p, q), {}
        c, homology, factors, cross_check = item.data
        if cross_check and oracles.sympy_invariant_factors(c.diff(1).entries) != factors:
            return None
        return homology

    def agrees(self, item, answer, expected) -> bool:
        return expected is not None and answer == expected


WORKLOADS = {w.name: w for w in (Lifting(), Spectral(), HomologyZ())}
