"""Seeded random generation of valid chain complexes, bicomplexes,
twisted complexes and maps between them.

Objects are built differential by differential: the vertical maps are
drawn from the exact solution space of d*d = 0 one column at a time, the
horizontal maps from the linear system expressing anticommutation and
squaring to zero given the verticals, and the higher structure maps of
twisted complexes from the corresponding inhomogeneous linear systems
(with rejection when a system happens to be unsolvable).  All
constructors take an explicit random.Random instance so suites are
reproducible byte for byte.
"""

from __future__ import annotations

import random
from itertools import accumulate

from .rings import RingSpec, ZZ, BadParameter
from .matrices import ExactMatrix
from .linalg import kernel_basis, solve_exact
from .chain import ChainComplex
from .bicomplex import Bicomplex, BicomplexMap
from .twisted import (
    TwistedComplex,
    TwistedMap,
    direct_sum_twisted,
    map_like,
    morphism_from_vector,
    morphism_space_basis,
)


def _rand_scalar(rng: random.Random, ring: RingSpec, bound: int = 2):
    if ring.kind == "F":
        return ring.from_int(rng.randrange(ring.p))
    return ring.from_int(rng.randint(-bound, bound))


def random_int_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9):
    return _random_matrix(rng, ZZ, rows, cols, bound)


def _random_matrix(rng, ring, rows, cols, bound=2):
    return ExactMatrix.from_rows(
        ring, [[_rand_scalar(rng, ring, bound) for _ in range(cols)] for _ in range(rows)]
    )


def _random_left_annihilator(rng, ring, rows, a: ExactMatrix) -> ExactMatrix:
    """A random matrix M with M @ a = 0 (rows many rows)."""
    k = kernel_basis(a.transpose())  # columns span {v : v^T a = 0}
    if k.cols == 0:
        return ExactMatrix.zero(ring, rows, a.rows)
    return _random_matrix(rng, ring, rows, k.cols, 1) @ k.transpose()


class MatrixSystem:
    """A linear system whose unknowns are a family of matrices, stated
    as equations sum_i sign_i * L_i @ U_{key_i} @ R_i = rhs."""

    def __init__(self, ring: RingSpec, shapes: dict):
        self.ring = ring
        self.shapes = {k: s for k, s in shapes.items() if s[0] and s[1]}
        keys = sorted(self.shapes)
        self.sizes = [r * c for r, c in map(self.shapes.get, keys)]
        self.position = {k: n for n, k in enumerate(keys)}
        self.offsets = dict(zip(keys, accumulate(self.sizes, initial=0)))
        self.nvars = sum(self.sizes)
        self.blocks = []  # (coefficient row-block, rhs flat tuple)

    def add_equation(self, terms, rhs: ExactMatrix):
        ring = self.ring
        er, ec = rhs.rows, rhs.cols
        if er == 0 or ec == 0:
            return
        blocks = {}
        for (key, left, right, sign) in terms:
            if key not in self.shapes:
                continue
            r, c = self.shapes[key]
            l = left if left is not None else ExactMatrix.identity(ring, r)
            rm = right if right is not None else ExactMatrix.identity(ring, c)
            blk = l.kron(rm.transpose()).scale(ring.from_int(sign))
            k = (0, self.position[key])
            blocks[k] = blocks[k] + blk if k in blocks else blk
        if blocks or not rhs.is_zero:
            row = ExactMatrix.block(ring, [er * ec], self.sizes, blocks)
            self.blocks.append((row, rhs.flat()))

    def solve_random(self, rng, bound: int = 1):
        """A random solution (dict key -> matrix), or None."""
        ring = self.ring
        if not self.blocks:
            flat = tuple(_rand_scalar(rng, ring, bound) for _ in range(self.nvars))
            return self._unflatten(flat)
        mat = ExactMatrix.vstack(ring, [b for b, _ in self.blocks], cols=self.nvars)
        rhs = tuple(x for _, t in self.blocks for x in t)
        part = solve_exact(mat, rhs)
        if part is None:
            return None
        null = kernel_basis(mat)
        flat = list(part)
        if null.cols:
            shift = null.apply(
                [_rand_scalar(rng, ring, bound) for _ in range(null.cols)]
            )
            flat = [ring.add(a, b) for a, b in zip(flat, shift)]
        return self._unflatten(tuple(flat))

    def _unflatten(self, flat):
        out = {}
        for k, (r, c) in self.shapes.items():
            off = self.offsets[k]
            out[k] = ExactMatrix.from_rows(
                self.ring, [flat[off + i * c : off + (i + 1) * c] for i in range(r)]
            )
        return out


def random_chain_complex(
    rng: random.Random,
    ring: RingSpec,
    degrees=(0, 3),
    max_rank: int = 3,
) -> ChainComplex:
    """Column 0 of a random bigraded object: a rank per degree with
    probability 0.8, then the column's differentials."""
    ranks = _random_ranks(rng, (0, 0), degrees, max_rank, 0.8)
    d = _random_verticals(rng, ring, ranks)
    return ChainComplex(
        ring, {n: r for (_, n), r in ranks.items()}, {n: m for (_, n), m in d.items()}
    )


# Draws of an empty rank table before random_bicomplex and random_twisted
# give up, and of an unsolvable system before random_twisted does.
_TRIES = 50


def _random_ranks(rng, p_range, q_range, max_rank, density):
    """A rank in 1..max_rank at each bidegree of the ranges, with
    probability `density`."""
    ranks = {}
    for p in range(p_range[0], p_range[1] + 1):
        for q in range(q_range[0], q_range[1] + 1):
            if rng.random() < density:
                ranks[(p, q)] = rng.randint(1, max_rank)
    return ranks


def _random_verticals(rng, ring, ranks):
    """Columnwise differentials (p, q) -> (p, q-1) with square zero."""
    d0 = {}
    for p in sorted({pp for pp, _ in ranks}):
        qs = sorted((q for pp, q in ranks if pp == p), reverse=True)
        prev = None
        for q in qs:
            rt = ranks.get((p, q - 1), 0)
            if rt == 0:
                prev = None
                continue
            if prev is None or (p, q + 1) not in ranks:
                m = _random_matrix(rng, ring, rt, ranks[(p, q)], 1)
            else:
                m = _random_left_annihilator(rng, ring, rt, prev)
            d0[(p, q)] = m
            prev = m
    return d0


def _solve_structure_map(rng, ring, ranks, d0, lower, i):
    """Random d_i given the maps in `lower` (a dict index -> family):
    solves the single defining relation that is linear in d_i on a
    support of width at most three columns.  An absent structure map is
    zero, so the terms it enters are left out."""
    shapes = {
        (p, q): (ranks.get((p - i, q + i - 1), 0), r)
        for (p, q), r in ranks.items()
    }
    sys = MatrixSystem(ring, shapes)
    for (p, q) in ranks:
        # relation of total index i at (p, q), target (p - i, q + i - 2)
        er = ranks.get((p - i, q + i - 2), 0)
        if er == 0:
            continue
        rhs = ExactMatrix.zero(ring, er, ranks[(p, q)])
        for a in range(1, i):
            b = i - a
            la, lb = lower[a].get((p - b, q + b - 1)), lower[b].get((p, q))
            if la is not None and lb is not None:
                rhs = rhs - la @ lb
        left, right = d0.get((p - i, q + i - 1)), d0.get((p, q))
        terms = [((p, q), left, None, 1)] if left is not None else []
        if right is not None:
            terms.append(((p, q - 1), None, right, 1))
        sys.add_equation(terms, rhs)
    return sys.solve_random(rng)


def _random_horizontals(rng, ring, ranks, d0):
    """Horizontal maps anticommuting with d0 and squaring to zero,
    solved one column at a time (the previous column is then fixed, so
    the square-zero condition becomes linear)."""
    d1 = {}
    for p in sorted({pp for pp, _ in ranks}):
        shapes = {
            (p, q): (ranks.get((p - 1, q), 0), r)
            for (pp, q), r in ranks.items()
            if pp == p
        }
        sys = MatrixSystem(ring, shapes)
        for (pp, q), r in ranks.items():
            if pp != p:
                continue
            er = ranks.get((p - 1, q - 1), 0)
            if er:
                terms = []
                if (p - 1, q) in d0:
                    terms.append(((p, q), d0[(p - 1, q)], None, 1))
                if (p, q) in d0:
                    terms.append(((p, q - 1), None, d0[(p, q)], 1))
                if terms:
                    sys.add_equation(terms, ExactMatrix.zero(ring, er, r))
            er2 = ranks.get((p - 2, q), 0)
            if er2 and (p - 1, q) in d1:
                sys.add_equation(
                    [((p, q), d1[(p - 1, q)], None, 1)],
                    ExactMatrix.zero(ring, er2, r),
                )
        sol = sys.solve_random(rng)
        for pq, m in sol.items():
            if not m.is_zero:
                d1[pq] = m
    return d1


def random_bicomplex(
    rng: random.Random,
    ring: RingSpec,
    p_range=(0, 3),
    q_range=(-2, 2),
    max_rank: int = 2,
) -> Bicomplex:
    for _ in range(_TRIES):
        ranks = _random_ranks(rng, p_range, q_range, max_rank, 0.6)
        if not ranks:
            continue
        d0 = _random_verticals(rng, ring, ranks)
        d1 = _random_horizontals(rng, ring, ranks, d0)
        return Bicomplex(ring, ranks, d1, d0)
    raise BadParameter("could not generate a bicomplex")


def random_twisted(
    rng: random.Random,
    ring: RingSpec,
    p_range=(0, 3),
    q_range=(-2, 2),
    max_rank: int = 2,
) -> TwistedComplex:
    if p_range[1] - p_range[0] > 3:
        raise BadParameter("twisted generation supports at most four columns")
    for _ in range(_TRIES):
        ranks = _random_ranks(rng, p_range, q_range, max_rank, 0.6)
        if not ranks:
            continue
        d0 = _random_verticals(rng, ring, ranks)
        lower = {0: d0}
        ok = True
        for i in (1, 2, 3):
            di = _solve_structure_map(rng, ring, ranks, d0, lower, i)
            if di is None:
                ok = False
                break
            lower[i] = {pq: m for pq, m in di.items() if not m.is_zero}
        if not ok:
            continue
        ds = {i: fam for i, fam in lower.items() if fam}
        return TwistedComplex(ring, ranks, ds)
    raise BadParameter("could not generate a twisted complex")


def random_strict_map(rng: random.Random, x, y):
    """A random strict morphism x -> y (same category as the inputs),
    drawn from a basis of the exact morphism space."""
    basis = morphism_space_basis(x, y)
    if basis.cols == 0:
        return TwistedMap.zero(x, y)
    coeffs = [_rand_scalar(rng, x.ring, 1) for _ in range(basis.cols)]
    return morphism_from_vector(x, y, basis.apply(coeffs))


def _random_map(rng, make, kinds, ring, p_range, q_range, max_rank):
    """A random map between objects drawn by `make`, of a kind drawn
    from `kinds`: a strict morphism, the identity, the zero map, or the
    inclusion of or projection onto the second summand of a direct sum."""
    kind = rng.choice(kinds)
    x = make(rng, ring, p_range, q_range, max_rank)
    if kind == "identity":
        return TwistedMap.identity(x)
    y = make(rng, ring, p_range, q_range, max_rank)
    if kind == "zero":
        return TwistedMap.zero(x, y)
    if kind == "morphism":
        return random_strict_map(rng, x, y)
    s = direct_sum_twisted([x, y])
    inc = {
        pq: ExactMatrix.block(
            ring, [x.rank(*pq), r], [r], {(1, 0): ExactMatrix.identity(ring, r)}
        )
        for pq, r in y.ranks.items()
    }
    if kind == "inclusion":
        return map_like(y, s, inc)
    return map_like(s, y, {pq: m.transpose() for pq, m in inc.items()})


def random_bicomplex_map(
    rng: random.Random,
    ring: RingSpec,
    p_range=(0, 3),
    q_range=(-2, 2),
    max_rank: int = 2,
) -> BicomplexMap:
    """A random bounded map of bicomplexes, mixing unstructured
    morphisms with projections, inclusions and identities so that the
    classifier outcomes are well distributed."""
    kinds = ["morphism", "morphism", "identity", "projection", "inclusion", "zero"]
    return _random_map(rng, random_bicomplex, kinds, ring, p_range, q_range, max_rank)


def random_twisted_map(
    rng: random.Random,
    ring: RingSpec,
    p_range=(0, 3),
    q_range=(-2, 2),
    max_rank: int = 2,
) -> TwistedMap:
    kinds = ["morphism", "morphism", "identity", "projection", "zero"]
    return _random_map(rng, random_twisted, kinds, ring, p_range, q_range, max_rank)
