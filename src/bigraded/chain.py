"""Bounded chain complexes of finitely generated free modules.

A chain complex is the bicomplex on column 0 with d_h = 0: degree n sits
at (0, n), and the differential, which lowers the degree by one, is
d_v = d_0 there.  `ChainComplex` and `ChainMap` subclass the bicomplex
carrier and keep nothing of their own: the one object checker and the
one map checker of ``twisted`` check them, and every operation on
bigraded objects takes them.  Only their constructors take data keyed
by degree; `degrees`, `diff` and `d` read the column back by degree.
This module adds the standard complexes, homology, cones and the
non-negative truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .rings import RingSpec, ZZ, BadParameter
from .matrices import ExactMatrix, incidence
from .linalg import kernel_basis, coordinates_in, invariant_factors, rank
from .bicomplex import Bicomplex, BicomplexMap
from .twisted import cone_twisted, direct_sum_twisted, line, tensor_twisted


@dataclass(frozen=True)
class ModuleClass:
    """Isomorphism class of a finitely generated module.

    free_rank plus the torsion invariant factors (each > 1, each
    dividing the next; always empty over a field).
    """

    free_rank: int
    torsion: tuple = ()

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = ["k^%d" % self.free_rank] if self.free_rank else []
        parts += ["Z/" + _decimal(t) for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _decimal(n: int) -> str:
    """str(n) for an integer n >= 0 of any size, 600 digits at a time:
    str() refuses more than sys.get_int_max_str_digits() digits, a limit
    that is 0 (none) or at least 640."""
    chunks = []
    while n >= 10 ** 600:
        n, r = divmod(n, 10 ** 600)
        chunks.append(str(r).zfill(600))
    return str(n) + "".join(reversed(chunks))


class ChainComplex(Bicomplex):
    """The bicomplex on column 0 with d_v = d and d_h = 0, built from
    ranks and differentials keyed by degree."""

    def __init__(self, ring: RingSpec, ranks: dict, d: dict):
        super().__init__(
            ring, {(0, n): r for n, r in ranks.items()}, {}, {(0, n): m for n, m in d.items()}
        )

    @property
    def d(self) -> dict:
        """The differentials keyed by source degree."""
        return {n: m for (_, n), m in self.d_v.items()}

    def diff(self, n: int) -> ExactMatrix:
        m = self.d_v.get((0, n))
        if m is None:
            return ExactMatrix.zero(self.ring, self.rank(0, n - 1), self.rank(0, n))
        return m

    def degrees(self):
        return [n for _, n in self.bidegrees()]


class ChainMap(BicomplexMap):
    """A map of chain complexes, built from components keyed by degree."""

    # __init__ and compose are defined in this class body, not only
    # inherited, because perfbench/tracer.py wraps them through the
    # class __dict__.

    def __init__(self, source: ChainComplex, target: ChainComplex, f: dict):
        super().__init__(source, target, {(0, n): m for n, m in f.items()})

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        return super().compose(other)


# ---------------------------------------------------------------------------
# Standard complexes
# ---------------------------------------------------------------------------

def sphere(n: int, r: int = 1, ring: RingSpec = None) -> ChainComplex:
    ring = ring or ZZ
    if r < 1:
        raise BadParameter("sphere rank must be >= 1")
    return ChainComplex(ring, {n: r}, {})


def disc(n: int, r: int = 1, ring: RingSpec = None) -> ChainComplex:
    ring = ring or ZZ
    if r < 1:
        raise BadParameter("disc rank must be >= 1")
    return ChainComplex(
        ring, {n: r, n - 1: r}, {n: ExactMatrix.identity(ring, r)}
    )


def simplex_basis(n: int, t: int):
    """Sorted (t+1)-element subsets of {0,...,n}, as tuples, in
    lexicographic order.  t = -1 gives the empty simplex."""
    if t == -1:
        return [()]
    return [tuple(c) for c in combinations(range(n + 1), t + 1)]


def simplex_boundary(n: int, t: int, ring: RingSpec) -> ExactMatrix:
    """Face differential C_t -> C_{t-1} of the augmented simplex complex."""
    return incidence(ring, simplex_basis(n, t - 1), simplex_basis(n, t), lambda s: {
        s[:i] + s[i + 1:]: -1 if i % 2 else 1 for i in range(len(s))
    })


def simplex_chain(n: int, ring: RingSpec = None) -> ChainComplex:
    """Augmented simplicial chain complex of the n-simplex, degrees -1..n."""
    ring = ring or ZZ
    if n < 0:
        raise BadParameter("simplex dimension must be >= 0")
    ranks = {t: comb(n + 1, t + 1) for t in range(-1, n + 1)}
    d = {t: simplex_boundary(n, t, ring) for t in range(0, n + 1)}
    return ChainComplex(ring, ranks, d)


def cochain_basis(n: int, t: int, front: int | None) -> list:
    """The t-simplices of the n-simplex whose duals span cochain degree
    t: all of them, or with a `front` m those not in the front face
    spanned by {0,...,m}, in the order of simplex_basis."""
    simps = simplex_basis(n, t)
    return simps if front is None else [s for s in simps if s and s[-1] > front]


def _cochain(n: int, ring: RingSpec, front: int | None) -> ChainComplex:
    """The duals of cochain_basis(n, t, front), stored in degree -t, with
    the coboundary from degree t the transpose of the face differential
    out of degree t + 1, restricted to the kept simplices.  The faces of
    a vertex include the empty simplex, so this covers the
    coaugmentation too."""
    bases = {t: cochain_basis(n, t, front) for t in range(-1, n + 1)}
    keep = {t: incidence(ring, simplex_basis(n, t), b, lambda s: {s: 1})
            for t, b in bases.items()}
    d = {
        -t: (keep[t].transpose() @ simplex_boundary(n, t + 1, ring) @ keep[t + 1]).transpose()
        for t in range(-1, n)
    }
    return ChainComplex(ring, {-t: len(b) for t, b in bases.items()}, d)


def simplex_cochain(n: int, ring: RingSpec = None) -> ChainComplex:
    """Linear dual of the augmented simplex complex, stored as a chain
    complex with the cochain degree negated (so the coboundary lowers the
    stored degree)."""
    if n < 0:
        raise BadParameter("simplex dimension must be >= 0")
    return _cochain(n, ring or ZZ, None)


def relative_simplex_cochain(n: int, m: int, ring: RingSpec = None) -> ChainComplex:
    """Duals of the simplices of the n-simplex not contained in the front
    face spanned by {0,...,m}, with the induced coboundary.  Stored with
    negated cochain degree, like simplex_cochain."""
    if not (0 <= m < n):
        raise BadParameter("need 0 <= m < n")
    return _cochain(n, ring or ZZ, m)


# ---------------------------------------------------------------------------
# Homology and quasi-isomorphisms
# ---------------------------------------------------------------------------

def _factor(m: ExactMatrix | None) -> tuple:
    """(rank, non-unit invariant factors) of one differential: a rank over
    a field, the invariant factors alone over Z.  An absent differential
    is the zero map."""
    if m is None:
        return 0, ()
    if m.ring.is_field:
        return rank(m), ()
    factors = invariant_factors(m)
    return len(factors), tuple(f for f in factors if f != 1)


def _homology_class(c_n: int, d_n: tuple, d_up: tuple) -> ModuleClass:
    """H_n from the factorisations of d_n and d_{n+1}.  The cycles Z_n are
    a direct summand of C_n, since C_n / Z_n embeds in the free C_{n-1};
    so H_n = Z_n / B_n has free rank c_n - rk d_n - rk d_{n+1} and the
    torsion of coker d_{n+1}."""
    return ModuleClass(c_n - d_n[0] - d_up[0], d_up[1])


def homology(c: ChainComplex) -> dict:
    """Degreewise homology classes; zero degrees are omitted.  Each
    differential is factored once and shared by its two degrees."""
    factors = {n: _factor(m) for n, m in c.d.items()}
    zero = _factor(None)
    out = {}
    for n in c.degrees():
        cls = _homology_class(
            c.rank(0, n), factors.get(n, zero), factors.get(n + 1, zero)
        )
        if not cls.is_zero:
            out[n] = cls
    return out


def is_acyclic(c: ChainComplex) -> bool:
    return not homology(c)


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: degree n is X_{n-1} + Y_n with the usual twisted
    differential; acyclic exactly when f is a quasi-isomorphism.  It is
    column 0 of the cone of f along d_0."""
    return line(cone_twisted(f, 0), 0, 0)


def is_quasi_iso(f: ChainMap) -> bool:
    return is_acyclic(cone(f))


# ---------------------------------------------------------------------------
# Truncation, sums, tensor
# ---------------------------------------------------------------------------

def truncate_nonneg(c: ChainComplex) -> ChainComplex:
    """Replace degree 0 by the kernel of d: C_0 -> C_{-1} and drop the
    negative part."""
    k = kernel_basis(c.diff(0))
    ranks = {n: c.rank(0, n) for n in c.degrees() if n >= 1}
    if k.cols:
        ranks[0] = k.cols
    d = {n: m for n, m in c.d.items() if n >= 2}
    if c.rank(0, 1) and k.cols:
        d[1] = coordinates_in(k, c.diff(1))
    return ChainComplex(c.ring, ranks, d)


# The direct sum and the tensor product (sign (-1)^{|x|} on the second
# factor) of chain complexes are the bigraded ones, which return a chain
# complex on chain complexes alone.
direct_sum = direct_sum_twisted
tensor = tensor_twisted
