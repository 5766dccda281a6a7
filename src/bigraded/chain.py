"""Bounded chain complexes of finitely generated free modules.

Differentials lower the degree by one.  Complexes are stored sparsely:
a dict of ranks per degree and a dict of differential matrices, with
missing entries meaning zero.  A complex and a map are checked at
construction as column 0 of the twisted carrier, by the one object
checker and the one map checker of ``twisted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .rings import RingSpec, ZZ, BadParameter
from .matrices import ExactMatrix
from .linalg import kernel_basis, coordinates_in, invariant_factors, rank


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


def _product(a, b):
    """a @ b, or None when a factor is absent or the product is zero."""
    if a is None or b is None:
        return None
    m = a @ b
    return None if m.is_zero else m


class ChainComplex:
    """Checked as column 0 by `twisted.validate_twisted`."""

    def __init__(self, ring: RingSpec, ranks: dict, d: dict):
        from .twisted import embed, validate_twisted

        self._set(ring, ranks, d)
        bad = validate_twisted(embed(self))
        if bad:
            raise BadParameter("invalid chain complex: " + "; ".join(bad))

    @classmethod
    def _of(cls, ring: RingSpec, ranks: dict, d: dict) -> "ChainComplex":
        """Unchecked, like `TwistedComplex._of`."""
        c = object.__new__(cls)
        c._set(ring, ranks, d)
        return c

    def _set(self, ring, ranks, d):
        self.ring = ring
        self.ranks = {n: r for n, r in ranks.items() if r}
        self.d = {n: m for n, m in d.items() if m is not None and not m.is_zero}

    # -- access --------------------------------------------------------

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def diff(self, n: int) -> ExactMatrix:
        m = self.d.get(n)
        if m is None:
            return ExactMatrix.zero(self.ring, self.rank(n - 1), self.rank(n))
        return m

    def degrees(self):
        return sorted(self.ranks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChainComplex)
            and self.ring == other.ring
            and self.ranks == other.ranks
            and self.d == other.d
        )

    def __repr__(self) -> str:
        return "ChainComplex(%s, ranks=%s)" % (self.ring, self.ranks)


class ChainMap:
    """Checked as a map of columns 0 by `twisted.validate_map`."""

    def __init__(self, source: ChainComplex, target: ChainComplex, f: dict):
        from .twisted import embed_map, validate_map

        self._set(source, target, f)
        bad = validate_map(embed_map(self))
        if bad:
            raise BadParameter("invalid chain map: " + "; ".join(bad))

    @classmethod
    def _of(cls, source: ChainComplex, target: ChainComplex, f: dict) -> "ChainMap":
        """Unchecked, like `TwistedComplex._of`."""
        g = object.__new__(cls)
        g._set(source, target, f)
        return g

    def _set(self, source, target, f):
        self.source, self.target = source, target
        self.f = {n: m for n, m in f.items() if m is not None and not m.is_zero}

    @staticmethod
    def identity(c: ChainComplex) -> "ChainMap":
        return ChainMap(
            c, c, {n: ExactMatrix.identity(c.ring, r) for n, r in c.ranks.items()}
        )

    @staticmethod
    def zero(source: ChainComplex, target: ChainComplex) -> "ChainMap":
        return ChainMap(source, target, {})

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise BadParameter("composition mismatch")
        return ChainMap(
            other.source,
            self.target,
            {n: _product(self.f.get(n), m) for n, m in other.f.items()},
        )


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
    src = simplex_basis(n, t)
    tgt = simplex_basis(n, t - 1)
    index = {s: i for i, s in enumerate(tgt)}
    rows = [{} for _ in tgt]
    for j, s in enumerate(src):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            rows[index[face]][j] = ring.from_int(-1 if i % 2 else 1)
    return ExactMatrix(ring, len(tgt), len(src), rows)


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


def incidence(ring: RingSpec, targets: list, sources: list, action) -> ExactMatrix:
    """The matrix of the linear map sending the basis element s of
    `sources` to action(s), a dict {element of `targets`: integer
    coefficient}."""
    index = {x: i for i, x in enumerate(targets)}
    rows = [{} for _ in targets]
    for j, s in enumerate(sources):
        for t, c in action(s).items():
            rows[index[t]][j] = ring.from_int(c)
    # ring.from_int normalises, and the constructor drops the entries
    # that are zero in the ring
    return ExactMatrix(ring, len(targets), len(sources), rows)


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
            c.rank(n), factors.get(n, zero), factors.get(n + 1, zero)
        )
        if not cls.is_zero:
            out[n] = cls
    return out


def is_acyclic(c: ChainComplex) -> bool:
    return not homology(c)


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: degree n is X_{n-1} + Y_n with the usual twisted
    differential; acyclic exactly when f is a quasi-isomorphism.  It is
    column 0 of the cone along d_0 of f embedded as column 0."""
    from .twisted import cone_twisted, embed_map, line

    return line(cone_twisted(embed_map(f), 0), 0, 0)


def is_quasi_iso(f: ChainMap) -> bool:
    return is_acyclic(cone(f))


# ---------------------------------------------------------------------------
# Truncation, sums, tensor
# ---------------------------------------------------------------------------

def truncate_nonneg(c: ChainComplex) -> ChainComplex:
    """Replace degree 0 by the kernel of d: C_0 -> C_{-1} and drop the
    negative part."""
    k = kernel_basis(c.diff(0))
    ranks = {n: r for n, r in c.ranks.items() if n >= 1}
    if k.cols:
        ranks[0] = k.cols
    d = {n: m for n, m in c.d.items() if n >= 2}
    if c.rank(1) and k.cols:
        d[1] = coordinates_in(k, c.diff(1))
    return ChainComplex(c.ring, ranks, d)


def direct_sum(complexes) -> ChainComplex:
    """The column 0 of the direct sum of the embedded columns."""
    from .twisted import direct_sum_twisted, embed, line

    return line(direct_sum_twisted([embed(c) for c in complexes]), 0, 0)


def tensor(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    """Tensor product with the sign (-1)^{|x|} on the second factor: the
    column 0 of the tensor product of the two embedded columns."""
    from .twisted import embed, line, tensor_twisted

    return line(tensor_twisted(embed(x), embed(y)), 0, 0)
