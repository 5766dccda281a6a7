"""Bounded chain complexes of finitely generated free modules.

Differentials lower the degree by one.  Complexes are stored sparsely:
a dict of ranks per degree and a dict of differential matrices, with
missing entries meaning zero.  All objects validate d*d = 0 at
construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .rings import RingSpec, BadParameter
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
        parts += ["Z/%d" % t for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _product(a, b):
    """a @ b, or None when a factor is absent or the product is zero."""
    if a is None or b is None:
        return None
    m = a @ b
    return None if m.is_zero else m


class ChainComplex:
    def __init__(self, ring: RingSpec, ranks: dict, d: dict, check: bool = True):
        self.ring = ring
        self.ranks = {n: r for n, r in ranks.items() if r}
        diffs = {}
        for n, m in d.items():
            if m is None or m.is_zero:
                continue
            diffs[n] = m
        self.d = diffs
        if check:
            self._validate()

    def _validate(self):
        for n, r in self.ranks.items():
            if r < 0:
                raise BadParameter("negative rank in degree %d" % n)
        for n, m in self.d.items():
            if m.cols != self.rank(n) or m.rows != self.rank(n - 1):
                raise BadParameter("differential at degree %d has wrong shape" % n)
        for n, m in self.d.items():
            if _product(self.d.get(n - 1), m) is not None:
                raise BadParameter("d*d != 0 at degree %d" % n)

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

    @property
    def is_zero(self) -> bool:
        return not self.ranks

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChainComplex)
            and self.ring == other.ring
            and self.ranks == other.ranks
            and self.d == other.d
        )

    def __repr__(self) -> str:
        return "ChainComplex(%s, ranks=%s)" % (self.ring, self.ranks)

    def to_ring(self, ring: RingSpec) -> "ChainComplex":
        return ChainComplex(
            ring, dict(self.ranks), {n: m.to_ring(ring) for n, m in self.d.items()}
        )


class ChainMap:
    def __init__(self, source: ChainComplex, target: ChainComplex, f: dict, check=True):
        self.source = source
        self.target = target
        comps = {}
        for n, m in f.items():
            if m is None or m.is_zero:
                continue
            comps[n] = m
        self.f = comps
        if check:
            self._validate()

    def _validate(self):
        if self.source.ring != self.target.ring:
            raise BadParameter("chain map between different rings")
        for n, m in self.f.items():
            if m.cols != self.source.rank(n) or m.rows != self.target.rank(n):
                raise BadParameter("component at degree %d has wrong shape" % n)
        for n in set(self.f) | set(self.source.d):
            lhs = _product(self.target.d.get(n), self.f.get(n))
            rhs = _product(self.f.get(n - 1), self.source.d.get(n))
            if lhs != rhs:
                raise BadParameter("chain map does not commute at degree %d" % n)

    def component(self, n: int) -> ExactMatrix:
        m = self.f.get(n)
        if m is None:
            return ExactMatrix.zero(
                self.source.ring, self.target.rank(n), self.source.rank(n)
            )
        return m

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
            {n: self.component(n) @ other.component(n) for n in other.source.ranks},
        )


# ---------------------------------------------------------------------------
# Standard complexes
# ---------------------------------------------------------------------------

def sphere(n: int, r: int = 1, ring: RingSpec = None) -> ChainComplex:
    from .rings import ZZ

    ring = ring or ZZ
    if r < 1:
        raise BadParameter("sphere rank must be >= 1")
    return ChainComplex(ring, {n: r}, {})


def disc(n: int, r: int = 1, ring: RingSpec = None) -> ChainComplex:
    from .rings import ZZ

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
    from .rings import ZZ

    ring = ring or ZZ
    if n < 0:
        raise BadParameter("simplex dimension must be >= 0")
    ranks = {t: comb(n + 1, t + 1) for t in range(-1, n + 1)}
    d = {t: simplex_boundary(n, t, ring) for t in range(0, n + 1)}
    return ChainComplex(ring, ranks, d)


def simplex_cochain_data(n: int, ring: RingSpec, min_vertex_above: int | None = None):
    """Bases and coboundaries of the coaugmented simplicial cochain
    complex of the n-simplex.

    Returns (bases, delta): bases[t] lists the simplices whose duals
    generate cochain degree t, delta[t] is the coboundary matrix from
    degree t to t+1 (the transpose of the face differential, restricted
    when a front face is excluded).

    When min_vertex_above is given, only duals of simplices with some
    vertex larger than it are kept; those span the relative cochain
    complex modulo the front face spanned by {0,...,min_vertex_above}.
    """
    bases = {}
    for t in range(-1, n + 1):
        simps = simplex_basis(n, t)
        if min_vertex_above is not None:
            simps = [s for s in simps if s and max(s) > min_vertex_above]
        bases[t] = simps
    delta = {}
    for t in range(-1, n + 1):
        src = bases[t]
        tgt = bases.get(t + 1, [])
        rows = [{} for _ in tgt]
        # coefficient of tau* in delta(sigma*) equals the coefficient of
        # sigma in the boundary of tau; this covers the coaugmentation too,
        # since the faces of a vertex include the empty simplex
        sidx = {s: j for j, s in enumerate(src)}
        for i, tau in enumerate(tgt):
            for pos in range(len(tau)):
                face = tau[:pos] + tau[pos + 1:]
                j = sidx.get(face)
                if j is not None:
                    rows[i][j] = ring.from_int(-1 if pos % 2 else 1)
        delta[t] = ExactMatrix(ring, len(tgt), len(src), rows)
    return bases, delta


def simplex_cochain(n: int, ring: RingSpec = None) -> ChainComplex:
    """Linear dual of the augmented simplex complex, stored as a chain
    complex with the cochain degree negated (so the coboundary lowers the
    stored degree)."""
    from .rings import ZZ

    ring = ring or ZZ
    if n < 0:
        raise BadParameter("simplex dimension must be >= 0")
    bases, delta = simplex_cochain_data(n, ring)
    ranks = {-t: len(bases[t]) for t in range(-1, n + 1)}
    d = {-t: delta[t] for t in range(-1, n + 1) if t + 1 <= n}
    return ChainComplex(ring, ranks, d)


def relative_simplex_cochain(n: int, m: int, ring: RingSpec = None) -> ChainComplex:
    """Duals of the simplices of the n-simplex not contained in the front
    face spanned by {0,...,m}, with the induced coboundary.  Stored with
    negated cochain degree, like simplex_cochain."""
    from .rings import ZZ

    ring = ring or ZZ
    if not (0 <= m < n):
        raise BadParameter("need 0 <= m < n")
    bases, delta = simplex_cochain_data(n, ring, min_vertex_above=m)
    ranks = {-t: len(bases[t]) for t in range(-1, n + 1)}
    d = {-t: delta[t] for t in range(-1, n + 1) if t + 1 <= n}
    return ChainComplex(ring, ranks, d)


def standard_chain(kind: str, *params, ring: RingSpec = None) -> ChainComplex:
    kind = kind.lower()
    if kind == "sphere":
        return sphere(*params, ring=ring)
    if kind == "disc":
        return disc(*params, ring=ring)
    if kind in ("simplexchain", "simplex-chain"):
        return simplex_chain(*params, ring=ring)
    if kind in ("simplexcochain", "simplex-cochain"):
        return simplex_cochain(*params, ring=ring)
    if kind in ("relativesimplexcochain", "relative-simplex-cochain"):
        return relative_simplex_cochain(*params, ring=ring)
    raise BadParameter("unknown chain complex kind %r" % kind)


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


def homology_at(c: ChainComplex, n: int) -> ModuleClass:
    return _homology_class(
        c.rank(n), _factor(c.d.get(n)), _factor(c.d.get(n + 1))
    )


def is_acyclic(c: ChainComplex) -> bool:
    return not homology(c)


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: degree n is X_{n-1} + Y_n with the usual twisted
    differential; acyclic exactly when f is a quasi-isomorphism."""
    x, y = f.source, f.target
    ring = x.ring
    ranks = {}
    for n in set(d + 1 for d in x.ranks) | set(y.ranks):
        r = x.rank(n - 1) + y.rank(n)
        if r:
            ranks[n] = r
    d = {}
    for n in ranks:
        blocks = {(1, 0): f.f.get(n - 1), (1, 1): y.d.get(n)}
        if n - 1 in x.d:
            blocks[(0, 0)] = -x.d[n - 1]
        blocks = {k: m for k, m in blocks.items() if m is not None}
        if blocks:
            d[n] = ExactMatrix.block(
                ring, [x.rank(n - 2), y.rank(n - 1)], [x.rank(n - 1), y.rank(n)], blocks
            )
    # d*d = 0 follows from that of x and y and f being a chain map
    return ChainComplex(ring, ranks, d, check=False)


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
    complexes = list(complexes)
    if not complexes:
        raise BadParameter("empty direct sum")
    ring = complexes[0].ring
    degs = sorted({n for c in complexes for n in c.ranks})
    ranks = {n: sum(c.rank(n) for c in complexes) for n in degs}
    d = {}
    for n in degs:
        blocks = {(k, k): c.d[n] for k, c in enumerate(complexes) if n in c.d}
        if blocks:
            d[n] = ExactMatrix.block(
                ring,
                [c.rank(n - 1) for c in complexes],
                [c.rank(n) for c in complexes],
                blocks,
            )
    return ChainComplex(ring, ranks, d)


def tensor(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    """Tensor product with the sign (-1)^{|x|} on the second factor: the
    column 0 of the tensor product of the two embedded columns."""
    from .twisted import column_twisted, embed, tensor_twisted

    return column_twisted(tensor_twisted(embed(x), embed(y)), 0)
