"""Bicomplexes with bounded support in the right half plane.

A bicomplex is a twisted complex whose structure maps d_i vanish for
i >= 2: d_v = d_0 of bidegree (0, -1) and d_h = d_1 of bidegree (-1, 0),
with d_h^2 = d_v^2 = 0 and d_h d_v + d_v d_h = 0.  `Bicomplex` and
`BicomplexMap` subclass the twisted carrier, so totalisation, tensor,
strict-morphism spaces, kernels, cokernels and direct sums are the
twisted operations; a result is a bicomplex exactly when its inputs are.
This module adds the standard bicomplex cells and rows, the
directional subquotients and the E2-isomorphism test.  Documents in the
commuting sign convention are converted on input by `docio`.
"""

from __future__ import annotations

from itertools import product

from .rings import RingSpec, ZZ, BadParameter, UnsupportedRing
from .matrices import ExactMatrix
from .linalg import Subquotient, kernel_basis, image_basis
from .chain import ChainComplex, incidence, is_acyclic
from .twisted import (
    TwistedComplex,
    TwistedMap,
    complex_like,
    cone_twisted,
    induced_structure,
    line,
    map_like,
    summed,
    tensor_layout,
    tensor_twisted,
)


class TorsionInSubquotient(Exception):
    """Directional homology over Z acquired torsion; a field is needed."""


class Bicomplex(TwistedComplex):
    """A twisted complex with d_v = d_0, d_h = d_1 and no d_i for i >= 2;
    `validate_twisted` checks its relations."""

    def __init__(self, ring: RingSpec, ranks: dict, d_h: dict, d_v: dict):
        super().__init__(ring, ranks, {0: d_v, 1: d_h})

    @property
    def d_h(self) -> dict:
        return self.ds.get(1, {})

    @property
    def d_v(self) -> dict:
        return self.ds.get(0, {})


class BicomplexMap(TwistedMap):
    """A strict map of bicomplexes."""

    # __init__ and compose are defined in this class body, not only
    # inherited, because perfbench/tracer.py wraps them through the
    # class __dict__.

    def __init__(self, source: Bicomplex, target: Bicomplex, f: dict):
        if not (isinstance(source, Bicomplex) and isinstance(target, Bicomplex)):
            raise BadParameter("a bicomplex map needs bicomplex ends")
        super().__init__(source, target, f)

    def compose(self, other: "TwistedMap") -> "TwistedMap":
        """self after other."""
        return super().compose(other)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def bic_sphere(p: int, q: int, r: int = 1, ring: RingSpec = ZZ) -> Bicomplex:
    if p < 0 or r < 1:
        raise BadParameter("sphere needs p >= 0 and rank >= 1")
    return Bicomplex(ring, {(p, q): r}, {}, {})


def bic_disc(p: int, q: int, r: int = 1, ring: RingSpec = ZZ) -> Bicomplex:
    """Four-corner cell: identities everywhere except d_v = -1 out of the
    top right corner (p, q)."""
    if p <= 0 or r < 1:
        raise BadParameter("disc needs p > 0 and rank >= 1")
    one = ExactMatrix.identity(ring, r)
    ranks = {(p, q): r, (p - 1, q): r, (p, q - 1): r, (p - 1, q - 1): r}
    d_h = {(p, q): one, (p, q - 1): one}
    d_v = {(p, q): -one, (p - 1, q): one}
    return Bicomplex(ring, ranks, d_h, d_v)


def h_boundary(p: int, q: int, r: int = 1, ring: RingSpec = ZZ) -> Bicomplex:
    """The column of the cell reached by d_h: entries at (p-1, q) and
    (p-1, q-1) with d_v the identity."""
    if p <= 0 or r < 1:
        raise BadParameter("boundary needs p > 0 and rank >= 1")
    one = ExactMatrix.identity(ring, r)
    return Bicomplex(
        ring, {(p - 1, q): r, (p - 1, q - 1): r}, {}, {(p - 1, q): one}
    )


def v_boundary(p: int, q: int, r: int = 1, ring: RingSpec = ZZ) -> Bicomplex:
    """The row of the cell reached by d_v: entries at (p, q-1) and
    (p-1, q-1) with d_h the identity."""
    if p <= 0 or r < 1:
        raise BadParameter("boundary needs p > 0 and rank >= 1")
    one = ExactMatrix.identity(ring, r)
    return Bicomplex(
        ring, {(p, q - 1): r, (p - 1, q - 1): r}, {(p, q - 1): one}, {}
    )


def z_row(q: int, c: ChainComplex) -> Bicomplex:
    """A non-negative chain complex placed in vertical degree q, with its
    differential horizontal."""
    if any(n < 0 for n in c.ranks):
        raise BadParameter("chain complex must be concentrated in degrees >= 0")
    ranks = {(n, q): r for n, r in c.ranks.items()}
    d_h = {(n, q): m for n, m in c.d.items()}
    return Bicomplex(c.ring, ranks, d_h, {})


def c_row(q: int, c: ChainComplex) -> Bicomplex:
    """A non-negative chain complex doubled into vertical degrees q and
    q-1 with d_v = (-1)^p between the copies."""
    if any(n < 0 for n in c.ranks):
        raise BadParameter("chain complex must be concentrated in degrees >= 0")
    ring = c.ring
    ranks = {}
    d_h = {}
    d_v = {}
    for n, r in c.ranks.items():
        ranks[(n, q)] = r
        ranks[(n, q - 1)] = r
        sign = -1 if n % 2 else 1
        d_v[(n, q)] = ExactMatrix.identity(ring, r).scale(ring.from_int(sign))
    for n, m in c.d.items():
        d_h[(n, q)] = m
        d_h[(n, q - 1)] = m
    return Bicomplex(ring, ranks, d_h, d_v)


def include_chain(c: ChainComplex) -> Bicomplex:
    """A chain complex as the column p = 0 with vertical differential."""
    ranks = {(0, n): r for n, r in c.ranks.items()}
    d_v = {(0, n): m for n, m in c.d.items()}
    return Bicomplex(c.ring, ranks, {}, d_v)


def koszul_swap(x: Bicomplex, y: Bicomplex) -> BicomplexMap:
    """The symmetry X (x) Y -> Y (x) X with sign (-1)^{|x||y|} on total
    degrees: on each summand the permutation (i, j) -> (j, i) of the
    basis pairs, signed."""
    ring = x.ring
    src_obj = tensor_twisted(x, y)
    comps = {}
    for pq in src_obj.ranks:
        src = tensor_layout(x, y, *pq)
        blocks = {}
        for (a, b, a2, b2) in src:
            ra, rb = x.rank(a, b), y.rank(a2, b2)
            perm = incidence(ring, list(product(range(rb), range(ra))),
                             list(product(range(ra), range(rb))), lambda ij: {ij[::-1]: 1})
            sign = (a + b) * (a2 + b2) % 2
            blocks[((a2, b2, a, b), (a, b, a2, b2))] = -perm if sign else perm
        comps[pq] = summed(ring, tensor_layout(y, x, *pq), src, blocks)
    return map_like(src_obj, tensor_twisted(y, x), comps)


# ---------------------------------------------------------------------------
# Directional subquotients and page two
# ---------------------------------------------------------------------------

def _subquotients(x: TwistedComplex, direction: str, kind: str):
    """Shared worker for directional_subquotient and subquotient_map:
    the object and its nonzero Subquotient per bidegree of x."""
    if direction not in ("h", "v") or kind not in ("Z", "B", "H"):
        raise BadParameter("direction in {h,v}, kind in {Z,B,H}")
    if direction == "h" and any(i >= 2 for i in x.indices()):
        raise BadParameter("horizontal subquotients need d_i = 0 for i >= 2")
    ring = x.ring
    # own: the differential taken homology of; other: the induced one
    own, other = (0, 1) if direction == "v" else (1, 0)
    d = x.ds.get(own, {})
    sqs = {}
    for (p, q) in x.bidegrees():
        # an absent d_own has every element as a cycle and no boundaries
        d_out, d_in = d.get((p, q)), d.get((p + own, q - own + 1))
        if kind == "B":
            if d_in is None:
                continue
            sq = Subquotient(ring, d_in.rows, sub=image_basis(d_in))
        else:
            # a quotient needs relations that span the boundaries, not a basis
            sq = Subquotient(ring, x.rank(p, q), rel=None if kind == "Z" else d_in,
                             sub=None if d_out is None else kernel_basis(d_out))
            if sq.torsion:
                raise TorsionInSubquotient(
                    f"homology at ({p},{q}) has torsion {sq.torsion}"
                )
        if sq.rank:
            sqs[(p, q)] = sq
    ranks = {pq: sq.rank for pq, sq in sqs.items()}
    induced = induced_structure({other: x.ds.get(other, {})}, sqs)
    return complex_like((x,), ring, ranks, induced), sqs


def directional_subquotient(x: TwistedComplex, direction: str, kind: str) -> TwistedComplex:
    """Cycles (Z), boundaries (B) or homology (H) with respect to one
    differential (d_v = d_0 or d_h = d_1), with that differential trivial
    and the induced differential in the other direction."""
    return _subquotients(x, direction, kind)[0]


def subquotient_map(f: TwistedMap, direction: str, kind: str) -> TwistedMap:
    """The map induced on the one-directional cycles, boundaries or
    homology, in the bases chosen by directional_subquotient."""
    src_obj, src = _subquotients(f.source, direction, kind)
    tgt_obj, tgt = _subquotients(f.target, direction, kind)
    comps = {
        pq: tgt[pq].classes(f.f[pq] @ sq.reps)
        for pq, sq in src.items()
        if pq in tgt and pq in f.f
    }
    return map_like(src_obj, tgt_obj, comps)


def e2_iso(f: TwistedMap) -> bool:
    """Whether f induces an isomorphism on E2 = H_h(H_v): whether the E2
    term of its cone along d_1 vanishes.  d_0 of that cone is block
    diagonal, so its vertical homology is the cone along d_1 of the map
    f induces on vertical homology, row by row."""
    return e2_vanishes(cone_twisted(f, 1))


def e2_vanishes(x: TwistedComplex) -> bool:
    """Whether E2 = H_h(H_v) of x vanishes: whether each row of the
    vertical homology of x is acyclic.  Over Z raises
    TorsionInSubquotient when vertical homology has torsion."""
    hv = directional_subquotient(x, "v", "H")
    return all(is_acyclic(line(hv, 1, q)) for q in {q for _, q in hv.ranks})


def e2(x: TwistedComplex) -> dict:
    """Dimension table of the horizontal homology of the vertical
    homology; field coefficients only."""
    if not x.ring.is_field:
        raise UnsupportedRing("page-two dimensions need a field")
    hv = directional_subquotient(x, "v", "H")
    hh = directional_subquotient(hv, "h", "H")
    return dict(hh.ranks)


def ev0(x: TwistedComplex) -> ChainComplex:
    """The column p = 0 with its vertical differential."""
    return line(x, 0, 0)
