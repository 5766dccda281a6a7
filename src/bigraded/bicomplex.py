"""Bicomplexes with bounded support in the right half plane.

A bicomplex is a twisted complex whose structure maps d_i vanish for
i >= 2: d_v = d_0 of bidegree (0, -1) and d_h = d_1 of bidegree (-1, 0),
with d_h^2 = d_v^2 = 0 and d_h d_v + d_v d_h = 0.  `Bicomplex` and
`BicomplexMap` subclass the twisted carrier, so totalisation, tensor,
Hom, kernels, cokernels and direct sums are the twisted operations; a
result is a bicomplex exactly when its inputs are.  This module adds the
standard bicomplex cells, rows and lines, and the directional
subquotients.  Documents in the commuting sign convention are converted
on input by `docio`.
"""

from __future__ import annotations

from .rings import RingSpec, ZZ, BadParameter, UnsupportedRing
from .matrices import ExactMatrix
from .linalg import Subquotient, kernel_basis, image_basis
from .chain import ChainComplex, ChainMap
from .twisted import (
    TwistedComplex,
    TwistedMap,
    column_twisted,
    column_twisted_map,
    complex_like,
    induced_structure,
    map_like,
    tensor_layout,
    tensor_twisted,
    validate_twisted,
)


class TorsionInSubquotient(Exception):
    """Directional homology over Z acquired torsion; a field is needed."""


class Bicomplex(TwistedComplex):
    """A twisted complex with d_v = d_0, d_h = d_1 and no d_i for i >= 2."""

    def __init__(self, ring: RingSpec, ranks: dict, d_h: dict, d_v: dict, check: bool = True):
        super().__init__(ring, ranks, {0: d_v, 1: d_h}, check=False)
        if check:
            bad = validate(self)
            if bad:
                raise BadParameter("invalid bicomplex: " + "; ".join(bad))

    @property
    def d_h(self) -> dict:
        return self.ds.get(1, {})

    @property
    def d_v(self) -> dict:
        return self.ds.get(0, {})


def validate(x: TwistedComplex) -> list:
    """Empty list when x is a valid bicomplex, else a description per
    failed identity."""
    extra = [f"structure map d_{i} present" for i in x.indices() if i >= 2]
    return validate_twisted(x) + extra


class BicomplexMap(TwistedMap):
    """A strict map of bicomplexes."""

    # __init__ and compose are defined in this class body, not only
    # inherited, because perfbench/tracer.py wraps them through the
    # class __dict__.

    def __init__(self, source: Bicomplex, target: Bicomplex, f: dict, check=True):
        if not (isinstance(source, Bicomplex) and isinstance(target, Bicomplex)):
            raise BadParameter("a bicomplex map needs bicomplex ends")
        super().__init__(source, target, f, check=check)

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


def standard_bicomplex(kind: str, *params, ring: RingSpec = ZZ) -> Bicomplex:
    kind = kind.lower().replace("_", "-")
    if kind == "sphere":
        return bic_sphere(*params, ring=ring)
    if kind == "disc":
        return bic_disc(*params, ring=ring)
    if kind in ("h-boundary", "hboundary"):
        return h_boundary(*params, ring=ring)
    if kind in ("v-boundary", "vboundary"):
        return v_boundary(*params, ring=ring)
    if kind == "z":
        return z_row(*params)
    if kind in ("cq", "c"):
        return c_row(*params)
    if kind in ("include-chain", "includechain"):
        return include_chain(*params)
    raise BadParameter(f"unknown bicomplex kind {kind!r}")


def koszul_swap(x: Bicomplex, y: Bicomplex) -> BicomplexMap:
    """The symmetry X (x) Y -> Y (x) X with sign (-1)^{|x||y|} on total
    degrees."""
    ring = x.ring
    src_obj = tensor_twisted(x, y)
    tgt_obj = tensor_twisted(y, x)
    comps = {}
    for pq in src_obj.ranks:
        src = tensor_layout(x, y, *pq)
        tgt = tensor_layout(y, x, *pq)
        src_off = {}
        off = 0
        for (a, b, a2, b2, ra, rb) in src:
            src_off[(a, b)] = (off, ra, rb)
            off += ra * rb
        ncols = off
        tgt_off = {}
        off = 0
        for (a2, b2, a, b, rb, ra) in tgt:
            tgt_off[(a2, b2)] = (off, rb, ra)
            off += ra * rb
        nrows = off
        z = ring.zero()
        rows = [[z] * ncols for _ in range(nrows)]
        for (a, b, a2, b2, ra, rb) in src:
            so = src_off[(a, b)][0]
            to = tgt_off[(a2, b2)][0]
            sign = ring.from_int(-1 if ((a + b) * (a2 + b2)) % 2 else 1)
            for i in range(ra):
                for j in range(rb):
                    rows[to + j * ra + i][so + i * rb + j] = sign
        comps[pq] = ExactMatrix.from_rows(ring, rows)
    return map_like(src_obj, tgt_obj, comps)


# ---------------------------------------------------------------------------
# Lines and directional subquotients
# ---------------------------------------------------------------------------

def row(x: TwistedComplex, q: int) -> ChainComplex:
    ranks = {p: r for (p, qq), r in x.ranks.items() if qq == q}
    d = {p: m for (p, qq), m in x.ds.get(1, {}).items() if qq == q}
    return ChainComplex(x.ring, ranks, d)


def line_map(f: TwistedMap, direction: str, index: int) -> ChainMap:
    if direction == "v":
        return column_twisted_map(f, index)
    if direction == "h":
        comps = {p: m for (p, q), m in f.f.items() if q == index}
        return ChainMap(row(f.source, index), row(f.target, index), comps)
    raise BadParameter("direction must be 'h' or 'v'")


def line_quasi_iso(f: TwistedMap, direction: str, index: int) -> bool:
    from .chain import is_quasi_iso

    return is_quasi_iso(line_map(f, direction, index))


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
        img = None if d_in is None or kind == "Z" else image_basis(d_in)
        if kind == "B":
            if img is None:
                continue
            sq = Subquotient(ring, img.rows, sub=img)
        else:
            sq = Subquotient(ring, x.rank(p, q), rel=img,
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
    return column_twisted(x, 0)
