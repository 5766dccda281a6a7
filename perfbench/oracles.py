"""Answer checks that do not go through the code path under test.

Each workload times one library call per item and checks its answer
afterwards, outside the timer, with the functions here:

* ``lift_holds`` recomputes h∘i and g∘h with plain modular integer
  arithmetic instead of the library's matrix product;
* ``total_homology_dims`` assembles the total complex from the
  structure maps itself and takes ranks with sympy's ``DomainMatrix``;
* ``sympy_invariant_factors`` cross-checks a planted Smith form with
  sympy's own implementation.

sympy is imported lazily so that it never weighs on a timed section or
on the peak memory of the timed loop.
"""

from __future__ import annotations

from fractions import Fraction


def _mat_mul(a, b, rows: int, inner: int, cols: int, mod):
    """rows x cols product of two entry grids over Z/mod (over Z or Q
    when mod is None)."""
    out = []
    for i in range(rows):
        out_row = []
        for j in range(cols):
            s = sum(a[i][k] * b[k][j] for k in range(inner))
            out_row.append(s % mod if mod else s)
        out.append(tuple(out_row))
    return tuple(out)


def _entries(m, rows: int, cols: int, mod):
    """Entry grid of a library matrix, normalised mod `mod`."""
    if rows == 0 or cols == 0:
        return tuple(() for _ in range(rows))
    return tuple(tuple(x % mod if mod else x for x in r) for r in m.entries)


def _compose_equals(outer, inner, expect, src, mid, tgt, mod) -> bool:
    """Whether outer∘inner equals expect at every bidegree of src, with
    components read from the maps' component accessors."""
    for pq in src.ranks:
        a, b, c = src.rank(*pq), mid.rank(*pq), tgt.rank(*pq)
        lhs = _mat_mul(
            _entries(outer.component(*pq), c, b, mod),
            _entries(inner.component(*pq), b, a, mod),
            c, b, a, mod,
        )
        if c and a and lhs != _entries(expect.component(*pq), c, a, mod):
            return False
    return True


def lift_holds(square, h) -> bool:
    """h∘i = u on the source of i and g∘h = f on the target of i."""
    ring = square.i.source.ring
    mod = ring.p if ring.kind == "F" else None
    a, b = square.i.source, square.i.target
    x, y = square.g.source, square.g.target
    return _compose_equals(h, square.i, square.u, a, b, x, mod) and _compose_equals(
        square.g, h, square.f, b, x, y, mod
    )


# ---------------------------------------------------------------------------
# Total homology over a field, through sympy
# ---------------------------------------------------------------------------

def _structure_blocks(x):
    """[(i, (p, q), entries)] for every nonzero structure map block; a
    bicomplex contributes d_v as i = 0 and d_h as i = 1 (anticommuting
    convention, so the total differential is their sum)."""
    if hasattr(x, "d_h"):
        fams = {0: x.d_v, 1: x.d_h}
    else:
        fams = x.ds
    return [
        (i, pq, m.entries) for i, fam in fams.items() for pq, m in fam.items()
    ]


def _sympy_domain(ring):
    from sympy import GF as SGF, QQ as SQQ

    if ring.kind == "F":
        dom = SGF(ring.p)
        return dom, lambda v: dom(int(v))
    if ring.kind == "Q":
        return SQQ, lambda v: SQQ(Fraction(v).numerator, Fraction(v).denominator)
    raise ValueError("total_homology_dims needs a field")


def total_homology_dims(x) -> dict:
    """{n: dim H_n} of the total complex of a bicomplex or twisted complex
    over a field, for every n where it is nonzero."""
    from sympy.polys.matrices import DomainMatrix

    dom, conv = _sympy_domain(x.ring)
    by_deg = {}
    for (p, q), r in sorted(x.ranks.items()):
        by_deg.setdefault(p + q, []).append(((p, q), r))
    offsets = {}
    dims = {}
    for n, blocks in by_deg.items():
        off = 0
        for pq, r in blocks:
            offsets[pq] = off
            off += r
        dims[n] = off
    grids = {n: [[0] * dims[n] for _ in range(dims.get(n - 1, 0))] for n in dims}
    for i, (p, q), entries in _structure_blocks(x):
        tgt = (p - i, q + i - 1)
        if tgt not in offsets:
            continue
        n = p + q
        r0, c0 = offsets[tgt], offsets[(p, q)]
        for a, row in enumerate(entries):
            for b, v in enumerate(row):
                grids[n][r0 + a][c0 + b] += v
    ranks = {}
    for n, grid in grids.items():
        if not grid or not grid[0]:
            ranks[n] = 0
            continue
        m = DomainMatrix([[conv(v) for v in row] for row in grid],
                         (len(grid), len(grid[0])), dom)
        ranks[n] = m.rank()
    out = {}
    for n, c in dims.items():
        h = c - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if h:
            out[n] = h
    return out


def sympy_invariant_factors(entries) -> tuple:
    """Nonzero invariant factors of an integer matrix, by sympy."""
    from sympy import Matrix, ZZ as SZZ
    from sympy.matrices.normalforms import invariant_factors

    factors = invariant_factors(Matrix(entries), domain=SZZ)
    return tuple(int(f) for f in factors if f)
