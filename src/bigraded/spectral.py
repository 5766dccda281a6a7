"""Spectral sequence of the column filtration of the total complex.

For a bicomplex or twisted complex X over a field, the total complex is
filtered by the column index, F_m Tot_n = sum of the blocks with p <= m.
Approximate cycles

    Z^r_{p,q} = { x in F_p Tot_{p+q} : dx in F_{p-r} }

give the pages E^r_{p,q} = Z^r_{p,q} / (Z^{r-1}_{p-1,q+1} + d Z^{r-1}_{p+r-1,q-r+2})
with the differential induced by d.  Since the support is bounded and
concentrated in non-negative columns, the pages stabilize no later than
r = pmax + 1 and the stable page computes the homology of the total
complex degreewise.

No filtration map is ever built.  The summands of Tot_n are laid out by
increasing column (``tot_layout``), so F_p Tot_n is a prefix of the
coordinates and Tot_{n-1} / F_{p-r} is the complementary suffix.  Hence
Z^r_{p,q} is the kernel of the block of d_n with the rows of that suffix
and the columns of that prefix.  Every cycle and boundary used below is
zero past its filtration prefix, so it is stored in the prefix
coordinates alone.  Dropping coordinates that are zero on every vector
of a system changes no echelon form, so the bases, quotients and
differentials are the ones the full coordinates give.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rings import RingSpec, UnsupportedRing
from .matrices import ExactMatrix
from .linalg import Subquotient, kernel_basis
from .chain import homology
from .twisted import TwistedComplex, embed, tot_layout, tot_twisted


@dataclass
class SpectralData:
    ring: RingSpec
    pages: dict  # r -> {(p, q): dimension}
    differentials: dict  # r -> {(p, q): ExactMatrix to (p-r, q+r-1)}
    stable_page: int
    einf: dict  # {(p, q): dimension}

    def page(self, r: int) -> dict:
        return self.pages[min(r, self.stable_page)]


class _PageWorker:
    """Approximate cycles in filtration coordinates.

    Z^r_{p,n} is stored as a basis in the first prefix(n, p) coordinates
    of Tot_n: its elements lie in F_p, and every coordinate past that
    prefix is zero.  Cycles and E-terms are cached by the prefixes of
    the slices of the total differential they read, not by r: columns
    without summands give equal prefixes, so many (r, p) share one."""

    def __init__(self, xt: TwistedComplex):
        self.x = xt
        self.ring = xt.ring
        self.tot = tot_twisted(xt)
        self.prefixes = {}
        self.z_cache = {}
        self.e_cache = {}

    def prefix(self, n, p) -> int:
        """Number of coordinates of F_p Tot_n."""
        key = (n, p)
        if key not in self.prefixes:
            self.prefixes[key] = sum(
                r for pp, _, r in tot_layout(self.x, n) if pp <= p
            )
        return self.prefixes[key]

    def z_basis(self, r, p, n) -> ExactMatrix:
        """Basis of the elements of filtration <= p whose boundary has
        filtration <= p - r, as prefix(n, p) x dim matrix."""
        key = (n, self.prefix(n - 1, p - r), self.prefix(n, p))
        if key not in self.z_cache:
            k = self.prefix(n, p)
            d = self.tot.diff(n)[self.prefix(n - 1, p - r):, :k]
            # with no constraint rows every element of F_p qualifies
            self.z_cache[key] = (
                kernel_basis(d)
                if d.rows and k
                else ExactMatrix.identity(self.ring, k)
            )
        return self.z_cache[key]

    def boundary(self, n, z, k) -> ExactMatrix:
        """d z for a basis z of Z^r_{p,n}, on the first k coordinates of
        Tot_{n-1}; the caller knows the rest vanish."""
        return self.tot.diff(n)[:k, :z.rows] @ z

    def e_term(self, r, p, q) -> Subquotient:
        """E^r_{p,q} as a subquotient of the first prefix(p + q, p)
        coordinates of Tot_{p+q}."""
        n = p + q
        key = (n, self.prefix(n - 1, p - r), self.prefix(n, p),
               self.prefix(n, p - 1), self.prefix(n + 1, p + r - 1))
        if key not in self.e_cache:
            znum = self.z_basis(r, p, n)
            lower = self.z_basis(r - 1, p - 1, n)
            den = ExactMatrix.hstack(
                self.ring,
                [
                    ExactMatrix.block(
                        self.ring, [lower.rows, znum.rows - lower.rows],
                        [lower.cols], {(0, 0): lower},
                    ),
                    self.boundary(n + 1, self.z_basis(r - 1, p + r - 1, n + 1),
                                  znum.rows),
                ],
                rows=znum.rows,
            )
            self.e_cache[key] = Subquotient(self.ring, znum.rows, rel=den, sub=znum)
        return self.e_cache[key]


def pages(x, r_max: int | None = None) -> SpectralData:
    """All pages and differentials up to r_max (default: the stable
    page) for a bicomplex or twisted complex over a field."""
    xt = embed(x)
    if not xt.ring.is_field:
        raise UnsupportedRing("spectral pages need field coefficients")
    ring = xt.ring
    stable = xt.pmax + 1
    if r_max is None:
        r_max = stable
    worker = _PageWorker(xt)
    support = sorted(xt.ranks)
    page_tables = {}
    diff_tables = {}
    for r in range(1, max(r_max, stable) + 1):
        terms = {}
        for (p, q) in support:
            term = worker.e_term(r, p, q)
            if term.rank:
                terms[(p, q)] = term
        page_tables[r] = {pq: term.rank for pq, term in terms.items()}
        diffs = {}
        for (p, q), term in terms.items():
            target = terms.get((p - r, q + r - 1))
            if target is None:
                continue
            m = target.classes(worker.boundary(p + q, term.reps, target.n))
            if not m.is_zero:
                diffs[(p, q)] = m
        diff_tables[r] = diffs
    einf = dict(page_tables[stable])
    keep = max(r_max, 1)
    return SpectralData(
        ring,
        {r: page_tables[r] for r in page_tables if r <= max(keep, stable)},
        {r: diff_tables[r] for r in diff_tables if r <= max(keep, stable)},
        stable,
        einf,
    )


def convergence_check(x) -> dict:
    """Compare the stable page with the homology of the total complex:
    for every total degree n the stable dimensions summed over p + q = n
    must equal dim H_n.  Returns {'ok': bool, 'table': {n: (sum, dim)}}."""
    xt = embed(x)
    if not xt.ring.is_field:
        raise UnsupportedRing("convergence check needs field coefficients")
    data = pages(xt)
    h = homology(tot_twisted(xt))
    degs = sorted(
        set(n for n, cls in h.items() if not cls.is_zero)
        | set(p + q for p, q in data.einf)
    )
    table = {}
    ok = True
    for n in degs:
        lhs = sum(d for (p, q), d in data.einf.items() if p + q == n)
        rhs = h[n].free_rank if n in h else 0
        table[n] = (lhs, rhs)
        ok = ok and lhs == rhs
    return {"ok": ok, "table": table}
