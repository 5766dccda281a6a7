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

``pages`` tracks the dimensions of each page.  E_1 is vertical
homology, so dim E_1(p,q) is dim X_{p,q} less the ranks of the d_0 out
of and into (p, q); dim E_{r+1}(p,q) is dim E_r(p,q) less the ranks of
the d_r out of and into (p, q).  An E-term is built only where its
dimension is positive, and must have that dimension.  For each n the
sum of dim E_r(p,q) over p + q = n can only fall from one page to the
next, never falls below dim H_n(Tot), and reaches it at the stable page.
So the first page on which it equals dim H_n for every n is E-infinity:
every later d_s is zero, and the loop stops there.

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

from dataclasses import dataclass

from .rings import RingSpec, BadParameter, UnsupportedRing
from .matrices import ExactMatrix
from .linalg import Subquotient, prefix_kernels, rank
from .chain import homology
from .twisted import embed, tot_layout, tot_twisted


@dataclass
class SpectralData:
    ring: RingSpec
    pages: dict  # r -> {(p, q): dimension}
    differentials: dict  # r -> {(p, q): ExactMatrix to (p-r, q+r-1)}
    stable_page: int
    einf: dict  # {(p, q): dimension}

    def page(self, r: int) -> dict:
        """E_r; from the stable page on, E-infinity."""
        if r >= self.stable_page:
            return self.einf
        if r not in self.pages:
            raise BadParameter(f"page {r} was not computed (pages 1..{len(self.pages)} were)")
        return self.pages[r]


class _PageWorker:
    """Approximate cycles in filtration coordinates.

    Z^r_{p,n} is stored as a basis in the first prefix(n, p) coordinates
    of Tot_n: its elements lie in F_p, and every coordinate past that
    prefix is zero.  Cycles and E-terms are cached by the prefixes of
    the slices of the total differential they read, not by r: columns
    without summands give equal prefixes, so many (r, p) share one.
    The cycles of one row cut of d_n share one echelon form, whatever
    their column prefix."""

    def __init__(self, x):
        xt = embed(x)
        if not xt.ring.is_field:
            raise UnsupportedRing("spectral pages need field coefficients")
        self.x = xt
        self.ring = xt.ring
        self.tot = tot_twisted(xt)
        self.d = self.tot.d  # the differentials of Tot by degree, read once
        self.layouts = {}
        self.prefixes = {}
        self.kernels = {}
        self.z_cache = {}
        self.e_cache = {}

    def prefix(self, n, p) -> int:
        """Number of coordinates of F_p Tot_n."""
        key = (n, p)
        if key not in self.prefixes:
            if n not in self.layouts:
                self.layouts[n] = tot_layout(self.x, n)
            self.prefixes[key] = sum(
                r for (pp, _), r in self.layouts[n].items() if pp <= p
            )
        return self.prefixes[key]

    def z_basis(self, r, p, n) -> ExactMatrix:
        """Basis of the elements of filtration <= p whose boundary has
        filtration <= p - r, as prefix(n, p) x dim matrix: the kernel
        of d_n with the rows from s = prefix(n - 1, p - r) on and the
        first k = prefix(n, p) columns."""
        s, k = self.prefix(n - 1, p - r), self.prefix(n, p)
        key = (n, s, k)
        if key not in self.z_cache:
            d = self.d.get(n)
            if d is None:
                # d_n is zero, so every element of F_p qualifies
                self.z_cache[key] = ExactMatrix.identity(self.ring, k)
            else:
                if (n, s) not in self.kernels:
                    self.kernels[(n, s)] = prefix_kernels(d[s:, :])
                self.z_cache[key] = self.kernels[(n, s)](k)
        return self.z_cache[key]

    def boundary(self, n, z, k) -> ExactMatrix | None:
        """d z for a basis z of Z^r_{p,n}, on the first k coordinates of
        Tot_{n-1}; the caller knows the rest vanish.  None when d_n is
        zero."""
        d = self.d.get(n)
        return None if d is None else d[:k, :z.rows] @ z

    def e_term(self, r, p, q) -> Subquotient:
        """E^r_{p,q} as a subquotient of the first prefix(p + q, p)
        coordinates of Tot_{p+q}."""
        n = p + q
        key = (n, self.prefix(n - 1, p - r), self.prefix(n, p),
               self.prefix(n, p - 1), self.prefix(n + 1, p + r - 1))
        if key not in self.e_cache:
            znum = self.z_basis(r, p, n)
            lower = self.z_basis(r - 1, p - 1, n)
            zup = self.z_basis(r - 1, p + r - 1, n + 1)
            den = ExactMatrix.block(
                self.ring, [znum.rows], [lower.cols, zup.cols],
                {
                    (0, 0): ExactMatrix.block(
                        self.ring, [lower.rows, znum.rows - lower.rows],
                        [lower.cols], {(0, 0): lower},
                    ),
                    (0, 1): self.boundary(n + 1, zup, znum.rows),
                },
            )
            self.e_cache[key] = Subquotient(self.ring, znum.rows, rel=den, sub=znum)
        return self.e_cache[key]

    def einf(self) -> dict:
        """{(p, q): dimension} of E-infinity, the page pmax + 1, read
        without the pages before it."""
        stable = self.x.pmax + 1
        ranks = {pq: self.e_term(stable, *pq).rank for pq in sorted(self.x.ranks)}
        return {pq: r for pq, r in ranks.items() if r}


def pages(x, r_max: int | None = None) -> SpectralData:
    """The pages and differentials up to min(r_max, stable page) (r_max
    defaults to the stable page), and E-infinity, for a bicomplex or
    twisted complex over a field.  A bound below 1 is refused.  Pages
    from the first one known to be E-infinity on are copies of it."""
    if r_max is not None and r_max < 1:
        raise BadParameter(f"page bound must be at least 1, got {r_max}")
    worker = _PageWorker(x)
    stable = worker.x.pmax + 1
    last = stable if r_max is None else min(r_max, stable)
    h = {n: cls.free_rank for n, cls in homology(worker.tot).items()}
    # E_1 is vertical homology: dim X_{p,q} less the ranks of d_0 out and in
    rk = {pq: rank(m) for pq, m in worker.x.ds.get(0, {}).items()}
    dims = {(p, q): d - rk.get((p, q), 0) - rk.get((p, q + 1), 0)
            for (p, q), d in sorted(worker.x.ranks.items())}
    page_tables, diff_tables = {}, {}
    for r in range(1, last + 1):
        dims = {pq: d for pq, d in dims.items() if d}
        sums = {}
        for (p, q), d in dims.items():
            sums[p + q] = sums.get(p + q, 0) + d
        if sums == h:
            for s in range(r, last + 1):
                page_tables[s], diff_tables[s] = dict(dims), {}
            return SpectralData(worker.ring, page_tables, diff_tables, stable, dims)
        terms = {pq: worker.e_term(r, *pq) for pq in dims}
        bad = [pq for pq, term in terms.items() if term.rank != dims[pq]]
        if bad:
            raise RuntimeError(f"E_{r} at {bad} is off the page bookkeeping")
        page_tables[r] = dict(dims)
        diffs = {}
        for (p, q), term in terms.items():
            target = terms.get((p - r, q + r - 1))
            if target is None:
                continue
            image = worker.boundary(p + q, term.reps, target.n)
            if image is None:
                continue
            m = target.classes(image)
            if not m.is_zero:
                diffs[(p, q)] = m
                k = rank(m)
                dims[(p, q)] -= k
                dims[(p - r, q + r - 1)] -= k
        diff_tables[r] = diffs
    return SpectralData(worker.ring, page_tables, diff_tables, stable, worker.einf())


def convergence_check(x) -> dict:
    """Compare the stable page with the homology of the total complex:
    for every total degree n the stable dimensions summed over p + q = n
    must equal dim H_n.  Returns {'ok': bool, 'table': {n: (sum, dim)}}."""
    worker = _PageWorker(x)
    einf = worker.einf()
    h = homology(worker.tot)
    degs = sorted(
        set(n for n, cls in h.items() if not cls.is_zero)
        | set(p + q for p, q in einf)
    )
    table = {}
    ok = True
    for n in degs:
        lhs = sum(d for (p, q), d in einf.items() if p + q == n)
        rhs = h[n].free_rank if n in h else 0
        table[n] = (lhs, rhs)
        ok = ok and lhs == rhs
    return {"ok": ok, "table": table}
