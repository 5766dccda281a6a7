"""Twisted complexes: bigraded modules with a family of structure maps
d_i of bidegree (-i, i-1) satisfying the quadratic relations

    sum_{i+j=n} d_i d_j = 0   for every n >= 0.

This is the one carrier type of the package.  A bicomplex is the
subclass with d_i = 0 for i >= 2 (``bicomplex.Bicomplex``), and a chain
complex embeds as a single column.  Every operation here serves both
carriers; ``complex_like`` and ``map_like`` decide the type of a result
from the types of the inputs.  The module also builds the free cell
objects on one generator (the disc and its vertical boundary) from a
word basis with an explicit rewriting algorithm, identifies boundary
columns with simplicial cochain complexes, and provides totalisation,
tensor and Hom, kernels, cokernels and direct sums, vertical homology,
and the quotient down to bicomplexes.
"""

from __future__ import annotations

from .rings import RingSpec, ZZ, BadParameter, UnsupportedRing
from .matrices import ExactMatrix
from .linalg import (
    NoSolution,
    Subquotient,
    kernel_basis,
    image_basis,
    coordinates_in,
    rank as matrix_rank,
)
from .chain import ChainComplex, _product


class NonSplitConstraint(Exception):
    """An equivariance constraint over Z does not split off freely."""


class TorsionQuotient(Exception):
    """A quotient over Z acquired torsion and cannot stay free."""


class TorsionCokernel(Exception):
    """A cokernel over Z acquired torsion and cannot stay free."""


class MismatchAt(Exception):
    """A claimed basis identification failed at a specific element."""

    def __init__(self, bidegree, element, detail=""):
        self.bidegree = bidegree
        self.element = element
        super().__init__(f"mismatch at {bidegree} on {element}: {detail}")


class TwistedComplex:
    """ranks maps bidegrees (p, q) with p >= 0 to positive ranks; ds maps
    each index i to a family of matrices d_i indexed by source bidegree."""

    def __init__(self, ring: RingSpec, ranks: dict, ds: dict, labels=None, check=True):
        self.ring = ring
        self.ranks = {pq: r for pq, r in ranks.items() if r}
        clean = {}
        for i, fam in ds.items():
            fam = {pq: m for pq, m in fam.items() if m is not None and not m.is_zero}
            if fam:
                clean[i] = fam
        self.ds = clean
        self.labels = labels
        if check:
            bad = validate_twisted(self)
            if bad:
                raise BadParameter("invalid twisted complex: " + "; ".join(bad))

    # -- access --------------------------------------------------------

    def rank(self, p: int, q: int) -> int:
        return self.ranks.get((p, q), 0)

    def d(self, i: int, p: int, q: int) -> ExactMatrix:
        m = self.ds.get(i, {}).get((p, q))
        if m is None:
            return ExactMatrix.zero(
                self.ring, self.rank(p - i, q + i - 1), self.rank(p, q)
            )
        return m

    def bidegrees(self):
        return sorted(self.ranks)

    @property
    def pmax(self) -> int:
        return max((p for p, _ in self.ranks), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.ranks

    def indices(self):
        return sorted(self.ds)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TwistedComplex)
            and self.ring == other.ring
            and self.ranks == other.ranks
            and self.ds == other.ds
        )

    def __repr__(self) -> str:
        return "%s(%s, %d bidegrees)" % (type(self).__name__, self.ring, len(self.ranks))

    def to_ring(self, ring: RingSpec) -> "TwistedComplex":
        out = complex_like(
            (self,),
            ring,
            dict(self.ranks),
            {i: {pq: m.to_ring(ring) for pq, m in fam.items()} for i, fam in self.ds.items()},
        )
        out.labels = self.labels
        return out


def _relation_name(n: int) -> str:
    if n == 0:
        return "d_0^2 != 0"
    if n == 1:
        return "d_0 and d_1 do not anticommute"
    return f"relation n={n} fails"


def validate_twisted(x: TwistedComplex) -> list:
    """Empty list when valid, else a description of each violation.
    Only products of two present blocks enter a relation, so absent
    structure maps cost nothing."""
    bad = []
    for (p, q), r in x.ranks.items():
        if p < 0:
            bad.append(f"support at negative column ({p},{q})")
        if r < 0:
            bad.append(f"negative rank at ({p},{q})")
    for i, fam in x.ds.items():
        if i < 0:
            bad.append(f"negative structure index {i}")
            continue
        for (p, q), m in fam.items():
            if m.cols != x.rank(p, q) or m.rows != x.rank(p - i, q + i - 1):
                bad.append(f"d_{i} at ({p},{q}) has shape {m.rows}x{m.cols}")
    if bad:
        return bad
    fails = []
    for k, (p, q) in enumerate(x.ranks):
        sums = {}
        for j, fam_j in x.ds.items():
            first = fam_j.get((p, q))
            if first is None:
                continue
            mid = (p - j, q + j - 1)
            for i, fam_i in x.ds.items():
                second = fam_i.get(mid)
                if second is not None:
                    term = second @ first
                    n = i + j
                    sums[n] = term if n not in sums else sums[n] + term
        fails.extend((n, k, p, q) for n, acc in sums.items() if not acc.is_zero)
    return [f"{_relation_name(n)} at ({p},{q})" for n, _, p, q in sorted(fails)]


class TwistedMap:
    """Strict morphism: bidegree (0,0) components commuting with every d_i."""

    def __init__(self, source: TwistedComplex, target: TwistedComplex, f: dict, check=True):
        self.source = source
        self.target = target
        self.f = {pq: m for pq, m in f.items() if m is not None and not m.is_zero}
        if check:
            self._validate()

    def _validate(self):
        src, tgt = self.source, self.target
        if src.ring != tgt.ring:
            raise BadParameter("map between different rings")
        for (p, q), m in self.f.items():
            if m.cols != src.rank(p, q) or m.rows != tgt.rank(p, q):
                raise BadParameter(f"component at ({p},{q}) has wrong shape")
        indices = sorted(set(src.ds) | set(tgt.ds))
        for (p, q) in set(src.ranks) | set(tgt.ranks):
            for i in indices:
                lhs = _product(tgt.ds.get(i, {}).get((p, q)), self.f.get((p, q)))
                rhs = _product(
                    self.f.get((p - i, q + i - 1)), src.ds.get(i, {}).get((p, q))
                )
                if lhs != rhs:
                    raise BadParameter(f"map does not commute with d_{i} at ({p},{q})")

    def component(self, p: int, q: int) -> ExactMatrix:
        m = self.f.get((p, q))
        if m is None:
            return ExactMatrix.zero(
                self.source.ring, self.target.rank(p, q), self.source.rank(p, q)
            )
        return m

    @staticmethod
    def identity(x: TwistedComplex) -> "TwistedMap":
        # matrices are immutable, so bidegrees of one rank share one identity
        ids = {r: ExactMatrix.identity(x.ring, r) for r in set(x.ranks.values())}
        return map_like(x, x, {pq: ids[r] for pq, r in x.ranks.items()})

    @staticmethod
    def zero(source: TwistedComplex, target: TwistedComplex) -> "TwistedMap":
        return map_like(source, target, {})

    def compose(self, other: "TwistedMap") -> "TwistedMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise BadParameter("composition mismatch")
        return map_like(
            other.source,
            self.target,
            {pq: _product(self.f.get(pq), m) for pq, m in other.f.items()},
            check=False,
        )


# ---------------------------------------------------------------------------
# The carrier of a result
# ---------------------------------------------------------------------------

def _bicomplex(ring, ranks, ds, check=True):
    from .bicomplex import Bicomplex

    if any(fam for i, fam in ds.items() if i >= 2):
        raise BadParameter("structure maps above d_1 present")
    return Bicomplex(ring, ranks, ds.get(1, {}), ds.get(0, {}), check=check)


def complex_like(inputs, ring, ranks, ds, check=True) -> TwistedComplex:
    """The object an operation computed from `inputs` returns: a
    Bicomplex exactly when every input is one, else a TwistedComplex.
    Which d_i happen to be nonzero never decides the type."""
    from .bicomplex import Bicomplex

    if all(isinstance(o, Bicomplex) for o in inputs):
        return _bicomplex(ring, ranks, ds, check)
    return TwistedComplex(ring, ranks, ds, check=check)


def map_like(source, target, f, check=True) -> TwistedMap:
    """A BicomplexMap exactly when both ends are bicomplexes, else a
    TwistedMap."""
    from .bicomplex import Bicomplex, BicomplexMap

    if isinstance(source, Bicomplex) and isinstance(target, Bicomplex):
        return BicomplexMap(source, target, f, check=check)
    return TwistedMap(source, target, f, check=check)


# ---------------------------------------------------------------------------
# Words and rewriting
# ---------------------------------------------------------------------------

def normal_form(word: tuple) -> dict:
    """Rewrite a word of structure-map subscripts applied to the disc
    generator into the canonical basis.

    Returns a dict from basis words to integer coefficients.  The
    leftmost zero not in the last position is pushed right one step at a
    time via d_0 d_m = -sum_{a+b=m} d_a d_b (a >= 1); adjacent zeros kill
    the word (the m = 0 sum is empty)."""
    k = next((k for k, i in enumerate(word[:-1]) if i == 0), None)
    if k is None:
        return {word: 1}
    m = word[k + 1]
    out = {}
    for a in range(1, m + 1):
        sub = word[:k] + (a, m - a) + word[k + 2:]
        for w, c in normal_form(sub).items():
            out[w] = out.get(w, 0) - c
            if out[w] == 0:
                del out[w]
    return out


def _compositions(s: int, n: int):
    """Length-n sequences of positive integers summing to s, in
    lexicographic order."""
    if n < 0:
        return []
    if n == 0:
        return [()] if s == 0 else []
    if n == 1:
        return [(s,)] if s >= 1 else []
    out = []
    for first in range(1, s - n + 2):
        for rest in _compositions(s - first, n - 1):
            out.append((first,) + rest)
    return out


def disc_words(p: int, q: int) -> dict:
    """Canonical basis words of the free twisted cell on one generator in
    bidegree (p, q): per bidegree, all-positive words first, then the
    single-trailing-zero words, each block in lexicographic order."""
    table = {}
    for s in range(p + 1):
        for n in range(s + 2):
            words = _compositions(s, n) + [c + (0,) for c in _compositions(s, n - 1)]
            if words:
                table[(p - s, q + s - n)] = words
    return table


def boundary_words(p: int, q: int) -> dict:
    """All-positive basis words of the vertical boundary of the cell at
    (p, q); the generator y sits at (p, q-1)."""
    table = {}
    for s in range(p + 1):
        for n in range(s + 1):
            words = _compositions(s, n)
            if words:
                table[(p - s, q - 1 + s - n)] = words
    return table


def _matrix_from_action(ring, src_words, tgt_words, action):
    """Matrix of a linear map given by `action` on basis words (a dict
    word -> int coefficient per source word)."""
    index = {w: k for k, w in enumerate(tgt_words)}
    rows = [{} for _ in tgt_words]
    for j, w in enumerate(src_words):
        for w2, c in action(w).items():
            rows[index[w2]][j] = ring.from_int(c)
    # ring.from_int normalises, and the constructor drops the entries
    # that are zero in the ring
    return ExactMatrix(ring, len(tgt_words), len(src_words), rows)


def twisted_disc(p: int, q: int, ring: RingSpec = ZZ) -> TwistedComplex:
    """Free twisted cell on one generator x in bidegree (p, q)."""
    if p < 0:
        raise BadParameter("column of the generator must be >= 0")
    words = disc_words(p, q)
    ranks = {pq: len(ws) for pq, ws in words.items()}
    ds = {}
    for i in range(p + 1):
        fam = {}
        for (pp, qq), ws in words.items():
            tgt = words.get((pp - i, qq + i - 1))
            if pp - i < 0 or tgt is None:
                continue
            fam[(pp, qq)] = _matrix_from_action(
                ring, ws, tgt, lambda w, i=i: normal_form((i,) + w)
            )
        if fam:
            ds[i] = fam
    return TwistedComplex(ring, ranks, ds, labels=words)


def twisted_boundary(p: int, q: int, ring: RingSpec = ZZ) -> TwistedComplex:
    """Subobject of the cell at (p, q) generated by d_0 of the generator;
    free on the all-positive words applied to y = d_0 x."""
    if p < 0:
        raise BadParameter("column of the generator must be >= 0")
    words = boundary_words(p, q)
    ranks = {pq: len(ws) for pq, ws in words.items()}

    def act(w, i):
        out = {}
        for w2, c in normal_form((i,) + w + (0,)).items():
            if w2[-1] != 0:
                raise AssertionError("boundary left its own span")
            out[w2[:-1]] = c
        return out

    ds = {}
    for i in range(p + 1):
        fam = {}
        for (pp, qq), ws in words.items():
            tgt = words.get((pp - i, qq + i - 1))
            if pp - i < 0 or tgt is None:
                continue
            fam[(pp, qq)] = _matrix_from_action(ring, ws, tgt, lambda w, i=i: act(w, i))
        if fam:
            ds[i] = fam
    return TwistedComplex(ring, ranks, ds, labels=words)


def boundary_inclusion(p: int, q: int, ring: RingSpec = ZZ) -> TwistedMap:
    """The map sending each boundary word w(y) to w d_0 (x) in the cell."""
    src = twisted_boundary(p, q, ring)
    tgt = twisted_disc(p, q, ring)
    f = {}
    for pq, ws in src.labels.items():
        tws = tgt.labels[pq]
        f[pq] = _matrix_from_action(ring, ws, tws, lambda w: {w + (0,): 1})
    return TwistedMap(src, tgt, f)


def truncated_boundary(p: int, q: int, s: int, ring: RingSpec = ZZ) -> TwistedComplex:
    """Sub-bigraded-module of the vertical boundary spanned by y and the
    words with first subscript at most s, with only d_0 retained."""
    if p < 0 or s < 0:
        raise BadParameter("need p >= 0 and s >= 0")
    full = boundary_words(p, q)
    words = {}
    for pq, ws in full.items():
        keep = [w for w in ws if not w or w[0] <= s]
        if keep:
            words[pq] = keep
    ranks = {pq: len(ws) for pq, ws in words.items()}

    def act(w):
        out = {}
        for w2, c in normal_form((0,) + w + (0,)).items():
            inner = w2[:-1]
            if w2[-1] != 0 or (inner and inner[0] > s):
                raise AssertionError("truncation is not d_0-closed")
            out[inner] = c
        return out

    fam = {}
    for (pp, qq), ws in words.items():
        tgt = words.get((pp, qq - 1))
        if tgt is None:
            continue
        fam[(pp, qq)] = _matrix_from_action(ring, ws, tgt, act)
    return TwistedComplex(ring, ranks, {0: fam}, labels=words)


# ---------------------------------------------------------------------------
# Simplicial cochain identification of boundary columns
# ---------------------------------------------------------------------------

def word_to_simplex(w: tuple) -> tuple:
    """Partial-sum bijection from an all-positive word to a simplex: the
    word (i1,...,in) goes to the vertices i_n - 1, i_n + i_{n-1} - 1, ...,
    i_2 + ... + i_n - 1 (cumulative sums from the right, dropping the
    first subscript)."""
    out = []
    acc = 0
    for i in reversed(w[1:]):
        acc += i
        out.append(acc - 1)
    return tuple(out)


def compare_to_simplex_cochain(p: int, q: int, s: int | None, u: int, ring: RingSpec = ZZ):
    """Match column u of the (possibly truncated) vertical boundary with a
    simplicial cochain complex and verify the differentials agree up to
    sign: d_0 corresponds to (-1)^t times the cochain differential on
    cochain degree t, which becomes the uniform global sign -1 after
    rescaling degree t by (-1)^{t(t+1)/2}.

    With s None (or s >= p) column u of the full boundary, for p - u >= 2,
    is matched with the coaugmented cochains of the (p-u-2)-simplex; with
    a truncation s and 0 <= u < p-s-1 it is matched with the relative
    cochains modulo the front face spanned by 0..p-u-s-2.  Returns the
    basis bijection; raises MismatchAt on any disagreement."""
    from .chain import simplex_cochain_data

    sprime = p - u
    if s is None or s >= p:
        if sprime < 2:
            raise BadParameter("absolute comparison needs p - u >= 2")
        obj = twisted_boundary(p, q, ring)
        bases, delta = simplex_cochain_data(sprime - 2, ring)
    else:
        if not (0 <= u < p - s - 1):
            raise BadParameter("relative comparison needs 0 <= u < p - s - 1")
        obj = truncated_boundary(p, q, s, ring)
        bases, delta = simplex_cochain_data(
            sprime - 2, ring, min_vertex_above=sprime - s - 2
        )

    bijection = {}
    # words at column u have subscript sum s' = p - u; a word with n
    # letters corresponds to a cochain of degree n - 2
    by_n = {}
    for (pp, qq), ws in obj.labels.items():
        if pp != u:
            continue
        for w in ws:
            by_n.setdefault(len(w), []).append((qq, w))
    for n, items in sorted(by_n.items()):
        t = n - 2
        simps = list(bases.get(t, []))
        words = [w for _, w in sorted(items, key=lambda x: items.index(x))]
        if len(words) != len(simps):
            raise MismatchAt((u, items[0][0]), None, "rank disagreement at degree %d" % t)
        for qq, w in items:
            sx = word_to_simplex(w)
            if sx not in simps:
                raise MismatchAt((u, qq), w, "image simplex not in cochain basis")
            bijection[w] = sx

    # the raw bijection satisfies d_0 = (-1)^t * delta on cochain degree
    # t = n - 2; rescaling each degree by (-1)^{t(t+1)/2} turns this into
    # the uniform global sign -1, so that is what the certificate records
    for (pp, qq), ws in obj.labels.items():
        if pp != u:
            continue
        tgt_ws = obj.labels.get((u, qq - 1), [])
        d0 = obj.d(0, u, qq)
        n = len(ws[0])
        t = n - 2
        simps = bases.get(t, [])
        tgt_simps = bases.get(t + 1, [])
        dl = delta.get(t)
        for j, w in enumerate(ws):
            got = {tgt_ws[i]: d0[(i, j)] for i in range(len(tgt_ws)) if d0[(i, j)] != 0}
            jc = simps.index(bijection[w])
            want = {}
            for ic in range(len(tgt_simps)):
                c = dl[(ic, jc)]
                if c != 0:
                    want[tgt_simps[ic]] = ring.neg(c) if t % 2 else c
            got_s = {bijection[w2]: c for w2, c in got.items()}
            if got_s != want:
                raise MismatchAt((u, qq), w, f"{got_s} != {want}")
    return bijection


# ---------------------------------------------------------------------------
# Totalisation
# ---------------------------------------------------------------------------

def tot_layout(x: TwistedComplex, n: int):
    """Summands (p, q, rank) of total degree n, by increasing column."""
    return sorted(
        [(p, q, r) for (p, q), r in x.ranks.items() if p + q == n]
    )


def tot_twisted(x: TwistedComplex) -> ChainComplex:
    """Total complex: degree n is the sum of the bidegrees with p+q = n
    (columns in increasing order) and the differential is sum_i d_i.
    The d_i out of one bidegree land in distinct summands."""
    layouts = {n: tot_layout(x, n) for n in sorted({p + q for p, q in x.ranks})}
    sizes = {n: [r for *_, r in lay] for n, lay in layouts.items()}
    ranks = {n: sum(rs) for n, rs in sizes.items()}
    d = {}
    for n, src in layouts.items():
        tgt = layouts.get(n - 1)
        if not tgt:
            continue
        tpos = {(p, q): k for k, (p, q, _) in enumerate(tgt)}
        blocks = {
            (tpos[(p - i, q + i - 1)], j): fam[(p, q)]
            for j, (p, q, _) in enumerate(src)
            for i, fam in x.ds.items()
            if (p, q) in fam
        }
        if blocks:
            d[n] = ExactMatrix.block(x.ring, sizes[n - 1], sizes[n], blocks)
    return ChainComplex(x.ring, ranks, d)


# ---------------------------------------------------------------------------
# Tensor product
# ---------------------------------------------------------------------------

def tensor_layout(x: TwistedComplex, y: TwistedComplex, p: int, q: int):
    """Summands (a, b, a2, b2, ra, rb) of bidegree (p, q) of the tensor
    product, ordered lexicographically by the first-factor bidegree."""
    out = []
    for (a, b) in x.bidegrees():
        a2, b2 = p - a, q - b
        rb = y.rank(a2, b2)
        if rb:
            out.append((a, b, a2, b2, x.rank(a, b), rb))
    return out


def tensor_twisted(x: TwistedComplex, y: TwistedComplex) -> TwistedComplex:
    """Tensor product with d_i(a (x) b) = d_i(a) (x) b + (-1)^{|a|} a (x) d_i(b),
    the sign using the total degree of the first factor."""
    if x.ring != y.ring:
        raise BadParameter("tensor over different rings")
    ring = x.ring
    support = set()
    for (a, b) in x.ranks:
        for (a2, b2) in y.ranks:
            support.add((a + a2, b + b2))
    layouts = {pq: tensor_layout(x, y, *pq) for pq in support}
    sizes = {pq: [ra * rb for *_, ra, rb in lay] for pq, lay in layouts.items()}
    ranks = {pq: sum(rs) for pq, rs in sizes.items()}
    ds = {}
    for i in sorted(set(x.ds) | set(y.ds)):
        xi, yi = x.ds.get(i, {}), y.ds.get(i, {})
        fam = {}
        for (p, q), src in layouts.items():
            key = (p - i, q + i - 1)
            if key not in layouts:
                continue
            tpos = {
                (a, b, a2, b2): k
                for k, (a, b, a2, b2, _, _) in enumerate(layouts[key])
            }
            blocks = {}
            for j, (a, b, a2, b2, ra, rb) in enumerate(src):
                m = xi.get((a, b))
                if m is not None:
                    k = tpos[(a - i, b + i - 1, a2, b2)]
                    blocks[(k, j)] = m.kron(ExactMatrix.identity(ring, rb))
                m = yi.get((a2, b2))
                if m is not None:
                    k = tpos[(a, b, a2 - i, b2 + i - 1)]
                    blk = ExactMatrix.identity(ring, ra).kron(m)
                    blocks[(k, j)] = -blk if (a + b) % 2 else blk
            if blocks:
                fam[(p, q)] = ExactMatrix.block(ring, sizes[key], sizes[(p, q)], blocks)
        if fam:
            ds[i] = fam
    return complex_like((x, y), ring, ranks, ds)


def tensor_twisted_map(f: TwistedMap, g: TwistedMap) -> TwistedMap:
    """Tensor of strict morphisms (no signs in bidegree (0,0))."""
    sx, sy = f.source, g.source
    tx, ty = f.target, g.target
    ring = sx.ring
    src_obj = tensor_twisted(sx, sy)
    tgt_obj = tensor_twisted(tx, ty)
    comps = {}
    for pq in src_obj.ranks:
        src = tensor_layout(sx, sy, *pq)
        tgt = tensor_layout(tx, ty, *pq)
        tpos = {(a, b): k for k, (a, b, *_) in enumerate(tgt)}
        blocks = {
            (tpos[(a, b)], j): f.f[(a, b)].kron(g.f[(a2, b2)])
            for j, (a, b, a2, b2, _, _) in enumerate(src)
            if (a, b) in f.f and (a2, b2) in g.f
        }
        if blocks:
            comps[pq] = ExactMatrix.block(
                ring,
                [ta * tb for *_, ta, tb in tgt],
                [ra * rb for *_, ra, rb in src],
                blocks,
            )
    return map_like(src_obj, tgt_obj, comps)


# ---------------------------------------------------------------------------
# Hom
# ---------------------------------------------------------------------------

def _hom_summands(x: TwistedComplex, y: TwistedComplex, p: int, q: int):
    """Summands (s, t, rx, ry) of the ambient space of degree-(p,q)
    families X_{s,t} -> Y_{s+p,t+q}."""
    out = []
    for (s, t) in x.bidegrees():
        ry = y.rank(s + p, t + q)
        if ry:
            out.append((s, t, x.rank(s, t), ry))
    return out


def _hom_dim(summands) -> int:
    return sum(rx * ry for _, _, rx, ry in summands)


def _hom_operator(x, y, p, q, i, sign):
    """Matrix of f |-> d_i f - sign * f d_i from the ambient space at
    (p, q) to the ambient space at (p-i, q+i-1); entries of each f_{s,t}
    are flattened row-major, summands concatenated in order."""
    ring = x.ring
    src = _hom_summands(x, y, p, q)
    tgt = _hom_summands(x, y, p - i, q + i - 1)
    spos = {(s, t): k for k, (s, t, _, _) in enumerate(src)}
    xi, yi = x.ds.get(i, {}), y.ds.get(i, {})
    blocks = {}
    for r, (s, t, rx, ry2) in enumerate(tgt):
        m = yi.get((s + p, t + q))
        if m is not None:
            blocks[(r, spos[(s, t)])] = m.kron(ExactMatrix.identity(ring, rx))
        m = xi.get((s, t))
        if m is not None:
            # d_i f sits in summand (s, t), f d_i in (s-i, t+i-1): never the
            # same one, since i = 0 and i = 1 cannot both hold
            blk = ExactMatrix.identity(ring, ry2).kron(m.transpose())
            blocks[(r, spos[(s - i, t + i - 1)])] = blk.scale(ring.from_int(-sign))
    return ExactMatrix.block(
        ring, [rx * ry for *_, rx, ry in tgt], [rx * ry for *_, rx, ry in src], blocks
    )


def morphism_space_basis(x: TwistedComplex, y: TwistedComplex) -> ExactMatrix:
    """Basis of the module of strict morphisms x -> y, as columns of
    flattened component families (summands of bidegree (0,0) in order,
    each component row-major)."""
    ring = x.ring
    src = _hom_summands(x, y, 0, 0)
    n = _hom_dim(src)
    rows = [_hom_operator(x, y, 0, 0, i, 1) for i in sorted(set(x.ds) | set(y.ds))]
    rows = [m for m in rows if m.rows]
    if not rows:
        return ExactMatrix.identity(ring, n)
    return kernel_basis(ExactMatrix.vstack(ring, rows, cols=n))


def morphism_from_vector(x: TwistedComplex, y: TwistedComplex, vec, check=True) -> TwistedMap:
    """Inverse of the flattening used by morphism_space_basis."""
    ring = x.ring
    comps = {}
    off = 0
    for (s, t, rx, ry) in _hom_summands(x, y, 0, 0):
        block = [vec[off + k * rx : off + (k + 1) * rx] for k in range(ry)]
        off += rx * ry
        comps[(s, t)] = ExactMatrix.from_rows(ring, [list(r) for r in block])
    return map_like(x, y, comps, check=check)


def morphism_to_vector(f: TwistedMap) -> tuple:
    out = []
    zero = f.source.ring.zero()
    for (s, t, rx, ry) in _hom_summands(f.source, f.target, 0, 0):
        m = f.f.get((s, t))
        out.extend((zero,) * (rx * ry) if m is None else m.flat())
    return tuple(out)


def hom_twisted(x: TwistedComplex, y: TwistedComplex) -> TwistedComplex:
    """Internal Hom: degree (p, q) is the subspace of families
    X_{s,t} -> Y_{s+p,t+q} with d_i f = (-1)^{p+q} f d_i for all i > p,
    with structure maps d_i(f) = d_i f - (-1)^{p+q} f d_i for i <= p.
    Only defined here for inputs with d_i = 0 for i >= 2: on the others
    the structure maps need not preserve the chosen bases."""
    if x.ring != y.ring:
        raise BadParameter("hom over different rings")
    for obj in (x, y):
        extra = [i for i in obj.indices() if i >= 2]
        if extra:
            raise BadParameter(
                f"hom_twisted needs d_i = 0 for i >= 2, but an input has "
                f"d_{extra[0]} != 0"
            )
    ring = x.ring
    if x.is_zero or y.is_zero:
        return complex_like((x, y), ring, {}, {})
    indices = sorted(set(x.ds) | set(y.ds))
    ts = [t for _, t in x.ranks]
    yps = [sp for sp, _ in y.ranks]
    yts = [t for _, t in y.ranks]
    pmin, pmax = 0, max(yps)
    qmin, qmax = min(yts) - max(ts), max(yts) - min(ts)
    bases = {}
    for p in range(pmin, pmax + 1):
        for q in range(qmin, qmax + 1):
            src = _hom_summands(x, y, p, q)
            n = _hom_dim(src)
            if n == 0:
                continue
            sign = -1 if (p + q) % 2 else 1
            cons = [_hom_operator(x, y, p, q, i, sign) for i in indices if i > p]
            cons = [m for m in cons if m.rows]
            if cons:
                basis = kernel_basis(ExactMatrix.vstack(ring, cons, cols=n))
            else:
                basis = ExactMatrix.identity(ring, n)
            if basis.cols:
                bases[(p, q)] = basis
    ranks = {pq: b.cols for pq, b in bases.items()}
    ds = {}
    for i in indices:
        fam = {}
        for (p, q), basis in bases.items():
            if i > p:
                continue
            key = (p - i, q + i - 1)
            tb = bases.get(key)
            if tb is None:
                continue
            sign = -1 if (p + q) % 2 else 1
            op = _hom_operator(x, y, p, q, i, sign)
            try:
                fam[(p, q)] = coordinates_in(tb, op @ basis)
            except NoSolution:
                raise NonSplitConstraint(
                    f"structure map d_{i} at ({p},{q}) leaves the chosen basis"
                )
        if fam:
            ds[i] = fam
    return complex_like((x, y), ring, ranks, ds)


# ---------------------------------------------------------------------------
# Vertical homology, quotient, embedding
# ---------------------------------------------------------------------------

def vertical_homology_twisted(x: TwistedComplex):
    """Columnwise homology with respect to d_0, with the differential
    induced by d_1 and zero vertical differential."""
    from .bicomplex import directional_subquotient

    if not x.ring.is_field:
        raise UnsupportedRing("vertical homology needs a field")
    return directional_subquotient(x, "v", "H")


def quotient_to_bicomplex(x: TwistedComplex):
    """Quotient by the d_0,d_1-closure of the images of all d_i with
    i >= 2; the universal bicomplex receiving x."""
    ring = x.ring
    spans = {}

    def add(pq, mat):
        if mat.is_zero or mat.cols == 0:
            return False
        cur = spans.get(pq)
        new = mat if cur is None else ExactMatrix.hstack(ring, [cur, mat])
        if cur is not None and matrix_rank(new) == matrix_rank(cur):
            return False
        spans[pq] = new
        return True

    for i in x.indices():
        if i < 2:
            continue
        for (p, q), m in x.ds[i].items():
            add((p - i, q + i - 1), m)
    changed = True
    while changed:
        changed = False
        for pq in list(spans):
            p, q = pq
            for i in (0, 1):
                img = x.d(i, p, q) @ spans[pq]
                if img.rows and add((p - i, q + i - 1), img):
                    changed = True
    quots = {}
    for (p, q) in x.bidegrees():
        sq = Subquotient(ring, x.rank(p, q), rel=spans.get((p, q)))
        if sq.torsion:
            raise TorsionQuotient(f"quotient at ({p},{q}) has torsion {sq.torsion}")
        if sq.rank:
            quots[(p, q)] = sq
    ds = {i: x.ds.get(i, {}) for i in (0, 1)}
    return _bicomplex(
        ring, {pq: sq.rank for pq, sq in quots.items()}, induced_structure(ds, quots)
    )


def to_bicomplex(x: TwistedComplex):
    """Reinterpret a twisted complex with d_i = 0 for i >= 2."""
    return _bicomplex(x.ring, dict(x.ranks), x.ds)


def embed(obj) -> TwistedComplex:
    """View a chain complex as the twisted complex on column 0; a
    twisted complex (bicomplexes included) is returned as it is."""
    if isinstance(obj, TwistedComplex):
        return obj
    if isinstance(obj, ChainComplex):
        ranks = {(0, n): r for n, r in obj.ranks.items()}
        d0 = {(0, n): m for n, m in obj.d.items()}
        return TwistedComplex(obj.ring, ranks, {0: d0}, check=False)
    raise BadParameter(f"cannot embed {type(obj).__name__}")


def embed_map(f) -> TwistedMap:
    from .chain import ChainMap

    if isinstance(f, TwistedMap):
        return f
    if isinstance(f, ChainMap):
        return TwistedMap(
            embed(f.source), embed(f.target),
            {(0, n): m for n, m in f.f.items()}, check=False,
        )
    raise BadParameter(f"cannot embed {type(f).__name__}")


# ---------------------------------------------------------------------------
# Kernels, cokernels, sums, totalisation and columns of maps
# ---------------------------------------------------------------------------

def kernel_twisted(f: TwistedMap):
    """Pointwise kernel with induced structure maps; returns the object
    and its inclusion into the source."""
    x = f.source
    subs = {}
    for pq in x.bidegrees():
        k = kernel_basis(f.component(*pq))
        if k.cols:
            subs[pq] = Subquotient(x.ring, k.rows, sub=k)
    ranks = {pq: sq.rank for pq, sq in subs.items()}
    obj = complex_like(
        (x, f.target), x.ring, ranks, induced_structure(x.ds, subs)
    )
    return obj, map_like(obj, x, {pq: sq.reps for pq, sq in subs.items()})


def cokernel_twisted(f: TwistedMap):
    """Quotient of the target by the image of f, with induced structure
    maps; over Z raises TorsionCokernel when the quotient is not free.
    Returns (object, projection map)."""
    y = f.target
    ring = y.ring
    quots = {}
    for (p, q) in y.bidegrees():
        sq = Subquotient(ring, y.rank(p, q), rel=image_basis(f.component(p, q)))
        if sq.torsion:
            raise TorsionCokernel(f"cokernel at ({p},{q}) has torsion {sq.torsion}")
        if sq.rank:
            quots[(p, q)] = sq
    ranks = {pq: sq.rank for pq, sq in quots.items()}
    coker = complex_like((f.source, y), ring, ranks, induced_structure(y.ds, quots))
    proj = map_like(y, coker, {
        pq: sq.classes(ExactMatrix.identity(ring, sq.n)) for pq, sq in quots.items()
    })
    return coker, proj


def induced_structure(ds: dict, sqs: dict) -> dict:
    """The structure maps induced on a family of subquotients: for each
    d_i of the family `ds` whose source pq and target (p - i, q + i - 1)
    both carry a subquotient in `sqs`, the classes of the images of the
    representatives at pq."""
    out = {}
    for i, fam in ds.items():
        out[i] = {}
        for (p, q), sq in sqs.items():
            m, key = fam.get((p, q)), (p - i, q + i - 1)
            if m is not None and key in sqs:
                out[i][(p, q)] = sqs[key].classes(m @ sq.reps)
    return out


def direct_sum_twisted(objs) -> TwistedComplex:
    objs = list(objs)
    if not objs:
        raise BadParameter("empty direct sum")
    ring = objs[0].ring
    support = sorted({pq for o in objs for pq in o.ranks})
    ranks = {pq: sum(o.rank(*pq) for o in objs) for pq in support}
    ds = {}
    for i in sorted({i for o in objs for i in o.ds}):
        ds[i] = fam = {}
        for (p, q) in support:
            blocks = {
                (k, k): o.ds[i][(p, q)]
                for k, o in enumerate(objs)
                if (p, q) in o.ds.get(i, {})
            }
            if blocks:
                fam[(p, q)] = ExactMatrix.block(
                    ring,
                    [o.rank(p - i, q + i - 1) for o in objs],
                    [o.rank(p, q) for o in objs],
                    blocks,
                )
    return complex_like(objs, ring, ranks, ds)


def tot_twisted_map(f: TwistedMap):
    """Totalisation of a strict map, blockwise over the column layout."""
    from .chain import ChainMap

    tx, ty = tot_twisted(f.source), tot_twisted(f.target)
    comps = {}
    for n in set(tx.ranks) & set(ty.ranks):
        src = tot_layout(f.source, n)
        tgt = tot_layout(f.target, n)
        tpos = {(p, q): k for k, (p, q, _) in enumerate(tgt)}
        blocks = {
            (tpos[(p, q)], j): f.f[(p, q)]
            for j, (p, q, _) in enumerate(src)
            if (p, q) in f.f
        }
        if blocks:
            comps[n] = ExactMatrix.block(
                tx.ring, [r for *_, r in tgt], [r for *_, r in src], blocks
            )
    return ChainMap(tx, ty, comps)


def column_twisted(x: TwistedComplex, p: int):
    """Column p with the degree-(0,-1) structure map as differential."""
    ranks = {q: r for (pp, q), r in x.ranks.items() if pp == p}
    d = {q: m for (pp, q), m in x.ds.get(0, {}).items() if pp == p}
    return ChainComplex(x.ring, ranks, d)


def column_twisted_map(f: TwistedMap, p: int):
    from .chain import ChainMap

    comps = {q: m for (pp, q), m in f.f.items() if pp == p}
    return ChainMap(
        column_twisted(f.source, p), column_twisted(f.target, p), comps
    )


def alternative_disc_words(p: int, q: int) -> dict:
    """Alternative basis of the free cell on one generator: all-positive
    words plus the words with a single leading zero."""
    table = {}
    for s in range(p + 1):
        for n in range(s + 2):
            words = _compositions(s, n) + [(0,) + c for c in _compositions(s, n - 1)]
            if words:
                table[(p - s, q + s - n)] = words
    return table


def alternative_basis_change(p: int, q: int, ring: RingSpec = ZZ) -> dict:
    """Per-bidegree matrix expressing the alternative basis in the
    canonical one (columns indexed by the alternative words)."""
    canon = disc_words(p, q)
    alt = alternative_disc_words(p, q)
    return {
        pq: _matrix_from_action(ring, words, canon[pq], normal_form)
        for pq, words in alt.items()
    }
