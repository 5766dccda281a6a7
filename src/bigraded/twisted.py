"""Twisted complexes: bigraded modules with a family of structure maps
d_i of bidegree (-i, i-1) satisfying the quadratic relations

    sum_{i+j=n} d_i d_j = 0   for every n >= 0.

This is the one carrier type of the package.  A bicomplex is the
subclass with d_i = 0 for i >= 2 (``bicomplex.Bicomplex``), and a chain
complex the bicomplex on column 0 with d_1 = 0 (``chain.ChainComplex``).
Every operation here serves all three; ``complex_like`` and
``map_like`` give a result the most special class of its inputs.

The module builds the free cell objects on one generator (the disc and
its vertical boundary) on a basis of words w = (w_1..w_n) of subscripts:
every letter positive, or positive letters then one trailing 0.  For
i >= 1, d_i w is the word (i, w), and d_0 has the closed formula

    d_0 w = sum_k (-1)^k sum_{0<a<w_k} (w_1..w_{k-1}, a, w_k - a, w_{k+1}..w_n)
            + (-1)^n (w, 0)   when w has no zero.

It also identifies boundary columns with simplicial cochain complexes,
and provides totalisation, tensor and strict-morphism spaces, kernels,
cokernels and direct sums, vertical homology, and the quotient down to
bicomplexes.
"""

from __future__ import annotations

from itertools import combinations

from .rings import RingSpec, ZZ, BadParameter, UnsupportedRing
from .matrices import ExactMatrix, _product, incidence
from .linalg import Subquotient, kernel_basis, image_basis


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

    def __init__(self, ring: RingSpec, ranks: dict, ds: dict, labels=None):
        self._set(ring, ranks, ds, labels)
        _checked(self)

    @classmethod
    def _of(cls, ring: RingSpec, ranks: dict, ds: dict) -> "TwistedComplex":
        """An object of this class on data that needs no check, because
        the operation that computed it proves the relations; each call
        site says how.  Data from outside goes through the constructor."""
        x = object.__new__(cls)
        x._set(ring, ranks, ds, None)
        return x

    def _set(self, ring, ranks, ds, labels):
        self.ring, self.labels = ring, labels
        self.ranks = {pq: r for pq, r in ranks.items() if r}
        fams = {i: {pq: m for pq, m in fam.items() if m is not None and not m.is_zero}
                for i, fam in ds.items()}
        self.ds = {i: fam for i, fam in fams.items() if fam}

    # -- access --------------------------------------------------------

    def rank(self, p: int, q: int) -> int:
        return self.ranks.get((p, q), 0)

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


def validate_map(f) -> list:
    """Empty list when the strict map f is valid, else a description of
    each violation: different rings; else every component of the wrong
    shape; else every (p, q) and i, in that order, where f does not
    commute with d_i."""
    src, tgt = f.source, f.target
    if src.ring != tgt.ring:
        return ["map between different rings"]
    bad = [
        f"component at ({p},{q}) has wrong shape"
        for (p, q), m in sorted(f.f.items())
        if m.cols != src.rank(p, q) or m.rows != tgt.rank(p, q)
    ]
    indices = sorted(set(src.ds) | set(tgt.ds))
    # the products are taken only when every shape fits
    return bad or [
        f"map does not commute with d_{i} at ({p},{q})"
        for (p, q) in sorted(set(src.ranks) | set(tgt.ranks))
        for i in indices
        if _product(tgt.ds.get(i, {}).get((p, q)), f.f.get((p, q)))
        != _product(f.f.get((p - i, q + i - 1)), src.ds.get(i, {}).get((p, q)))
    ]


class TwistedMap:
    """Strict morphism: bidegree (0,0) components commuting with every d_i."""

    def __init__(self, source: TwistedComplex, target: TwistedComplex, f: dict):
        if not issubclass(_carrier((source, target))[1], type(self)):
            raise BadParameter(f"a {type(self).__name__} needs ends of its kind")
        self._set(source, target, f)
        _checked(self)

    @classmethod
    def _of(cls, source: TwistedComplex, target: TwistedComplex, f: dict) -> "TwistedMap":
        """Unchecked, like `TwistedComplex._of`."""
        g = object.__new__(cls)
        g._set(source, target, f)
        return g

    def _set(self, source, target, f):
        self.source, self.target = source, target
        self.f = {pq: m for pq, m in f.items() if m is not None and not m.is_zero}

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
        # a composite of strict maps commutes with every d_i
        return _carrier((other.source, self.target))[1]._of(
            other.source,
            self.target,
            {pq: _product(self.f.get(pq), m) for pq, m in other.f.items()},
        )


# ---------------------------------------------------------------------------
# The carrier of a result
# ---------------------------------------------------------------------------

def _checked(x):
    """x, built unchecked, once the checker of its kind lists no
    violation; else BadParameter naming every violation."""
    is_map = isinstance(x, TwistedMap)
    bad = validate_map(x) if is_map else validate_twisted(x)
    if bad:
        raise BadParameter(f"invalid {'map' if is_map else 'twisted complex'}: " + "; ".join(bad))
    return x


def _carrier(objs) -> tuple:
    """(object class, map class) of the most special carrier, chain
    complex, bicomplex or twisted complex, that every object of `objs`
    belongs to."""
    from .bicomplex import Bicomplex, BicomplexMap
    from .chain import ChainComplex, ChainMap

    carriers = (ChainComplex, ChainMap), (Bicomplex, BicomplexMap), (TwistedComplex, TwistedMap)
    return next(c for c in carriers if all(isinstance(o, c[0]) for o in objs))


def complex_like(inputs, ring, ranks, ds) -> TwistedComplex:
    """The object an operation computed from `inputs` returns, of the
    carrier of the inputs: on chain complexes alone an operation keeps
    to column 0 and d_0, on bicomplexes to d_0 and d_1.  Which d_i
    happen to be nonzero never decides the type."""
    cls = _carrier(inputs)[0]
    if cls is not TwistedComplex and any(fam for i, fam in ds.items() if i >= 2):
        raise BadParameter("structure maps above d_1 present")
    return _checked(cls._of(ring, ranks, ds))


def map_like(source, target, f) -> TwistedMap:
    """A map of the carrier of its ends."""
    return _checked(_carrier((source, target))[1]._of(source, target, f))


# ---------------------------------------------------------------------------
# Words and the closed formula for d_0
# ---------------------------------------------------------------------------

def normal_form(word: tuple) -> dict:
    """d_i w for the word (i,) + w, w a basis word, as a dict from basis
    words to coefficients, by the formula of the module docstring: the
    closed form of pushing the zero right through w by the relation
    d_0 d_m = -sum_{a+b=m} d_a d_b (a >= 1).  The empty word is the
    generator.  Any other word raises BadParameter."""
    if not word:
        return {(): 1}
    i, w = word[0], word[1:]
    if i < 0 or any(a < 1 for a in w[:-1]) or (w and w[-1] < 0):
        raise BadParameter(f"{word} is not d_i of a basis word")
    if i:
        return {word: 1}
    out, sign = {}, 1
    for k, m in enumerate(w):
        sign = -sign
        for a in range(1, m):
            out[w[:k] + (a, m - a) + w[k + 1:]] = sign
    # sign is now (-1)^n
    if not w or w[-1]:
        out[w + (0,)] = sign
    return out


def _compositions(s: int, n: int):
    """Length-n sequences of positive integers summing to s, in
    lexicographic order: the gaps between n - 1 cut points in 1..s-1,
    whose sets come in the same order."""
    if n < 1 or s < 1:
        return [()] if n == s == 0 else []
    # tuple() of a list, not of a generator, which over-allocates: the
    # words are kept as the labels of the cells
    return [
        tuple([b - a for a, b in zip((0,) + cut, cut + (s,))])
        for cut in combinations(range(1, s), n - 1)
    ]


def _word_table(p: int, q: int, zeroed=None) -> dict:
    """Basis words of a free cell on a generator at (p, q), per
    bidegree: the all-positive words, then, when `zeroed` is given,
    zeroed(c) (c with one zero added) for the all-positive words c one
    letter shorter, each block in lexicographic order of c."""
    table = {}
    for s in range(p + 1):
        for n in range(s + 2):
            words = _compositions(s, n)
            if zeroed is not None:
                words = words + [zeroed(c) for c in _compositions(s, n - 1)]
            if words:
                table[(p - s, q + s - n)] = words
    return table


def disc_words(p: int, q: int) -> dict:
    """Canonical basis words of the free twisted cell on one generator in
    bidegree (p, q): per bidegree, all-positive words first, then the
    single-trailing-zero words, each block in lexicographic order."""
    return _word_table(p, q, lambda c: c + (0,))


def boundary_words(p: int, q: int) -> dict:
    """All-positive basis words of the vertical boundary of the cell at
    (p, q); the generator y sits at (p, q-1)."""
    return _word_table(p, q - 1)


def _cell(ring, words, act, indices) -> TwistedComplex:
    """The twisted complex free on the basis `words` (bidegree -> list of
    words) whose d_i, for i in `indices`, sends each word w to act(i, w),
    a dict word -> int coefficient."""
    ds = {i: {(p, q): incidence(ring, words[(p - i, q + i - 1)], ws, lambda w: act(i, w))
              for (p, q), ws in words.items() if (p - i, q + i - 1) in words}
          for i in indices}
    ranks = {pq: len(ws) for pq, ws in words.items()}
    return TwistedComplex(ring, ranks, ds, labels=words)


def twisted_disc(p: int, q: int, ring: RingSpec = ZZ) -> TwistedComplex:
    """Free twisted cell on one generator x in bidegree (p, q)."""
    if p < 0:
        raise BadParameter("column of the generator must be >= 0")
    return _cell(ring, disc_words(p, q), lambda i, w: normal_form((i,) + w), range(p + 1))


def _on_boundary(i: int, w: tuple) -> dict:
    """d_i of the boundary word w(y), y = d_0 x, as boundary words: the
    cell's d_i of w + (0,), with the trailing zero every term keeps."""
    return {w2[:-1]: c for w2, c in normal_form((i,) + w + (0,)).items()}


def twisted_boundary(p: int, q: int, ring: RingSpec = ZZ) -> TwistedComplex:
    """Subobject of the cell at (p, q) generated by d_0 of the generator;
    free on the all-positive words applied to y = d_0 x."""
    if p < 0:
        raise BadParameter("column of the generator must be >= 0")
    return _cell(ring, boundary_words(p, q), _on_boundary, range(p + 1))


def boundary_inclusion(p: int, q: int, ring: RingSpec = ZZ) -> TwistedMap:
    """The map sending each boundary word w(y) to w d_0 (x) in the cell."""
    src = twisted_boundary(p, q, ring)
    tgt = twisted_disc(p, q, ring)
    f = {pq: incidence(ring, tgt.labels[pq], ws, lambda w: {w + (0,): 1})
         for pq, ws in src.labels.items()}
    return TwistedMap(src, tgt, f)


def truncated_boundary(p: int, q: int, s: int, ring: RingSpec = ZZ) -> TwistedComplex:
    """Sub-bigraded-module of the vertical boundary spanned by y and the
    words with first subscript at most s, with only d_0 retained."""
    if p < 0 or s < 0:
        raise BadParameter("need p >= 0 and s >= 0")
    kept = {pq: [w for w in ws if not w or w[0] <= s]
            for pq, ws in boundary_words(p, q).items()}
    words = {pq: ws for pq, ws in kept.items() if ws}
    # d_0 only splits letters, so no first subscript grows past s
    return _cell(ring, words, _on_boundary, (0,))


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
    sign: with P_t the permutation matrix of word_to_simplex on cochain
    degree t, P_{t+1} d_0 = (-1)^t delta_t P_t, which becomes the uniform
    global sign -1 after rescaling degree t by (-1)^{t(t+1)/2}.

    With s None (or s >= p) column u of the full boundary, for p - u >= 2,
    is matched with the coaugmented cochains of the (p-u-2)-simplex; with
    a truncation s and 0 <= u < p-s-1 it is matched with the relative
    cochains modulo the front face spanned by 0..p-u-s-2.  Returns the
    basis bijection; raises MismatchAt on any disagreement."""
    from .chain import _cochain, cochain_basis

    n = p - u - 2
    if s is None or s >= p:
        if n < 0:
            raise BadParameter("absolute comparison needs p - u >= 2")
        obj, front = twisted_boundary(p, q, ring), None
    else:
        if not (0 <= u < p - s - 1):
            raise BadParameter("relative comparison needs 0 <= u < p - s - 1")
        # with s = 0 the front face is the whole simplex: no cochains
        obj, front = truncated_boundary(p, q, s, ring), n - s
    cochain = _cochain(n, ring, front)

    # the words at (u, q + n - t - 1) have t + 2 letters and subscript
    # sum p - u; they are matched with the cochains of degree t
    bijection, perm = {}, {}
    for t in range(-1, n + 1):
        qq = q + n - t - 1
        words, simps = obj.labels.get((u, qq), []), cochain_basis(n, t, front)
        if len(words) != len(simps):
            raise MismatchAt((u, qq), None, "rank disagreement at degree %d" % t)
        known = set(simps)
        for w in words:
            if word_to_simplex(w) not in known:
                raise MismatchAt((u, qq), w, "image simplex not in cochain basis")
            bijection[w] = word_to_simplex(w)
        perm[t] = incidence(ring, simps, words, lambda w: {word_to_simplex(w): 1})
    for t in range(-1, n):
        qq = q + n - t - 1
        delta = cochain.diff(-t) @ perm[t]
        signed = -delta if t % 2 else delta
        # an absent d_0 block is compared as the zero map
        d0 = obj.ds.get(0, {}).get((u, qq))
        diff = -signed if d0 is None else perm[t + 1] @ d0 - signed
        if not diff.is_zero:
            j = next(j for j, col in enumerate(diff.transpose().sparse_rows) if col)
            w = obj.labels[(u, qq)][j]
            raise MismatchAt((u, qq), w, f"P d_0 != (-1)^{t} delta P on {w}")
    return bijection


# ---------------------------------------------------------------------------
# Layouts of graded sums
# ---------------------------------------------------------------------------
#
# A layout is an ordered dict from the summands of a direct sum to their
# ranks; the coordinates of the sum are those of its summands in that
# order, and a matrix between two sums is assembled from blocks keyed by
# (target summand, source summand) through `summed`.

def summed(ring: RingSpec, tgt_layout: dict, src_layout: dict, blocks: dict) -> ExactMatrix:
    """The matrix from the sum laid out by `src_layout` to the one laid
    out by `tgt_layout` whose block at (target key, source key) is
    blocks[target key, source key]; every other block is zero."""
    tpos = {key: k for k, key in enumerate(tgt_layout)}
    spos = {key: k for k, key in enumerate(src_layout)}
    return ExactMatrix.block(
        ring, list(tgt_layout.values()), list(src_layout.values()),
        {(tpos[t], spos[s]): m for (t, s), m in blocks.items()},
    )


def tot_layout(x: TwistedComplex, n: int) -> dict:
    """(p, q) -> rank over the bidegrees of total degree n, by increasing
    column."""
    return dict(sorted([(pq, r) for pq, r in x.ranks.items() if pq[0] + pq[1] == n]))


def tensor_layout(x: TwistedComplex, y: TwistedComplex, p: int, q: int) -> dict:
    """(a, b, a2, b2) -> ra * rb over the summands X_{a,b} (x) Y_{a2,b2} of
    bidegree (p, q) of the tensor product, by first-factor bidegree."""
    return {
        (a, b, p - a, q - b): ra * rb
        for (a, b), ra in sorted(x.ranks.items())
        if (rb := y.rank(p - a, q - b))
    }


def hom_layout(x: TwistedComplex, y: TwistedComplex, p: int, q: int) -> dict:
    """(s, t) -> rx * ry over the summands Hom(X_{s,t}, Y_{s+p,t+q}) of the
    families of degree (p, q) from x to y; each component is flattened
    row-major."""
    return {
        (s, t): rx * ry
        for (s, t), rx in sorted(x.ranks.items())
        if (ry := y.rank(s + p, t + q))
    }


# ---------------------------------------------------------------------------
# Totalisation
# ---------------------------------------------------------------------------

def tot_twisted(x: TwistedComplex):
    """Total complex, a chain complex: degree n is the sum of the
    bidegrees with p+q = n (columns in increasing order) and the
    differential is sum_i d_i.  The d_i out of one bidegree land in
    distinct summands."""
    from .chain import ChainComplex

    layouts = {n: tot_layout(x, n) for n in sorted({p + q for p, q in x.ranks})}
    d = {}
    for n, src in layouts.items():
        blocks = {
            ((p - i, q + i - 1), (p, q)): fam[(p, q)]
            for (p, q) in src
            for i, fam in x.ds.items()
            if (p, q) in fam
        }
        if blocks:
            d[(0, n)] = summed(x.ring, layouts[n - 1], src, blocks)
    ranks = {(0, n): sum(lay.values()) for n, lay in layouts.items()}
    # unchecked: (sum_i d_i)^2 = 0 is the sum of the relations of x
    return ChainComplex._of(x.ring, ranks, {0: d})


def tot_twisted_map(f: TwistedMap):
    """Totalisation of a strict map, blockwise over the column layout."""
    comps = {
        (0, n): summed(f.source.ring, tot_layout(f.target, n), tot_layout(f.source, n), {
            (pq, pq): m for pq, m in f.f.items() if sum(pq) == n
        })
        for n in {p + q for p, q in f.f}
    }
    return map_like(tot_twisted(f.source), tot_twisted(f.target), comps)


# ---------------------------------------------------------------------------
# Tensor product
# ---------------------------------------------------------------------------

def tensor_twisted(x: TwistedComplex, y: TwistedComplex) -> TwistedComplex:
    """Tensor product with d_i(a (x) b) = d_i(a) (x) b + (-1)^{|a|} a (x) d_i(b),
    the sign using the total degree of the first factor."""
    if x.ring != y.ring:
        raise BadParameter("tensor over different rings")
    ring = x.ring
    support = {(a + a2, b + b2) for (a, b) in x.ranks for (a2, b2) in y.ranks}
    layouts = {pq: tensor_layout(x, y, *pq) for pq in support}
    ds = {}
    for i in sorted(set(x.ds) | set(y.ds)):
        xi, yi = x.ds.get(i, {}), y.ds.get(i, {})
        fam = {}
        for (p, q), src in layouts.items():
            blocks = {}
            for key in src:
                a, b, a2, b2 = key
                m = xi.get((a, b))
                if m is not None:
                    blocks[((a - i, b + i - 1, a2, b2), key)] = m.kron(
                        ExactMatrix.identity(ring, y.rank(a2, b2)))
                m = yi.get((a2, b2))
                if m is not None:
                    blk = ExactMatrix.identity(ring, x.rank(a, b)).kron(m)
                    blocks[((a, b, a2 - i, b2 + i - 1), key)] = -blk if (a + b) % 2 else blk
            if blocks:
                fam[(p, q)] = summed(ring, layouts[(p - i, q + i - 1)], src, blocks)
        if fam:
            ds[i] = fam
    return complex_like((x, y), ring, {pq: sum(lay.values()) for pq, lay in layouts.items()}, ds)


def tensor_twisted_map(f: TwistedMap, g: TwistedMap) -> TwistedMap:
    """Tensor of strict morphisms (no signs in bidegree (0,0))."""
    sx, sy, tx, ty = f.source, g.source, f.target, g.target
    src_obj = tensor_twisted(sx, sy)
    comps = {}
    for pq in src_obj.ranks:
        src = tensor_layout(sx, sy, *pq)
        blocks = {
            (key, key): f.f[key[:2]].kron(g.f[key[2:]])
            for key in src
            if key[:2] in f.f and key[2:] in g.f
        }
        comps[pq] = summed(sx.ring, tensor_layout(tx, ty, *pq), src, blocks)
    return map_like(src_obj, tensor_twisted(tx, ty), comps)


# ---------------------------------------------------------------------------
# Strict-morphism spaces
# ---------------------------------------------------------------------------
#
# A family f of degree (0, 0) from x to y is a vector in the coordinates
# of hom_layout(x, y, 0, 0).  Composing it with a fixed family of degree
# delta on either side is linear in f; for a component, row-major
# flattening turns g f into (g kron I) vec f and f e into (I kron e^T) vec f.

def _post_blocks(g: dict, x: TwistedComplex) -> dict:
    """Blocks of f |-> g f, for g a family keyed by source bidegree: the
    summand (s, t) of f goes to the summand (s, t) of g f."""
    return {
        (st, st): m.kron(ExactMatrix.identity(m.ring, x.rank(*st)))
        for st, m in g.items()
        if x.rank(*st)
    }


def _pre_blocks(e: dict, y: TwistedComplex, delta) -> dict:
    """Blocks of f |-> f e, for e a family of degree delta keyed by source
    bidegree: the summand (s, t) + delta of f goes to the summand (s, t)
    of f e."""
    dp, dq = delta
    return {
        ((s, t), (s + dp, t + dq)): ExactMatrix.identity(m.ring, ry).kron(m.transpose())
        for (s, t), m in e.items()
        if (ry := y.rank(s + dp, t + dq))
    }


def post_operator(g: dict, x: TwistedComplex, y: TwistedComplex, z: TwistedComplex, delta) -> ExactMatrix:
    """Matrix of f |-> g f from the families of degree (0, 0) from x to y
    to those of degree delta from x to z, for g a family y -> z of degree
    delta keyed by source bidegree."""
    return summed(x.ring, hom_layout(x, z, *delta), hom_layout(x, y, 0, 0), _post_blocks(g, x))


def pre_operator(e: dict, w: TwistedComplex, x: TwistedComplex, y: TwistedComplex, delta) -> ExactMatrix:
    """Matrix of f |-> f e from the families of degree (0, 0) from x to y
    to those of degree delta from w to y, for e a family w -> x of degree
    delta keyed by source bidegree."""
    return summed(x.ring, hom_layout(w, y, *delta), hom_layout(x, y, 0, 0), _pre_blocks(e, y, delta))


def morphism_space_basis(x: TwistedComplex, y: TwistedComplex) -> ExactMatrix:
    """Basis of the module of strict morphisms x -> y, as columns in the
    coordinates of hom_layout(x, y, 0, 0): the kernel of f |-> d_i f - f d_i
    for every i."""
    ring = x.ring
    src = hom_layout(x, y, 0, 0)
    rows = []
    for i in sorted(set(x.ds) | set(y.ds)):
        delta = (-i, i - 1)
        tgt = hom_layout(x, y, *delta)
        if not tgt:
            continue
        # d_i f sits in the summand (s, t) of f, f d_i in (s-i, t+i-1):
        # never the same one, since i = 0 and i = 1 cannot both hold
        blocks = _post_blocks(y.ds.get(i, {}), x)
        blocks.update({k: -m for k, m in _pre_blocks(x.ds.get(i, {}), y, delta).items()})
        rows.append(summed(ring, tgt, src, blocks))
    n = sum(src.values())
    if not rows:
        return ExactMatrix.identity(ring, n)
    return kernel_basis(ExactMatrix.vstack(ring, rows, cols=n))


def morphism_from_vector(x: TwistedComplex, y: TwistedComplex, vec) -> TwistedMap:
    """Inverse of the flattening used by morphism_space_basis."""
    comps = {}
    off = 0
    for (s, t), n in hom_layout(x, y, 0, 0).items():
        rx = x.rank(s, t)
        comps[(s, t)] = ExactMatrix.from_rows(
            x.ring, [vec[k : k + rx] for k in range(off, off + n, rx)]
        )
        off += n
    return map_like(x, y, comps)


def morphism_to_vector(f: TwistedMap) -> tuple:
    """The components of f flattened row-major, summands in the order of
    hom_layout: one column with a block per component."""
    ring = f.source.ring
    return summed(ring, hom_layout(f.source, f.target, 0, 0), {0: 1}, {
        (st, 0): ExactMatrix.column(ring, m.flat()) for st, m in f.f.items()
    }).col(0)


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
    i >= 2; the universal bicomplex receiving x.  Over Z a quotient
    with torsion raises TorsionQuotient."""
    from .bicomplex import Bicomplex

    ring = x.ring
    spans = {}
    # the closure at (p, q) is spanned by the images of the d_i (i >= 2)
    # landing there and by d_0 and d_1 of the closures at their sources
    # (p, q+1) and (p+1, q); by decreasing column, then decreasing row,
    # both sources come first, so one pass builds every closure, over Z
    # as over a field.  Each closure is kept as a basis of its span (a
    # lattice basis over Z): the generators alone multiply along every
    # path, to 1,587 more columns than rows at the (8, 0) cell
    for (p, q) in sorted(x.ranks, reverse=True):
        parts = [
            fam[src] if i >= 2 else fam[src] @ spans[src]
            for i, fam in sorted(x.ds.items())
            if (src := (p + i, q - i + 1)) in fam and (i >= 2 or src in spans)
        ]
        if parts:
            spans[(p, q)] = image_basis(ExactMatrix.hstack(ring, parts))
    quots = {}
    for (p, q) in x.bidegrees():
        sq = Subquotient(ring, x.rank(p, q), rel=spans.get((p, q)))
        if sq.torsion:
            raise TorsionQuotient(f"quotient at ({p},{q}) has torsion {sq.torsion}")
        if sq.rank:
            quots[(p, q)] = sq
    ds = induced_structure({i: x.ds.get(i, {}) for i in (0, 1)}, quots)
    return Bicomplex(ring, {pq: sq.rank for pq, sq in quots.items()}, ds[1], ds[0])


def embed(obj) -> TwistedComplex:
    """obj itself when it is bigraded, chain complexes included: a chain
    complex is already the bicomplex on column 0.  Anything else, such
    as a map, is refused."""
    if isinstance(obj, TwistedComplex):
        return obj
    raise BadParameter(f"cannot embed {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Kernels, cokernels, sums, lines and cones
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
        # the components span the image; an absent one relates nothing
        sq = Subquotient(ring, y.rank(p, q), rel=f.f.get((p, q)))
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
    if any(o.ring != ring for o in objs):
        raise BadParameter("direct sum over different rings")
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


def line(x: TwistedComplex, i: int, n: int):
    """Column n (i = 0) or row n (i = 1) of x as a chain complex with
    differential d_i, indexed by the other coordinate.  A row needs
    d_k = 0 for k >= 2, since only then does d_1 square to zero."""
    from .chain import ChainComplex

    if i not in (0, 1):
        raise BadParameter("a line is a column (i = 0) or a row (i = 1)")
    if i == 1 and any(k >= 2 for k in x.ds):
        raise BadParameter("a row needs d_i = 0 for i >= 2")
    ranks = {(0, pq[1 - i]): r for pq, r in x.ranks.items() if pq[i] == n}
    d = {(0, pq[1 - i]): m for pq, m in x.ds.get(i, {}).items() if pq[i] == n}
    # unchecked: d_0^2 = 0 is the relation n = 0 of x, and with no d_k
    # for k >= 2 the relation n = 2 is d_1^2 = 0
    return ChainComplex._of(x.ring, ranks, {0: d})


def cone_twisted(f: TwistedMap, i: int) -> TwistedComplex:
    """The mapping cone of f along d_i, i = 0 or 1: X_{p,q} sits at
    (p + i, q + 1 - i) beside Y_{p,q}, and d_k is [[-d_k^X, 0], [f, d_k^Y]]
    with the block f only for k = i.  Its columns (i = 0), rows (i = 1)
    and Tot (up to the order of summands) are the cones of those of f.
    A TwistedComplex for every f: the tests read only its lines and Tot."""
    if i not in (0, 1):
        raise BadParameter("a cone is taken along d_0 or d_1")
    x, y = f.source, f.target

    def at(p, q):  # where X_{p,q} sits in the cone
        return (p + i, q + 1 - i)

    ranks = {at(*pq): r for pq, r in x.ranks.items()}
    for pq, r in y.ranks.items():
        ranks[pq] = ranks.get(pq, 0) + r
    ds = {}
    for k in sorted(set(x.ds) | set(y.ds) | {i}):
        dx, dy, fk = x.ds.get(k, {}), y.ds.get(k, {}), f.f if k == i else {}
        fam = ds[k] = {}
        # only the bidegrees where some block is stored
        for (p, q) in {at(*pq) for pq in (*dx, *fk)} | set(dy):
            src, tgt = (p - i, q - 1 + i), (p - k - i, q + k - 2 + i)
            blocks = {(1, 0): fk.get(src), (1, 1): dy.get((p, q))}
            if src in dx:
                blocks[(0, 0)] = -dx[src]
            fam[(p, q)] = ExactMatrix.block(
                y.ring, [x.rank(*tgt), y.rank(p - k, q + k - 1)], [x.rank(*src), y.rank(p, q)], blocks
            )
    # unchecked: the relations of x and y give those of the diagonal, and
    # the f block of sum_{a+b=n} d_a d_b is d_{n-i}^Y f - f d_{n-i}^X = 0
    # because f commutes with every d_k
    return TwistedComplex._of(y.ring, ranks, ds)


def alternative_disc_words(p: int, q: int) -> dict:
    """Alternative basis of the free cell on one generator: all-positive
    words plus the words with a single leading zero."""
    return _word_table(p, q, lambda c: (0,) + c)


def alternative_basis_change(p: int, q: int, ring: RingSpec = ZZ) -> dict:
    """Per-bidegree matrix expressing the alternative basis in the
    canonical one (columns indexed by the alternative words)."""
    canon = disc_words(p, q)
    return {pq: incidence(ring, canon[pq], words, normal_form)
            for pq, words in alternative_disc_words(p, q).items()}
