"""Map classifiers, lifting problems and resolutions for the three
homotopy structures on bigraded complexes.

Three structures are supported, named by strings:

* ``"tot"`` on bicomplexes: weak equivalences are the maps whose
  totalisation is a quasi-isomorphism, fibrations are the pointwise
  surjections inducing vertical homology isomorphisms in positive
  columns.
* ``"ce"`` on bicomplexes: weak equivalences are the maps inducing
  isomorphisms on the horizontal homology of the vertical homology,
  fibrations are pointwise surjections that are surjective on vertical
  cycles in positive columns and induce horizontal homology
  isomorphisms.
* ``"twisted-tot"`` on twisted complexes: the analogue of ``"tot"``
  with the degree-(0,-1) structure map playing the vertical role.  A
  bicomplex is a twisted complex with d_v = d_0, so ``"tot"`` and
  ``"twisted-tot"`` share one classifier.

``"tot"`` and ``"ce"`` refuse objects with some d_i != 0, i >= 2, up
front with ``BadParameter``: their cells and conditions are those of
bicomplexes.  A chain complex is the bicomplex on column 0, so chain
complexes and chain maps go into every entry point as they are.

Each structure comes with finite families of generating inclusions
A -> B; every family member is a cell inclusion between standard
spheres, discs and boundaries.  The module decides right lifting
properties against these families exactly, classifies maps by the
closed-form conditions above, computes pushouts along the generating
inclusions, and builds pointwise free horizontal resolutions of chain
complexes.

Lifting is decided by representability.  Every cell B is free on one
generator b at a bidegree beta, subject to d_i b = 0 for i in a set
R_B, so a map B -> X is one element of
K_B^X = ker [d_i(X) at beta, i in R_B].  The source A is 0 or a cell of
the same kind on a at alpha, the bidegree of d_k b, and the inclusion
sends a to +-d_k b; the sign does not matter, because a -> -a is an
automorphism of A.  For g: X -> Y the squares are the pairs
(u, f) in K_A^X + K_B^Y with g u = d_k f, the diagonals give the
squares (d_k h, g h) for h in K_B^X, and g has the right lifting
property exactly when those fill all squares (`has_rlp`).  The data per
family (`_CELLS`):

===============================  ==========  ======  ======  =
family                           beta        R_B     R_A     k
===============================  ==========  ======  ======  =
``TwI_BoundaryToDisc(p, q)``     (p, q)      {}      {0}     0
``TwJ_ZeroToDisc0(q)``           (0, q)      {}      A = 0
``TotI_SphereToHBoundary(q)``    (0, q)      {1}     {0, 1}  0
``TotI_VBoundaryToDisc(p, q)``   (p, q)      {}      {0}     0
``TotJ_ZeroToHBoundary(q)``      (0, q)      {1}     A = 0
``CEI_ZeroToHBoundary(q)``       (0, q)      {1}     A = 0
``CEI_ZeroToSphere(q)``          (0, q)      {0, 1}  A = 0
``CEI_SphereToVBoundary(p, q)``  (p, q - 1)  {0}     {0, 1}  1
``CEI_HBoundaryToDisc(p, q)``    (p, q)      {}      {1}     1
``CEJ_ZeroToVBoundary(p, q)``    (p, q - 1)  {0}     A = 0
===============================  ==========  ======  ======  =

alpha = beta + (-k, k - 1).  The generating maps themselves are built
by `generator_map` from the same table, for `solve_lift`, `pushout` and
the tensor identities: B is the bicomplex cell free on b at beta
subject to R_B, and A the one on a at alpha subject to R_A, included by
identity blocks (the twisted families include their boundary by
`boundary_inclusion`).  The tests check `has_rlp` against whole
morphism spaces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .rings import RingSpec, ZZ, QQ, BadParameter, UnsupportedRing
from .matrices import ExactMatrix, _product
from .linalg import (
    NoSolution,
    coordinates_in,
    image_basis,
    is_surjective,
    kernel_basis,
    rank,
    solve_exact,
)
from .chain import ChainComplex, homology, is_acyclic
from .bicomplex import (
    Bicomplex,
    BicomplexMap,
    TorsionInSubquotient,
    bic_disc,
    bic_sphere,
    e2_vanishes,
    h_boundary,
    subquotient_map,
    v_boundary,
)
from .twisted import (
    TwistedComplex,
    TwistedMap,
    boundary_inclusion,
    complex_like,
    cone_twisted,
    direct_sum_twisted,
    line,
    map_like,
    morphism_from_vector,
    morphism_space_basis,
    morphism_to_vector,
    post_operator,
    pre_operator,
    tensor_twisted,
    tensor_twisted_map,
    tot_twisted,
    twisted_disc,
)


class BadSquare(Exception):
    """The four maps of a lifting problem do not form a commuting square."""


class NoLift(Exception):
    """The lifting problem has no solution over the given ring."""


STRUCTURES = ("tot", "ce", "twisted-tot")


def structure_name(structure) -> str:
    if structure in STRUCTURES:
        return structure
    raise BadParameter(f"unknown structure {structure!r}")


def _checked_structure(structure, x) -> str:
    """The structure name, once the object or map x is checked to be
    valid for it: for "tot" and "ce" (their cells, conditions and
    lifting data) with d_i = 0 for i >= 2."""
    structure = structure_name(structure)
    if structure != "twisted-tot":
        for obj in (x.source, x.target) if isinstance(x, TwistedMap) else (x,):
            extra = [i for i in obj.indices() if i >= 2]
            if extra:
                raise BadParameter(
                    f"structure {structure!r} needs bicomplexes, "
                    f"but an input has d_{extra[0]} != 0"
                )
    return structure


# ---------------------------------------------------------------------------
# Generating inclusions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorRef:
    """A member of one of the generating families, tagged by family name
    and the cell parameters (p is ignored by the q-indexed families)."""

    family: str
    p: int = 0
    q: int = 0


@dataclass(frozen=True)
class _Cell:
    """A generating family as generator data.  The target cell B is free
    on one generator b, subject to d_i b = 0 for i in `rel_b`; b sits in
    column 0 when `pmin` is None (a family indexed by q alone), else in
    column p, and in row q + `dq`.  The source A is 0 when `rel_a` is
    None; otherwise it is free on a at the bidegree of d_k b, subject to
    d_i a = 0 for i in `rel_a`, and the inclusion sends a to +-d_k b."""

    pmin: int | None
    dq: int
    rel_b: tuple
    rel_a: tuple | None
    k: int = 0


_CELLS = {
    "TwI_BoundaryToDisc": _Cell(0, 0, (), (0,)),
    "TwJ_ZeroToDisc0": _Cell(None, 0, (), None),
    "TotI_SphereToHBoundary": _Cell(None, 0, (1,), (0, 1)),
    "TotI_VBoundaryToDisc": _Cell(1, 0, (), (0,)),
    "TotJ_ZeroToHBoundary": _Cell(None, 0, (1,), None),
    "CEI_ZeroToHBoundary": _Cell(None, 0, (1,), None),
    "CEI_ZeroToSphere": _Cell(None, 0, (0, 1), None),
    "CEI_SphereToVBoundary": _Cell(1, -1, (0,), (0, 1), k=1),
    "CEI_HBoundaryToDisc": _Cell(1, 0, (), (1,), k=1),
    "CEJ_ZeroToVBoundary": _Cell(1, -1, (0,), None),
}


def _cell(ref: GeneratorRef) -> tuple:
    """(table entry, bidegree of the generator b of the target cell) for
    `ref`; BadParameter for an unknown family or a p below its range."""
    cell = _CELLS.get(ref.family)
    if cell is None:
        raise BadParameter(f"unknown generator family {ref.family!r}")
    if cell.pmin is None:
        return cell, (0, ref.q + cell.dq)
    if ref.p < cell.pmin:
        raise BadParameter(f"{ref.family} needs p >= {cell.pmin}")
    return cell, (ref.p, ref.q + cell.dq)


GENERATING_FAMILIES = {
    ("tot", "I"): ("TotI_SphereToHBoundary", "TotI_VBoundaryToDisc"),
    ("tot", "J"): ("TotJ_ZeroToHBoundary", "TotI_VBoundaryToDisc"),
    ("ce", "I"): (
        "CEI_ZeroToSphere",
        "CEI_SphereToVBoundary",
        "CEI_ZeroToHBoundary",
        "CEI_HBoundaryToDisc",
    ),
    ("ce", "J"): (
        "CEJ_ZeroToVBoundary",
        "CEI_ZeroToHBoundary",
        "CEI_HBoundaryToDisc",
    ),
    ("twisted-tot", "I"): ("TwI_BoundaryToDisc",),
    ("twisted-tot", "J"): ("TwJ_ZeroToDisc0", "TwI_BoundaryToDisc"),
}


def generator_map(ref: GeneratorRef, ring: RingSpec = ZZ):
    """The inclusion named by `ref`, as a BicomplexMap (tot/ce families)
    or a TwistedMap (twisted families)."""
    cell, _ = _cell(ref)
    # the q-indexed families ignore p, so their cached ref has p = 0
    return _generator_map(GeneratorRef(ref.family, 0 if cell.pmin is None else ref.p, ref.q), ring)


# The bicomplex cell free on one generator at (p, q) subject to d_i = 0
# for i in the key; the twisted families build their own cells.
_FREE_CELLS = {
    (): lambda p, q, ring: bic_disc(p, q, 1, ring),
    (1,): lambda p, q, ring: h_boundary(p + 1, q, 1, ring),
    (0,): lambda p, q, ring: v_boundary(p, q + 1, 1, ring),
    (0, 1): lambda p, q, ring: bic_sphere(p, q, 1, ring),
}


@lru_cache
def _generator_map(ref: GeneratorRef, ring: RingSpec):
    cell, (p, q) = _cell(ref)
    if ref.family == "TwI_BoundaryToDisc":
        return boundary_inclusion(p, q, ring)
    if ref.family == "TwJ_ZeroToDisc0":
        return TwistedMap(TwistedComplex(ring, {}, {}), twisted_disc(0, q, ring), {})
    b = _FREE_CELLS[cell.rel_b](p, q, ring)
    if cell.rel_a is None:
        return BicomplexMap(Bicomplex(ring, {}, {}, {}), b, {})
    a = _FREE_CELLS[cell.rel_a](p - cell.k, q + cell.k - 1, ring)
    one = ExactMatrix.identity(ring, 1)
    return BicomplexMap(a, b, {pq: one for pq in a.ranks})


def relevant_generators(f, structure, which: str) -> list:
    """The finitely many generators of the given family set whose cells
    can meet the support of f: the support rectangle enlarged by one in
    each direction, clipped to each family's legal range."""
    structure = structure_name(structure)
    if which not in ("I", "J"):
        raise BadParameter("which must be 'I' or 'J'")
    supp = set(f.source.ranks) | set(f.target.ranks)
    if not supp:
        return []
    ps = [p for p, _ in supp]
    qs = [q for _, q in supp]
    plo, phi = min(ps) - 1, max(ps) + 1
    qlo, qhi = min(qs) - 1, max(qs) + 1
    out = []
    for fam in GENERATING_FAMILIES[(structure, which)]:
        pmin = _CELLS[fam].pmin
        if pmin is None:
            out.extend(GeneratorRef(fam, 0, q) for q in range(qlo, qhi + 1))
        else:
            if fam == "TwI_BoundaryToDisc" and which == "J":
                pmin = 1
            out.extend(
                GeneratorRef(fam, p, q)
                for p in range(max(pmin, plo), phi + 1)
                for q in range(qlo, qhi + 1)
            )
    return out


# ---------------------------------------------------------------------------
# Lifting problems
# ---------------------------------------------------------------------------

@dataclass
class LiftingProblem:
    """A commuting square u∘? : i is the left map A -> B, g the right map
    X -> Y, u the top map A -> X, f the bottom map B -> Y."""

    i: object
    g: object
    u: object
    f: object


def solve_lift(problem: LiftingProblem):
    """An exact diagonal h: B -> X with h∘i = u and g∘h = f, in the
    category of the inputs.  Raises BadSquare when g∘u != f∘i and NoLift
    when the (finite) linear system has no solution over the ring."""
    it, gt, ut, ft = problem.i, problem.g, problem.u, problem.f
    a, b = it.source, it.target
    x, y = gt.source, gt.target
    if ut.source != a or ut.target != x or ft.source != b or ft.target != y:
        raise BadParameter("lifting problem maps do not share objects")
    # a map stores no zero component, so equal maps have equal dicts
    if gt.compose(ut).f != ft.compose(it).f:
        raise BadSquare("g∘u != f∘i")
    ring = a.ring
    h_basis = morphism_space_basis(b, x)
    # h |-> (h∘i, g∘h) on the coordinates of the basis
    system = ExactMatrix.vstack(ring, [
        pre_operator(it.f, a, b, x, (0, 0)), post_operator(gt.f, b, x, y, (0, 0)),
    ]) @ h_basis
    rhs = tuple(morphism_to_vector(ut)) + tuple(morphism_to_vector(ft))
    coeffs = solve_exact(system, rhs)
    if coeffs is None:
        raise NoLift("no diagonal exists over this ring")
    vec = h_basis.apply(coeffs) if h_basis.cols else (ring.zero(),) * h_basis.rows
    return morphism_from_vector(b, x, vec)


def _cycles(x, pq, rels) -> ExactMatrix | None:
    """Columns: a basis of the elements of x at pq killed by every d_i
    with i in `rels`, that is of Mor(B, x) for a cell B free on one
    generator at pq subject to those relations (Yoneda).  None stands
    for all of x at pq, when no such d_i is stored."""
    ds = [x.ds[i][pq] for i in rels if pq in x.ds.get(i, {})]
    return kernel_basis(ExactMatrix.vstack(x.ring, ds)) if ds else None


def _dim(x, pq, k) -> int:
    return x.rank(*pq) if k is None else k.cols


def _on(m, k):
    """m on the cycles k (None: on all of its source); None when zero."""
    return m if k is None else _product(m, k)


def _basis(x, pq, k) -> ExactMatrix:
    """The cycles k as a matrix, for the lattice tests over Z."""
    return ExactMatrix.identity(x.ring, x.rank(*pq)) if k is None else k


def _spans(gens: ExactMatrix, vectors: ExactMatrix) -> bool:
    """Whether every column of `vectors` lies in the span of the columns
    of `gens` (over Z: in the lattice they generate)."""
    try:
        coordinates_in(gens, vectors)
    except NoSolution:
        return False
    return True


def has_rlp(g, ref: GeneratorRef) -> bool:
    """Whether g: X -> Y has the right lifting property against the
    generating inclusion i: A -> B named by `ref`.

    Every generating cell is free on one generator, so the question is
    decided at one or two bidegrees, by the table of the module
    docstring (stored as `_CELLS`).  A map B -> W is an element of
    K_B^W, the elements of W at the bidegree beta of b killed by the
    relations of b; likewise for A at alpha, the bidegree of d_k b.
    With i(a) = d_k b (the sign of the inclusion does not matter),

    * the squares are S = {(u, f) in K_A^X + K_B^Y : g u = d_k f};
    * a diagonal h in K_B^X gives the square Phi(h) = (d_k h, g h);
    * g has the property exactly when im Phi contains S: a rank
      comparison over a field, lattice containment over Z.

    When A = 0 this is surjectivity of g: K_B^X -> K_B^Y.  Valid for the
    bicomplex families only when X and Y are bicomplexes."""
    cell, beta = _cell(ref)
    x, y = g.source, g.target
    ring = x.ring
    kby = _cycles(y, beta, cell.rel_b)
    if cell.rel_a is None:
        if _dim(y, beta, kby) == 0:
            return True
        if beta not in g.f:  # K_B^Y is nonzero and g is zero there
            return False
        kbx = _cycles(x, beta, cell.rel_b)
        lifts = g.f[beta] if kbx is None else g.f[beta] @ kbx
        if ring.is_field:
            return rank(lifts) == _dim(y, beta, kby)
        return _spans(lifts, _basis(y, beta, kby))
    alpha = (beta[0] - cell.k, beta[1] + cell.k - 1)
    kax = _cycles(x, alpha, cell.rel_a)
    dax, dby = _dim(x, alpha, kax), _dim(y, beta, kby)
    if dax + dby == 0:
        return True
    kbx = _cycles(x, beta, cell.rel_b)
    # only stored blocks enter: an absent one is None and is never built
    dx, dy = x.ds.get(cell.k, {}).get(beta), y.ds.get(cell.k, {}).get(beta)
    # S in coordinates of K_A^X + K_B^Y is the kernel of `relation`
    relation = ExactMatrix.block(ring, [y.rank(*alpha)], [dax, dby], {
        (0, 0): _on(g.f.get(alpha), kax),
        (0, 1): None if dy is None else _on(-dy, kby),
    })
    lifts = ExactMatrix.block(ring, [x.rank(*alpha), y.rank(*beta)], [_dim(x, beta, kbx)], {
        (0, 0): _on(dx, kbx), (1, 0): _on(g.f.get(beta), kbx),
    })
    if ring.is_field:
        # im Phi lies in S, so it contains S when the dimensions agree
        return rank(lifts) == relation.cols - rank(relation)
    coords = kernel_basis(relation)
    if coords.cols == 0:
        return True
    kax, kby = _basis(x, alpha, kax), _basis(y, beta, kby)
    return _spans(lifts, ExactMatrix.direct_sum(ring, [kax, kby]) @ coords)


@dataclass
class RLPReport:
    structure: str
    per_generator: dict
    has_rlp_I: bool
    has_rlp_J: bool


def rlp_report(f, structure) -> RLPReport:
    """Decide the right lifting property of f against every relevant
    generator of both families of the structure."""
    structure = _checked_structure(structure, f)
    cache = {}
    per = {}
    flags = {}
    for which in ("I", "J"):
        ok = True
        for ref in relevant_generators(f, structure, which):
            if ref not in cache:
                cache[ref] = has_rlp(f, ref)
            per[(which, ref)] = cache[ref]
            ok = ok and cache[ref]
        flags[which] = ok
    return RLPReport(structure, per, flags["I"], flags["J"])


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------

@dataclass
class ClassifyReport:
    structure: str
    is_weq: object  # bool, or None when not computable over the ring
    is_fibration: bool
    is_trivial_fibration: bool
    evidence: dict = field(default_factory=dict)


def _pointwise_surjective(f) -> tuple:
    # target ranks are positive, so an absent component is a failure
    failures = [
        pq for pq in f.target.ranks if pq not in f.f or not is_surjective(f.f[pq])
    ]
    return not failures, failures


def classify_map(f, structure) -> ClassifyReport:
    """Evaluate the closed-form fibration / trivial-fibration / weak
    equivalence conditions of the structure on a bounded map."""
    structure = _checked_structure(structure, f)
    evidence = {}
    surj, surj_fail = _pointwise_surjective(f)
    evidence["surjective"] = surj
    if surj_fail:
        evidence["surjective_failures"] = surj_fail
    cols = sorted({p for p, _ in set(f.source.ranks) | set(f.target.ranks)})
    rows = sorted({q for _, q in set(f.source.ranks) | set(f.target.ranks)})

    # the columns, rows and Tot of the cone of f along d_0 or d_1 are the
    # cones of those of f: each condition is an acyclic line or Tot
    if structure in ("tot", "twisted-tot"):
        c = cone_twisted(f, 0)
        col_iso = {p: is_acyclic(line(c, 0, p)) for p in cols}
        # acyclic columns make E_1 of the cone zero, so its Tot is acyclic
        weq = all(col_iso.values()) or is_acyclic(tot_twisted(c))
        evidence["column_homology_iso"] = col_iso
        fib = surj and all(ok for p, ok in col_iso.items() if p > 0)
        triv = surj and all(col_iso.values())
        report = ClassifyReport(structure, weq, fib, triv, evidence)
    else:
        zf = subquotient_map(f, "v", "Z")
        # in the order of f's target, like the pointwise failures above
        zfail = set(_pointwise_surjective(zf)[1])
        zv_fail = [(p, q) for p, q in f.target.ranks if p > 0 and (p, q) in zfail]
        zv_ok = not zv_fail
        evidence["vertical_cycles_surjective"] = zv_ok
        if zv_fail:
            evidence["vertical_cycles_failures"] = zv_fail
        c = cone_twisted(f, 1)
        hh_iso = {q: is_acyclic(line(c, 1, q)) for q in rows}
        evidence["row_homology_iso"] = hh_iso
        fib = surj and zv_ok and all(hh_iso.values())
        zrows = sorted({q for _, q in set(zf.source.ranks) | set(zf.target.ranks)})
        zc = cone_twisted(zf, 1)
        hh_zv = {q: is_acyclic(line(zc, 1, q)) for q in zrows}
        evidence["row_homology_of_vertical_cycles_iso"] = hh_zv
        triv = fib and all(hh_zv.values())
        weq = None
        try:
            weq = e2_vanishes(c)  # e2_iso(f), on the cone built above
        except TorsionInSubquotient:
            evidence["weq_unavailable"] = "vertical homology has torsion"
        report = ClassifyReport(structure, weq, fib, triv, evidence)

    if report.is_trivial_fibration:
        assert report.is_fibration
        if report.is_weq is not None:
            assert report.is_weq
    return report


@dataclass
class CofibrancyReport:
    """Necessary conditions for an object to be cofibrant; passing them
    does not certify cofibrancy."""

    structure: str
    conditions: dict
    passes: bool
    necessary_only: bool = True


def cofibrancy_report(x, structure) -> CofibrancyReport:
    structure = _checked_structure(structure, x)
    conds = {}
    if structure in ("tot", "twisted-tot"):
        # objects are pointwise free by construction
        conds["pointwise_projective"] = True
    if structure == "tot":
        ok_pos = True
        ok_zero = True
        for q in sorted({qq for _, qq in x.ranks}):
            h = homology(line(x, 1, q))
            for p, cls in h.items():
                if p > 0 and not cls.is_zero:
                    ok_pos = False
                if p == 0 and cls.torsion:
                    ok_zero = False
        conds["row_homology_vanishes_in_positive_degrees"] = ok_pos
        conds["row_homology_at_zero_projective"] = ok_zero
    if structure == "ce":
        conds["injective_into_itself"] = True
        conds["vertical_boundaries_projective"] = True
        ok = True
        for p in sorted({pp for pp, _ in x.ranks}):
            h = homology(line(x, 0, p))
            if any(cls.torsion for cls in h.values()):
                ok = False
        conds["vertical_homology_projective"] = ok
    return CofibrancyReport(structure, conds, all(conds.values()))


# ---------------------------------------------------------------------------
# Pushouts along generating inclusions
# ---------------------------------------------------------------------------

def pushout(i, a):
    """Pushout of the identity-block inclusion i: A -> B along a: A -> X.
    Returns (X', inclusion X -> X'); the cokernel of the inclusion equals
    the cokernel of i."""
    if a.source != i.source:
        raise BadParameter("pushout needs maps with a common source")
    A, B, X = i.source, i.target, a.target
    ring = B.ring
    for pq, r in A.ranks.items():
        if r != B.rank(*pq) or i.f.get(pq) != ExactMatrix.identity(ring, r):
            raise BadParameter("pushout requires an identity-block inclusion")
    extra = {pq: r for pq, r in B.ranks.items() if A.rank(*pq) == 0}
    ranks = {}
    for pq in set(X.ranks) | set(extra):
        ranks[pq] = X.rank(*pq) + extra.get(pq, 0)
    ds = {}
    for n in sorted(set(X.indices()) | set(B.indices())):
        fam = {}
        for (p, q) in ranks:
            tgt = (p - n, q + n - 1)
            # d_n of B on a new summand lands in the new summands, or
            # through a in X where B agrees with A
            db = B.ds.get(n, {}).get((p, q)) if (p, q) in extra else None
            blocks = {
                (0, 0): X.ds.get(n, {}).get((p, q)),
                (0, 1): None if tgt in extra else _product(a.f.get(tgt), db),
                (1, 1): db if tgt in extra else None,
            }
            if any(blocks.values()):
                fam[(p, q)] = ExactMatrix.block(
                    ring,
                    [X.rank(*tgt), extra.get(tgt, 0)],
                    [X.rank(p, q), extra.get((p, q), 0)],
                    blocks,
                )
        if fam:
            ds[n] = fam
    out = complex_like((A, B, X), ring, ranks, ds)
    incl_comps = {
        pq: ExactMatrix.block(
            ring, [r, extra.get(pq, 0)], [r], {(0, 0): ExactMatrix.identity(ring, r)}
        )
        for pq, r in X.ranks.items()
    }
    return out, map_like(X, out, incl_comps)


# ---------------------------------------------------------------------------
# Horizontal resolutions of chain complexes
# ---------------------------------------------------------------------------

def ce_resolution(y: ChainComplex):
    """A pointwise free bicomplex P of horizontal width <= 2 together
    with a map P -> y (y the bicomplex on column 0) that is surjective
    in horizontal degree 0 with exact rows in positive degrees; the rows
    of the vertical cycles, boundaries and homology of P resolve those
    of y."""
    ring = y.ring
    if not (ring == ZZ or ring.is_field):
        raise UnsupportedRing("resolution needs the integers or a field")
    ranks = {}
    d_h = {}
    d_v = {}
    eps = {}
    data = {}
    for q in y.degrees():
        bmat = image_basis(y.diff(q + 1))
        kmat = kernel_basis(y.diff(q))
        bprev = image_basis(y.diff(q))
        sizes = [bmat.cols, kmat.cols, bprev.cols]
        data[q] = sizes
        ranks[(0, q)] = sum(sizes)
        eps_blocks = {(0, 0): bmat, (0, 1): kmat}
        if bprev.cols:
            eps_blocks[(0, 2)] = coordinates_in(y.diff(q), bprev)
        eps[(0, q)] = ExactMatrix.block(ring, [y.rank(0, q)], sizes, eps_blocks)
        if bmat.cols:
            ranks[(1, q)] = bmat.cols
            d_h[(1, q)] = ExactMatrix.block(
                ring, sizes, [bmat.cols], {
                    (0, 0): -ExactMatrix.identity(ring, bmat.cols),
                    (1, 0): coordinates_in(kmat, bmat),
                },
            )
    for q, (b, z, bp) in data.items():
        if bp and (0, q - 1) in ranks:
            # boundaries one degree down are covered by the third block
            d_v[(0, q)] = ExactMatrix.block(
                ring, data[q - 1], [b, z, bp], {(0, 2): ExactMatrix.identity(ring, bp)}
            )
    p_obj = Bicomplex(ring, ranks, d_h, d_v)
    return p_obj, BicomplexMap(p_obj, y, eps)


# ---------------------------------------------------------------------------
# Cell identities
# ---------------------------------------------------------------------------

# Random combinations tried before an isomorphism search gives up.
_ISO_TRIES = 80


def _find_iso(x: Bicomplex, y: Bicomplex, rng):
    """A pointwise invertible strict map x -> y over the rationals, found
    by random combinations of a basis of the morphism space; None if the
    rank tables differ or no invertible combination is found."""
    if dict(x.ranks) != dict(y.ranks):
        return None
    xq, yq = x.to_ring(QQ), y.to_ring(QQ)
    basis = morphism_space_basis(xq, yq)
    if basis.cols == 0:
        return None if x.ranks else map_like(xq, yq, {})
    return _invertible(xq, yq, basis, (0,) * basis.cols, ExactMatrix.identity(QQ, basis.cols), rng)


def _invertible(x, y, basis, part, null, rng):
    """A pointwise invertible map x -> y whose coordinates in the columns
    of `basis` are part + null c for a random c, or None when no draw of
    c finds one."""
    for _ in range(_ISO_TRIES):
        shift = null.apply([Fraction(rng.randint(-3, 3)) for _ in range(null.cols)])
        m = morphism_from_vector(x, y, basis.apply([a + b for a, b in zip(part, shift)]))
        if all(rank(m.component(*pq)) == r for pq, r in x.ranks.items()):
            return m
    return None


def _certify_map_identity(p: int, q: int, rng):
    """Check that tensoring the one-cell horizontal boundary inclusion
    with the sphere-to-vertical-boundary inclusion at (p, q) gives the
    horizontal-boundary-to-disc inclusion, up to explicitly constructed
    isomorphisms on both ends."""
    hb = h_boundary(1, 1, 1, QQ)
    left = tensor_twisted_map(
        BicomplexMap.identity(hb),
        generator_map(GeneratorRef("CEI_SphereToVBoundary", p, q), QQ),
    )
    right = generator_map(GeneratorRef("CEI_HBoundaryToDisc", p, q), QQ)
    phi1 = _find_iso(left.source, right.source, rng)
    if phi1 is None:
        return False, "no isomorphism between the sources"
    a2, b2 = left.target, right.target
    if dict(a2.ranks) != dict(b2.ranks):
        return False, "target rank tables differ"
    h_basis = morphism_space_basis(a2, b2)
    pmat = pre_operator(left.f, left.source, a2, b2, (0, 0)) @ h_basis
    rhs = morphism_to_vector(right.compose(phi1))
    part = solve_exact(pmat, rhs)
    if part is None:
        return False, "no map intertwining the two inclusions"
    if _invertible(a2, b2, h_basis, part, kernel_basis(pmat), rng) is None:
        return False, "intertwiner exists but no invertible one was found"
    return True, "intertwining isomorphism pair found"


def verify_generator_identities(pmax: int = 3, qs=(-1, 0, 2), seed: int = 0):
    """Certify the standard cell tensor identities by explicit invertible
    intertwiners over the rationals, for p, s <= pmax and q, t in qs.
    Returns a list of {'identity', 'params', 'ok', 'detail'} entries."""
    rng = random.Random(seed)
    report = []

    def check(name, params, lhs, rhs):
        m = _find_iso(lhs, rhs, rng)
        report.append(
            {
                "identity": name,
                "params": params,
                "ok": m is not None,
                "detail": "invertible intertwiner found" if m else "failed",
            }
        )

    for q in qs:
        for t in qs:
            check(
                "sphere⊗sphere",
                (q, t),
                tensor_twisted(bic_sphere(0, q), bic_sphere(0, t)),
                bic_sphere(0, q + t),
            )
            check(
                "sphere⊗h-boundary",
                (q, t),
                tensor_twisted(bic_sphere(0, q), h_boundary(1, t)),
                h_boundary(1, t + q),
            )
            for p in range(1, pmax + 1):
                check(
                    "v-boundary⊗sphere",
                    (p, q, t),
                    tensor_twisted(v_boundary(p, q), bic_sphere(0, t)),
                    v_boundary(p, q + t),
                )
                check(
                    "v-boundary⊗h-boundary",
                    (p, q, t),
                    tensor_twisted(v_boundary(p, q), h_boundary(1, t)),
                    bic_disc(p, q + t - 1),
                )
                for s in range(1, pmax + 1):
                    check(
                        "v-boundary⊗v-boundary",
                        (p, q, s, t),
                        tensor_twisted(v_boundary(p, q), v_boundary(s, t)),
                        direct_sum_twisted(
                            [
                                v_boundary(p + s, q + t - 1),
                                v_boundary(p + s - 1, q + t - 1),
                            ]
                        ),
                    )
    for p in range(1, pmax + 1):
        for q in qs:
            ok, detail = _certify_map_identity(p, q, rng)
            report.append(
                {
                    "identity": "h-boundary⊗(sphere↪v-boundary)",
                    "params": (p, q),
                    "ok": ok,
                    "detail": detail,
                }
            )
    return report
