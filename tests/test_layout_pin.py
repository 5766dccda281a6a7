"""A byte-for-byte pin of every output laid out over graded summands.

On seeded random bicomplexes, twisted complexes and maps over Z, Q, F2
and F3 it serializes tensor products of objects and of maps, Koszul
swaps, total complexes and total maps, strict-morphism bases, solutions
of planted lifting problems and direct sums of chain complexes.
Everything goes into one SHA-256 digest.  `EXPECTED` was computed on
commit f299031, while each of these outputs still placed its summands
by its own offset rule, so a changed order, sign, basis or lift changes
the digest.

Print the digest of the code on the path with

    PYTHONPATH=src python3 tests/test_layout_pin.py
"""

import hashlib
import random

from bigraded.rings import ZZ, QQ, GF
from bigraded.chain import direct_sum
from bigraded.bicomplex import koszul_swap
from bigraded.docio import serialize
from bigraded.model import GeneratorRef, LiftingProblem, generator_map, solve_lift
from bigraded.randgen import (
    random_bicomplex_map,
    random_strict_map,
    random_twisted_map,
)
from bigraded.twisted import (
    morphism_space_basis,
    tensor_twisted,
    tensor_twisted_map,
    tot_twisted,
    tot_twisted_map,
)

EXPECTED = "61aa54ddced2228b8a925decaf32ce67c853f195f9728bb4947ca56e5a7a16a3"

SMALL = {"p_range": (0, 1), "q_range": (-1, 1), "max_rank": 2}

# (generating inclusion, whether its ends are bicomplexes)
LIFTS = (
    (GeneratorRef("TotI_SphereToHBoundary", 0, 0), True),
    (GeneratorRef("TotI_VBoundaryToDisc", 1, 0), True),
    (GeneratorRef("CEI_SphereToVBoundary", 1, 0), True),
    (GeneratorRef("TwI_BoundaryToDisc", 1, 0), False),
)


def _outcome(fn, *args) -> str:
    """The canonical text of fn(*args), or of the exception it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # the exception is part of the output
        return f"raises {type(exc).__name__}: {exc}"
    if hasattr(out, "sparse_rows"):
        return f"{out.rows}x{out.cols} {out.entries}"
    return serialize(out)


def _lift(rng, ring, ref, random_map):
    """Solve the lifting problem of a planted diagonal h: B -> X against
    a random map g out of X."""
    i = generator_map(ref, ring)
    g = random_map(rng, ring, **SMALL)
    h = random_strict_map(rng, i.target, g.source)
    return solve_lift(LiftingProblem(i, g, h.compose(i), g.compose(h)))


def outputs():
    """(label, canonical text) of every pinned output."""
    for ring in (ZZ, QQ, GF(2), GF(3)):
        for seed in range(8):
            rng = random.Random(seed)
            f = random_bicomplex_map(rng, ring, **SMALL)
            g = random_bicomplex_map(rng, ring, **SMALL)
            t = random_twisted_map(rng, ring, **SMALL)
            x, y = f.source, g.target
            cases = [
                ("tensor", tensor_twisted, x, y),
                ("twisted tensor", tensor_twisted, t.source, y),
                ("tensor map", tensor_twisted_map, f, g),
                ("twisted tensor map", tensor_twisted_map, t, f),
                ("swap", koszul_swap, x, y),
                ("tot", tot_twisted, t.target),
                ("tot map", tot_twisted_map, f),
                ("twisted tot map", tot_twisted_map, t),
                ("hom basis", morphism_space_basis, x, y),
                ("twisted hom basis", morphism_space_basis, t.source, t.target),
                ("chain sum", lambda a, b: direct_sum([tot_twisted(a), tot_twisted(b)]),
                 x, t.source),
            ]
            for name, fn, *args in cases:
                yield f"{ring} {seed} {name}", _outcome(fn, *args)
            for ref, bigraded in LIFTS:
                random_map = random_bicomplex_map if bigraded else random_twisted_map
                yield (f"{ring} {seed} lift {ref.family}",
                       _outcome(_lift, rng, ring, ref, random_map))


def digest() -> str:
    h = hashlib.sha256()
    for label, text in outputs():
        h.update(f"{label}\n{text}\n".encode())
    return h.hexdigest()


def test_layout_outputs_are_pinned():
    assert digest() == EXPECTED


if __name__ == "__main__":
    print(digest())
