"""A byte-for-byte pin of the chain-level outputs.

It serializes the standard chain complexes (spheres, discs and the
simplicial chains and cochains), seeded random chain complexes over Z,
Q, F2 and F3, their cones, direct sums, tensor products and
non-negative truncations, identity, zero and composite chain maps, the
total complexes and total maps of seeded bicomplex and twisted maps,
homology tables, the rows `z_row` and `c_row`, and the resolution maps
of `ce_resolution`.  Everything goes into one SHA-256 digest.
`EXPECTED` was computed on commit d0dd5e2, while chain complexes and
chain maps were still a carrier of their own beside the bigraded one,
so a changed rank, matrix, sign, homology class or document changes the
digest.

Print the digest of the code on the path with

    PYTHONPATH=src python3 tests/test_chain_pin.py
"""

import hashlib
import random

from bigraded.rings import ZZ, QQ, GF
from bigraded.chain import (
    ChainMap,
    cone,
    direct_sum,
    disc,
    homology,
    relative_simplex_cochain,
    simplex_chain,
    simplex_cochain,
    sphere,
    tensor,
    truncate_nonneg,
)
from bigraded.bicomplex import c_row, z_row
from bigraded.docio import serialize
from bigraded.model import ce_resolution
from bigraded.randgen import (
    random_bicomplex_map,
    random_chain_complex,
    random_strict_map,
    random_twisted_map,
)
from bigraded.twisted import embed, tot_twisted, tot_twisted_map

EXPECTED = "a1605c8c9eee3c521822955e9485901c0a2aa0db72572ea59d62e4753c64685c"

RINGS = (ZZ, QQ, GF(2), GF(3))
SMALL = {"p_range": (0, 1), "q_range": (-1, 1), "max_rank": 2}


def _outcome(fn, *args) -> str:
    """The canonical text of fn(*args), or of the exception it raises:
    a homology table as its sorted items, anything else serialized."""
    try:
        out = fn(*args)
    except Exception as exc:  # the exception is part of the output
        return f"raises {type(exc).__name__}: {exc}"
    if isinstance(out, dict):
        return repr(sorted(out.items()))
    if isinstance(out, tuple):  # ce_resolution: the object and the map
        return "".join(serialize(part) for part in out)
    return serialize(out)


def _chain_map(rng, a, b) -> ChainMap:
    """A random chain map a -> b, built by the chain constructor from the
    components of a random strict map of the two columns."""
    g = random_strict_map(rng, embed(a), embed(b))
    return ChainMap(a, b, {q: m for (_, q), m in g.f.items()})


def _standard():
    for ring in RINGS:
        for n in range(-1, 3):
            for r in (1, 2):
                yield f"{ring} sphere {n} {r}", _outcome(sphere, n, r, ring)
                yield f"{ring} disc {n} {r}", _outcome(disc, n, r, ring)
        for n in range(4):
            yield f"{ring} simplex {n}", _outcome(simplex_chain, n, ring)
            yield f"{ring} cosimplex {n}", _outcome(simplex_cochain, n, ring)
            for m in range(n):
                yield (f"{ring} relative {n} {m}",
                       _outcome(relative_simplex_cochain, n, m, ring))


def _random(ring, seed):
    rng = random.Random(seed)
    a, b, c = (random_chain_complex(rng, ring) for _ in range(3))
    low = random_chain_complex(rng, ring, degrees=(-2, 1))
    f, g = _chain_map(rng, a, b), _chain_map(rng, b, c)
    gf = g.compose(f)
    cases = [
        ("complex", lambda: a),
        ("low complex", lambda: low),
        ("homology", homology, a),
        ("low homology", homology, low),
        ("map", lambda: f),
        ("identity", ChainMap.identity, a),
        ("zero", ChainMap.zero, a, c),
        ("compose", lambda: gf),
        ("cone", cone, f),
        ("cone homology", lambda: homology(cone(f))),
        ("identity cone", lambda: cone(ChainMap.identity(low))),
        ("composite cone", cone, gf),
        ("sum", direct_sum, [a, low, b]),
        ("tensor", tensor, a, low),
        ("tensor homology", lambda: homology(tensor(a, b))),
        ("truncate", truncate_nonneg, low),
        ("truncate homology", lambda: homology(truncate_nonneg(low))),
        ("z_row", z_row, seed % 3 - 1, a),
        ("c_row", c_row, seed % 3 - 1, b),
        ("negative z_row", z_row, 0, low),
        ("resolution", ce_resolution, a),
        ("low resolution", ce_resolution, low),
    ]
    for name, fn, *args in cases:
        yield f"{ring} {seed} {name}", _outcome(fn, *args)
    for name, make in (("bicomplex", random_bicomplex_map), ("twisted", random_twisted_map)):
        t = make(rng, ring, **SMALL)
        yield f"{ring} {seed} {name} tot", _outcome(tot_twisted, t.target)
        yield f"{ring} {seed} {name} tot map", _outcome(tot_twisted_map, t)
        yield (f"{ring} {seed} {name} tot homology",
               _outcome(lambda: homology(tot_twisted(t.source))))


def outputs():
    """(label, canonical text) of every pinned output."""
    yield from _standard()
    for ring in RINGS:
        for seed in range(6):
            yield from _random(ring, seed)


def digest() -> str:
    h = hashlib.sha256()
    for label, text in outputs():
        h.update(f"{label}\n{text}\n".encode())
    return h.hexdigest()


def test_chain_outputs_are_pinned():
    assert digest() == EXPECTED


if __name__ == "__main__":
    print(digest())
