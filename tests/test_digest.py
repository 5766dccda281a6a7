"""A byte-for-byte pin of every output built from subquotients.

On seeded random maps it serializes the one-directional cycles,
boundaries and homology maps, kernels and cokernels, the quotient down
to bicomplexes and the vertical subquotients, and records the classifier
reports and the spectral pages with their differentials.  Everything
goes into one SHA-256 digest.  `EXPECTED` was computed on commit
7ce8c1b, before these outputs were built through `linalg.Subquotient`,
so a changed basis, induced matrix, report or page changes the digest.

Print the digest of the code on the path with

    PYTHONPATH=src python3 tests/test_digest.py
"""

import hashlib
import random

from bigraded.rings import ZZ, QQ, GF
from bigraded.bicomplex import directional_subquotient, subquotient_map
from bigraded.docio import serialize
from bigraded.model import classify_map
from bigraded.randgen import (
    random_bicomplex_map,
    random_twisted,
    random_twisted_map,
)
from bigraded.spectral import pages
from bigraded.twisted import (
    cokernel_twisted,
    kernel_twisted,
    quotient_to_bicomplex,
    twisted_boundary,
    twisted_disc,
)

EXPECTED = "6c4379d43f527e50bd350472f8d88e52e0a83e3600200a95aceeb96465974438"


def _outcome(fn, *args) -> str:
    """The canonical text of fn(*args), or of the exception it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # the exception is part of the output
        return f"raises {type(exc).__name__}: {exc}"
    if isinstance(out, tuple):
        return "".join(serialize(o) for o in out)
    if hasattr(out, "stable_page"):
        lines = [f"stable {out.stable_page} einf {sorted(out.einf.items())}"]
        for r in sorted(out.pages):
            lines.append(f"E{r} {sorted(out.pages[r].items())}")
            for pq, m in sorted(out.differentials[r].items()):
                lines.append(f"d{r} {pq} {m.rows}x{m.cols} {m.entries}")
        return "\n".join(lines)
    if hasattr(out, "evidence"):
        return repr(out)
    return serialize(out)


def outputs():
    """(label, canonical text) of every pinned output, in a fixed order."""
    rng = random.Random(20180221)
    for ring in (QQ, GF(3), GF(2), ZZ):
        for k in range(15):
            f = random_bicomplex_map(rng, ring)
            label = f"{ring} bicomplex map {k}"
            yield label, serialize(f)
            for direction in ("v", "h"):
                for kind in ("Z", "B", "H"):
                    yield (f"{label} {direction}{kind}",
                           _outcome(subquotient_map, f, direction, kind))
            yield f"{label} kernel", _outcome(kernel_twisted, f)
            yield f"{label} cokernel", _outcome(cokernel_twisted, f)
            for structure in ("tot", "ce"):
                yield f"{label} {structure}", _outcome(classify_map, f, structure)
            yield f"{label} pages", _outcome(pages, f.target)
    for ring in (QQ, GF(3), GF(2)):
        for k in range(10):
            f = random_twisted_map(rng, ring)
            x = f.source
            label = f"{ring} twisted map {k}"
            yield label, serialize(f)
            yield f"{label} quotient", _outcome(quotient_to_bicomplex, x)
            for kind in ("Z", "B", "H"):
                yield (f"{label} v{kind} object",
                       _outcome(directional_subquotient, x, "v", kind))
                yield (f"{label} v{kind}",
                       _outcome(subquotient_map, f, "v", kind))
            yield f"{label} kernel", _outcome(kernel_twisted, f)
            yield f"{label} cokernel", _outcome(cokernel_twisted, f)
            yield f"{label} twisted-tot", _outcome(classify_map, f, "twisted-tot")
            yield f"{label} pages", _outcome(pages, x)
    for ring in (QQ, GF(3)):
        for k in range(5):
            x = random_twisted(rng, ring, max_rank=3)
            yield f"{ring} twisted {k}", serialize(x)
            yield f"{ring} twisted {k} pages", _outcome(pages, x)
    for p in range(1, 6):
        for cell in (twisted_disc, twisted_boundary):
            yield f"{cell.__name__}({p}, 0) pages", _outcome(pages, cell(p, 0, GF(3)))


def digest() -> str:
    h = hashlib.sha256()
    for label, text in outputs():
        h.update(f"{label}\n{text}\n".encode())
    return h.hexdigest()


def test_subquotient_outputs_are_pinned():
    assert digest() == EXPECTED


if __name__ == "__main__":
    print(digest())
