"""A byte-for-byte pin of the generating inclusions.

Every family of `model._CELLS` is built over Z, Q, F2 and F3 at every
p in -1..4 and q in -2..2 (1,200 cases), and the serialized map, or the
text of the exception raised for a parameter out of range, goes into
one SHA-256 digest.  `EXPECTED` was computed on commit 77bfaac, while
`generator_map` still built each family by hand, so a changed cell,
component, sign or refusal changes the digest.

Print the digest of the code on the path with

    PYTHONPATH=src python3 tests/test_generator_pin.py
"""

import hashlib

from bigraded.rings import ZZ, QQ, GF
from bigraded.docio import serialize
from bigraded.model import _CELLS, GeneratorRef, generator_map

EXPECTED = "af93a0d21b1e988b61263f820c3d61d3b9800185c5e157b320b7d5abd02500d0"


def outputs():
    """(label, canonical text) of every pinned generating inclusion."""
    for family in sorted(_CELLS):
        for ring in (ZZ, QQ, GF(2), GF(3)):
            for p in range(-1, 5):
                for q in range(-2, 3):
                    try:
                        text = serialize(generator_map(GeneratorRef(family, p, q), ring))
                    except Exception as exc:  # the refusal is part of the output
                        text = f"raises {type(exc).__name__}: {exc}"
                    yield f"{family} {ring} {p} {q}", text


def digest() -> str:
    h = hashlib.sha256()
    for label, text in outputs():
        h.update(f"{label}\n{text}\n".encode())
    return h.hexdigest()


def test_generator_maps_are_pinned():
    assert sum(1 for _ in outputs()) == 1200
    assert digest() == EXPECTED


if __name__ == "__main__":
    print(digest())
