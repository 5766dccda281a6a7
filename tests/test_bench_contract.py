"""The benchmark's inputs and the tracer's class members, read from
tier-1 so that a library change cannot silently change what the
benchmark measures or which methods its tracer wraps.

The digest covers every input the three workloads build at seed 1: the
serialized document of each complex and map (for a lifting square, its
four maps) and the key of every item.  `EXPECTED` was computed before
`ExactMatrix` stored sparse rows, so a changed kernel basis, random
construction or serialization changes it.  Nothing under ``perfbench/``
is modified here.

Print the digest of the code on the path with

    PYTHONPATH=src python3 tests/test_bench_contract.py
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from bigraded import docio, model  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

EXPECTED = "e9f1d95b90ecb933ace40a8e4222378392035637ac0283a79931333a1d02831a"


def _inputs(item) -> list:
    """The documents an item's data is built from, in a fixed order."""
    data = item.data
    if item.kind == "rlp":
        structure, f = data
        return [structure, docio.serialize(f)]
    if item.kind == "lift":
        assert isinstance(data, model.LiftingProblem)
        return [docio.serialize(m) for m in (data.i, data.g, data.u, data.f)]
    if item.kind == "dense":
        c, homology, factors, cross_check = data
        return [docio.serialize(c), repr((sorted(homology.items()), factors,
                                          cross_check))]
    if item.kind == "cell" and isinstance(data, tuple):
        return [repr(data)]  # homology-z builds its cells inside the item
    return [docio.serialize(data)]


def digest() -> str:
    h = hashlib.sha256()
    for wl in (workloads.Lifting(), workloads.Spectral(), workloads.HomologyZ()):
        for r, items in enumerate(wl.build(1)):
            for item in items:
                h.update(f"{wl.name} {r} {item.key} {item.kind}\n".encode())
                for text in _inputs(item):
                    h.update(text.encode() + b"\0")
    return h.hexdigest()


def test_benchmark_inputs_are_pinned():
    assert digest() == EXPECTED


def test_tracer_members_are_defined_on_their_classes():
    for layer, classes in tracer.CLASS_MEMBERS.items():
        mod = __import__(f"bigraded.{layer}", fromlist=[layer])
        for cls_name, members in classes.items():
            cls = getattr(mod, cls_name)
            for member in members:
                assert member in cls.__dict__, f"{layer}.{cls_name}.{member}"


if __name__ == "__main__":
    print(digest())
