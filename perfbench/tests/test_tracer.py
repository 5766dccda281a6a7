"""Tests of the benchmark's own tracer and workloads.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import pytest  # noqa: E402

from bigraded import chain, linalg, twisted  # noqa: E402
from bigraded.matrices import ExactMatrix  # noqa: E402
from bigraded.rings import GF  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, per_layer  # noqa: E402


def test_call_through_alias_is_counted_and_restored():
    original = linalg.kernel_basis
    assert chain.kernel_basis is original
    m = ExactMatrix.from_rows(GF(3), [[1, 2, 0], [0, 1, 1]])
    with Tracer() as tr:
        assert chain.kernel_basis is not original
        assert chain.kernel_basis is linalg.kernel_basis
        with tr.span("bench.item", 0):
            chain.kernel_basis(m)
            twisted.kernel_basis(m)
    stats = tr.by_name()
    assert stats["linalg.kernel_basis@F"][0] == 2
    assert "linalg.kernel_basis@Z" not in stats
    assert tr.counters["linalg.field_elim.cells"] == 2 * 6
    assert chain.kernel_basis is original
    assert twisted.kernel_basis is original
    assert ExactMatrix.__dict__["zero"].__func__.__name__ == "zero"
    assert not hasattr(ExactMatrix.__dict__["zero"].__func__, "__wrapped__")


def test_self_time_excludes_children():
    m = ExactMatrix.from_rows(GF(3), [[1, 2], [0, 1]])
    with Tracer() as tr:
        with tr.span("bench.item", 0):
            linalg.rank(m @ m)
    name, item, dur, self_s = tr.self_times()
    names = [tr.names[i] for i in name]
    root = names.index("bench.item")
    assert (item == 0).all()
    assert self_s.sum() == pytest.approx(dur[root])
    assert (self_s >= 0).all()
    metrics = per_layer(tr, 1.0, 1.0)
    assert metrics["matrices.matmul.calls"][0] == 1
    assert metrics["matrices.matmul.scalar_mults"][0] == 8
    assert metrics["trace.overhead_frac"][0] == 0.0


def _small(wl, rounds):
    """The first round of a workload, without its heaviest items."""
    heavy = ("disc(7", "disc(6", "boundary(7", "disc(8", "disc(9", "boundary(8",
             "boundary(9")
    return [it for it in rounds[0] if not it.key.startswith(heavy)][:40]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_answers_agree(name):
    wl = workloads.WORKLOADS[name]
    items = _small(wl, wl.build(7))

    def answers():
        out = []
        for item in items:
            try:
                out.append(wl.canonical(item, wl.run(item)))
            except linalg.NoSolution:
                assert item.key in wl.known_failures
                out.append("NoSolution")
        return out

    plain = answers()
    with Tracer() as tr:
        traced = answers()
    assert plain == traced
    assert len(tr.start) > len(items)
    for item, answer in zip(items, plain):
        if answer != "NoSolution":
            assert wl.agrees(item, wl.run(item), wl.expect(item)), item.key
