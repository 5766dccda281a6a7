"""Benchmark of the bigraded package: seeded workloads, end-to-end
metrics, and per-layer figures from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lifting --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload is set up several times (``setup_s`` is
the median), then whole rounds of items run until ``--seconds`` have
passed; each item is timed alone and its answer is checked afterwards
against an oracle.  With ``--trace 1`` a fixed number of rounds runs
untraced and then the same rounds run under the outside-in tracer; the
per-layer figures come from the traced rounds.  The last line printed is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results and spans are also written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# every run times at least this many items, so that p90 has at least ten
# samples beyond it
MIN_ITEMS = 100
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _git_revision() -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark may run from a plain export, where it is "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    from importlib.metadata import PackageNotFoundError, version

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bigraded").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sympy_version = version("sympy")
    except PackageNotFoundError:
        sympy_version = "missing"
    return {
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sympy": sympy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_rounds(wl, rounds, *, seconds=None, count=None, tracer=None):
    """Run whole rounds, cycling through `rounds`, until `count` rounds
    are done, or else until `seconds` have passed and at least MIN_ITEMS
    items have run.  Returns (records, wall seconds, rounds run); a
    record is (item, seconds, answer, error)."""
    records = []
    done = 0
    t_start = time.perf_counter()
    while True:
        for item in rounds[done % len(rounds)]:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    answer = wl.run(item)
                else:
                    with tracer.span("bench.item", len(records)):
                        answer = wl.run(item)
                error = None
            except Exception as exc:  # a failed item is counted, not fatal
                answer, error = None, f"{type(exc).__name__}: {exc}"
            records.append((item, time.perf_counter() - t0, answer, error))
        done += 1
        wall = time.perf_counter() - t_start
        if count is not None:
            if done >= count:
                return records, wall, done
        elif wall >= seconds and len(records) >= MIN_ITEMS:
            return records, wall, done


def _settle():
    """Collect garbage and move every object alive now (the inputs, the
    benchmark's own state) out of the collector's reach, so that the
    timed loop does not pay for traversing them."""
    gc.collect()
    gc.freeze()


def check(wl, records):
    """(failed records, unexpected failures): an item fails when it
    raised or its answer disagrees with the oracle; a failure is
    unexpected unless the item is a listed known defect that raised."""
    expected = {}
    failed, unexpected = [], []
    for item, _, answer, error in records:
        if error is None:
            if item.key not in expected:
                expected[item.key] = wl.expect(item)
            if wl.agrees(item, answer, expected[item.key]):
                continue
            error = "disagrees with the oracle"
            unexpected.append((item.key, error))
        elif item.key not in wl.known_failures:
            unexpected.append((item.key, error))
        failed.append((item.key, error))
    return failed, unexpected


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, seed: int, seconds: float):
    setups = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        rounds = wl.build(seed)
        setups.append(time.perf_counter() - t0)
    _settle()
    records, wall, done = run_rounds(wl, rounds, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, unexpected = check(wl, records)
    ms = [dt * 1000 for _, dt, _, _ in records]
    deciles = statistics.quantiles(ms, n=10)
    n = len(records)
    metrics = {
        "items_per_s": _metric(n / wall, "1/s"),
        "item_p50_ms": _metric(deciles[4], "ms"),
        "item_p90_ms": _metric(deciles[8], "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "ok_frac": _metric((n - len(failed)) / n, "ratio"),
    }
    notes = {
        "items": n, "rounds": done, "setup_runs": setups,
        "failed_frac": len(failed) / n,
    }
    return records, failed, unexpected, metrics, notes


def traced(wl, seed: int):
    from tracer import Tracer, per_layer

    rounds = wl.build(seed)
    _settle()
    plain, plain_wall, _ = run_rounds(wl, rounds, count=wl.trace_rounds)
    with Tracer() as tr:
        with tr.span("bench.setup", -1):
            rounds = wl.build(seed)
        _settle()
        records, wall, done = run_rounds(
            wl, rounds, count=wl.trace_rounds, tracer=tr
        )
    records = plain + records
    failed, unexpected = check(wl, records)
    rate_plain = len(plain) / plain_wall
    rate_traced = (len(records) - len(plain)) / wall
    metrics = {
        name: _metric(value, unit)
        for name, (value, unit) in per_layer(tr, rate_plain, rate_traced).items()
    }
    OUT.mkdir(parents=True, exist_ok=True)
    tr.write(OUT / f"spans-{wl.name}-seed{seed}.npz")
    notes = {"items": len(records), "rounds": 2 * done, "spans": len(tr.start)}
    return records, failed, unexpected, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bigraded" / "__init__.py").is_file():
        print(f"perfbench: no bigraded sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        records, failed, unexpected, metrics, notes = traced(wl, args.seed)
    else:
        records, failed, unexpected, metrics, notes = end_to_end(
            wl, args.seed, args.seconds
        )
    env = environment()
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"items={notes['items']} rounds={notes['rounds']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    if "failed_frac" in notes:
        print(f"  {'failed_frac':<40} {notes['failed_frac']:>16.6g} ratio")
    for key in sorted({k for k, _ in failed}):
        tag = "known defect" if key in wl.known_failures else "FAILED"
        reason = next(e for k, e in failed if k == key)
        print(f"  {tag}: {wl.name}/{key}: {reason}")
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "notes": notes,
                    "failed_items": sorted({k for k, _ in failed})},
                   indent=1, default=str)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
