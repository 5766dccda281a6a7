"""Outside-in tracer for the bigraded package.

The tracer changes nothing under ``src/``.  While it is active it
replaces the public functions of each layer (one layer per module), the
constructors and heavy methods of the layer's classes, and the static
and assembly methods of ``ExactMatrix`` with wrappers that record one
span per call.  A function imported by value into another module
(``from .linalg import kernel_basis``) is replaced under every name it
is bound to, so a call made through ``chain.kernel_basis`` is traced
like one made through ``linalg.kernel_basis``.  Leaving the ``with``
block puts every original back.

Spans live in flat in-memory arrays: name, start, end, parent span and
item id.  Counters that need arguments or results (matrix cells, SNF
entry sizes, solver outcomes) are taken after the call returns, inside
a span of their own named ``trace.probe`` so that their cost is not
charged to any layer.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

PACKAGE = "bigraded"
# Modules traced, one layer each.  ``cli`` and ``verify`` are not layers:
# the workloads call the library in-process, and ``verify`` serves only
# the oracles, which run untraced.  Names bound in them are still
# rebound while tracing, so that no alias escapes.
LAYERS = (
    "rings", "matrices", "linalg", "chain", "bicomplex", "twisted",
    "model", "spectral", "docio", "randgen",
)

# Class members wrapped besides the module-level public functions.
CLASS_MEMBERS = {
    "rings": {"RingSpec": ("__post_init__",)},
    "matrices": {
        "ExactMatrix": (
            "from_rows", "zero", "identity", "scalar", "column",
            "hstack", "vstack", "block", "direct_sum", "kron",
            "__matmul__", "__add__", "__sub__", "__neg__", "scale",
            "transpose", "apply", "to_ring",
        ),
    },
    "linalg": {
        "FieldSolver": ("__init__", "solve"),
        "ZSolver": ("__init__", "solve"),
        "QuotientModule": ("__init__", "project"),
    },
    "chain": {
        "ChainComplex": ("__init__",),
        "ChainMap": ("__init__", "compose"),
    },
    "bicomplex": {
        "Bicomplex": ("__init__",),
        "BicomplexMap": ("__init__", "compose"),
    },
    "twisted": {
        "TwistedComplex": ("__init__",),
        "TwistedMap": ("__init__", "compose"),
    },
    "randgen": {"MatrixSystem": ("__init__", "add_equation", "solve_random")},
}

# Functions that may run over Z or over a field; their spans get a
# "@Z" or "@F" suffix from the ring of the first matrix argument.
RING_SPLIT = {
    "linalg.rank", "linalg.kernel_basis", "linalg.image_basis",
    "linalg.FieldSolver.__init__", "linalg.QuotientModule.__init__",
}

PROBE = "trace.probe"


def _ring_of(name, args):
    if name == "linalg.QuotientModule.__init__":
        return args[1]
    if name == "linalg.FieldSolver.__init__":
        return args[1].ring
    return args[0].ring


def _max_bits(*mats) -> int:
    return max(
        (abs(x).bit_length() for m in mats for row in m.entries for x in row),
        default=0,
    )


def _probe_snf(tr, args, out):
    m = args[0]
    tr.add("linalg.snf.cells", m.rows * m.cols)
    tr.maximum("linalg.snf.max_entry_bits", _max_bits(out.U, out.V))


def _probe_field_elim(tr, name, args):
    if name == "linalg.QuotientModule.__init__":
        rel = args[3] if len(args) > 3 else None
        cells = args[2] * (rel.cols if rel is not None else 0)
    else:
        m = args[1] if name == "linalg.FieldSolver.__init__" else args[0]
        cells = m.rows * m.cols
    tr.add("linalg.field_elim.cells", cells)


def _probe_solve(tr, args, out):
    if out is not None:
        tr.add("linalg.solve.found", 1)


def _probe_kernel(tr, args, out):
    m = args[0]
    if m.rows == 0 or m.cols == 0:
        tr.add("linalg.kernel_basis.trivial", 1)


def _probe_assembly(tr, args, out):
    tr.add("matrices.assembly.cells_out", out.rows * out.cols)


def _probe_matmul(tr, args, out):
    a, b = args
    tr.add("matrices.matmul.scalar_mults", a.rows * a.cols * b.cols)
    if out.is_zero:
        tr.add("matrices.matmul.zero_results", 1)


def _probe_hom_basis(tr, args, out):
    tr.add("twisted.hom_basis.ambient_dim", out.rows)


def _probe_has_rlp(tr, args, out):
    if out:
        tr.add("model.has_rlp.true", 1)


def _probe_parse(tr, args, out):
    tr.add("docio.bytes", len(args[0]))


PROBES = {
    "linalg.smith_normal_form": _probe_snf,
    "linalg.FieldSolver.solve": _probe_solve,
    "linalg.ZSolver.solve": _probe_solve,
    "linalg.kernel_basis": _probe_kernel,
    "matrices.ExactMatrix.hstack": _probe_assembly,
    "matrices.ExactMatrix.vstack": _probe_assembly,
    "matrices.ExactMatrix.block": _probe_assembly,
    "matrices.ExactMatrix.direct_sum": _probe_assembly,
    "matrices.ExactMatrix.kron": _probe_assembly,
    "matrices.ExactMatrix.__matmul__": _probe_matmul,
    "twisted.morphism_space_basis": _probe_hom_basis,
    "model.has_rlp": _probe_has_rlp,
    "docio.parse": _probe_parse,
}


class Tracer:
    """Records spans for the package's layers while used as a context
    manager; ``per_layer`` turns them into metrics."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.item_id = -1
        self.counters: dict = {}
        self._saved: list = []
        self._probe_id = self.intern(PROBE)

    # -- counters ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key: str, n) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def maximum(self, key: str, n) -> None:
        self.counters[key] = max(self.counters.get(key, 0), n)

    # -- spans --------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.item.append(self.item_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def span(self, name: str, item_id: int):
        """Context manager for a span opened by the benchmark itself,
        such as one timed item (``bench.item``) or one set-up."""
        return _BenchSpan(self, self.intern(name), item_id)

    def _wrap(self, fn, qualname: str):
        tracer = self
        split = qualname in RING_SPLIT
        if split:
            nid_f = self.intern(qualname + "@F")
            nid_z = self.intern(qualname + "@Z")
        else:
            nid = self.intern(qualname)
        probe = PROBES.get(qualname)
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        probe_id = self._probe_id

        def wrapper(*args, **kwargs):
            if split:
                is_field = _ring_of(qualname, args).is_field
                idx = tracer._open(nid_f if is_field else nid_z)
            else:
                is_field = False
                idx = tracer._open(nid)
            start[idx] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None or is_field:
                pidx = tracer._open(probe_id)
                start[pidx] = clock()
                if probe is not None:
                    probe(tracer, args, out)
                if is_field:
                    _probe_field_elim(tracer, qualname, args)
                end[pidx] = clock()
                stack.pop()
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        modules = {
            m: importlib.import_module(f"{PACKAGE}.{m}")
            for m in LAYERS + ("verify", "cli")
        }
        wrapped = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
            for cls_name, members in CLASS_MEMBERS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for member in members:
                    raw = cls.__dict__[member]
                    qual = f"{layer}.{cls_name}.{member}"
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(raw.__func__, qual))
                    else:
                        new = self._wrap(raw, qual)
                    self._saved.append((cls, member, raw))
                    setattr(cls, member, new)
        # rebind every module-level name that refers to a wrapped function
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- results ------------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        item = np.frombuffer(self.item, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        return name, parent, item, start, end

    def self_times(self):
        """(name ids, item ids, durations, self times) of every span."""
        name, parent, item, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return name, item, dur, dur - child

    def by_name(self):
        """{span name: (calls, total self seconds)}."""
        name, _, _, self_s = self.self_times()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=self_s, minlength=k)
        return {
            self.names[i]: (int(calls[i]), float(selfs[i]))
            for i in range(k)
            if calls[i]
        }

    def write(self, path) -> None:
        """Write every span to ``path`` as compressed numpy columns; the
        span names and the counters are stored as JSON strings."""
        name, parent, item, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps(self.counters)),
            name=name, parent=parent, item=item, start=start, end=end,
        )


class _BenchSpan:
    def __init__(self, tracer: Tracer, nid: int, item_id: int):
        self.tracer, self.nid, self.item_id = tracer, nid, item_id

    def __enter__(self):
        tr = self.tracer
        tr.item_id = self.item_id
        self.idx = tr._open(self.nid)
        tr.start[self.idx] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.end[self.idx] = time.perf_counter()
        tr.stack.pop()
        tr.item_id = -1
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

_ASSEMBLY = ("block", "hstack", "vstack", "direct_sum", "kron")

# Named groups of spans inside a layer: group -> span names.
GROUPS = {
    "linalg.snf": ("linalg.smith_normal_form",),
    "linalg.field_elim": tuple(f"{n}@F" for n in sorted(RING_SPLIT)),
    "matrices.zero": ("matrices.ExactMatrix.zero",),
    "matrices.assembly": tuple(f"matrices.ExactMatrix.{m}" for m in _ASSEMBLY),
    "matrices.matmul": ("matrices.ExactMatrix.__matmul__",),
    "twisted.hom_basis": ("twisted.morphism_space_basis",),
    "twisted.build": (
        "twisted.twisted_disc", "twisted.twisted_boundary",
        "twisted.boundary_inclusion", "twisted.truncated_boundary",
        "twisted.tot_twisted", "twisted.validate_twisted",
        "twisted.TwistedComplex.__init__", "twisted.TwistedMap.__init__",
    ),
    "bicomplex.build": (
        "bicomplex.Bicomplex.__init__", "bicomplex.BicomplexMap.__init__",
        "bicomplex.validate", "bicomplex.bic_sphere", "bicomplex.bic_disc",
        "bicomplex.h_boundary", "bicomplex.v_boundary", "bicomplex.direct_sum",
    ),
    "bicomplex.subquotient": (
        "bicomplex.directional_subquotient", "bicomplex.subquotient_map",
        "bicomplex.e2",
    ),
    "chain.homology": ("chain.homology_at",),
    "chain.quasi_iso": ("chain.is_quasi_iso",),
    "model.has_rlp": ("model.has_rlp",),
    "model.classify": ("model.classify_map",),
    "model.solve_lift": ("model.solve_lift",),
    "spectral.pages": ("spectral.pages",),
    "docio.parse": ("docio.parse",),
    "docio.serialize": ("docio.serialize",),
    "rings.gf": ("rings.GF", "rings.RingSpec.__post_init__"),
}

COUNTERS = {
    "linalg.snf.cells": "count",
    "linalg.snf.max_entry_bits": "bit",
    "linalg.field_elim.cells": "count",
    "matrices.assembly.cells_out": "count",
    "matrices.matmul.scalar_mults": "count",
    "twisted.hom_basis.ambient_dim": "count",
    "docio.bytes": "B",
}


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, rate_plain: float, rate_traced: float) -> dict:
    """{metric: (value, unit)} over every traced span (set-up and items).

    ``trace.overhead_frac`` compares item throughput of the same rounds
    run untraced and traced; ``trace.accounted_frac`` is the share of the
    traced items' wall time that the layers' self times account for."""
    stats = tracer.by_name()
    out = {}
    for layer in LAYERS:
        rows = [v for k, v in stats.items() if _layer(k) == layer]
        out[f"{layer}.calls"] = (sum(c for c, _ in rows), "count")
        out[f"{layer}.self_s"] = (sum(s for _, s in rows), "s")
    for group, names in GROUPS.items():
        rows = [stats[n] for n in names if n in stats]
        out[f"{group}.calls"] = (sum(c for c, _ in rows), "count")
        out[f"{group}.self_s"] = (sum(s for _, s in rows), "s")
    cnt = tracer.counters
    for key, unit in COUNTERS.items():
        out[key] = (cnt.get(key, 0), unit)

    def calls(*names):
        return sum(stats.get(n, (0, 0.0))[0] for n in names)

    out["linalg.solve.found_frac"] = (
        _ratio(cnt.get("linalg.solve.found", 0),
               calls("linalg.FieldSolver.solve", "linalg.ZSolver.solve")),
        "ratio")
    out["linalg.kernel_basis.trivial_frac"] = (
        _ratio(cnt.get("linalg.kernel_basis.trivial", 0),
               calls("linalg.kernel_basis@F", "linalg.kernel_basis@Z")),
        "ratio")
    out["matrices.matmul.zero_result_frac"] = (
        _ratio(cnt.get("matrices.matmul.zero_results", 0),
               calls("matrices.ExactMatrix.__matmul__")),
        "ratio")
    out["model.has_rlp.true_frac"] = (
        _ratio(cnt.get("model.has_rlp.true", 0), calls("model.has_rlp")), "ratio")
    out["model.has_rlp_per_map"] = (
        _ratio(calls("model.has_rlp"), calls("model.rlp_report")), "count")

    name, item, dur, self_s = tracer.self_times()
    layer_of = np.array([_layer(n) in LAYERS for n in tracer.names], dtype=bool)
    in_items = item >= 0
    item_spans = name == tracer.intern("bench.item")
    out["trace.overhead_frac"] = (1 - _ratio(rate_traced, rate_plain), "ratio")
    out["trace.accounted_frac"] = (
        _ratio(float(self_s[in_items & layer_of[name]].sum()),
               float(dur[item_spans].sum())),
        "ratio")
    return out
