"""Text document format for the objects and maps of this package.

Documents are JSON with a fixed shape: a schema version, a ring name
("Z", "Q" or "Fp"), a kind tag, a rank table and sparse matrix data.
Scalars are stored as decimal strings (rationals as "a/b" in lowest
terms) so the format never touches binary floats.  Serialization is
canonical: ranks sorted by (bi)degree, matrix entries by bidegree then
row then column, so serialize(parse(serialize(x))) == serialize(x) and
parse(serialize(x)) reconstructs x exactly.

Omitted (bi)degrees mean rank zero, omitted matrices mean zero maps.
Bicomplexes are written with anticommuting squares.  A bicomplex
document may say ``"convention": "commute"``; its d_v is then scaled by
(-1)^p on input, which is the only place the commuting convention
exists.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from .rings import RingSpec, BadParameter, ring_from_name
from .matrices import ExactMatrix
from .chain import ChainComplex, ChainMap
from .bicomplex import Bicomplex, BicomplexMap, validate as validate_bicomplex
from .twisted import TwistedComplex, TwistedMap, validate_twisted

SCHEMA_VERSION = 1

# The most matrix entries a document may declare, summed as rows x cols
# over all its matrices.  Parsing stores only the nonzero entries, but a
# parsed matrix can still be read densely: its `entries` view, and the
# Smith normal form of an integer matrix with no unit left to pivot on,
# take about 8 bytes an entry.  The largest document the tests and the
# benchmark parse, twisted_disc(9, 0), declares 125,476 entries;
# twisted_disc(11, 0) declares 1,830,270.
MAX_DENSE_CELLS = 1 << 22


class DocumentSyntaxError(Exception):
    """The text is not a well-formed document."""


class ValidationError(Exception):
    """The document parses but describes an invalid object."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _matrix_triplets(ring: RingSpec, m: ExactMatrix) -> list:
    fmt = ring.format_scalar
    return [
        [i, j, fmt(row[j])]
        for i, row in enumerate(m.sparse_rows)
        for j in sorted(row)
    ]


def _family_entries(ring: RingSpec, fam: dict) -> list:
    out = []
    for key in sorted(fam):
        trip = _matrix_triplets(ring, fam[key])
        if trip:
            out.append([list(key) if isinstance(key, tuple) else [key], trip])
    return out


def to_document(obj) -> dict:
    """The JSON-ready dict form of a complex or map."""
    if isinstance(obj, ChainComplex):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "chain",
            "ring": str(obj.ring),
            "ranks": [[n, obj.ranks[n]] for n in sorted(obj.ranks)],
            "differentials": {"d": _family_entries(obj.ring, obj.d)},
        }
    if isinstance(obj, Bicomplex):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "bicomplex",
            "ring": str(obj.ring),
            "ranks": [[p, q, obj.ranks[(p, q)]] for p, q in sorted(obj.ranks)],
            "differentials": {
                "dh": _family_entries(obj.ring, obj.d_h),
                "dv": _family_entries(obj.ring, obj.d_v),
            },
        }
    if isinstance(obj, TwistedComplex):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "twisted",
            "ring": str(obj.ring),
            "ranks": [[p, q, obj.ranks[(p, q)]] for p, q in sorted(obj.ranks)],
            "differentials": {
                f"d{i}": _family_entries(obj.ring, obj.ds[i])
                for i in sorted(obj.ds)
            },
        }
    if isinstance(obj, (ChainMap, BicomplexMap, TwistedMap)):
        map_kind = {
            ChainMap: "chain",
            BicomplexMap: "bicomplex",
            TwistedMap: "twisted",
        }[type(obj)]
        ring = obj.source.ring
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "map",
            "ring": str(ring),
            "map_kind": map_kind,
            "source": to_document(obj.source),
            "target": to_document(obj.target),
            "components": _family_entries(ring, obj.f),
        }
    raise BadParameter(f"cannot serialize {type(obj).__name__}")


def _dump(x, indent: int) -> str:
    """JSON text with flat lists kept on one line."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [
            f"{inner}{json.dumps(k)}: {_dump(v, indent + 1)}" for k, v in x.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(x, list):
        if all(not isinstance(e, (list, dict)) for e in x):
            return json.dumps(x)
        items = [f"{inner}{_dump(e, indent + 1)}" for e in x]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(x)


def serialize(obj) -> str:
    return _dump(to_document(obj), 0) + "\n"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    """An integer, not a boolean (JSON true and false parse as bool,
    which Python counts as int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _need(doc, key, types):
    if key not in doc:
        raise DocumentSyntaxError(f"missing field {key!r}")
    val = doc[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise DocumentSyntaxError(f"field {key!r} has the wrong type")
    return val


def _parse_key(raw, arity):
    if (
        not isinstance(raw, list)
        or len(raw) != arity
        or not all(_is_int(x) for x in raw)
    ):
        raise DocumentSyntaxError(f"bad degree key {raw!r}")
    return raw[0] if arity == 1 else tuple(raw)


def _parse_matrix(ring, rows, cols, triplets, where):
    if not isinstance(triplets, list):
        raise DocumentSyntaxError(f"matrix entries at {where} must be a list")
    data = {}  # row -> {column: entry}, zeros included until the end
    for t in triplets:
        if not (isinstance(t, list) and len(t) == 3):
            raise DocumentSyntaxError(f"bad matrix entry {t!r} at {where}")
        i, j, v = t
        if not (_is_int(i) and _is_int(j)):
            raise DocumentSyntaxError(f"bad matrix index in {t!r} at {where}")
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValidationError(
                [f"entry ({i},{j}) at {where} outside a {rows}x{cols} matrix"]
            )
        row = data.setdefault(i, {})
        if j in row:
            raise DocumentSyntaxError(f"duplicate matrix entry ({i},{j}) at {where}")
        try:
            row[j] = ring.parse_scalar(str(v))
        except (ValueError, BadParameter) as exc:
            raise DocumentSyntaxError(f"bad scalar {v!r} at {where}: {exc}")
    # ring.parse_scalar normalises, the constructor drops the entries that
    # are zero in the ring, and the declared shape is kept even with no rows
    empty = {}
    return ExactMatrix(ring, rows, cols, [data.get(i, empty) for i in range(rows)])


def _parse_family(ring, entries, arity, shape_of, where):
    """{key: (rows, cols, triplets, where)} for the matrices of a family,
    with shape_of(key) -> (rows, cols) for the matrix with source `key`.
    The matrices are built by _build_family, once the size of the whole
    document is checked."""
    if not isinstance(entries, list):
        raise DocumentSyntaxError(f"differential family {where} must be a list")
    fam = {}
    for e in entries:
        if not (isinstance(e, list) and len(e) == 2):
            raise DocumentSyntaxError(f"bad family entry {e!r} in {where}")
        key = _parse_key(e[0], arity)
        if key in fam:
            raise DocumentSyntaxError(f"duplicate degree {key} in {where}")
        rows, cols = shape_of(key)
        fam[key] = (rows, cols, e[1], f"{where}{key}")
    return fam


def _build_family(ring, fam) -> dict:
    return {key: _parse_matrix(ring, *spec) for key, spec in fam.items()}


def _cells(families) -> int:
    return sum(rows * cols for fam in families for rows, cols, _, _ in fam.values())


def _check_size(cells: int) -> None:
    if cells > MAX_DENSE_CELLS:
        raise ValidationError([
            f"the document declares matrices with {cells} entries in all, "
            f"more than {MAX_DENSE_CELLS}"
        ])


def _parse_ranks(raw, arity):
    ranks = {}
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == arity + 1):
            raise DocumentSyntaxError(f"bad rank entry {entry!r}")
        key = _parse_key(entry[:-1], arity)
        r = entry[-1]
        if not _is_int(r) or r < 0:
            raise DocumentSyntaxError(f"bad rank {r!r} at {key}")
        if key in ranks:
            raise DocumentSyntaxError(f"duplicate rank entry at {key}")
        if r:
            ranks[key] = r
    return ranks


class _Pending(NamedTuple):
    """A parsed complex whose matrices are not built yet: `cells` is the
    sum of rows x cols over them, `build()` makes the object."""

    kind: str
    ring: RingSpec
    ranks: dict
    cells: int
    build: Callable


def _pending_object(doc) -> _Pending:
    kind = _need(doc, "kind", str)
    try:
        ring = ring_from_name(_need(doc, "ring", str))
    except BadParameter as exc:
        raise DocumentSyntaxError(str(exc))
    raw_ranks = _need(doc, "ranks", list)
    diffs = doc.get("differentials", {})
    if not isinstance(diffs, dict):
        raise DocumentSyntaxError("field 'differentials' has the wrong type")

    if kind == "chain":
        ranks = _parse_ranks(raw_ranks, 1)
        rank = lambda n: ranks.get(n, 0)
        d = _parse_family(ring, diffs.get("d", []), 1,
                          lambda n: (rank(n - 1), rank(n)), "d")

        def build():
            mats = _build_family(ring, d)
            try:
                return ChainComplex(ring, ranks, mats)
            except BadParameter as exc:
                raise ValidationError([str(exc)])

        return _Pending(kind, ring, ranks, _cells([d]), build)

    if kind == "bicomplex":
        ranks = _parse_ranks(raw_ranks, 2)
        rank = lambda p, q: ranks.get((p, q), 0)
        dh = _parse_family(ring, diffs.get("dh", []), 2,
                           lambda k: (rank(k[0] - 1, k[1]), rank(*k)), "dh")
        dv = _parse_family(ring, diffs.get("dv", []), 2,
                           lambda k: (rank(k[0], k[1] - 1), rank(*k)), "dv")
        convention = doc.get("convention", "anticommute")
        if convention not in ("anticommute", "commute"):
            raise DocumentSyntaxError(f"unknown convention {convention!r}")

        def build():
            h, v = _build_family(ring, dh), _build_family(ring, dv)
            if convention == "commute":
                v = {(p, q): -m if p % 2 else m for (p, q), m in v.items()}
            x = Bicomplex(ring, ranks, h, v, check=False)
            bad = validate_bicomplex(x)
            if bad:
                raise ValidationError(bad)
            return x

        return _Pending(kind, ring, ranks, _cells([dh, dv]), build)

    if kind == "twisted":
        ranks = _parse_ranks(raw_ranks, 2)
        rank = lambda p, q: ranks.get((p, q), 0)
        ds = {}
        for name, entries in diffs.items():
            digits = name[1:] if name.startswith("d") else ""
            # ASCII digits only ("d²" is a digit to str.isdigit but not to
            # int), and few enough that int() never meets its length limit
            if not (digits.isascii() and digits.isdigit() and len(digits) < 10):
                raise DocumentSyntaxError(f"unknown differential key {name!r}")
            i = int(digits)
            ds[i] = _parse_family(
                ring, entries, 2,
                lambda k, i=i: (rank(k[0] - i, k[1] + i - 1), rank(*k)), name,
            )

        def build():
            mats = {i: _build_family(ring, fam) for i, fam in ds.items()}
            x = TwistedComplex(ring, ranks, mats, check=False)
            bad = validate_twisted(x)
            if bad:
                raise ValidationError(bad)
            return x

        return _Pending(kind, ring, ranks, _cells(ds.values()), build)

    raise DocumentSyntaxError(f"unknown kind {kind!r}")


def from_document(doc) -> object:
    """The object or map a document describes.  A document whose
    matrices have more than MAX_DENSE_CELLS entries in all is a
    ValidationError, raised before any matrix is built."""
    if not isinstance(doc, dict):
        raise DocumentSyntaxError("document must be a JSON object")
    version = _need(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise DocumentSyntaxError(f"unsupported schema version {version}")
    kind = _need(doc, "kind", str)
    if kind != "map":
        obj = _pending_object(doc)
        _check_size(obj.cells)
        return obj.build()

    map_kind = _need(doc, "map_kind", str)
    src = _pending_object(_need(doc, "source", dict))
    tgt = _pending_object(_need(doc, "target", dict))
    if src.kind != map_kind or tgt.kind != map_kind:
        raise DocumentSyntaxError("map endpoints do not match map_kind")
    if src.ring != tgt.ring:
        raise ValidationError(["source and target use different rings"])
    arity = 1 if map_kind == "chain" else 2
    comps = _parse_family(
        src.ring, doc.get("components", []), arity,
        lambda k: (tgt.ranks.get(k, 0), src.ranks.get(k, 0)), "components",
    )
    _check_size(src.cells + tgt.cells + _cells([comps]))
    source, target = src.build(), tgt.build()
    mats = _build_family(src.ring, comps)
    cls = {"chain": ChainMap, "bicomplex": BicomplexMap, "twisted": TwistedMap}
    try:
        return cls[map_kind](source, target, mats)
    except BadParameter as exc:
        raise ValidationError([str(exc)])


def parse(text: str) -> object:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"not valid JSON: {exc}")
    return from_document(doc)
