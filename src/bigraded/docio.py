"""Text document format for the objects and maps of this package.

Documents are JSON with a fixed shape: a schema version, a ring name
("Z", "Q" or "Fp"), a kind tag, a rank table and sparse matrix data.
Scalars are stored as decimal strings (rationals as "a/b" in lowest
terms) so the format never touches binary floats.  Serialization is
canonical: ranks sorted by (bi)degree, matrix entries by bidegree then
row then column, so serialize(parse(serialize(x))) == serialize(x) and
parse(serialize(x)) reconstructs x exactly.

Omitted (bi)degrees mean rank zero, omitted matrices mean zero maps.
A top-level field that a document of its kind does not have is a
syntax error, and a map document names the ring of its endpoints and
writes them in its own kind.  One table, `_KINDS`, gives for each kind
of document its carrier and map classes and the names of its
differential families with their structure index: ``d`` (index 0) for
a chain complex, ``dv`` (0) and ``dh`` (1) for a bicomplex, ``d<i>``
(i) for a twisted complex.  Any other family name is a syntax error.
Every carrier stores bidegrees; a chain document writes the degree n
of the bidegree (0, n) alone.  Bicomplexes are written with
anticommuting squares.  A bicomplex document may say
``"convention": "commute"``; its d_v is then scaled by (-1)^p on input,
which is the only place the commuting convention exists.  No other kind
takes a convention but ``"anticommute"``.
"""

from __future__ import annotations

import json
import re
from typing import Callable, NamedTuple

from .rings import RingSpec, BadParameter, ring_from_name
from .matrices import ExactMatrix
from .chain import ChainComplex, ChainMap
from .bicomplex import Bicomplex, BicomplexMap
from .twisted import TwistedComplex, TwistedMap, validate_map, validate_twisted

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


class _Kind(NamedTuple):
    """A kind of document.  `families` lists (name, structure index) in
    written order, empty for the ``d<i>`` names of a twisted complex."""

    cls: type
    map_cls: type
    arity: int
    families: tuple
    conventions: tuple


# Each class comes before its base class (ChainComplex, then Bicomplex,
# then TwistedComplex): the first kind whose class matches names an object.
_KINDS = {
    "chain": _Kind(ChainComplex, ChainMap, 1, (("d", 0),), ("anticommute",)),
    "bicomplex": _Kind(
        Bicomplex, BicomplexMap, 2, (("dh", 1), ("dv", 0)), ("anticommute", "commute")
    ),
    "twisted": _Kind(TwistedComplex, TwistedMap, 2, (), ("anticommute",)),
}

# d<i>, i without leading zeros and short enough for int()
_TWISTED_NAME = re.compile(r"d(0|[1-9][0-9]{0,8})")


def _kind_of(obj, attr: str) -> str:
    for name, kind in _KINDS.items():
        if isinstance(obj, getattr(kind, attr)):
            return name
    raise BadParameter(f"cannot serialize {type(obj).__name__}")


# The one place where a key of arity 1, the degree n of a chain
# document, meets the bidegree (0, n) it stands for: written, read, and
# named in a message.

def _key_list(key: tuple, arity: int) -> list:
    return list(key[2 - arity:])


def _parse_key(raw, arity: int) -> tuple:
    if not (isinstance(raw, list) and len(raw) == arity and all(map(_is_int, raw))):
        raise DocumentSyntaxError(f"bad degree key {raw!r}")
    return (0,) * (2 - arity) + tuple(raw)


def _shown(key: tuple, arity: int):
    return key[1] if arity == 1 else key


def _family_entries(ring: RingSpec, fam: dict, arity: int) -> list:
    out = []
    for key in sorted(fam):
        trip = _matrix_triplets(ring, fam[key])
        if trip:
            out.append([_key_list(key, arity), trip])
    return out


def to_document(obj) -> dict:
    """The JSON-ready dict form of a complex or map; a map writes its
    ends in its own kind."""
    if not isinstance(obj, TwistedMap):
        return _object_document(obj, _kind_of(obj, "cls"))
    ring, kind = obj.source.ring, _kind_of(obj, "map_cls")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "map",
        "ring": str(ring),
        "map_kind": kind,
        "source": _object_document(obj.source, kind),
        "target": _object_document(obj.target, kind),
        "components": _family_entries(ring, obj.f, _KINDS[kind].arity),
    }


def _object_document(obj, kind: str) -> dict:
    carrier = _KINDS[kind]
    names = carrier.families or [(f"d{i}", i) for i in sorted(obj.ds)]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "ring": str(obj.ring),
        "ranks": [_key_list(k, carrier.arity) + [r] for k, r in sorted(obj.ranks.items())],
        "differentials": {
            name: _family_entries(obj.ring, obj.ds.get(i, {}), carrier.arity)
            for name, i in names
        },
    }


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


# The top-level fields of each kind of document; any other is a syntax
# error, so a misspelt field is never read as an omitted one.
_OBJECT_FIELDS = {"schema_version", "kind", "ring", "ranks", "differentials", "convention"}
_MAP_FIELDS = {"schema_version", "kind", "ring", "map_kind", "source", "target", "components"}


def _ring(doc, fields) -> RingSpec:
    """The ring a document names, once its top-level fields are checked
    to lie in `fields`."""
    unknown = sorted(set(doc) - fields)
    if unknown:
        raise DocumentSyntaxError(f"unknown field {unknown[0]!r}")
    try:
        return ring_from_name(_need(doc, "ring", str))
    except BadParameter as exc:
        raise DocumentSyntaxError(str(exc))


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


def _parse_family(entries, arity, shape_of, where):
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
            raise DocumentSyntaxError(f"duplicate degree {_shown(key, arity)} in {where}")
        rows, cols = shape_of(key)
        fam[key] = (rows, cols, e[1], f"{where}{_shown(key, arity)}")
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
            raise DocumentSyntaxError(f"bad rank {r!r} at {_shown(key, arity)}")
        if key in ranks:
            raise DocumentSyntaxError(f"duplicate rank entry at {_shown(key, arity)}")
        if r:
            ranks[key] = r
    return ranks


def _checked(x):
    """x, built unchecked by `_of`, once the one checker of its kind
    lists no violation."""
    bad = validate_map(x) if isinstance(x, TwistedMap) else validate_twisted(x)
    if bad:
        raise ValidationError(bad)
    return x


class _Pending(NamedTuple):
    """A parsed complex whose matrices are not built yet: `cells` is the
    sum of rows x cols over them, `build()` makes the object."""

    kind: str
    ring: RingSpec
    ranks: dict
    cells: int
    build: Callable


def _family_index(kind: str, name) -> int:
    """The structure index of the family `name` in a `kind` document."""
    fixed = dict(_KINDS[kind].families)
    match = None if fixed else _TWISTED_NAME.fullmatch(name)
    if name not in fixed and match is None:
        raise DocumentSyntaxError(f"unknown differential key {name!r} in a {kind} document")
    return fixed[name] if fixed else int(match[1])


def _pending_object(doc) -> _Pending:
    kind = _need(doc, "kind", str)
    if kind not in _KINDS:
        raise DocumentSyntaxError(f"unknown kind {kind!r}")
    carrier = _KINDS[kind]
    ring = _ring(doc, _OBJECT_FIELDS)
    ranks = _parse_ranks(_need(doc, "ranks", list), carrier.arity)
    diffs = doc.get("differentials", {})
    if not isinstance(diffs, dict):
        raise DocumentSyntaxError("field 'differentials' has the wrong type")
    convention = doc.get("convention", "anticommute")
    if convention not in carrier.conventions:
        raise DocumentSyntaxError(f"unknown convention {convention!r} in a {kind} document")
    fams = {}
    for name, entries in diffs.items():
        i = _family_index(kind, name)
        fams[i] = _parse_family(entries, carrier.arity, lambda k, i=i: (
            ranks.get((k[0] - i, k[1] + i - 1), 0), ranks.get(k, 0)), name)

    def build():
        ds = {i: _build_family(ring, fam) for i, fam in fams.items()}
        if convention == "commute":
            ds[0] = {(p, q): -m if p % 2 else m for (p, q), m in ds.get(0, {}).items()}
        # unchecked, so that _checked lists every violation
        return _checked(carrier.cls._of(ring, ranks, ds))

    return _Pending(kind, ring, ranks, _cells(fams.values()), build)


def _versioned(doc: dict) -> dict:
    """`doc`, once its schema_version is checked; a map checks its own
    and that of each end."""
    version = _need(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise DocumentSyntaxError(f"unsupported schema version {version}")
    return doc


def from_document(doc) -> object:
    """The object or map a document describes.  A document whose
    matrices have more than MAX_DENSE_CELLS entries in all is a
    ValidationError, raised before any matrix is built."""
    if not isinstance(doc, dict):
        raise DocumentSyntaxError("document must be a JSON object")
    kind = _need(_versioned(doc), "kind", str)
    if kind != "map":
        obj = _pending_object(doc)
        _check_size(obj.cells)
        return obj.build()

    ring = _ring(doc, _MAP_FIELDS)
    map_kind = _need(doc, "map_kind", str)
    src = _pending_object(_versioned(_need(doc, "source", dict)))
    tgt = _pending_object(_versioned(_need(doc, "target", dict)))
    if src.kind != map_kind or tgt.kind != map_kind:
        raise DocumentSyntaxError("map endpoints do not match map_kind")
    if src.ring != tgt.ring:
        raise ValidationError(["source and target use different rings"])
    if ring != src.ring:
        raise ValidationError([f"a map over {ring} between complexes over {src.ring}"])
    comps = _parse_family(
        doc.get("components", []), _KINDS[map_kind].arity,
        lambda k: (tgt.ranks.get(k, 0), src.ranks.get(k, 0)), "components",
    )
    _check_size(src.cells + tgt.cells + _cells([comps]))
    source, target = src.build(), tgt.build()
    mats = _build_family(src.ring, comps)
    # unchecked, so that _checked lists every violation
    return _checked(_KINDS[map_kind].map_cls._of(source, target, mats))


def parse(text: str) -> object:
    try:
        doc = json.loads(text)
    # JSONDecodeError is a ValueError, as is an integer literal over the
    # interpreter's digit limit; deep nesting exhausts the recursion limit
    except (ValueError, RecursionError) as exc:
        raise DocumentSyntaxError(f"not valid JSON: {exc}")
    return from_document(doc)
