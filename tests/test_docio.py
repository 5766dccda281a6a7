import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bigraded.rings import ZZ, QQ, GF, BadParameter
from bigraded.chain import ChainComplex, ChainMap, sphere
from bigraded.matrices import ExactMatrix
from bigraded.bicomplex import bic_disc
from bigraded.twisted import twisted_boundary, twisted_disc
from bigraded.docio import (
    DocumentSyntaxError,
    MAX_DENSE_CELLS,
    ValidationError,
    _parse_matrix,
    parse,
    serialize,
    to_document,
)
from bigraded.cli import main
from bigraded.randgen import (
    random_bicomplex,
    random_bicomplex_map,
    random_chain_complex,
    random_twisted,
    random_twisted_map,
)


def test_round_trip_fixtures():
    for obj in (twisted_disc(3, 0, ZZ), twisted_boundary(4, -1, QQ),
                sphere(2, 1, GF(3))):
        text = serialize(obj)
        assert serialize(parse(text)) == text


def test_round_trip_random():
    rng = random.Random(0)
    for ring in (ZZ, QQ, GF(2), GF(7)):
        for _ in range(5):
            for obj in (random_chain_complex(rng, ring),
                        random_bicomplex(rng, ring),
                        random_twisted(rng, ring),
                        random_bicomplex_map(rng, ring),
                        random_twisted_map(rng, ring)):
                text = serialize(obj)
                assert serialize(parse(text)) == text


def test_canonical_ordering_is_idempotent():
    # shuffling rank entries does not change the canonical form
    doc = to_document(twisted_disc(3, 0, ZZ))
    doc["ranks"] = list(reversed(doc["ranks"]))
    again = serialize(parse(json.dumps(doc)))
    assert again == serialize(twisted_disc(3, 0, ZZ))


def _one_entry_complex(ring, x):
    return ChainComplex(ring, {0: 1, 1: 1}, {1: ExactMatrix.from_rows(ring, [[x]])})


def test_serialize_refuses_an_entry_parse_could_not_read_back():
    # int() reads at most 4,300 digits by default, and str() writes as many
    for ring, x in ((ZZ, 10**5000 + 1), (ZZ, -10**4300), (QQ, Fraction(1, 10**4300))):
        with pytest.raises(BadParameter):
            serialize(_one_entry_complex(ring, x))
    # at the limit the document still parses back
    for ring, x in ((ZZ, 10**4300 - 1), (ZZ, 1 - 10**4300), (QQ, Fraction(1, 10**4300 - 1))):
        c = _one_entry_complex(ring, x)
        assert parse(serialize(c)) == c


def test_rational_scalars_as_strings():
    c = ChainComplex(QQ, {0: 1, 1: 1},
                     {1: ExactMatrix.from_rows(QQ, [["1/3"]])})
    text = serialize(c)
    assert '"1/3"' in text
    assert parse(text).diff(1)[0, 0] == parse(text).ring.parse_scalar("1/3")


def test_empty_ranks_is_zero_object():
    z = parse('{"schema_version": 1, "kind": "bicomplex", "ring": "Z", '
              '"ranks": [], "differentials": {}}')
    assert not z.ranks


def test_syntax_errors():
    with pytest.raises(DocumentSyntaxError):
        parse("{")
    with pytest.raises(DocumentSyntaxError):
        parse('{"schema_version": 2, "kind": "chain", "ring": "Z", "ranks": []}')
    with pytest.raises(DocumentSyntaxError):
        parse('{"schema_version": 1, "kind": "what", "ring": "Z", "ranks": []}')
    with pytest.raises(DocumentSyntaxError):
        parse('{"schema_version": 1, "kind": "chain", "ring": "R", "ranks": []}')
    # booleans are not integers, although JSON true parses as a Python int
    for doc in (
        '{"schema_version": true, "kind": "chain", "ring": "Z", "ranks": []}',
        '{"schema_version": 1, "kind": "chain", "ring": "Z", "ranks": [[true, 1]]}',
        '{"schema_version": 1, "kind": "chain", "ring": "Z", "ranks": [[0, true]]}',
        '{"schema_version": 1, "kind": "bicomplex", "ring": "Z", '
        '"ranks": [[0, false, 1]]}',
        '{"schema_version": 1, "kind": "chain", "ring": "Z", '
        '"ranks": [[0, 1], [1, 1]], "differentials": {"d": [[[true], [[0, 0, "1"]]]]}}',
        '{"schema_version": 1, "kind": "chain", "ring": "Z", '
        '"ranks": [[0, 1], [1, 1]], "differentials": {"d": [[[1], [[false, 0, "1"]]]]}}',
    ):
        with pytest.raises(DocumentSyntaxError):
            parse(doc)


def test_validation_error_cites_anticommutation():
    doc = {"schema_version": 1, "kind": "bicomplex", "ring": "Z",
           "ranks": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
           "differentials": {
               "dh": [[[1, 0], [[0, 0, "1"]]], [[1, 1], [[0, 0, "1"]]]],
               "dv": [[[0, 1], [[0, 0, "1"]]], [[1, 1], [[0, 0, "1"]]]]}}
    with pytest.raises(ValidationError) as info:
        parse(json.dumps(doc))
    assert any("anticommute" in v for v in info.value.violations)


def _commuting_disc(corner="1"):
    """bic_disc(1, 0, 1) in the commuting convention; its d_v out of the
    corner (1, 0) is `corner` (the anticommuting form has -1 there)."""
    return json.dumps({
        "schema_version": 1, "kind": "bicomplex", "ring": "Z",
        "convention": "commute",
        "ranks": [[0, -1, 1], [0, 0, 1], [1, -1, 1], [1, 0, 1]],
        "differentials": {
            "dh": [[[1, -1], [[0, 0, "1"]]], [[1, 0], [[0, 0, "1"]]]],
            "dv": [[[0, 0], [[0, 0, "1"]]], [[1, 0], [[0, 0, corner]]]]}})


def test_commuting_convention_documents():
    d = bic_disc(1, 0, 1)
    got = parse(_commuting_disc())
    assert got == d
    assert serialize(got) == serialize(d)
    with pytest.raises(ValidationError):
        parse(_commuting_disc("-1"))  # squares anticommute, not commute
    doc = json.loads(_commuting_disc())
    doc["convention"] = "sideways"
    with pytest.raises(DocumentSyntaxError):
        parse(json.dumps(doc))


# one document of each kind, each with one family
_KIND_DOCS = {
    "chain": ({"d": [[[1], [[0, 0, "1"]]]]}, [[0, 1], [1, 1]]),
    "bicomplex": ({"dh": [[[1, 0], [[0, 0, "1"]]]]}, [[0, 0, 1], [1, 0, 1]]),
    "twisted": ({"d1": [[[1, 0], [[0, 0, "1"]]]]}, [[0, 0, 1], [1, 0, 1]]),
}


def _kind_doc(kind, **extra):
    diffs, ranks = _KIND_DOCS[kind]
    return {"schema_version": 1, "kind": kind, "ring": "Z", "ranks": ranks,
            "differentials": dict(diffs), **extra}


@pytest.mark.parametrize("kind, name", [
    ("chain", "dh"), ("chain", "d0"), ("chain", "D"),
    ("bicomplex", "DH"), ("bicomplex", "d"), ("bicomplex", "d1"),
    ("twisted", "dh"), ("twisted", "d01"), ("twisted", "d"), ("twisted", "d-1"),
])
def test_unknown_family_name_is_a_syntax_error(kind, name):
    # a misspelt name does not parse as a document without that family
    doc = _kind_doc(kind)
    parse(json.dumps(doc))
    doc["differentials"][name] = doc["differentials"].pop(next(iter(doc["differentials"])))
    with pytest.raises(DocumentSyntaxError, match="unknown differential key"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("kind", ["chain", "twisted"])
def test_convention_belongs_to_bicomplex_documents(kind):
    parse(json.dumps(_kind_doc(kind, convention="anticommute")))
    for convention in ("commute", "sideways", None, 1):
        with pytest.raises(DocumentSyntaxError, match="convention"):
            parse(json.dumps(_kind_doc(kind, convention=convention)))
    for convention in ("anticommute", "commute"):
        parse(json.dumps(_kind_doc("bicomplex", convention=convention)))
    with pytest.raises(DocumentSyntaxError, match="convention"):
        parse(json.dumps(_kind_doc("bicomplex", convention="sideways")))


def test_out_of_range_entry():
    doc = {"schema_version": 1, "kind": "chain", "ring": "Z",
           "ranks": [[0, 1], [1, 1]],
           "differentials": {"d": [[[1], [[5, 0, "1"]]]]}}
    with pytest.raises(ValidationError):
        parse(json.dumps(doc))


def test_parsed_matrix_keeps_its_declared_shape():
    m = _parse_matrix(QQ, 0, 3, [], "d(0,0)")
    assert (m.rows, m.cols) == (0, 3)
    m = _parse_matrix(GF(3), 2, 2, [[1, 0, "5"], [0, 1, "-1"]], "d(0,0)")
    assert m == ExactMatrix.from_rows(GF(3), [[0, 2], [2, 0]])


def _chain_doc(ring, triplets):
    return {"schema_version": 1, "kind": "chain", "ring": ring,
            "ranks": [[0, 2], [1, 2]],
            "differentials": {"d": [[[1], triplets]]}}


@pytest.mark.parametrize("ring", ["Z", "F5"])
def test_repeated_matrix_entry_is_a_syntax_error(ring):
    # a repeated (i, j) is refused like a repeated degree or rank entry,
    # also when one of the two values is zero in the ring
    for triplets in ([[1, 1, "2"], [1, 1, "5"]],
                     [[1, 1, "0"], [0, 1, "1"], [1, 1, "3"]]):
        with pytest.raises(DocumentSyntaxError, match="duplicate"):
            parse(json.dumps(_chain_doc(ring, triplets)))


@pytest.mark.parametrize("ring, zero", [
    ("Z", "0"), ("Z", "-0"), ("F5", "0"), ("F5", "5"), ("F5", "-10"),
])
def test_zero_matrix_entry_stores_nothing(ring, zero):
    plain = parse(json.dumps(_chain_doc(ring, [[0, 1, "3"]])))
    with_zero = parse(json.dumps(_chain_doc(ring, [[0, 1, "3"], [1, 0, zero]])))
    assert with_zero == plain
    assert with_zero.d[1].sparse_rows == ({1: 3}, {})
    assert serialize(with_zero) == serialize(plain)
    # a matrix of zeros only is the zero map, which is not stored
    assert parse(json.dumps(_chain_doc(ring, [[1, 0, zero]]))).d == {}


def test_oversized_documents_rejected_before_allocation():
    # 118 bytes declaring one 20000 x 20000 matrix: rejected by its
    # declared size, not after building 4e8 dense entries
    text = ('{"schema_version":1,"kind":"chain","ring":"Z",'
            '"ranks":[[0,20000],[1,20000]],'
            '"differentials":{"d":[[[1],[[0,0,"1"]]]]}}')
    assert len(text) == 118
    with pytest.raises(ValidationError, match="entries"):
        parse(text)
    # the limit is on the sum over all matrices of the document: two
    # families of a twisted complex, each below it
    n = 1500
    assert n * n <= MAX_DENSE_CELLS < 2 * n * n
    doc = {"schema_version": 1, "kind": "twisted", "ring": "F3",
           "ranks": [[1, 0, n], [0, 0, n], [1, 1, n]],
           "differentials": {"d0": [[[1, 1], []]], "d1": [[[1, 0], []]]}}
    with pytest.raises(ValidationError, match="entries"):
        parse(json.dumps(doc))
    # and a map counts its components with its ends
    doc = {"schema_version": 1, "kind": "map", "ring": "Z",
           "map_kind": "chain",
           "source": {"schema_version": 1, "kind": "chain", "ring": "Z",
                      "ranks": [[0, 3000]]},
           "target": {"schema_version": 1, "kind": "chain", "ring": "Z",
                      "ranks": [[0, 3000]]},
           "components": [[[0], []]]}
    with pytest.raises(ValidationError, match="entries"):
        parse(json.dumps(doc))


def test_map_document_round_trip():
    c = sphere(1, 2, ZZ)
    f = ChainMap.identity(c)
    text = serialize(f)
    g = parse(text)
    assert isinstance(g, ChainMap)
    assert serialize(g) == text


@pytest.mark.parametrize("version", [99, "x"])
@pytest.mark.parametrize("end", ["source", "target"])
def test_map_end_schema_version_is_checked(end, version):
    doc = to_document(ChainMap.identity(sphere(0, 1, ZZ)))
    doc[end]["schema_version"] = version
    with pytest.raises(DocumentSyntaxError, match="schema version|wrong type"):
        parse(json.dumps(doc))


def test_map_between_different_rings_rejected():
    doc = to_document(ChainMap.identity(sphere(0, 1, ZZ)))
    doc["target"]["ring"] = "Q"
    with pytest.raises(ValidationError):
        parse(json.dumps(doc))


def test_misspelt_object_field_is_a_syntax_error():
    # "differential" for "differentials" would otherwise parse as a
    # complex with no differential at all
    doc = to_document(ChainComplex(ZZ, {0: 1, 1: 1}, {1: ExactMatrix.from_rows(ZZ, [[2]])}))
    doc["differential"] = doc.pop("differentials")
    with pytest.raises(DocumentSyntaxError, match="unknown field .differential."):
        parse(json.dumps(doc))


def test_misspelt_map_field_is_a_syntax_error():
    # "component" for "components" would otherwise parse as the zero map
    doc = to_document(ChainMap.identity(sphere(1, 2, ZZ)))
    doc["component"] = doc.pop("components")
    with pytest.raises(DocumentSyntaxError, match="unknown field .component."):
        parse(json.dumps(doc))


def test_map_over_another_ring_than_its_ends_rejected():
    doc = to_document(ChainMap.identity(sphere(0, 1, ZZ)))
    doc["ring"] = "Q"
    with pytest.raises(ValidationError, match="a map over Q between complexes over Z"):
        parse(json.dumps(doc))


def test_no_floats_anywhere():
    text = serialize(random_bicomplex(random.Random(1), QQ))
    doc = json.loads(text)

    def walk(x):
        assert not isinstance(x, float)
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(doc)


# --- malformed documents ---------------------------------------------------------
#
# A document is mutated at random places: the ring, scalars, degree keys,
# ranks, matrix shapes and entries, field names and whole fields.  Parsing
# must either succeed or raise one of the two document errors.

_HOSTILE = [
    None, True, 1.5, "", "x", [], {}, -1, 0, 1, 2, 7, 10**30, 2**63,
    "1/0", "-3/0", "1/2", "1/2/3", "9" * 5000, " 4 ", "0/1",
    "Z", "Q", "F2", "F4", "F", "GF(x)", "GF()", "F²", "F" + "9" * 5000,
    "F" + "0" * 5000 + "7", "GF(" + "0" * 5000 + "7)",
    [0], [0, 0], [1, 2, 3], [True, 0], [0, 10**20, "1"], [-1, 0, "1"],
    [[0, 0, "1/0"]], [[0, 0]], [[1], []], [[0, 1, 1]],
    [[0, 0, "1"], [0, 0, "2"]], [[0, 0, "0"]],
]
_HOSTILE_NAMES = ["d²", "d" + "9" * 5000, "d-1", "x1", "d", "dh", "dv", "d0", "d7"]


def _seed_documents():
    """{name: document} of one complex or map of every kind."""
    rng = random.Random(11)
    objs = {
        "chain": random_chain_complex(rng, QQ),
        "bicomplex": random_bicomplex(rng, GF(3)),
        "twisted": random_twisted(rng, ZZ),
        "twisted-boundary": twisted_boundary(2, 0, QQ),
        "chain-map": ChainMap.identity(random_chain_complex(rng, ZZ)),
        "bicomplex-map": random_bicomplex_map(rng, GF(2)),
        "twisted-map": random_twisted_map(rng, QQ),
    }
    return {name: to_document(o) for name, o in objs.items()}


_SEEDS = _seed_documents()


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for k, v in enumerate(node):
            yield from _paths(v, path + (k,))


@st.composite
def malformed_documents(draw, names=tuple(_SEEDS)):
    doc = json.loads(json.dumps(_SEEDS[draw(st.sampled_from(names))]))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(doc) if p]
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = doc
        for k in head:
            parent = parent[k]
        action = draw(st.sampled_from(["replace", "replace", "delete", "rename"]))
        if action == "rename" and isinstance(parent, dict):
            parent[draw(st.sampled_from(_HOSTILE_NAMES))] = parent.pop(last)
        elif action == "delete":
            del parent[last]
        else:
            parent[last] = json.loads(json.dumps(draw(st.sampled_from(_HOSTILE))))
    return json.dumps(doc)


def _parse_or_document_error(text):
    try:
        parse(text)
    except (DocumentSyntaxError, ValidationError):
        pass


@settings(max_examples=400, deadline=None)
@given(malformed_documents())
def test_malformed_documents_raise_only_document_errors(text):
    _parse_or_document_error(text)


@pytest.mark.parametrize("name", sorted(_SEEDS))
def test_check_answers_mutated_documents_in_one_line(tmp_path_factory, name):
    # 15 mutations of the document of each kind, 105 in all, through the
    # command line: valid, or one line on stderr, and never a traceback
    path = tmp_path_factory.mktemp("fuzz") / f"{name}.json"

    @settings(max_examples=15, deadline=None, database=None)
    @given(malformed_documents((name,)))
    def check(text):
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["check", str(path)])
        assert (code, err.getvalue() == "") in ((0, True), (1, False))
        assert err.getvalue().count("\n") <= 1
        assert (code == 0) == out.getvalue().startswith(f"{path}: valid")

    check()


@pytest.mark.parametrize("ring, entry", [
    ("Q", "1/0"),
    ("GF(x)", "1"),
    ("F" + "9" * 5000, "1"),
    ("F" + "0" * 5000 + "7", "1"),
], ids=["zero-denominator", "GF(x)", "F-5000-digits", "F-zero-padded"])
def test_hostile_ring_and_scalar_are_syntax_errors(ring, entry):
    doc = {"schema_version": 1, "kind": "chain", "ring": ring,
           "ranks": [[0, 1], [1, 1]],
           "differentials": {"d": [[[1], [[0, 0, entry]]]]}}
    with pytest.raises(DocumentSyntaxError):
        parse(json.dumps(doc))


# 100,000 nested lists exhaust the recursion limit of the JSON decoder;
# a 5,001-digit integer is over the interpreter's limit for int literals
HOSTILE_TEXTS = {
    "deep-nesting": "[" * 100_000,
    "rank-5001-digits": '{"schema_version": 1, "kind": "chain", "ring": "Z", '
                        '"ranks": [[0, 1' + "0" * 5000 + ']], "differentials": {"d": []}}',
}


@pytest.mark.parametrize("name", sorted(HOSTILE_TEXTS))
def test_hostile_json_is_a_syntax_error(name):
    with pytest.raises(DocumentSyntaxError):
        parse(HOSTILE_TEXTS[name])
