import json
import random

import pytest

from bigraded.rings import ZZ, QQ, GF
from bigraded.chain import ChainComplex, ChainMap, sphere
from bigraded.matrices import ExactMatrix
from bigraded.bicomplex import bic_disc
from bigraded.twisted import twisted_boundary, twisted_disc
from bigraded.docio import (
    DocumentSyntaxError,
    ValidationError,
    parse,
    serialize,
    to_document,
)
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


def test_out_of_range_entry():
    doc = {"schema_version": 1, "kind": "chain", "ring": "Z",
           "ranks": [[0, 1], [1, 1]],
           "differentials": {"d": [[[1], [[5, 0, "1"]]]]}}
    with pytest.raises(ValidationError):
        parse(json.dumps(doc))


def test_map_document_round_trip():
    c = sphere(1, 2, ZZ)
    f = ChainMap.identity(c)
    text = serialize(f)
    g = parse(text)
    assert isinstance(g, ChainMap)
    assert serialize(g) == text


def test_map_between_different_rings_rejected():
    doc = to_document(ChainMap.identity(sphere(0, 1, ZZ)))
    doc["target"]["ring"] = "Q"
    with pytest.raises(ValidationError):
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
