"""One checker for objects (`validate_twisted`) and one for maps
(`validate_map`).  Chain complexes and chain maps are checked as column
0, so their violations name the bidegree (0, n).  Constructors and
documents list every violation, for every kind."""

import json
import re

import pytest

from bigraded.rings import ZZ, QQ, BadParameter
from bigraded.matrices import ExactMatrix
from bigraded.chain import ChainComplex, ChainMap, disc
from bigraded.bicomplex import BicomplexMap, bic_disc
from bigraded.twisted import (
    TwistedMap,
    cone_twisted,
    embed,
    line,
    tot_twisted,
    twisted_disc,
    validate_map,
    validate_twisted,
)
from bigraded.docio import ValidationError, parse
from bigraded.cli import main


def M(rows, ring=ZZ):
    return ExactMatrix.from_rows(ring, rows)


# kind -> (object over a ring, map class, key of the generator, its
# bidegree as the checker names it)
KINDS = {
    "chain": (lambda ring: disc(1, 1, ring), ChainMap, 1, (0, 1)),
    "bicomplex": (lambda ring: bic_disc(1, 0, 1, ring), BicomplexMap, (1, 0), (1, 0)),
    "twisted": (lambda ring: twisted_disc(1, 0, ring), TwistedMap, (1, 0), (1, 0)),
}


def _violation(kind, case):
    """An invalid map of `kind` with violations of the `case` kind: its
    ends, its class, its components and the expected violations."""
    make, cls, top, at = KINDS[kind]
    x = make(ZZ)
    if case == "different rings":
        return x, make(QQ), cls, {}, ["map between different rings"]
    if case == "wrong shape":
        return x, x, cls, {top: M([[1], [1]])}, [f"component at ({at[0]},{at[1]}) has wrong shape"]
    # the identity on the generator alone: d_0 of the generator is not
    # sent along
    expected = [f"map does not commute with d_0 at ({at[0]},{at[1]})"]
    if kind != "chain":
        expected.append(f"map does not commute with d_1 at ({at[0]},{at[1]})")
    return x, x, cls, {top: M([[1]])}, expected


@pytest.mark.parametrize("case", ["different rings", "wrong shape", "does not commute"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_map_violation_kind_is_named(kind, case):
    src, tgt, cls, comps, expected = _violation(kind, case)
    # `_of` takes the bidegree of the generator, the chain constructor its degree
    at = KINDS[kind][3]
    assert validate_map(cls._of(src, tgt, {at: m for m in comps.values()})) == expected
    with pytest.raises(BadParameter) as err:
        cls(src, tgt, comps)
    assert all(v in str(err.value) for v in expected)


def test_a_map_class_needs_ends_of_its_kind():
    chain_end, bicomplex_end = disc(1, 1, ZZ), bic_disc(1, 0, 1, ZZ)
    with pytest.raises(BadParameter, match="ChainMap needs ends of its kind"):
        ChainMap(bicomplex_end, bicomplex_end, {})
    twisted_end = twisted_disc(1, 0, ZZ)
    with pytest.raises(BadParameter, match="BicomplexMap needs ends of its kind"):
        BicomplexMap(twisted_end, twisted_end, {})
    # a less special class takes more special ends
    assert BicomplexMap(chain_end, chain_end, {}).f == {}
    assert TwistedMap(bicomplex_end, bicomplex_end, {}).f == {}


def test_map_checker_lists_every_failure_in_order():
    # every component of the wrong shape, by bidegree
    x = twisted_disc(2, 0, ZZ)
    wrong = {pq: M([[1] * r] * (r + 1)) for pq, r in reversed(x.ranks.items())}
    shapes = validate_map(TwistedMap._of(x, x, wrong))
    assert shapes == [f"component at ({p},{q}) has wrong shape" for p, q in sorted(x.ranks)]
    # every square that does not commute, by bidegree and then index,
    # whatever order the components were given in
    half = {pq: ExactMatrix.identity(ZZ, r) for pq, r in x.ranks.items() if pq[0] == 2}
    bad = validate_map(TwistedMap._of(x, x, half))
    assert bad == validate_map(TwistedMap._of(x, x, dict(reversed(half.items()))))
    found = [re.fullmatch(r"map does not commute with d_(\d+) at \((-?\d+),(-?\d+)\)", v)
             for v in bad]
    keys = [(int(m[2]), int(m[3]), int(m[1])) for m in found]
    assert len(keys) >= 2 and keys == sorted(keys)


def test_chain_complex_violations_name_column_zero():
    with pytest.raises(BadParameter, match=r"negative rank at \(0,1\)"):
        ChainComplex(ZZ, {1: -1}, {})
    with pytest.raises(BadParameter, match=r"d_0 at \(0,1\) has shape 1x2"):
        ChainComplex(ZZ, {0: 1, 1: 1}, {1: M([[1, 1]])})
    # every violation in one error
    with pytest.raises(BadParameter) as err:
        ChainComplex(ZZ, {0: 1, 1: 1, 2: 1, 3: 1},
                     {1: M([[1]]), 2: M([[1]]), 3: M([[1]])})
    assert "d_0^2 != 0 at (0,2); d_0^2 != 0 at (0,3)" in str(err.value)


def test_rows_refuse_structure_maps_above_d1():
    x = twisted_disc(2, 0, QQ)
    assert 2 in x.ds
    for q in range(-2, 1):
        with pytest.raises(BadParameter, match="d_i = 0 for i >= 2"):
            line(x, 1, q)
    # whatever d_1^2 happens to be on the row
    c = cone_twisted(TwistedMap.identity(x), 1)
    assert 2 in c.ds
    for q in range(-2, 2):
        with pytest.raises(BadParameter, match="d_i = 0 for i >= 2"):
            line(c, 1, q)
    assert line(x, 0, 2).ranks == {(0, q): r for (p, q), r in x.ranks.items() if p == 2}


def test_derived_lines_and_tot_satisfy_the_relations():
    # built unchecked; the relations of the object prove them
    for x in (twisted_disc(3, 0, ZZ), bic_disc(2, 1, 1, QQ)):
        assert validate_twisted(embed(tot_twisted(x))) == []
        for p in range(4):
            assert validate_twisted(embed(line(x, 0, p))) == []


def _chain_doc(top, d):
    return {"schema_version": 1, "kind": "chain", "ring": "Z",
            "ranks": [[n, 1] for n in range(top + 1)],
            "differentials": {"d": [[[n], [[0, 0, "1"]]] for n in d]}}


def _documents():
    """(name, document, expected violations) for a chain document and a
    chain map document with several violations each."""
    squares = _chain_doc(4, range(1, 5))
    # d_1, d_3, d_5, d_7 the identity; the map is the identity in odd
    # degrees only, so it fails to commute with each of them
    x = _chain_doc(7, (1, 3, 5, 7))
    chain_map = {"schema_version": 1, "kind": "map", "ring": "Z", "map_kind": "chain",
                 "source": x, "target": x,
                 "components": [[[n], [[0, 0, "1"]]] for n in (1, 3, 5, 7)]}
    return [
        ("chain", squares, [f"d_0^2 != 0 at (0,{n})" for n in (2, 3, 4)]),
        ("chain-map", chain_map,
         [f"map does not commute with d_0 at (0,{n})" for n in (1, 3, 5, 7)]),
    ]


@pytest.mark.parametrize("name, doc, expected", _documents(), ids=["chain", "chain-map"])
def test_documents_list_every_violation(tmp_path, capsys, name, doc, expected):
    text = json.dumps(doc)
    with pytest.raises(ValidationError) as err:
        parse(text)
    assert err.value.violations == expected
    f = tmp_path / f"{name}.json"
    f.write_text(text)
    assert main(["check", str(f)]) == 1
    err_text = capsys.readouterr().err
    assert all(v in err_text for v in expected)
