import json
import os

import pytest

from bigraded.cli import _GEN_KINDS, main
from bigraded.docio import parse, serialize
from bigraded.rings import ZZ
from bigraded.bicomplex import Bicomplex, BicomplexMap
from bigraded.model import GeneratorRef, generator_map


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_then_check(tmp_path, capsys):
    # every kind the CLI offers
    for kind in sorted(_GEN_KINDS):
        f = str(tmp_path / f"{kind}.json")
        code, _, _ = run(capsys, "gen", kind, "4", "0", "-o", f)
        assert code == 0, kind
        code, out, _ = run(capsys, "check", f)
        assert code == 0, kind
        assert "valid" in out, kind


def test_check_rejects_garbage(tmp_path, capsys):
    f = str(tmp_path / "bad.json")
    with open(f, "w") as fh:
        fh.write("{nope")
    code, _, err = run(capsys, "check", f)
    assert code == 1
    assert "JSON" in err
    # a bad ring or scalar is one line on stderr, not a traceback
    for ring, entry in (("Q", "1/0"), ("GF(x)", "1"), ("F" + "9" * 5000, "1")):
        with open(f, "w") as fh:
            json.dump({"schema_version": 1, "kind": "chain", "ring": ring,
                       "ranks": [[0, 1], [1, 1]],
                       "differentials": {"d": [[[1], [[0, 0, entry]]]]}}, fh)
        code, _, err = run(capsys, "check", f)
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f)


def test_homology_output(tmp_path, capsys):
    f = str(tmp_path / "s.json")
    run(capsys, "gen", "sphere", "2", "1", "-o", f)
    code, out, _ = run(capsys, "homology", f)
    assert code == 0
    assert "3" in out and "k^1" in out


def test_e2_and_ss(tmp_path, capsys):
    f = str(tmp_path / "b.json")
    run(capsys, "gen", "twisted-boundary", "3", "0", "--ring", "Q", "-o", f)
    code, out, _ = run(capsys, "e2", f)
    assert code == 0 and "page 2" in out
    code, out, _ = run(capsys, "ss", f, "--max-page", "3")
    assert code == 0 and "stable from page" in out
    # field required
    f2 = str(tmp_path / "bz.json")
    run(capsys, "gen", "twisted-boundary", "3", "0", "-o", f2)
    code, _, err = run(capsys, "e2", f2)
    assert code == 1 and "field" in err


def test_ss_and_e2_refuse_bad_parameters(tmp_path, capsys):
    f = str(tmp_path / "b.json")
    run(capsys, "gen", "twisted-boundary", "3", "0", "--ring", "Q", "-o", f)
    for bound in ("0", "-5"):
        code, out, err = run(capsys, "ss", f, "--max-page", bound)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "at least 1" in err
    # a map document cannot be viewed as a twisted complex
    m = str(tmp_path / "m.json")
    run(capsys, "gen", "boundary-inclusion", "3", "0", "--ring", "Q", "-o", m)
    for cmd in ("e2", "ss"):
        code, out, err = run(capsys, cmd, m)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "cannot embed" in err


def test_tensor_roundtrip(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    out = str(tmp_path / "t.json")
    run(capsys, "gen", "sphere", "0", "1", "--ring", "Q", "-o", a)
    code, _, _ = run(capsys, "tensor", a, a, "-o", out)
    assert code == 0
    obj = parse(open(out).read())
    assert dict(obj.ranks) == {(0, 2): 1}


def test_tensor_over_different_rings_is_one_line(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, "gen", "sphere", "0", "1", "--ring", "Z", "-o", a)
    run(capsys, "gen", "sphere", "0", "1", "--ring", "Q", "-o", b)
    code, out, err = run(capsys, "tensor", a, b)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "different rings" in err


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"schema_version": 1, "kind": "chain", "ring": "Z", "ranks": [[0, 1' + "0" * 5000 + "]]}",
], ids=["deep-nesting", "rank-5001-digits"])
def test_check_refuses_hostile_json_in_one_line(tmp_path, capsys, text):
    f = tmp_path / "hostile.json"
    f.write_text(text)
    code, out, err = run(capsys, "check", str(f))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(str(f))


def test_classify_quotient(tmp_path, capsys):
    from bigraded.bicomplex import bic_disc, v_boundary
    from bigraded.matrices import ExactMatrix

    d = bic_disc(2, 0, 1, ZZ)
    b = v_boundary(2, 1, 1, ZZ)
    g = BicomplexMap(d, b, {pq: ExactMatrix.identity(ZZ, 1) for pq in b.ranks})
    f = str(tmp_path / "g.json")
    with open(f, "w") as fh:
        fh.write(serialize(g))
    code, out, _ = run(capsys, "classify", f, "--structure", "ce")
    assert code == 0
    assert "fibration: false" in out
    assert "(2, 0)" in out


def test_lift_success_and_failure(tmp_path, capsys):
    i = generator_map(GeneratorRef("TotI_VBoundaryToDisc", 2, 0), ZZ)
    zero = Bicomplex(ZZ, {}, {}, {})
    sq = tmp_path / "sq"
    os.makedirs(sq)
    (sq / "i.json").write_text(serialize(i))
    (sq / "g.json").write_text(serialize(BicomplexMap(i.target, zero, {})))
    (sq / "u.json").write_text(serialize(i))
    (sq / "f.json").write_text(serialize(BicomplexMap(i.target, zero, {})))
    out = str(tmp_path / "h.json")
    code, _, _ = run(capsys, "lift", str(sq), "-o", out)
    assert code == 0
    h = parse(open(out).read())
    assert isinstance(h, BicomplexMap)
    # unsolvable: ask for a retraction
    (sq / "g.json").write_text(serialize(i))
    (sq / "u.json").write_text(serialize(BicomplexMap.identity(i.source)))
    (sq / "f.json").write_text(serialize(BicomplexMap.identity(i.target)))
    code, _, err = run(capsys, "lift", str(sq))
    assert code == 1 and "no lift" in err


def test_lift_refuses_a_chain_square(tmp_path, capsys):
    from bigraded.chain import ChainMap, disc

    f = serialize(ChainMap.identity(disc(1, 1, ZZ)))
    sq = tmp_path / "sq"
    os.makedirs(sq)
    for name in ("i", "g", "u", "f"):
        (sq / f"{name}.json").write_text(f)
    code, out, err = run(capsys, "lift", str(sq))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "include_chain" in err


def test_ce_resolve(tmp_path, capsys):
    from bigraded.chain import ChainComplex
    from bigraded.matrices import ExactMatrix

    c = ChainComplex(ZZ, {0: 1, 1: 1}, {1: ExactMatrix.from_rows(ZZ, [[2]])})
    f = str(tmp_path / "c.json")
    with open(f, "w") as fh:
        fh.write(serialize(c))
    out = str(tmp_path / "eps.json")
    code, _, _ = run(capsys, "ce-resolve", f, "-o", out)
    assert code == 0
    eps = parse(open(out).read())
    assert isinstance(eps, BicomplexMap)
    assert dict(eps.source.ranks) == {(0, 0): 2, (0, 1): 1, (1, 0): 1}


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "gen", "twisted-disc", "-1", "0")
    assert code == 1


@pytest.mark.parametrize("kind", ["twisted-disc", "twisted-boundary", "boundary-inclusion"])
def test_gen_refuses_a_rank_for_one_generator_cells(capsys, kind):
    code, out, err = run(capsys, "gen", kind, "4", "0", "-r", "3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "--rank must be 1" in err
    assert run(capsys, "gen", kind, "4", "0", "-r", "1")[0] == 0


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "x.json", "--structure", "banana"])
    assert info.value.code == 2


def test_verify_paper_small(capsys):
    code, out, _ = run(capsys, "verify-paper", "--max-p", "2", "--seed", "1")
    assert code == 0
    assert "7/7 checks passed" in out


def test_verify_paper_reproducible(capsys):
    _, out1, _ = run(capsys, "verify-paper", "--max-p", "1", "--seed", "3")
    _, out2, _ = run(capsys, "verify-paper", "--max-p", "1", "--seed", "3")
    assert out1 == out2
