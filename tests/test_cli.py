"""End-to-end runs of the command-line front end."""

import json

import pytest

from supero.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_semiinfinite_gl21_compatible(capsys):
    code, out, _ = run(
        capsys, "check-semiinfinite", "--algebra", "gl:2,1", "--grading", "compatible"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["semiinfinite"]["gamma"] == ["-1", "-1", "2"]


def test_semiinfinite_q3(capsys):
    code, out, _ = run(capsys, "check-semiinfinite", "--algebra", "q:3")
    assert code == 0
    assert json.loads(out)["semiinfinite"]["gamma"] == ["0"] * 3


def test_semiinfinite_perturbed_character_fails(capsys):
    code, out, _ = run(
        capsys,
        "check-semiinfinite",
        "--algebra", "gl:1,1",
        "--grading", "compatible",
        "--gamma", "(0|-2)",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["semiinfinite"]["defects"]  # the violating (X, Y) pair is listed


def test_unknown_algebra_is_usage_error(capsys):
    code, _, err = run(capsys, "check-semiinfinite", "--algebra", "gl:9")
    assert code == 2
    assert "usage error" in err


def test_decompose_closure_of_origin(capsys):
    code, out, _ = run(
        capsys, "decompose", "--algebra", "gl:1,1", "--box=0..0", "--closure"
    )
    assert code == 0
    assert out == "\t(0|0)\t(-1|1)\n(0|0)\t1\t1\n(-1|1)\t0\t1\n"


def test_decompose_gappy_window_exits_3(capsys):
    code, _, err = run(
        capsys, "decompose", "--algebra", "gl:1,1", "--weights", "(0|0);(-2|2)"
    )
    assert code == 3
    assert "missing" in err


def test_decompose_empty_window(capsys):
    code, out, _ = run(capsys, "decompose", "--algebra", "gl:1,1", "--box=2..-2")
    assert code == 0
    assert out.strip() == ""


def test_decompose_json_embeds_config(capsys):
    code, out, _ = run(
        capsys,
        "decompose",
        "--algebra", "gl:1,1",
        "--box=0..0",
        "--format", "json",
        "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "supero"
    assert doc["version"]
    assert doc["config"]["seed"] == 7
    assert doc["config"]["algebra"] == "gl:1,1"


def test_decompose_needs_a_window(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--algebra", "gl:1,1"])
    assert exc.value.code == 2


def test_verify_all_gl11(capsys):
    code, out, _ = run(
        capsys, "verify", "--algebra", "gl:1,1", "--box=-2..2", "--which", "all"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert set(doc["results"]) == {"bgg", "kdual", "pdual", "kdt", "sl1"}
    assert doc["results"]["sl1"]["pairs_checked"] == 625


def test_verify_bgg_gl21(capsys):
    code, out, _ = run(
        capsys, "verify", "--algebra", "gl:2,1", "--box=-1..1", "--which", "bgg"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["bgg"]["equal"] is True


def test_verify_explicit_weights_window(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--algebra", "gl:1,1",
        "--weights", "(0|0);(-1|1)",
        "--which", "kdual",
    )
    assert code == 0
    cases = json.loads(out)["results"]["kdual"]["cases"]
    assert [c["weight"] for c in cases] == ["(0|0)", "(-1|1)"]


def test_verify_budget_zero_is_resource_not_pass(capsys):
    code, _, err = run(
        capsys,
        "verify",
        "--algebra", "gl:1,1",
        "--box=0..0",
        "--which", "pdual",
        "--search-budget", "0",
    )
    assert code == 4
    assert "budget" in err


def test_reports_are_reproducible(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(
            ["verify", "--algebra", "gl:1,1", "--box=-1..1", "--which", "kdt",
             "--out", str(path)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_decompose_principal_grading_uses_depth(capsys):
    code, out, _ = run(
        capsys,
        "decompose",
        "--algebra", "gl:1,1",
        "--grading", "principal",
        "--weights", "(1|-1)",
        "--depth", "1",
    )
    assert code == 0
    assert out == "(1|-1)\t(1|-1)\t1\n(1|-1)\t(0|0)\t1\n"


def test_q_algebra_has_no_windows(capsys):
    code, _, err = run(capsys, "decompose", "--algebra", "q:2", "--box=0..0")
    assert code == 2
    assert "gl" in err


def test_decompose_gl31_exits_zero(capsys):
    code, out, err = run(capsys, "decompose", "--algebra", "gl:3,1", "--box=0..1")
    assert code == 0, err
    header, *rows = out.splitlines()
    assert len(rows) == len(header.split("\t")) - 1 > 1
    for i, line in enumerate(rows):
        cells = line.split("\t")[1:]
        assert cells[i] == "1"
        assert set(cells[:i]) <= {"0"}
