"""End-to-end runs of the command-line front end."""

import errno
import importlib
import json
import os
from collections import Counter
from pathlib import Path

import pytest

from helpers import without_orbit_twist
from supero import cli, forms, homs, structure
from supero.cli import WHICH_CHOICES, main
from supero.config import DEFAULT_LIMITS
from supero.weights import parse_weight

GOLDEN = Path(__file__).parent / "golden"


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


WINDOWED = {
    "check-semiinfinite": (),
    "decompose": ("--box=0..0",),
    "verify": ("--box=0..0", "--which", "kdt"),
}


@pytest.mark.parametrize("command", sorted(WINDOWED))
@pytest.mark.parametrize("algebra", ["gl:0,1", "gl:1,0", "gl:-1,1", "q:0"])
def test_empty_or_negative_algebra_parameters_are_usage_errors(command, algebra, capsys):
    code, out, err = run(capsys, command, "--algebra", algebra, *WINDOWED[command])
    assert code == 2
    assert out == ""
    assert "usage error" in err and repr(algebra) in err and "Traceback" not in err


@pytest.mark.parametrize("command", sorted(WINDOWED))
@pytest.mark.parametrize("flag", ["--max-module-dim", "--iteration-budget"])
def test_negative_budget_is_usage_error(command, flag, capsys):
    code, out, err = run(
        capsys, command, "--algebra", "gl:1,1", *WINDOWED[command], flag, "-1",
    )
    assert code == 2
    assert out == ""
    assert "usage error" in err and f"{flag} must be >= 0, got -1" in err


@pytest.mark.parametrize(
    "argv,text",
    [
        (("verify", "--weights", "(1,0|0)", "--which", "kdual"), "3 coordinates"),
        (("decompose", "--weights", "(a|0)"), "cannot parse weight '(a|0)'"),
        (("check-semiinfinite", "--gamma", "(1,0,0)"), "3 coordinates"),
        (("check-semiinfinite", "--gamma", "(x|0)"), "cannot parse weight '(x|0)'"),
    ],
)
def test_malformed_weight_is_usage_error(capsys, argv, text):
    code, out, err = run(capsys, argv[0], "--algebra", "gl:1,1", *argv[1:])
    assert code == 2
    assert out == ""
    assert "usage error" in err and text in err


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
    for window in ("--box=2..-2", "--weights=;", "--weights="):
        code, out, err = run(capsys, "decompose", "--algebra", "gl:1,1", window)
        assert code == 2, window
        assert out == ""
        assert "window is empty" in err


@pytest.mark.parametrize("which", ["kdt", "all"])
def test_verify_empty_window_is_usage_error(capsys, which):
    for window in ("--box=2..-2", "--weights=;"):
        code, out, err = run(
            capsys, "verify", "--algebra", "gl:1,1", window, "--which", which
        )
        assert code == 2, window
        assert out == ""
        assert "window is empty" in err


@pytest.mark.parametrize("which", WHICH_CHOICES)
@pytest.mark.parametrize("weights,named", [
    ("(1,0|0);(1,0|0)", "window repeats (1,0|0)"),
    ("(1.5,0|0)", "window weight (3/2,0|0) is not dominant"),
])
def test_every_pipeline_refuses_a_malformed_window_by_the_given_weight(
    capsys, which, weights, named,
):
    code, out, err = run(
        capsys, "verify", "--algebra", "gl:2,1", "--weights", weights, "--which", which,
    )
    assert code == 3
    assert out == ""
    assert err == f"window error: {named}\n"


@pytest.mark.parametrize("which", WHICH_CHOICES)
@pytest.mark.parametrize("missing", [True, False], ids=["missing-directory", "empty"])
def test_an_unwritable_out_is_a_usage_error(capsys, tmp_path, which, missing):
    target = tmp_path / "missing" / "report.json" if missing else ""
    code, out, err = run(
        capsys, "verify", "--algebra", "gl:1,1", "--box=0..0", "--which", which,
        "--out", str(target),
    )
    assert code == 2
    assert out == ""
    assert err == f"usage error: cannot write --out {target}: No such file or directory\n"


@pytest.mark.parametrize("command", sorted(WINDOWED))
@pytest.mark.parametrize("directory", [False, True], ids=["missing", "directory"])
def test_an_out_in_a_missing_directory_is_refused_before_any_work(
    command, directory, capsys, tmp_path, monkeypatch,
):
    """The directory of --out, and --out itself when it is a directory,
    are checked before the algebra is built, and nothing is created on
    disk."""
    def no_build(*args):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(cli, "_build_algebra", no_build)
    target = tmp_path if directory else tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys, command, "--algebra", "gl:2,2", *WINDOWED[command], "--out", str(target),
    )
    reason = "Is a directory" if directory else "No such file or directory"
    assert code == 2
    assert out == ""
    assert err == f"usage error: cannot write --out {target}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_an_out_that_opens_late_is_still_a_usage_error(capsys, tmp_path, monkeypatch):
    """An --out that passes the early check but fails to open after the
    verdict is a usage error too."""
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", full, raising=False)
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--algebra", "gl:1,1", "--box=0..0", "--which", "kdt",
        "--out", str(target),
    )
    assert code == 2
    assert err == f"usage error: cannot write --out {target}: No space left on device\n"


def test_decompose_depth_needs_the_principal_grading(capsys):
    code, out, err = run(
        capsys, "decompose", "--algebra", "gl:2,1", "--box=0..0", "--depth", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "usage error: --depth applies to the principal grading only\n"


@pytest.mark.parametrize("grading", ["principal", "compatible"])
def test_decompose_refuses_a_repeated_weight_under_every_grading(grading, capsys):
    depth = ("--depth", "1") if grading == "principal" else ()
    code, out, err = run(
        capsys, "decompose", "--algebra", "gl:2,1", "--grading", grading,
        "--weights", "(0,0|0);(0,0|0)", *depth,
    )
    assert code == 3
    assert out == ""
    assert err == "window error: window repeats (0,0|0)\n"


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_closure_with_explicit_weights_is_usage_error(command, capsys):
    which = ("--which", "kdt") if command == "verify" else ()
    code, out, err = run(
        capsys, command, "--algebra", "gl:2,1", "--weights", "(1,0|0)", "--closure", *which,
    )
    assert code == 2
    assert out == ""
    assert err == "usage error: --closure extends a --box window only, not --weights\n"


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


def test_verify_half_integral_weights_matches_golden(capsys):
    """A whole run on non-integral highest weights, where weight
    coordinates stay QQ and meet the int coordinates of the roots: the
    report must match the committed bytes."""
    code, out, err = run(
        capsys,
        "verify",
        "--algebra", "gl:1,1",
        "--weights", "(1/2|-1/2);(-1/2|1/2);(3/2|-3/2)",
        "--which", "all",
    )
    assert code == 0, err
    assert json.loads(out)["passed"] is True
    assert out == (GOLDEN / "gl11_half_integral_verify.json").read_text()


def test_verify_gl22_tilting_matches_golden(capsys):
    """gl(2|2) kdt on box -1..1: 36 tilting modules, 30 of them glued,
    each certified local by the flag-record route of end_ring."""
    code, out, err = run(
        capsys, "verify", "--algebra", "gl:2,2", "--box=-1..1", "--which", "kdt",
    )
    assert code == 0, err
    assert out == (GOLDEN / "gl22_tilting.json").read_text()


def test_verify_gl22_projective_duality_matches_golden(capsys):
    """gl(2|2) pdual on box -1..1: each P(beta - w0.lam)^* against U(lam),
    the Hom solved out of U on its Kac-flag record."""
    code, out, err = run(
        capsys, "verify", "--algebra", "gl:2,2", "--box=-1..1", "--which", "pdual",
    )
    assert code == 0, err
    assert out == (GOLDEN / "gl22_pdual.json").read_text()


def test_verify_gl22_reciprocity_on_the_box_around_zero(capsys):
    """gl(2|2) bgg on box -1..1 (36 weights), which gave no verdict while
    projective covers were split off the induction from g0: with each
    cover a certified tilting module, the assembled Cartan matrix is D^T D."""
    code, out, err = run(
        capsys, "verify", "--algebra", "gl:2,2", "--box=-1..1", "--which", "bgg",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["passed"] is True and len(doc["results"]["bgg"]["window"]) == 36


@pytest.mark.parametrize("which", ["bgg", "kdual", "pdual", "kdt", "sl1"])
def test_no_pipeline_solves_a_recorded_source_on_the_trivial_record(
    which, monkeypatch, capsys,
):
    """Every Hom a gl pipeline solves runs on its source's flag record
    when the source carries one; kdt certifies the End of each orbit
    representative's tilting module (lam_2 = 0) on its record, glued
    ones among them, and twists the rest of each orbit."""
    calls = []
    real = homs._hom_by_record

    def spy(src, dst, s, record, limits):
        calls.append((src, dst, record))
        return real(src, dst, s, record, limits)

    monkeypatch.setattr(homs, "_hom_by_record", spy)
    code, out, err = run(
        capsys, "verify", "--algebra", "gl:2,1", "--box=-1..1", "--which", which,
    )
    assert code == 0, err
    assert all(
        record is src.flag_record for src, _, record in calls if src.flag_record
    )
    recorded = [src for src, dst, record in calls if record is src.flag_record]
    assert recorded or which == "kdual"
    if which == "kdt":
        weights = [parse_weight(w) for w in json.loads(out)["results"]["kdt"]["weights"]]
        reps = {(a - b, 0, c + b) for a, b, c in weights}
        assert len(recorded) == len(reps) < len(weights)  # one end_ring per orbit
        assert {M.weights[0] for M in recorded} == reps  # K(lam) at the bottom
        assert all(dst is src for src, dst, record in calls if record is src.flag_record)
        assert sum(len(M.flag_record[1]) > 1 for M in recorded)  # glued ones too


@pytest.mark.parametrize("argv", [
    ("decompose", "--algebra", "gl:2,1", "--box=-1..1"),
    ("verify", "--algebra", "gl:2,1", "--box=-2..2", "--which", "kdt"),
    ("verify", "--algebra", "gl:2,1", "--box=-1..1", "--which", "bgg"),
])
def test_no_pipeline_builds_simple_modules(argv, monkeypatch, capsys):
    """Decomposition matrices read simple characters off the maximal submodule,
    and projective covers are tilting modules certified without a map onto
    L(lam): no pipeline asks for L(lam) or forms the quotient K/rad."""
    calls, simples = [], []
    real_simple, real_quotient = forms.simple_module, forms.quotient_module

    def simple_spy(g, lam, limits=DEFAULT_LIMITS):
        calls.append(lam)
        return real_simple(g, lam, limits=limits)

    def quotient_spy(module, vectors, kind=None):
        if kind == "simple":
            simples.append(module.g.weight_str(module.highest_weight))
        return real_quotient(module, vectors, kind=kind)

    for name in ("forms", "structure", "characters", "cli"):
        module = importlib.import_module(f"supero.{name}")
        if getattr(module, "simple_module", None) is real_simple:
            monkeypatch.setattr(module, "simple_module", simple_spy)
    monkeypatch.setattr(forms, "quotient_module", quotient_spy)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert calls == [] and simples == []


def test_kac_modules_and_levi_slices_are_built_once_per_character_orbit(monkeypatch, capsys):
    """kdt on gl(2|1) box -2..2 asks for 127 Kac modules and 81 Kac
    radicals, which fall into 41 and 36 orbits under the characters
    c(1,1|-1) of g, and for 127 simples L0 of the even part, which fall
    into 6 orbits under its characters (a,a|b).  Each orbit is induced,
    and its maximal submodule read off the simple raisings, once, at
    lam_2 = 0; each L0 orbit is cut from its Levi slice once, at
    lam_2 = lam_3 = 0.  The rest are twists, and no contravariant form
    is computed."""
    maximal, forms_on, kac_inductions = [], [], []
    real_maximal, real_form = forms.maximal_submodule, forms.contravariant_form
    real_induced = forms.induced_module

    def maximal_spy(module):
        maximal.append((module.meta["kind"], module.highest_weight))
        return real_maximal(module)

    def form_spy(module):
        forms_on.append(module.highest_weight)
        return real_form(module)

    def induced_spy(g, sub_ids, fiber, **kwargs):
        if kwargs.get("kind") == "kac":
            kac_inductions.append(kwargs["highest_weight"])
        return real_induced(g, sub_ids, fiber, **kwargs)

    monkeypatch.setattr(forms, "maximal_submodule", maximal_spy)
    monkeypatch.setattr(forms, "contravariant_form", form_spy)
    monkeypatch.setattr(forms, "induced_module", induced_spy)
    code, _, err = run(
        capsys, "verify", "--algebra", "gl:2,1", "--box=-2..2", "--which", "kdt",
    )
    assert code == 0, err
    assert len(maximal) == len(set(maximal)) == 36 + 6
    radicals = [lam for kind, lam in maximal if kind == "kac"]
    slices = [lam for kind, lam in maximal if kind == "verma_slice"]
    assert len(radicals) == 36 and all(lam[1] == 0 for lam in radicals)
    assert len(slices) == 6 and all(lam[1] == lam[2] == 0 for lam in slices)
    assert forms_on == []
    assert len(kac_inductions) == len(set(kac_inductions)) == 41
    assert all(lam[1] == 0 for lam in kac_inductions)


@pytest.mark.parametrize("twisted,counts", [
    (True, {"glue_extension": 14, "end_ring": 47, "KacExtensions": 59,
            "KacExtensions.glue": 14, "dual_module": 12}),
    (False, {"glue_extension": 34, "end_ring": 93, "KacExtensions": 111,
             "KacExtensions.glue": 34, "dual_module": 18}),
])
def test_tilting_modules_and_projective_covers_are_built_once_per_character_orbit(
    twisted, counts, monkeypatch, capsys,
):
    """kdt on gl(2|1) box -2..2 sweeps 75 tilting modules, which fall into
    35 orbits under the characters c(1,1|-1) of g, and bgg on box -1..1
    builds 18 projective covers, which fall into 12; each orbit's sweep
    runs once, at lam_2 = 0, and each cover's projectivity certificate
    (the cochain complex of U^*, one ``dual_module`` each) once per orbit.
    A sweep builds the cochain complex of its K(lam) once and grows it by
    each glue.  With the twist switched off, every weight is swept
    and certified itself."""
    if not twisted:
        without_orbit_twist(monkeypatch)
    calls = Counter()

    def counting(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    spies = []
    for name in counts:
        owner, _, attr = name.rpartition(".")
        target = getattr(structure, owner) if owner else structure
        spies.append((target, attr, counting(name, getattr(target, attr))))
    for target, attr, spy in spies:
        monkeypatch.setattr(target, attr, spy)
    for argv in (("--box=-2..2", "--which", "kdt"), ("--box=-1..1", "--which", "bgg")):
        code, _, err = run(capsys, "verify", "--algebra", "gl:2,1", *argv)
        assert code == 0, err
    assert calls == counts


def test_an_exhausted_tilting_sweep_names_its_weight_and_budget(capsys):
    code, out, err = run(
        capsys, "verify", "--algebra", "gl:1,1", "--box=0..0", "--which", "kdt",
        "--iteration-budget", "1",
    )
    assert code == 4
    assert out == ""
    assert err == (
        "resource limit: tilting sweep of U(0|0) exceeded its iteration budget "
        "at K(-1|1) parity 1; iteration_budget is 1\n"
    )


def test_verify_budget_zero_is_resource_not_pass(capsys):
    code, _, err = run(
        capsys,
        "verify",
        "--algebra", "gl:1,1",
        "--box=0..0",
        "--which", "pdual",
        "--iteration-budget", "0",
    )
    assert code == 4
    assert "budget" in err


def test_module_dim_zero_is_resource_not_pass(capsys):
    code, _, err = run(
        capsys, "verify", "--algebra", "gl:1,1", "--box=0..0", "--which", "kdt",
        "--max-module-dim", "0",
    )
    assert code == 4
    assert "exceeds limit 0" in err


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


def test_verify_has_no_depth_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--algebra", "gl:1,1", "--box=0..0", "--depth", "1"])
    assert exc.value.code == 2


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


def test_decompose_principal_grading_takes_a_weight_that_is_not_dominant(capsys):
    """Verma slices exist at every weight, so only windows of the
    compatible grading must be dominant."""
    code, out, _ = run(
        capsys,
        "decompose",
        "--algebra", "gl:2,1",
        "--grading", "principal",
        "--weights", "(0,1|0)",
        "--depth", "1",
    )
    assert code == 0
    assert out == "(0,1|0)\t(0,1|0)\t1\n"


def test_decompose_negative_depth_is_usage_error(capsys):
    code, out, err = run(
        capsys,
        "decompose",
        "--algebra", "gl:1,1",
        "--grading", "principal",
        "--weights", "(1|-1)",
        "--depth", "-1",
    )
    assert code == 2
    assert out == ""
    assert "usage error" in err and "--depth" in err


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


def test_verify_kdual_gl22(capsys):
    """The first gl(2|2) rung: Kac duality on the dominant box -1..1."""
    code, out, _ = run(
        capsys, "verify", "--algebra", "gl:2,2", "--box=-1..1", "--which", "kdual"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    cases = doc["results"]["kdual"]["cases"]
    assert len(cases) > 10
    for case in cases:
        assert case["characters_equal"] is True and case["isomorphic"] is True, case


def test_verify_kdt_gl22_two_weights(capsys):
    """Tilting flags of gl(2|2) read off lam's block, not a box."""
    code, out, err = run(
        capsys,
        "verify",
        "--algebra", "gl:2,2",
        "--weights", "(1,1|1,-1);(0,0|1,1)",
        "--which", "kdt",
    )
    assert code == 0, err
    kdt = json.loads(out)["results"]["kdt"]
    assert kdt["left"] == kdt["right"] == [[1, 1], [0, 1]]
