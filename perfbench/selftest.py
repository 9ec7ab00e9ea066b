"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that the layer tracer changes no result (the same CLI report,
byte for byte, with and without it, and the same values from wrapped and
unwrapped calls), that it reaches every module-level binding of its
targets and restores them, and that the digest gate fails tampered
reports, non-zero exits and unreadable output while ignoring the seed;
also that compare.py's verdict rule sorts clear cases correctly.
Takes a few seconds; run it from the root of a checkout.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
from compare import verdict  # noqa: E402
from run import check_report, report_digest  # noqa: E402

SMALL = ["verify", "--algebra", "gl:1,1", "--box=-1..1", "--which", "all"]
SMALL_DECOMPOSE = ["decompose", "--algebra", "gl:2,1", "--box=0..1", "--format", "json"]


def cli(args, spans_file=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if spans_file is None:
        argv = [sys.executable, "-m", "supero.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "child.py"), "trace", str(spans_file), "--", *args]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout


def test_traced_reports_identical(workdir):
    for args in (SMALL, SMALL_DECOMPOSE):
        spans_file = Path(workdir) / "spans.json"
        plain = cli(args)
        traced = cli(args, spans_file)
        assert plain[0] == 0 and plain == traced, f"tracing changed the report of {args}"
        spans = json.loads(spans_file.read_text())
        assert spans, f"no spans recorded for {args}"
        metrics = layertrace.summarize(spans, 1.0)
        assert metrics["linalg.kernel_basis.calls"][0] > 0


def test_wrapped_calls_return_same_values():
    import supero.homs as homs
    from supero import build_gl, install_grading, kac_module
    from supero.linalg import SparseMatrix

    g = install_grading(build_gl(2, 1), "compatible")
    K = kac_module(g, (1, 0, 0))
    matrix = SparseMatrix.from_dense([[1, 2, 0, -1], [2, 4, 1, 0], [0, 0, 1, 2]])

    def calls():
        return matrix.kernel_basis(), matrix.rank(), homs.hom_dims(K, K)

    before = calls()
    tracer = layertrace.Tracer()
    patched = tracer.install()
    try:
        after = calls()
    finally:
        tracer.uninstall()
    assert before == after, "a wrapped call returned a different value"
    assert patched >= len(layertrace.TARGETS), "some target has no binding to patch"
    top_level = {layertrace.TARGETS[span[0]][2] for span in tracer.spans if span[1] == -1}
    assert top_level == {"kernel_basis", "rank", "hom_space"}, top_level

    # every module-level binding was replaced, and is restored afterwards
    import supero.forms
    import supero.structure
    original = supero.forms.kac_module
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for module in (supero.forms, supero.structure, sys.modules["supero.characters"]):
            assert module.kac_module is not original, f"{module.__name__} not patched"
    finally:
        tracer.uninstall()
    assert supero.structure.kac_module is original and supero.forms.kac_module is original


def test_digest_gate():
    code, text = cli(SMALL + ["--seed", "7"])
    digest = report_digest(text)
    assert check_report(code, text, digest) is None
    assert check_report(*cli(SMALL + ["--seed", "99"]), digest) is None, \
        "the echoed seed must not change the digest"

    doc = json.loads(text)
    doc["results"]["bgg"]["predicted"][0][0] += 1
    tampered = json.dumps(doc, indent=2, sort_keys=True)
    assert check_report(0, tampered, digest) is not None, "tampered report passed"
    assert check_report(4, text, digest) is not None, "exit 4 passed"
    assert check_report(1, "Traceback (most recent call last):\n", digest) is not None
    assert check_report(0, "", digest) is not None, "empty output passed"


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(base, [v * 0.8 for v in base], 0.2, True) == "better"
    assert verdict(base, [v * 1.3 for v in base], 0.2, True) == "worse"
    assert verdict(base, [v * 1.1 for v in base], 0.2, True) == "within-bound"
    assert verdict(base, [v * 1.3 for v in base], 0.2, False) == "better"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    assert verdict(base, noisy, 0.2, True) == "unresolved"
    assert verdict(base[:5], [v * 0.8 for v in base[:5]], 0.2, True) == "within-bound", \
        "fewer than ten pairs cannot claim a gain"


def main():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        test_traced_reports_identical(workdir)
    test_wrapped_calls_return_same_values()
    test_digest_gate()
    test_compare_verdicts()
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
