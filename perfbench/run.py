"""End-to-end benchmark of the supero command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--result FILE]

Run from the root of a checkout.  Every operation is a fresh child
process (`python3 -m supero.cli ...` with the checkout's src/ on
PYTHONPATH), started only after the previous one has exited: a closed
loop with one client, so the module caches start cold as they do for a
user.  Each process is timed from outside, from launch to exit, and its
peak resident set is read from wait4.

--trace 0 measures the end-to-end metrics of BENCHMARK.json:
  setup_s      median time of a fresh process that imports supero and
               builds the workload's algebra, grading and window
  verdict_s    median time of the CLI run to a certified verdict
  peak_rss_mb  median peak resident set of those CLI runs
The two times are wall times scaled to the reference speed: the fixed
reference job (child.py reference, no supero code) runs before and
after every operation, and a time measured while it took r seconds is
multiplied by REFERENCE_NOMINAL_S / r.  This cancels the phases in which
other tenants of a shared host slow the whole machine down; the raw wall
times are printed and recorded too (verdict_wall_s, setup_wall_s).
--trace 1 makes one untraced and one traced CLI run and reports the
per-layer metrics of the traced one (see layertrace.py).

Every report is checked against the digest recorded for its workload,
with the echoed seed removed; a non-zero exit (4 = resource budget,
1 = identity failed or traceback), a timeout or a digest mismatch counts
as a failed operation.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; --result FILE also
appends a full record (samples, quartiles, environment) as one JSON
line, which compare.py reads.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Why each workload is here: see NOTES.md.  BENCHMARK.json gates the first
# two; the gl(2|2) pair is too slow for steady 60 s runs and is run by
# hand.  The digest is the SHA-256 of the report with config.seed removed
# (report_digest), recorded on the fractions backend.
WORKLOADS = {
    "reciprocity-gl21": {
        "cli": ["verify", "--algebra", "gl:2,1", "--box=-1..1", "--which", "bgg"],
        "digest": "a8a8b32ef50f94abc2899a8e440945919be30836da0a3ff00a6775d839dbe4b4",
    },
    "tilting-gl21": {
        "cli": ["verify", "--algebra", "gl:2,1", "--box=-2..2", "--which", "kdt"],
        "digest": "abb37a265e7705a1df9a30b5b0736f83f62bdd9520713c838b278937b57321a8",
    },
    "census-gl22": {
        "cli": ["decompose", "--algebra", "gl:2,2", "--box=-1..1", "--format", "json"],
        "digest": "0d2d7455b62494c8f59b839fb01a2ce47cbf5dcaa06e3064183390cd1583bca5",
    },
    "duality-gl22": {
        "cli": ["verify", "--algebra", "gl:2,2", "--box=-1..1", "--which", "kdual"],
        "digest": "8ea5a6725bc55b3965614f3c4e068b4c1f64a0b35f5beaf0a3b88aafaced7b43",
    },
}

SETUP_REPEATS = 15
# What child.py reference prints: the summed ranks of its matrices.
REFERENCE_OUTPUT = "800"
# The reference job's wall time on the machine the benchmark was built on
# (2-core KVM guest, Python 3.11, fractions backend) when that machine ran
# fast; end-to-end times are reported at this reference speed.
REFERENCE_NOMINAL_S = 0.55
# A run must end well inside 180 s even when a child hangs.
HARD_LIMIT_S = 170.0


def workload_setup_args(cli):
    """(algebra, grading, lo, hi) of a workload's CLI arguments."""
    algebra = cli[cli.index("--algebra") + 1]
    box = next(a for a in cli if a.startswith("--box="))[len("--box="):]
    lo, _, hi = box.partition("..")
    return algebra, "compatible", lo, hi


def report_digest(text):
    """SHA-256 of a JSON report with config.seed removed; raises ValueError
    when the text is not a JSON report."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise ValueError("not a supero report")
    doc["config"].pop("seed", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def check_report(returncode, stdout, digest):
    """None when the operation passed, else the reason it failed."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        got = report_digest(stdout)
    except ValueError as err:
        return f"unreadable report: {err}"
    if got != digest:
        return f"report digest {got[:12]} != recorded {digest[:12]}"
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Child:
    """One child process, timed from launch to exit, with its rusage."""

    def __init__(self, argv, env, workdir, deadline):
        with tempfile.TemporaryFile(dir=workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                self.stdout = proc.stdout.read().decode()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.seconds = time.perf_counter() - start
            proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
            err.seek(0)
            self.stderr = err.read().decode(errors="replace")


class Runner:
    def __init__(self, workload, seed, workdir, deadline):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0

    def _child(self, argv):
        return Child([sys.executable, *argv], self.env, self.workdir, self.deadline)

    def _count(self, child, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            tail = child.stderr.strip().splitlines()[-3:]
            print(f"FAILED ({reason}): {' | '.join(tail)}", file=sys.stderr)

    def setup(self):
        """One fresh process that imports supero and builds the workload's
        algebra, grading and window; returns the child."""
        child = self._child([str(HERE / "child.py"), "setup",
                             *workload_setup_args(self.spec["cli"])])
        reason = None if child.returncode == 0 else f"exit code {child.returncode}"
        self._count(child, reason)
        return child

    def reference(self):
        """Seconds taken by the fixed reference job (child.py reference)."""
        child = self._child([str(HERE / "child.py"), "reference"])
        if child.returncode != 0 or child.stdout.strip() != REFERENCE_OUTPUT:
            raise RuntimeError(f"reference job failed: {child.stderr.strip()[-200:]}")
        return child.seconds

    def verdict(self, spans_file=None):
        cli = [*self.spec["cli"], "--seed", str(self.seed)]
        if spans_file is None:
            child = self._child(["-m", "supero.cli", *cli])
        else:
            child = self._child([str(HERE / "child.py"), "trace", str(spans_file), "--", *cli])
        self._count(child, check_report(child.returncode, child.stdout, self.spec["digest"]))
        return child


def read_commit():
    """The checked-out commit, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(setup_child):
    stamp = json.loads(setup_child.stdout)
    return {
        "backend": stamp["backend"],
        "python": stamp["python"],
        "commit": read_commit(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_end_to_end(runner, seconds):
    """Setup and verdict samples, each also scaled to the reference speed:
    a time t measured while the reference job took r seconds (the mean of
    the runs just before and after) counts as t * REFERENCE_NOMINAL_S / r."""
    start = time.monotonic()
    warm = runner.setup()  # writes bytecode caches, which users pay once
    if warm.returncode != 0:
        return None, {}
    refs = [runner.reference()]
    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    refs.append(runner.reference())
    verdicts = []
    # Start another operation only when it is expected to end in time.
    while not verdicts or (
        time.monotonic() - start + statistics.median(c.seconds for c in verdicts)
        + refs[-1] <= seconds
    ):
        verdicts.append(runner.verdict())
        refs.append(runner.reference())
        if time.monotonic() >= runner.deadline:
            break
    scale = [REFERENCE_NOMINAL_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]
    samples = {
        "verdict_s": [c.seconds * k for c, k in zip(verdicts, scale[1:])],
        "setup_s": [c.seconds * scale[0] for c in setups],
        "peak_rss_mb": [c.peak_rss_mb for c in verdicts],
        "verdict_wall_s": [c.seconds for c in verdicts],
        "setup_wall_s": [c.seconds for c in setups],
        "reference_s": refs,
    }
    return warm, samples


def measure_layers(runner):
    warm = runner.setup()
    if warm.returncode != 0:
        return None, {}, {}
    plain = runner.verdict()
    spans_file = Path(runner.workdir) / "spans.json"
    traced = runner.verdict(spans_file)
    spans = json.loads(spans_file.read_text()) if spans_file.is_file() else []
    layers = layertrace.summarize(spans, traced.seconds)
    layers["trace.verdict_s"] = (traced.seconds, "s")
    layers["trace.overhead_s"] = (traced.seconds - plain.seconds, "s")
    return warm, {"verdict_wall_s": [plain.seconds], "traced_verdict_s": [traced.seconds]}, layers


# The end-to-end metrics of BENCHMARK.json and the units of every sample.
END_TO_END = ("verdict_s", "setup_s", "peak_rss_mb")
UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "verdict_wall_s": "s", "setup_wall_s": "s", "reference_s": "s",
         "traced_verdict_s": "s"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="append the full record here as a JSON line")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "supero" / "cli.py").is_file():
        print(f"error: no supero sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        runner = Runner(args.workload, args.seed, workdir, started + HARD_LIMIT_S)
        if args.trace:
            warm, samples, layers = measure_layers(runner)
        else:
            warm, samples = measure_end_to_end(runner, args.seconds)
            layers = {}
    if warm is None:
        print("error: supero could not be imported or the workload not built",
              file=sys.stderr)
        return 2

    env = environment(warm)
    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k} {v}" for k, v in env.items()))
    summary = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
        unit = UNITS[name]
        print(f"{name:<15} median {med:.4f} {unit:<2}  q1 {q1:.4f}  q3 {q3:.4f}  n {len(values)}")
    fail_share = runner.failed / runner.attempted
    print(f"{'fail_share':<15} {fail_share:.4f} share ({runner.failed} of {runner.attempted} operations)")
    if args.trace:
        wall = layers["trace.verdict_s"][0]
        for name, (value, unit) in layers.items():
            seconds = f"  ({value * wall:.3f} s)" if name.endswith("_share") and "repeat" not in name else ""
            print(f"{name:<45} {value:.6g} {unit}{seconds}")
        dominant = max(layertrace.LAYERS, key=lambda layer: layers[f"{layer}.self_share"][0])
        print(f"dominant layer: {dominant}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": UNITS[name]}
                   for name in END_TO_END}

    if args.result:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "env": env, "samples": samples,
            "summary": summary, "attempted": runner.attempted,
            "failed": runner.failed, "fail_share": fail_share, "metrics": metrics,
        }
        with open(args.result, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
