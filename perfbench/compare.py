"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that `run.py --result FILE` appended, one
JSON line per run (untraced runs only are compared).  For every
workload and end-to-end metric of BENCHMARK.json the command prints
each side's median, quartiles and run count, and a verdict; the raw
verdict_wall_s is listed too, judged under the bound of verdict_s:

  better        the change wins at least nine tenths of the run pairs
                (the i-th run of each side, ties counting for neither),
                at least ten pairs were run, and the medians differ by
                more than the distance between the base's quartiles;
  worse         the change's median is worse than the base's by more
                than the metric's bound, and both sides' spreads
                (quartile distance over median) are within the bound;
  unresolved    a spread is wider than the bound, and not every run of
                the change reads better than every run of the base;
  within-bound  otherwise: no worse than the bound allows.

fail_share is compared as failed operations over attempted ones; any
increase is worse.  Records measured on different rational backends are
refused, because the backend alone changes times about threefold.
"""

import json
import sys
from pathlib import Path

from run import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if not r["trace"]]


def verdict(base, change, bound, lower_is_better):
    """better / worse / unresolved / within-bound, by the rules above."""
    def gain(a, b):  # how much better b reads than a, as a signed amount
        return a - b if lower_is_better else b - a

    q1a, meda, q3a = quartiles(base)
    q1b, medb, q3b = quartiles(change)
    spread_ok = (q3a - q1a) <= bound * abs(meda) and (q3b - q1b) <= bound * abs(medb)
    pairs = list(zip(base, change))
    wins = sum(gain(a, b) > 0 for a, b in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain(meda, medb) > q3a - q1a:
        return "better"
    every_run_better = all(gain(a, b) > 0 for a in base for b in change)
    if not spread_ok and not every_run_better:
        return "unresolved"
    if -gain(meda, medb) > bound * abs(meda):
        return "worse"
    return "within-bound"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    backends = {r["env"]["backend"] for r in base + change}
    if len(backends) > 1:
        print(f"refusing to compare runs on different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    # raw wall seconds, shown under the bound of the scaled ones
    scaled = next(m for m in metrics if m["name"] == "verdict_s")
    metrics = metrics + [dict(scaled, name="verdict_wall_s")]
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    if not workloads:
        print("no workload was run on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<18} {'metric':<15} {'base median [q1, q3] n':<34} "
          f"{'change median [q1, q3] n':<34} verdict")
    for name in workloads:
        a = [r for r in base if r["workload"] == name]
        b = [r for r in change if r["workload"] == name]
        for m in metrics:
            va = [r["summary"][m["name"]]["median"] for r in a]
            vb = [r["summary"][m["name"]]["median"] for r in b]
            cells = []
            for values in (va, vb):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4f} [{q1:.4f}, {q3:.4f}] {len(values)}")
            v = verdict(va, vb, m["bound"], m["better"] == "lower")
            print(f"{name:<18} {m['name']:<15} {cells[0]:<34} {cells[1]:<34} {v}")
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        v = "worse" if fb > fa else "better" if fb < fa else "within-bound"
        print(f"{name:<18} {'fail_share':<15} {fa:<34.4f} {fb:<34.4f} {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
