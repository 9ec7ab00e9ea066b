"""Work done inside a fresh process, for run.py.

    python3 perfbench/child.py setup ALGEBRA GRADING LO HI
        import supero and build the algebra, its grading and the box
        window, with no pipeline call; print the rational backend and
        the Python version as JSON.
    python3 perfbench/child.py reference
        fixed exact-arithmetic work that uses no supero code, timed to
        gauge how fast the machine runs at the moment.
    python3 perfbench/child.py trace SPANS_FILE -- CLI_ARGS...
        run the supero CLI with the layer tracer installed, then write
        the spans to SPANS_FILE; the report goes to stdout as usual.

run.py puts the checkout's src/ first on PYTHONPATH.
"""

import json
import platform
import random
import sys
from fractions import Fraction

# 20 random 40x40 matrices, about 0.55 s on a 2-core KVM guest.
REFERENCE_MATRICES = 20
REFERENCE_SIZE = 40


def setup(algebra, grading, lo, hi):
    from supero import build_gl, install_grading, window_from_box
    from supero.rational import QQ

    kind, _, params = algebra.partition(":")
    if kind != "gl":
        raise SystemExit(f"setup covers gl(m|n) workloads only, not {algebra!r}")
    g = install_grading(build_gl(*(int(p) for p in params.split(","))), grading)
    window = window_from_box(g, int(lo), int(hi), support_closure=False)
    if not window:
        raise SystemExit("empty window")
    print(json.dumps({
        "backend": type(QQ(0)).__module__.split(".")[0],
        "python": platform.python_version(),
    }))


def reference():
    """Rank of fixed pseudo-random integer matrices by row reduction over
    fractions.Fraction: dict rows and small rationals, as in supero's
    own solves, but none of its code, so no change to supero moves it."""
    rng = random.Random(1)
    ranks = []
    n = REFERENCE_SIZE
    for _ in range(REFERENCE_MATRICES):
        pivots = {}
        for _ in range(n):
            row = {j: Fraction(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.2}
            row = {j: v for j, v in row.items() if v}
            while row:
                lead = min(row)
                if lead not in pivots:
                    inv = 1 / row[lead]
                    pivots[lead] = {j: v * inv for j, v in row.items()}
                    break
                pivot, c = pivots[lead], row[lead]
                for j, v in pivot.items():
                    nv = row.get(j, 0) - c * v
                    if nv:
                        row[j] = nv
                    else:
                        row.pop(j, None)
        ranks.append(len(pivots))
    print(sum(ranks))


def trace(spans_file, cli_args):
    from layertrace import Tracer

    from supero import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(*rest)
    elif mode == "reference":
        reference()
    elif mode == "trace":
        sys.exit(trace(rest[0], rest[2:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
