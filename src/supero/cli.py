"""Batch command-line front end.

Three subcommands: `check-semiinfinite` validates the distinguished
character of a graded algebra, `decompose` writes a composition
multiplicity matrix for a weight window, and `verify` reruns the
structural identity pipelines (reciprocity, dualities, tilting
multiplicities, orthogonality) and reports every mismatch.

Exit codes keep failure classes apart: 0 all identities hold, 1 an
identity fails, 2 bad usage, 3 malformed weight window, 4 a resource
budget was exhausted before an answer was certified.
"""

import argparse
import dataclasses
import errno
import json
import os
import sys

from . import __version__
from .algebra import (
    build_gl,
    build_q,
    install_grading,
    validate_algebra,
    verify_semiinfinite,
)
from .characters import (
    _validate_window,
    cartan_matrix_direct,
    cartan_matrix_via_bgg,
    decomposition_matrix,
    matrix_to_json_dict,
    matrix_to_tsv,
    tilting_table,
    verma_decomposition_truncated,
    window_from_box,
)
from .config import DEFAULT_LIMITS
from .errors import (
    ResourceLimitError,
    WindowError,
    WorkbenchError,
)
from .forms import kac_module
from .homs import hom_dims
from .modules import tau_dual
from .structure import (
    KacExtensions,
    verify_kac_dual,
    verify_projective_dual,
)
from .weights import parse_weight

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_WINDOW = 3
EXIT_RESOURCE = 4

# Recorded in every report as config.seed; nothing draws from it.
DEFAULT_SEED = 12345

WHICH_CHOICES = ("bgg", "kdual", "pdual", "kdt", "sl1", "all")


def _build_algebra(text, grading):
    """'gl:2,1' or 'q:2' plus a grading kind -> graded algebra."""
    kind, _, params = text.partition(":")
    try:
        nums = [int(p) for p in params.split(",")] if params else []
    except ValueError:
        raise WorkbenchError(f"cannot parse algebra parameters in {text!r}")
    if kind == "gl" and len(nums) == 2:
        if grading is None:
            grading = "compatible"
        if grading not in ("principal", "compatible"):
            raise WorkbenchError(f"unknown gl grading {grading!r}")
        build = build_gl
    elif kind == "q" and len(nums) == 1:
        if grading not in (None, "q"):
            raise WorkbenchError(f"q(n) has only its own grading, not {grading!r}")
        build = build_q
    else:
        raise WorkbenchError(f"unknown algebra {text!r}")
    try:
        g = build(*nums)
    except ValueError as err:
        raise WorkbenchError(f"algebra {text!r}: {err}")
    return g if kind == "q" else install_grading(g, grading)


def _parse_box(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise WorkbenchError(f"box must look like '-2..2', got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise WorkbenchError(f"box bounds must be integers, got {text!r}")


def _parse_weight(g, text):
    """A weight of g from the command line; malformed text is a usage error."""
    try:
        w = parse_weight(text)
    except (ValueError, ZeroDivisionError):
        raise WorkbenchError(f"cannot parse weight {text!r}")
    if len(w) != g.weight_len:
        raise WorkbenchError(
            f"weight {text!r} has {len(w)} coordinates, expected {g.weight_len}"
        )
    return w


def _limits(args):
    """The budgets the flags set; a negative one is a usage error."""
    overrides = {}
    for flag, key in (("--max-module-dim", "max_module_dim"),
                      ("--iteration-budget", "iteration_budget")):
        value = getattr(args, key)
        if value is not None:
            if value < 0:
                raise WorkbenchError(f"{flag} must be >= 0, got {value}")
            overrides[key] = value
    return dataclasses.replace(DEFAULT_LIMITS, **overrides)


def _config_doc(args):
    doc = {
        "algebra": args.algebra,
        "grading": args.grading,
        "seed": args.seed,
    }
    for key in ("box", "depth", "which", "weights", "format"):
        if getattr(args, key, None) is not None:
            doc[key] = getattr(args, key)
    return doc


def _report(args, command, body):
    return {
        "tool": "supero",
        "version": __version__,
        "command": command,
        "config": _config_doc(args),
        **body,
    }


def _check_out(path):
    """Usage error, before any work and creating nothing, unless the path
    is not empty, is not a directory, and the directory of --out exists
    and is writable; ``_emit`` still maps an OSError that opening the file
    raises later."""
    parent = os.path.dirname(path) or "."
    if path and os.path.isdir(path):
        code = errno.EISDIR
    elif not path or not os.access(parent, os.W_OK):
        code = errno.EACCES if path and os.path.isdir(parent) else errno.ENOENT
    else:
        return
    raise WorkbenchError(f"cannot write --out {path}: {os.strerror(code)}")


def _emit(args, text):
    if getattr(args, "out", None) is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise WorkbenchError(f"cannot write --out {args.out}: {err.strerror}")
    else:
        sys.stdout.write(text)


def _emit_json(args, doc):
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _window(g, args):
    if g.family != "gl":
        raise WorkbenchError("weight windows are defined for gl(m|n) only")
    if args.weights is not None:
        if args.closure:
            raise WorkbenchError("--closure extends a --box window only, not --weights")
        window = [
            _parse_weight(g, p) for p in args.weights.split(";") if p.strip()
        ]
    else:
        lo, hi = _parse_box(args.box)
        window = window_from_box(g, lo, hi, support_closure=args.closure)
    if not window:
        raise WorkbenchError("the weight window is empty")
    # Verma slices exist at every weight
    _validate_window(g, window, dominant=g.grading_kind == "compatible")
    return window


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_semiinfinite(args):
    g = _build_algebra(args.algebra, args.grading)
    gamma = _parse_weight(g, args.gamma) if args.gamma else None
    algebra_report = validate_algebra(g)
    report = verify_semiinfinite(g, gamma)
    doc = _report(
        args,
        "check-semiinfinite",
        {
            "algebra_valid": algebra_report["passed"],
            "semiinfinite": report,
            "passed": algebra_report["passed"] and report["passed"],
        },
    )
    _emit_json(args, doc)
    return EXIT_PASS if doc["passed"] else EXIT_FAIL


def cmd_decompose(args):
    if args.depth is not None and args.depth < 0:
        raise WorkbenchError(f"--depth must be >= 0, got {args.depth}")
    if args.depth is not None and args.grading != "principal":
        raise WorkbenchError("--depth applies to the principal grading only")
    g = _build_algebra(args.algebra, args.grading)
    limits = args.limits
    window = _window(g, args)
    if g.grading_kind == "principal":
        # graded slices: depth-limited lower bounds instead of exact numbers
        depth = args.depth if args.depth is not None else 2
        rows = []
        for lam in window:
            for w, k in verma_decomposition_truncated(g, lam, depth, limits=limits):
                rows.append([g.weight_str(lam), g.weight_str(w), k])
        if args.format == "tsv":
            _emit(args, "".join(f"{a}\t{b}\t{k}\n" for a, b, k in rows))
        else:
            doc = _report(args, "decompose", {"depth": depth, "bounds": rows})
            _emit_json(args, doc)
        return EXIT_PASS
    D = decomposition_matrix(g, window, limits=limits)
    if args.format == "tsv":
        _emit(args, matrix_to_tsv(g, D.weights, D.weights, D.entries))
    else:
        doc = _report(
            args,
            "decompose",
            {"matrix": matrix_to_json_dict(g, D.weights, D.weights, D.entries)},
        )
        _emit_json(args, doc)
    return EXIT_PASS


def _run_bgg(g, window, limits):
    D = decomposition_matrix(g, window, limits=limits)
    predicted = cartan_matrix_via_bgg(D)
    assembled = cartan_matrix_direct(g, window, limits=limits)
    return predicted == assembled, {
        "window": [g.weight_str(w) for w in window],
        "predicted": predicted,
        "assembled": assembled,
        "equal": predicted == assembled,
    }


def _run_duality(g, window, limits, verify, partner):
    """One row per weight of a duality check; ``partner`` is the report
    key of the weight on the other side."""
    rows = []
    ok = True
    for lam in window:
        rep = verify(g, lam, limits=limits)
        ok = ok and rep["isomorphic"] and rep["characters_equal"]
        row = {
            "weight": g.weight_str(lam),
            partner: g.weight_str(rep[partner]),
            "characters_equal": rep["characters_equal"],
            "isomorphic": rep["isomorphic"],
            "parity": rep["parity"],
        }
        if "flag" in rep:
            row["flag"] = [[g.weight_str(w), p] for w, p in rep["flag"]]
        rows.append(row)
    return ok, {"cases": rows}


def _run_kdual(g, window, limits):
    return _run_duality(g, window, limits, verify_kac_dual, "partner")


def _run_pdual(g, window, limits):
    return _run_duality(g, window, limits, verify_projective_dual, "projective_weight")


def _run_kdt(g, window, limits):
    rep = tilting_table(g, window, limits=limits)
    return not rep["differences"], {
        "weights": [g.weight_str(w) for w in rep["weights"]],
        "reflected_weights": [g.weight_str(w) for w in rep["reflected_weights"]],
        "left": rep["left"],
        "right": rep["right"],
        "differences": [
            [g.weight_str(a), g.weight_str(b), x, y]
            for a, b, x, y in rep["differences"]
        ],
    }


def _run_sl1(g, window, limits):
    """Hom and Ext orthogonality of induced against twisted-dual induced."""
    hom_failures = []
    ext_failures = []
    for mu in window:
        dual = tau_dual(kac_module(g, mu, limits=limits))
        exts = KacExtensions(dual, limits=limits)
        for lam in window:
            expected = 1 if lam == mu else 0
            total = sum(hom_dims(kac_module(g, lam, limits=limits), dual, limits=limits))
            if total != expected:
                hom_failures.append(
                    [g.weight_str(lam), g.weight_str(mu), total, expected]
                )
            e = exts.ext_dimension(lam)
            if e != 0:
                ext_failures.append([g.weight_str(lam), g.weight_str(mu), e])
    ok = not hom_failures and not ext_failures
    return ok, {
        "pairs_checked": len(window) ** 2,
        "hom_failures": hom_failures,
        "ext_failures": ext_failures,
    }


def cmd_verify(args):
    g = _build_algebra(args.algebra, args.grading)
    limits = args.limits
    window = _window(g, args)
    selected = WHICH_CHOICES[:-1] if args.which == "all" else (args.which,)
    results = {}
    passed = True
    for which in selected:
        if which == "bgg":
            ok, doc = _run_bgg(g, window, limits)
        elif which == "kdual":
            ok, doc = _run_kdual(g, window, limits)
        elif which == "pdual":
            ok, doc = _run_pdual(g, window, limits)
        elif which == "kdt":
            ok, doc = _run_kdt(g, window, limits)
        elif which == "sl1":
            ok, doc = _run_sl1(g, window, limits)
        doc["passed"] = ok
        results[which] = doc
        passed = passed and ok
    doc = _report(args, "verify", {"results": results, "passed": passed})
    _emit_json(args, doc)
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="supero",
        description="exact verification of highest-weight module structure",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", required=True, help="gl:M,N or q:N")
        p.add_argument("--grading", help="principal or compatible (gl only)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--max-module-dim", type=int, dest="max_module_dim")
        p.add_argument("--iteration-budget", type=int, dest="iteration_budget")

    p = sub.add_parser("check-semiinfinite", help="validate the distinguished character")
    common(p)
    p.add_argument("--gamma", help="override the character, e.g. '(1,-1|0)'")
    p.set_defaults(func=cmd_check_semiinfinite)

    p = sub.add_parser("decompose", help="write a composition multiplicity matrix")
    common(p)
    p.add_argument("--box", help="coordinate bounds, e.g. '-2..2'")
    p.add_argument("--weights", help="explicit window, ';'-separated weights")
    p.add_argument("--closure", action="store_true",
                   help="extend a box window by the support of its induced characters")
    p.add_argument("--depth", type=int,
                   help="truncation depth for principal-grading slices")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="rerun the identity pipelines")
    common(p)
    p.add_argument("--box", help="coordinate bounds, e.g. '-2..2'")
    p.add_argument("--weights", help="explicit window, ';'-separated weights")
    p.add_argument("--closure", action="store_true")
    p.add_argument("--which", choices=WHICH_CHOICES, default="all")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "box", None) is None and getattr(args, "weights", None) is None:
        if args.command in ("decompose", "verify"):
            parser.error(f"{args.command} needs --box or --weights")
    try:
        args.limits = _limits(args)
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except WindowError as err:
        print(f"window error: {err}", file=sys.stderr)
        if err.missing:
            print(
                "missing: " + ", ".join(str(tuple(map(str, w))) for w in err.missing),
                file=sys.stderr,
            )
        return EXIT_WINDOW
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except WorkbenchError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
