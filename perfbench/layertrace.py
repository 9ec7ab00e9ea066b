"""Outside-in tracer for the supero layers.

The tracer wraps a fixed list of public functions of the package (the
layer boundaries) and nothing inside them.  Every call becomes a span
(target, parent span, start, end, work counts) kept in memory; the
spans are written out once, when the traced process ends, and
``summarize`` turns them into per-layer metrics named
``<module>.<function>.<stat>``.

Modules import each other's functions by name, so patching a function's
definition alone would miss most calls: ``install`` replaces every
module-level binding of each target in every loaded ``supero`` module,
and patches methods on their class.
"""

import functools
import importlib
import inspect
import sys
import time


def _kernel_counts(args, kwargs, result):
    matrix = args[0]
    return {
        "rows_sum": matrix.nrows,
        "cols_max": matrix.ncols,
        "nnz_sum": len(matrix.data),
        "nullity_sum": len(result),
    }


def _end_ring_counts(args, kwargs, result):
    return {"dim_sum": len(result["basis"])}


def _summand_counts(args, kwargs, result):
    return {"summands_sum": len(result)}


def _source_dim_counts(args, kwargs, result):
    return {"dim_sum": args[0].dim}


def _result_dim_counts(args, kwargs, result):
    return {"dim_sum": result.dim}


def _straighten_key(args, kwargs):
    # keyed by algebra and basis order, not by PbwAlgebra instance, so a
    # word straightened again by a fresh engine counts as a repeat
    pbw = args[0]
    return (pbw.g, pbw.order, tuple(args[1]))


# (module, attribute path, metric name, time stat, counts, repeat key)
# The time stat is "self" for a layer's own work and "incl" (inclusive)
# for the pipeline entry points, whose self time is only glue.  A repeat key
# of True keys calls by all bound arguments.
TARGETS = (
    ("linalg", "SparseMatrix.kernel_basis", "kernel_basis", "self", _kernel_counts, None),
    ("linalg", "SparseMatrix.solve_multi", "solve_multi", "self", None, None),
    ("linalg", "SparseMatrix.rank", "rank", "self", None, None),
    ("homs", "hom_space", "hom_space", "self", None, None),
    ("homs", "end_ring", "end_ring", "self", _end_ring_counts, None),
    ("homs", "fitting_decompose", "fitting_decompose", "self", _summand_counts, None),
    ("homs", "is_isomorphic", "is_isomorphic", "self", None, None),
    ("forms", "contravariant_form", "contravariant_form", "self", _source_dim_counts, None),
    ("forms", "kac_module", "kac_module", "self", None, True),
    ("forms", "simple_module", "simple_module", "self", None, True),
    ("modules", "induced_module", "induced_module", "self", _result_dim_counts, None),
    ("modules", "submodule_module", "submodule_module", "self", None, None),
    ("modules", "quotient_module", "quotient_module", "self", None, None),
    ("pbw", "PbwAlgebra.straighten_word", "straighten_word", "self", None, _straighten_key),
    ("structure", "KacExtensions.__init__", "KacExtensions", "self", None, None),
    ("structure", "KacExtensions.ext_dimension", "ext_dimension", "self", None, None),
    ("structure", "ext1_with_representative", "ext1_with_representative", "self", None, None),
    ("structure", "glue_extension", "glue_extension", "self", None, None),
    ("structure", "tilting_module", "tilting_module", "self", None, None),
    ("structure", "projective_cover", "projective_cover", "self", None, True),
    ("characters", "decomposition_matrix", "decomposition_matrix", "incl", None, None),
    ("characters", "tilting_table", "tilting_table", "incl", None, None),
    ("characters", "flag_matrix", "flag_matrix", "incl", None, None),
    ("cli", "_run_bgg", "_run_bgg", "incl", None, None),
    ("cli", "_run_kdual", "_run_kdual", "incl", None, None),
    ("cli", "_run_kdt", "_run_kdt", "incl", None, None),
)

# The work counts each counting function returns; "_sum" counts are
# summed over calls and "_max" counts take the largest call.
COUNT_STATS = {
    "kernel_basis": ("rows_sum", "cols_max", "nnz_sum", "nullity_sum"),
    "end_ring": ("dim_sum",),
    "fitting_decompose": ("summands_sum",),
    "contravariant_form": ("dim_sum",),
    "induced_module": ("dim_sum",),
}


def _bound_key(fn):
    sig = inspect.signature(fn)

    def key(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments.values())

    return key


class Tracer:
    """Collects one span per wrapped call, in memory."""

    def __init__(self):
        self.spans = []  # [target, parent, start, end, counts]
        self._open = []
        self._seen = {}
        self._patches = []

    def wrap(self, target, fn, counts=None, key=None):
        spans, open_spans, seen = self.spans, self._open, self._seen.setdefault(target, set())
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = {}
            if key is not None:
                k = key(args, kwargs)
                extra["repeat"] = int(k in seen)
                seen.add(k)
            span = [target, open_spans[-1] if open_spans else -1, 0.0, 0.0, extra]
            index = len(spans)
            spans.append(span)
            open_spans.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_spans.pop()
            if counts is not None:
                extra.update(counts(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        """Wrap every target; returns the number of bindings replaced."""
        importlib.import_module("supero.cli")
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "supero" or name.startswith("supero.")]
        for target, (mod_name, path, _, _, counts, repeat) in enumerate(TARGETS):
            module = importlib.import_module(f"supero.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owners = [getattr(module, owner_name)] if owner_name else loaded
            original = vars(owners[0] if owner_name else module)[attr]
            key = _bound_key(original) if repeat is True else repeat
            wrapper = self.wrap(target, original, counts, key)
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, name, wrapper)
                        self._patches.append((owner, name, original))
        return len(self._patches)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


LAYERS = ("linalg", "homs", "forms", "modules", "pbw", "structure")


def summarize(spans, wall_s):
    """Per-layer metrics from spans, as {name: (value, unit)}.

    For every target: calls, its self time (inclusive time for the
    pipeline entry points) as a share of the traced process's wall time
    ``wall_s``, its work counts and its repeat share; for every layer,
    the summed self time of its targets as a share of ``wall_s``.
    Targets that were not called report zeros.
    """
    child = [0.0] * len(spans)
    for target, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    per_target = [[] for _ in TARGETS]
    for i, (target, _, start, end, extra) in enumerate(spans):
        per_target[target].append((end - start, child[i], extra))
    metrics = {}
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for target, (mod_name, _, name, time_stat, _, repeat) in enumerate(TARGETS):
        prefix = f"{mod_name}.{name}"
        calls = per_target[target]
        metrics[f"{prefix}.calls"] = (len(calls), "count")
        if time_stat == "incl":
            seconds = sum(d for d, _, _ in calls)
        else:
            seconds = sum(d - c for d, c, _ in calls)
            layer_s[mod_name] += seconds
        metrics[f"{prefix}.{time_stat}_share"] = (seconds / wall_s, "share")
        if repeat is not None:
            repeats = sum(extra["repeat"] for _, _, extra in calls)
            metrics[f"{prefix}.repeat_share"] = (repeats / len(calls) if calls else 0.0, "share")
        for stat in COUNT_STATS.get(name, ()):
            values = [extra[stat] for _, _, extra in calls if stat in extra]
            combine = max if stat.endswith("_max") else sum
            metrics[f"{prefix}.{stat}"] = (combine(values) if values else 0, "count")
    for layer, seconds in layer_s.items():
        metrics[f"{layer}.self_share"] = (seconds / wall_s, "share")
    return metrics
