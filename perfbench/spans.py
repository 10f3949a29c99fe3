"""Span tracer for rieszmart, installed from outside the package.

Tracer.install wraps the public functions and public methods of every
measured module of rieszmart, then rebinds every name in the package that
refers to an original (module globals such as ``suites.holder_sums`` and
dict values such as ``suites.SUITES``), so calls made inside the package get
spans too.  Tracer.uninstall restores every original.

Each wrapped call is either a span ``(id, parent, name, start, end,
aggregated_child_s)`` kept in memory, or, for the few callables hit more
than 10^5 times per pass, folded into a per-name aggregate of count, total
time and self time.  Self time of a span is its duration minus the part of
its interval that child spans cover, minus the time of aggregated calls made
directly inside it.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# Modules of src/rieszmart, one layer each.  errors does no work.
LAYERS = (
    "rng",
    "lattice",
    "conditional",
    "bands",
    "processes",
    "inequalities",
    "limits",
    "reports",
    "suites",
    "cli",
)

# Callables hit more than 10^5 times in one pass of some workload: once per
# draw in rng, once per stage of a long filtration in conditional, once per
# lattice operation in lattice.  Which callables are aggregated changes the
# memory and cost of tracing, never a metric.
AGGREGATED = frozenset(
    {
        "rng.derive_seed",
        "rng.SplitMix64.__init__",
        "rng.SplitMix64.next_u64",
        "rng.SplitMix64.next_float",
        "rng.SplitMix64.floats",
        "rng.SplitMix64.uniforms",
        "lattice.LatticeElement.__init__",
        "lattice.SampleSpace.__eq__",
        "conditional.Partition.__eq__",
        "conditional.Partition.refines",
        "conditional.Partition.split_largest",
        "conditional.ConditionalExpectationOp.__init__",
        "conditional.ConditionalExpectationOp.apply_array",
    }
)

# mix64 is only called inside rng, once or more per draw; unwrapped, its
# time is rng self time all the same, without a wrapper per call.
UNWRAPPED = frozenset({"rng.mix64"})

# Dunder methods that do work worth a span; other dunders stay unwrapped.
WRAPPED_DUNDERS = frozenset(
    {
        "__init__",
        "__eq__",
        "__hash__",
        "__add__",
        "__sub__",
        "__neg__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__len__",
        "__getitem__",
        "__iter__",
    }
)

CHECKERS = (
    "holder_sums",
    "clarkson",
    "jensen_power",
    "burkholder_ratio",
    "telescoping_bound",
    "hrc_maximal",
    "doob_maximal",
)
EXPERIMENTS = (
    "submartingale_convergence_experiment",
    "slln_p_le_2",
    "slln_p_gt_2",
    "slln_an_equals_n",
)
SUITE_FUNCS = {
    "holder": "run_holder",
    "clarkson": "run_clarkson",
    "jensen": "run_jensen",
    "burkholder": "run_burkholder",
    "telescoping": "run_telescoping",
    "hrc": "run_hrc",
    "doob": "run_doob",
    "bands": "run_bands",
    "ce-axioms": "run_ce_axioms",
}
# Outermost spans of these names count as report serialization.
SERIALIZERS = frozenset(
    {
        "reports.dump_json",
        "reports.write_json_atomic",
        "reports.write_text_atomic",
        "reports.VerificationReport.to_json_dict",
        "reports.ExperimentReport.to_json_dict",
        "reports.SeriesReport.to_csv",
        "reports.DecaySequenceReport.to_csv",
    }
)


def _count_matrix_bytes(tracer, args, result):
    op = args[0]
    if op._matrix is None:
        tracer.counters["conditional.matrix_bytes_computed"] += op.space.n ** 2 * 8


def _count_rows(tracer, args, result):
    tracer.counters["conditional.rows_conditioned"] += args[1].shape[0]


def _note_partition(tracer, args, result):
    part = args[0]
    tracer.partition_keys.add((part.space.weights.tobytes(), part.blocks))


def _count_oracle_steps(tracer, args, result):
    tracer.counters["bands.oracle_steps"] += result.stabilized_at


def _count_steps(tracer, args, result):
    tracer.counters["processes.steps_generated"] += args[0].steps


def _count_trials(tracer, args, result):
    tracer.counters["suites.trials"] += args[0].trials


def _count_bytes(tracer, args, result):
    tracer.counters["reports.bytes_written"] += os.path.getsize(args[0])


# Pre-call hooks see the arguments before the call, post-call hooks after it.
PRE_HOOKS = {
    "conditional.ConditionalExpectationOp.matrix": _count_matrix_bytes,
    "conditional.ConditionalExpectationOp.apply_rows": _count_rows,
}
POST_HOOKS = {
    "conditional.Partition.__init__": _note_partition,
    "bands.apply_sup_formula_oracle": _count_oracle_steps,
    "processes.generate_mds": _count_steps,
    "reports.write_json_atomic": _count_bytes,
    "reports.write_text_atomic": _count_bytes,
    **{f"suites.{func}": _count_trials for func in SUITE_FUNCS.values()},
}


class Tracer:
    """Collects spans and aggregates for the calls made while installed."""

    def __init__(self, aggregated=AGGREGATED):
        self.aggregated = aggregated
        self.spans = []
        self.aggregates = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.counters = Counter()
        self.partition_keys = set()
        self._stack = []  # open frames: [span id, aggregated child s, all child s]
        self._next_id = 0
        self._patches = []

    def reset(self) -> None:
        self.spans.clear()
        self.aggregates.clear()
        self.counters.clear()
        self.partition_keys.clear()
        self._next_id = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self
        stack = self._stack
        pre = PRE_HOOKS.get(name)
        post = POST_HOOKS.get(name)

        if name in self.aggregated:

            def wrapper(*args, **kwargs):
                frame = [-1, 0.0, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    stack.pop()
                    agg = tracer.aggregates[name]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[2]
                    if stack:
                        stack[-1][1] += duration
                        stack[-1][2] += duration

        else:

            def wrapper(*args, **kwargs):
                if pre is not None:
                    pre(tracer, args, None)
                parent = stack[-1][0] if stack else -1
                sid = tracer._next_id
                tracer._next_id = sid + 1
                frame = [sid, 0.0, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    tracer.spans.append((sid, parent, name, start, end, frame[1]))
                    if stack:
                        stack[-1][2] += end - start
                if post is not None:
                    post(tracer, args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every measured callable and rebind every name that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"rieszmart.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and f"{layer}.{attr}" not in UNWRAPPED
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)

        def replacement(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for module in [importlib.import_module("rieszmart"), *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if replacement(obj) is not None:
                    self._patch(module, attr, replacement(obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        wrapper = replacement(value)
                        if wrapper is not None:
                            self._patch_item(obj, key, wrapper)

    def _wrap_class(self, layer, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                self._patch(cls, attr, type(member)(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self.wrap(name, member))

    def _patch(self, target, attr, value) -> None:
        self._patches.append((setattr, target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _patch_item(self, mapping, key, value) -> None:
        self._patches.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._patches:
            restore, target, key, original = self._patches.pop()
            restore(target, key, original)

    # -- analysis ---------------------------------------------------------

    def call_counts(self) -> Counter:
        counts = Counter(span[2] for span in self.spans)
        for name, (count, _total, _self) in self.aggregates.items():
            counts[name] += count
        return counts


def self_times(spans) -> dict:
    """Self time of each span id: duration minus child-covered time and
    minus the aggregated calls made directly inside it."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _agg in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, agg in spans:
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered - agg
    return out


def outermost_total(spans, names) -> float:
    """Total duration of spans named in names with no ancestor in names."""
    by_id = {span[0]: span for span in spans}
    total = 0.0
    for sid, parent, name, start, end, _agg in spans:
        if name not in names:
            continue
        ancestor = parent
        while ancestor >= 0 and by_id[ancestor][2] not in names:
            ancestor = by_id[ancestor][1]
        if ancestor < 0:
            total += end - start
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    spans = tracer.spans
    selfs = self_times(spans)
    counts = tracer.call_counts()
    inclusive = defaultdict(float)
    self_by_layer = defaultdict(float)
    for sid, _parent, name, start, end, _agg in spans:
        inclusive[name] += end - start
        self_by_layer[name.split(".", 1)[0]] += selfs[sid]
    for name, (_count, _total, self_s) in tracer.aggregates.items():
        self_by_layer[name.split(".", 1)[0]] += self_s
    by_id = {span[0]: span for span in spans}
    doob_rerun = sum((
        end - start
        for _sid, parent, name, start, end, _agg in spans
        if name == "inequalities.hrc_maximal"
        and parent >= 0
        and by_id[parent][2] == "inequalities.doob_maximal"
    ), 0.0)
    built = counts["conditional.Partition.__init__"]
    distinct = len(tracer.partition_keys)
    c = tracer.counters
    m = {
        "rng.derive_seed.calls": counts["rng.derive_seed"],
        "rng.draws": counts["rng.SplitMix64.next_u64"],
        "lattice.elements_built": counts["lattice.LatticeElement.__init__"],
        "lattice.space_eq_calls": counts["lattice.SampleSpace.__eq__"],
        "lattice.comparisons": counts["lattice.leq_with_tolerance"],
        "conditional.partitions_built": built,
        "conditional.partitions_distinct": distinct,
        "conditional.distinct_ratio": distinct / built if built else 1.0,
        "conditional.ops_built": counts["conditional.ConditionalExpectationOp.__init__"],
        "conditional.apply_calls": counts["conditional.ConditionalExpectationOp.apply"]
        + counts["conditional.ConditionalExpectationOp.apply_array"],
        "conditional.apply_rows_calls": counts["conditional.ConditionalExpectationOp.apply_rows"],
        "conditional.rows_conditioned": c["conditional.rows_conditioned"],
        "conditional.matrix_bytes_computed": c["conditional.matrix_bytes_computed"],
        "conditional.filtration_build_s": inclusive["conditional.Filtration.__init__"],
        "bands.projections_built": counts["bands.BandProjection.__init__"],
        "bands.oracle_steps": c["bands.oracle_steps"],
        "processes.steps_generated": c["processes.steps_generated"],
        "processes.generate_s": inclusive["processes.generate_mds"],
        "processes.classify_calls": counts["processes.classify"],
        "processes.classify_s": inclusive["processes.classify"],
        "inequalities.doob_rerun_s": doob_rerun,
        "limits.series_report.s": inclusive["limits.series_report"],
        "limits.decay_report.s": inclusive["limits.decay_report"],
        "reports.absorb_calls": counts["reports.VerificationReport.absorb"],
        "reports.serialize_s": outermost_total(spans, SERIALIZERS),
        "reports.bytes_written": c["reports.bytes_written"],
        "suites.trials": c["suites.trials"],
        "cli.calls": counts["cli.main"],
    }
    for checker in CHECKERS:
        m[f"inequalities.{checker}.calls"] = counts[f"inequalities.{checker}"]
        m[f"inequalities.{checker}.s"] = inclusive[f"inequalities.{checker}"]
    for experiment in EXPERIMENTS:
        m[f"limits.{experiment}.s"] = inclusive[f"limits.{experiment}"]
    for suite, func in SUITE_FUNCS.items():
        m[f"suites.{suite}.s"] = inclusive[f"suites.{func}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m


def median_metrics(passes) -> dict:
    """Median of each metric over several traced passes (the lower middle
    value, so a count stays a count that was observed)."""
    return {key: statistics.median_low(p[key] for p in passes) for key in passes[0]}
