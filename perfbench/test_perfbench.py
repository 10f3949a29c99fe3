"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from check import csv_rows, mismatch  # noqa: E402
from spans import Tracer, layer_metrics, outermost_total, self_times  # noqa: E402
from sweep import dense_bytes, guarded_sweep, scaling_exponent  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_child_spans_and_aggregated_calls():
    # (id, parent, name, start, end, aggregated child seconds)
    spans = [
        (0, -1, "a", 0.0, 10.0, 1.0),
        (1, 0, "b", 1.0, 4.0, 0.0),
        (2, 0, "c", 5.0, 7.0, 0.5),
        (3, 1, "d", 2.0, 3.0, 0.0),
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 1.5, 3: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [(0, -1, "a", 0.0, 10.0, 0.0), (1, 0, "b", 1.0, 5.0, 0.0), (2, 0, "c", 3.0, 7.0, 0.0)]
    assert self_times(spans)[0] == 4.0


def test_outermost_total_skips_nested_spans_of_the_same_set():
    spans = [(0, -1, "w", 0.0, 3.0, 0.0), (1, 0, "d", 1.0, 2.0, 0.0), (2, -1, "d", 4.0, 5.0, 0.0)]
    assert outermost_total(spans, {"w", "d"}) == 4.0


def test_live_spans_have_parents_and_self_times_add_up():
    tracer = Tracer(aggregated=frozenset({"t.leaf"}))
    leaf = tracer.wrap("t.leaf", lambda: sum(range(1000)))
    inner = tracer.wrap("t.inner", lambda: [leaf() for _ in range(5)])
    outer = tracer.wrap("t.outer", lambda: (inner(), inner()))
    outer()
    names = {sid: name for sid, _p, name, *_ in tracer.spans}
    parents = {names[sid]: names.get(parent) for sid, parent, name, *_ in tracer.spans}
    assert parents == {"t.outer": None, "t.inner": "t.outer"}
    assert tracer.aggregates["t.leaf"][0] == 10
    root = next(s for s in tracer.spans if s[2] == "t.outer")
    total_self = sum(self_times(tracer.spans).values()) + tracer.aggregates["t.leaf"][2]
    assert total_self == pytest.approx(root[4] - root[3], rel=1e-9)


def test_tracer_reaches_internal_calls_and_uninstall_restores(tmp_path):
    from rieszmart import cli, inequalities, suites

    original = suites.holder_sums
    tracer = Tracer()
    tracer.install()
    try:
        assert suites.holder_sums is not original
        assert suites.SUITES["holder"] is suites.run_holder
        cli.main(["verify", "--suite", "holder", "--trials", "2", "--seed", "1",
                  "--output", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert suites.holder_sums is original is inequalities.holder_sums
    assert suites.SUITES["holder"].__name__ == "run_holder" and not hasattr(suites.SUITES["holder"], "__wrapped__")
    by_id = {s[0]: s for s in tracer.spans}
    checker = [s for s in tracer.spans if s[2] == "inequalities.holder_sums"]
    assert len(checker) == 2
    assert by_id[checker[0][1]][2] == "suites.run_holder"
    metrics = layer_metrics(tracer)
    assert metrics["suites.trials"] == 2 and metrics["cli.calls"] == 1
    assert metrics["reports.bytes_written"] == (tmp_path / "report.json").stat().st_size


def test_checker_tolerates_1e_13_and_rejects_1e_9_relative():
    expected = {"report": {"min_margin": 0.25, "values": [1.5, -3.0]}, "exit": 0}
    close = {"report": {"min_margin": 0.25 * (1 + 1e-13), "values": [1.5, -3.0 * (1 + 1e-13)]}, "exit": 0}
    far = {"report": {"min_margin": 0.25 * (1 + 1e-9), "values": [1.5, -3.0]}, "exit": 0}
    assert mismatch(expected, close) is None
    assert "min_margin" in mismatch(expected, far)


@pytest.mark.parametrize(
    "actual",
    [
        {"exit": 1, "failure_count": 3},
        {"exit": 0, "failure_count": 3.0},
        {"exit": 0, "failure_count": 4},
        {"exit": 0},
        {"exit": 0, "failure_count": 3, "extra": None},
    ],
)
def test_checker_requires_everything_but_floats_to_match_exactly(actual):
    assert mismatch({"exit": 0, "failure_count": 3}, actual) is not None


def test_csv_cells_compare_as_numbers():
    assert mismatch(csv_rows("n,max_abs\n1,0.5\n"), csv_rows("n,max_abs\n1,0.50000000000000001\n")) is None
    assert mismatch(csv_rows("n,max_abs\n1,0.5\n"), csv_rows("n,max_abs\n1,0.5000001\n")) is not None


def test_sweep_guard_skips_sizes_before_building_them():
    built = []

    def build(n):
        built.append(n)
        return 1.0

    rows = guarded_sweep(build, budget=dense_bytes(256))
    assert built == [64, 128, 256]
    assert [r["n"] for r in rows if "skipped" in r] == [512, 1024, 2048, 4096]
    assert all("budget" in r["skipped"] for r in rows if "skipped" in r)


def test_sweep_guard_stops_after_a_size_overruns_the_time_cap():
    built = []

    def build(n):
        built.append(n)
        return 0.01 * n

    rows = guarded_sweep(build, budget=dense_bytes(4096), cap=1.0)
    assert built == [64, 128]
    assert all("cap" in r["skipped"] for r in rows[2:])
    assert scaling_exponent(rows) == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_calls_and_every_call_is_pinned(name):
    workload = WORKLOADS[name]
    with open(os.path.join(HERE, "expected", f"{name}.json")) as fh:
        expected = json.load(fh)
    keys = [c.key for c in workload.calls(7)]
    assert keys == [c.key for c in workload.calls(7)]
    assert any(keys != [c.key for c in workload.calls(seed)] for seed in range(8, 12))
    assert {c.key for c in workload.pool_calls()} == set(expected)
    for seed in range(20):
        assert {c.key for c in workload.calls(seed)} <= set(expected)


def test_benchmark_lists_exactly_the_metrics_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)["layers"]
    reported = set(layer_metrics(Tracer())) | {"conditional.scaling_exponent", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {m for layer in layers.values() for m in layer["metrics"]} == reported
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
