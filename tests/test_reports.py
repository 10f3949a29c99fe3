"""Report containers: aggregation semantics, JSON determinism, CSV layout."""

import json
import math
import os

import numpy as np
import pytest

from rieszmart import (
    Tolerance,
    VerificationReport,
    decay_report,
    series_report,
)
from rieszmart.reports import (
    MAX_RECORDED_FAILURES,
    CheckSummary,
    ExperimentReport,
    Failure,
    dump_json,
    strip_elapsed,
    write_json_atomic,
    write_text_atomic,
)


def test_record_tracks_min_margin_and_failures():
    report = VerificationReport(suite="demo", trials=3, seed=1)
    report.record(True, 0.5, "fine", trial=0)
    report.record(False, -0.25, "broken", trial=1, seed=9)
    report.record(True, 0.1, "fine again", trial=2)
    assert report.min_margin == -0.25
    assert report.failure_count == 1
    assert not report.passed
    assert report.failures[0].trial == 1
    assert report.failures[0].seed == 9
    assert report.failures[0].witness == "broken"


def test_failure_list_is_capped_but_count_is_not():
    report = VerificationReport(suite="demo")
    for t in range(MAX_RECORDED_FAILURES + 30):
        report.record(False, -1.0, f"t{t}", trial=t)
    assert report.failure_count == MAX_RECORDED_FAILURES + 30
    assert len(report.failures) == MAX_RECORDED_FAILURES


def test_absorb_reindexes_and_caps():
    inner = VerificationReport(suite="inner")
    inner.record(False, -2.0, "bad atom", trial=0)
    inner.record(True, 1.0, "ok")
    outer = VerificationReport(suite="outer")
    outer.record(True, 0.5, "ok")
    outer.absorb(inner, trial=7, seed=99)
    assert outer.failure_count == 1
    assert outer.min_margin == -2.0
    assert outer.failures[0].trial == 7
    assert outer.failures[0].seed == 99
    assert outer.failures[0].witness == "bad atom"


# --- record_parts against the three layouts it replaced -------------------------


def old_record_trials(report, checks, trials, seed=None):
    """VerificationReport.record_trials before record_parts: trial by trial,
    each trial's checks in list order."""
    width = len(checks)
    report.record_many(
        np.column_stack([check[0] for check in checks]).ravel(),
        np.column_stack([check[1] for check in checks]).ravel(),
        lambda i: checks[i % width][2](i // width),
        np.repeat(trials, width),
        seed,
    )


def old_record_stages(report, parts, steps, trials=None, seed=None):
    """inequalities.record_stages before record_parts, for processes of
    steps[k] stage rows: process by process, part by part, stage by stage,
    each part's two checks in turn."""
    ok = np.array([[check[0] for check in part] for part in parts]).transpose(0, 2, 1)
    margin = np.array([[check[1] for check in part] for part in parts]).transpose(0, 2, 1)
    process = np.repeat(np.arange(len(steps)), steps)
    order = np.argsort(np.broadcast_to(process[:, None], ok.shape).ravel(), kind="stable")
    count = ok.shape[1]

    def witness_at(i):
        part, rest = divmod(int(order[i]), 2 * count)
        return parts[part][rest % 2][2](rest // 2)

    owner = np.broadcast_to(process[:, None], ok.shape).ravel()[order]
    report.record_many(
        ok.ravel()[order],
        margin.ravel()[order],
        witness_at,
        None if trials is None else np.asarray(trials)[owner],
        seed,
    )


def old_burkholder_records(report, checks, trials, seed=None):
    """burkholder_rows' packing before record_parts, recorded as
    run_burkholder did: checks are (kept, ok, margin, witness) over the
    processes, and only kept entries are recorded, process by process."""
    kept = np.array([check[0] for check in checks]).T.ravel()
    which = np.flatnonzero(kept)
    width = len(checks)
    report.record_many(
        np.array([check[1] for check in checks]).T.ravel()[which],
        np.array([check[2] for check in checks]).T.ravel()[which],
        lambda i: checks[which[i] % width][3](which[i] // width),
        np.asarray(trials)[which // max(width, 1)],
        seed,
    )


def looped_records(report, parts, trials, seed=None):
    """record_parts as a plain loop of record: unit, part, row, check."""
    trials = np.asarray(trials)
    for unit in dict.fromkeys(trials.tolist()):
        for part in parts:
            for r in np.flatnonzero(trials == unit).tolist():
                for ok, margin, witness in part:
                    report.record(bool(ok[r]), float(margin[r]), witness(r), unit, seed)


MARGIN_POOL = np.array([-2.0, -1.0, -0.0, 0.0, 0.25, 3.0, -np.inf, np.inf, np.nan])


def record_grid():
    """Cases fixed by one seed: each is (earlier, steps, trials, widths,
    parts), where earlier failures are recorded first, process k has
    steps[k] rows and trial number trials[k], and parts holds one part of
    each width over all the rows.  Half the cases have no NaN margin."""
    rng = np.random.default_rng(24)
    cases = []
    for case in range(120):
        processes = int(rng.integers(0, 6))  # 0: empty input
        steps = rng.integers(1, 6, size=processes)
        trials = np.cumsum(rng.integers(1, 4, size=processes)) - 1
        widths = rng.integers(1, 7, size=int(rng.integers(1, 4))).tolist()
        pool = MARGIN_POOL if case % 2 else MARGIN_POOL[:-1]
        if case % 5 == 0:
            pool = pool[pool > 0.0]  # every margin positive
        rows = int(steps.sum())
        miss_rate = rng.choice([0.0, 0.3, 0.9])
        earlier = int(rng.choice([0, 3, MAX_RECORDED_FAILURES - 1, MAX_RECORDED_FAILURES]))
        drawn = []
        for p, width in enumerate(widths):
            checks = []
            for c in range(width):
                ok = rng.random(rows) >= miss_rate
                margin = rng.choice(pool, size=rows)
                checks.append((ok, margin, lambda r, p=p, c=c: f"part {p} check {c} row {r}"))
            drawn.append(tuple(checks))
        cases.append((earlier, steps, trials, widths, drawn))
    return cases


def fresh_report(earlier):
    report = VerificationReport(suite="grid", trials=9, seed=4)
    for k in range(earlier):
        report.record(False, 5.0, f"earlier {k}", trial=k)
    return report


def recorded(record, earlier):
    report = fresh_report(earlier)
    record(report)
    return dump_json(report.to_json_dict())


@pytest.mark.parametrize("case", range(120))
def test_record_parts_matches_the_layouts_it_replaced(case):
    earlier, steps, trials, widths, parts = record_grid()[case]
    units = np.repeat(trials, steps)
    new = recorded(lambda r: r.record_parts(parts, units, 4), earlier)
    if not any(np.isnan(check[1]).any() for part in parts for check in part):
        assert new == recorded(lambda r: looped_records(r, parts, units, 4), earlier)
    # record_stages: parts of two checks over the stage rows.
    pairs = [(part[0], part[-1]) for part in parts]
    old = recorded(lambda r: old_record_stages(r, pairs, steps, trials, 4), earlier)
    assert recorded(lambda r: r.record_parts(pairs, units, 4), earlier) == old
    # record_trials and Burkholder's packing: one row per trial, one part.
    checks = [(ok[: len(trials)], margin[: len(trials)], witness) for ok, margin, witness in parts[0]]
    old = recorded(lambda r: old_record_trials(r, checks, trials, 4), earlier)
    assert recorded(lambda r: r.record_parts([tuple(checks)], trials, 4), earlier) == old
    kept = [(margin > -1.0) | np.isnan(margin) for _, margin, _ in checks]
    packed = [(k, ok, margin, witness) for k, (ok, margin, witness) in zip(kept, checks)]
    old = recorded(lambda r: old_burkholder_records(r, packed, trials, 4), earlier)
    unkept_rows = tuple(
        (ok | ~k, np.where(k, margin, np.inf), witness) for k, (ok, margin, witness) in zip(kept, checks)
    )
    assert recorded(lambda r: r.record_parts([unkept_rows], trials, 4), earlier) == old


def test_record_grid_reaches_the_cut_nan_and_empty_inputs():
    cases = record_grid()
    totals = [sum(len(part) for part in parts) * int(steps.sum()) for _, steps, _, _, parts in cases]
    assert min(totals) == 0 and max(totals) > 2 * MAX_RECORDED_FAILURES
    assert {len(widths) for *_, widths, _ in cases} == {1, 2, 3}
    assert {w for *_, widths, _ in cases for w in widths} == {1, 2, 3, 4, 5, 6}
    margins = np.concatenate([c[1] for *_, parts in cases for part in parts for c in part])
    assert np.isnan(margins).any() and np.signbit(margins[margins == 0.0]).any()
    cut = [recorded(lambda r: r.record_parts(parts, np.repeat(trials, steps)), earlier)
           for earlier, steps, trials, _, parts in cases]
    assert sum(json.loads(text)["failure_count"] > MAX_RECORDED_FAILURES for text in cut) >= 10


def test_empty_report_serializes_infinite_margin_as_string():
    report = VerificationReport(suite="empty")
    d = report.to_json_dict()
    assert d["min_margin"] == "inf"
    assert json.loads(dump_json(d))["min_margin"] == "inf"
    report.record(False, -math.inf, "blown")
    assert report.to_json_dict()["min_margin"] == "-inf"


def test_verification_report_schema():
    report = VerificationReport(suite="demo", trials=2, seed=5, tol=Tolerance())
    report.record(False, -1.0, "w", trial=1, seed=5)
    d = report.to_json_dict()
    assert set(d) == {
        "suite",
        "trials",
        "seed",
        "tol",
        "min_margin",
        "failures",
        "failure_count",
        "config",
        "details",
        "elapsed_ms",
    }
    assert d["tol"] == {"abs": 1e-12, "rel": 1e-9}
    assert d["failures"][0] == Failure(1, 5, -1.0, "w").to_json_dict()


def test_dump_json_is_deterministic_and_sorted():
    d = {"b": 1.5, "a": [1.0, 2.0], "c": {"z": 0.1, "y": -0.2}}
    once = dump_json(d)
    again = dump_json({"c": {"y": -0.2, "z": 0.1}, "a": [1.0, 2.0], "b": 1.5})
    assert once == again
    assert once.endswith("\n")
    assert once.index('"a"') < once.index('"b"') < once.index('"c"')
    # repr round-trip: values survive a parse.
    assert json.loads(once) == d


def test_strip_elapsed_recurses():
    d = {
        "elapsed_ms": 12.0,
        "inner": {"elapsed": 3, "keep": 1},
        "list": [{"elapsed_ms": 1.0, "x": 2}],
    }
    stripped = strip_elapsed(d)
    assert stripped == {"inner": {"keep": 1}, "list": [{"x": 2}]}
    assert "elapsed_ms" in d  # original untouched


def test_atomic_writers(tmp_path):
    target = tmp_path / "deep" / "nested" / "report.json"
    write_json_atomic(str(target), {"k": 1.25})
    assert json.loads(target.read_text()) == {"k": 1.25}
    # Overwrite in place, no stray temp files left behind.
    write_json_atomic(str(target), {"k": 2.0})
    assert json.loads(target.read_text()) == {"k": 2.0}
    assert os.listdir(target.parent) == ["report.json"]

    text_target = tmp_path / "out.csv"
    write_text_atomic(str(text_target), "a,b\n1,2\n")
    assert text_target.read_text() == "a,b\n1,2\n"


def test_check_summary_keeps_first_witness():
    summary = CheckSummary()
    summary.record(True, 1.0, "fine")
    summary.record(False, -0.5, "first bad")
    summary.record(False, -2.0, "second bad")
    assert summary.failures == 2
    assert summary.min_margin == -2.0
    assert summary.first_witness == "first bad"
    d = summary.to_json_dict()
    assert d == {"failures": 2, "min_margin": -2.0, "first_witness": "first bad"}


def test_series_report_csv_layout():
    terms = np.array([[1.0, -2.0], [0.5, 0.25], [0.125, 0.0], [0.0625, 0.0]])
    report = series_report(terms)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "n,max_abs,atom0,atom1"
    assert len(lines) == 1 + len(report.checkpoints)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 2.0
    assert float(first[2]) == 1.0 and float(first[3]) == -2.0
    # Values are written with full round-trip precision.
    assert lines[1] == "1,2.0,1.0,-2.0"


def test_decay_report_csv_layout():
    values = (1.0 / np.arange(1, 9))[:, None]
    report = decay_report(values, epsilon=0.5)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "n,max_abs,atom0"
    assert lines[1] == "1,1.0,1.0"
    assert lines[-1] == "8,0.125,0.125"


def test_decay_report_json_schema():
    report = decay_report(np.zeros((4, 2)), epsilon=0.1)
    d = report.to_json_dict()
    assert set(d) == {
        "horizon",
        "checkpoints",
        "values",
        "max_abs",
        "tail_sup",
        "epsilon",
        "verdict_checkpoint",
        "verdict",
    }
    assert d["verdict"] is True
    assert d["verdict_checkpoint"] == 4


def test_series_report_json_schema():
    d = series_report(np.ones((4, 1))).to_json_dict()
    assert set(d) == {
        "length",
        "checkpoints",
        "values",
        "max_abs",
        "tail_gap",
        "epsilon",
        "scale",
        "converged",
        "term_min",
    }
    assert d["term_min"] == 1.0
    assert d["converged"] is False  # constant terms never pass the gate


def test_experiment_report_schema_and_sorted_checks():
    decay = decay_report(np.zeros((2, 1)), epsilon=0.1)
    series = series_report(np.zeros((2, 1)))
    report = ExperimentReport(
        experiment="demo",
        config={"p": 2.0},
        decay=decay,
        hypothesis=series,
        checks={"zeta": CheckSummary(), "alpha": CheckSummary()},
        verdict=True,
    )
    d = report.to_json_dict()
    assert set(d) == {
        "experiment",
        "config",
        "decay",
        "hypothesis",
        "checks",
        "verdict",
        "elapsed_ms",
    }
    assert list(d["checks"]) == ["alpha", "zeta"]
    bare = ExperimentReport(
        experiment="demo", config={}, decay=decay, hypothesis=None
    )
    assert bare.to_json_dict()["hypothesis"] is None


def test_tolerance_serialization():
    tol = Tolerance(abs=1e-6, rel=1e-3)
    assert tol.to_json_dict() == {"abs": 1e-6, "rel": 1e-3}
