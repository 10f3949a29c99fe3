"""One workload process, started by run.py with BLAS/OpenMP pinned to one thread.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --result FILE
    python3 perfbench/worker.py --workload W --seed N --setup-only

It imports rieszmart from ./src, makes the call list from the seed, then
runs passes of the whole call list until the time is used (at least
MIN_PASSES); run.py reduces each call to its median over the passes, which
also discounts a slow first pass.  Outputs of every pass are checked against the
pinned expectations after the pass, outside the timed region.  With
--trace 1 it first runs the guarded n-sweep, then alternates untraced and
traced passes; per-layer metrics come from the traced ones.  The result is
written as JSON to --result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

from check import mismatch

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
MAX_REPORTED_MISMATCHES = 20


def import_program(root: str):
    """Import rieszmart from root/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rieszmart", "__init__.py")):
        raise SystemExit(f"perfbench: no src/rieszmart under {root}")
    sys.path.insert(0, src)
    import rieszmart

    if not os.path.abspath(rieszmart.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: rieszmart imported from {rieszmart.__file__}, not {src}")
    return rieszmart


def load_expected(workload) -> dict:
    with open(os.path.join(HERE, "expected", f"{workload.name}.json")) as fh:
        return json.load(fh)


class Pass:
    """Calls run back to back; outputs are read and checked afterwards."""

    def __init__(self, workload, calls, workdir):
        self.workload = workload
        self.calls = calls
        shutil.rmtree(workdir, ignore_errors=True)
        self.dirs = [os.path.join(workdir, str(i)) for i in range(len(calls))]
        for d in self.dirs:
            os.makedirs(d)
        self.durations = []
        self.raws = []
        start = perf_counter()
        for call, d in zip(calls, self.dirs):
            try:
                times, raw = workload.run(call, d)
            except Exception as exc:  # a failing call is counted; the loop goes on
                times, raw = [], exc
            self.durations.extend(times)
            self.raws.append(raw)
        self.wall = perf_counter() - start

    def mismatches(self, expected) -> list:
        found = []
        for call, d, raw in zip(self.calls, self.dirs, self.raws):
            if isinstance(raw, Exception):
                found.append(f"{call.key}: raised {raw!r}")
                continue
            if call.key not in expected:
                found.append(f"{call.key}: no pinned expectation")
                continue
            try:
                observed = self.workload.observe(call, d, raw)
            except (OSError, ValueError, KeyError) as exc:
                found.append(f"{call.key}: output unreadable: {exc!r}")
                continue
            diff = mismatch(expected[call.key], observed)
            if diff:
                found.append(f"{call.key}: {diff}")
        return found


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def add(self, done: Pass, expected) -> None:
        found = done.mismatches(expected)
        self.attempted += len(done.calls)
        self.failed += len(found)
        self.mismatches.extend(found[: MAX_REPORTED_MISMATCHES - len(self.mismatches)])


def timed(workload, calls, expected, workdir, seconds, tally) -> dict:
    passes = []
    begin = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - begin + passes[-1].wall <= seconds:
        done = Pass(workload, calls, workdir)
        tally.add(done, expected)
        passes.append(done)
    return {
        "walls": [p.wall for p in passes],
        "call_s": [p.durations for p in passes],
        "calls_per_pass": len(calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, calls, expected, workdir, seconds, tally) -> dict:
    from spans import Tracer, layer_metrics, median_metrics
    from sweep import guarded_sweep, scaling_exponent

    sweep = guarded_sweep(build_seconds)
    tracer = Tracer()
    plain, layered, walls = [], [], []
    begin = perf_counter()
    while not layered or perf_counter() - begin + plain[-1] + walls[-1] <= seconds:
        done = Pass(workload, calls, workdir)
        tally.add(done, expected)
        plain.append(done.wall)
        tracer.reset()
        tracer.install()
        try:
            done = Pass(workload, calls, workdir)
        finally:
            tracer.uninstall()
        tally.add(done, expected)
        walls.append(done.wall)
        layered.append(layer_metrics(tracer))
    # Spans stay in memory during a pass and are written once, at the end.
    with gzip.open(os.path.join(os.path.dirname(workdir), f"spans_{workload.name}.json.gz"), "wt") as fh:
        json.dump({"spans": tracer.spans, "aggregates": tracer.aggregates}, fh)
    metrics = median_metrics(layered)
    metrics["conditional.scaling_exponent"] = scaling_exponent(sweep)
    metrics["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(plain)
    return {"layers": metrics, "sweep": sweep, "spans_last_pass": len(tracer.spans)}


def build_seconds(n: int, repeats: int = 3) -> float:
    """Median untraced wall time of default_filtration on n atoms with n stages."""
    from rieszmart import lattice, processes
    from workloads import wide_weights

    space = lattice.SampleSpace(wide_weights(0, n))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        filtration = processes.default_filtration(space, n)
        times.append(perf_counter() - start)
        del filtration
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program(os.getcwd())
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    calls = workload.calls(args.seed)
    if args.setup_only:
        return 0
    expected = load_expected(workload)
    workdir = os.path.join(os.path.dirname(os.path.abspath(args.result)), f"work-{os.getpid()}")
    tally = Tally()
    try:
        run = traced if args.trace else timed
        result = run(workload, calls, expected, workdir, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        mismatches=tally.mismatches,
        work_per_pass=workload.work(calls),
        work_unit=workload.work_unit,
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
