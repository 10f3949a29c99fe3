"""Benchmark entry point for rieszmart.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It times SETUP_PROBES set-up-only
worker processes (interpreter start, ``import rieszmart``, input
generation), then one worker process that runs the workload (worker.py),
both with BLAS and OpenMP pinned to one thread.  It prints one line per
metric, an environment record, and as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  Workloads, metrics and the predictions that tie them together
are described in perfbench/layers.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 165
PROBE_TIMEOUT_S = 30
PINNED_THREADS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def setup_seconds(command, env) -> float:
    """Median wall time of set-up-only worker processes, after one that
    fills the bytecode cache.  wait() without a timeout blocks in waitpid;
    with one it polls in steps of up to 50 ms, which would quantize the time."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = perf_counter()
        proc = subprocess.Popen(command, env=env)
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            status = proc.wait()
        finally:
            watchdog.cancel()
        times.append(perf_counter() - start)
        if status != 0:
            raise subprocess.CalledProcessError(status, command)
    return statistics.median(times[1:])


def end_to_end(result: dict, setup_s: float) -> dict:
    """Timings from the per-call medians over the timed passes.

    Background load on a shared machine comes in bursts that slow a run of
    consecutive calls in one pass; the median of each call over the passes
    removes them where a median of whole-pass walls would not."""
    width = max(len(p) for p in result["call_s"])
    per_call = [statistics.median(c) for c in zip(*(p for p in result["call_s"] if len(p) == width))]
    wall = sum(per_call)
    call_ms = [1000.0 * t for t in per_call]
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "work_per_s": result["work_per_pass"] / wall,
        "call_ms_p50": statistics.median(call_ms),
        "call_ms_p95": statistics.quantiles(call_ms, n=100, method="inclusive")[94],
        "peak_rss_mb": result["peak_rss_mb"],
        "timed_calls_per_pass": len(per_call),
    }


def environment(root: str) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "rieszmart", "*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "threads_pinned": PINNED_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rieszmart", "__init__.py")):
        sys.stderr.write(f"perfbench: no src/rieszmart under {root}; run from a checkout root\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2

    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    result_path = os.path.join(outdir, f"result-{args.workload}-{os.getpid()}.json")
    env = dict(os.environ, **PINNED_THREADS)
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]

    setup_s = None if args.trace else setup_seconds(worker + ["--setup-only"], env)
    subprocess.run(
        worker + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--result", result_path],
        env=env, stdout=subprocess.DEVNULL, check=True, timeout=WORKER_TIMEOUT_S,
    )
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)

    if args.trace:
        values, wanted = result["layers"], spec["per_layer"]
        for row in result["sweep"]:
            print("sweep", json.dumps(row))
        print(f"spans in the last traced pass: {result['spans_last_pass']}")
    else:
        values, wanted = end_to_end(result, setup_s), spec["end_to_end"]
        print("pass walls (s):", " ".join(f"{w:.4f}" for w in result["walls"]))
        print(f"passes timed: {len(result['walls'])}, calls per pass: {result['calls_per_pass']}, "
              f"timed program calls per pass (the p50/p95 samples): {values['timed_calls_per_pass']}, "
              f"work per pass: {result['work_per_pass']} {result['work_unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(f"{args.workload} error_rate = {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} failed of {result['attempted']} calls)")
    for line in result["mismatches"]:
        print("mismatch", line)
    print("environment", json.dumps(environment(root), sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
