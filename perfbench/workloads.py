"""The benchmark's workloads: seeded call lists, timed calls, observed outputs.

Every workload is a closed loop with one caller: each call starts when the
previous one has returned.  A call list is made from the workload seed alone,
using this file's own hash-based draws rather than the program's generator,
so a change to rieszmart.rng cannot change the inputs.  Per-call seeds are
picked from a fixed pool per suite, experiment or size, because expected
outputs are pinned for every pool entry (see pin.py); the workload seed
chooses which entries run and in what order.

A workload's ``run(call, workdir)`` performs one call and returns the
durations of its timed program calls plus the raw results, and
``observe(call, workdir, raw)`` turns those into the plain JSON data that
pin.py records and check.mismatch compares.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from rieszmart import cli, inequalities, lattice, processes

from check import csv_rows, report_json, strip_elapsed


def draw(*labels) -> int:
    """A 64-bit value determined by the labels alone."""
    digest = hashlib.sha256(repr(labels).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def shuffled(items, *labels) -> list:
    return sorted(items, key=lambda item: draw(*labels, item))


def pool(workload: str, key, size: int) -> list:
    """The fixed per-call seeds whose outputs are pinned."""
    return [draw("pool", workload, key, k) % 2**31 for k in range(size)]


@dataclass(frozen=True)
class Call:
    key: str  # names the pinned expectation
    args: tuple


# -- verify_mix -----------------------------------------------------------

SUITES = (
    "holder",
    "clarkson",
    "jensen",
    "burkholder",
    "telescoping",
    "hrc",
    "doob",
    "bands",
    "ce-axioms",
)
VERIFY_TRIALS = 8
VERIFY_CYCLES = 27  # 243 calls per pass, so 12 lie beyond the 95th percentile
VERIFY_POOL = 32


class VerifyMix:
    name = "verify_mix"
    work_unit = "trials"

    def calls(self, seed: int) -> list:
        chosen = {
            suite: shuffled(pool(self.name, suite, VERIFY_POOL), seed, self.name, suite)
            for suite in SUITES
        }
        out = []
        for cycle in range(VERIFY_CYCLES):
            for suite in shuffled(SUITES, seed, self.name, "cycle", cycle):
                out.append(self.call(suite, chosen[suite][cycle]))
        return out

    def pool_calls(self) -> list:
        return [self.call(s, v) for s in SUITES for v in pool(self.name, s, VERIFY_POOL)]

    @staticmethod
    def call(suite: str, seed: int) -> Call:
        return Call(f"verify {suite} {seed} {VERIFY_TRIALS}", (suite, seed))

    def work(self, calls) -> float:
        return len(calls) * VERIFY_TRIALS

    def run(self, call: Call, workdir: str):
        suite, seed = call.args
        argv = ["verify", "--suite", suite, "--seed", str(seed),
                "--trials", str(VERIFY_TRIALS), "--output", os.path.join(workdir, "report.json")]
        start = perf_counter()
        status = cli.main(argv)
        return [perf_counter() - start], status

    def observe(self, call: Call, workdir: str, status) -> dict:
        with open(os.path.join(workdir, "report.json")) as fh:
            report = report_json(fh.read())
        return {"exit": status, "failure_count": report["failure_count"], "report": report}


# -- long_horizon ---------------------------------------------------------

EXPERIMENTS = (
    ("submartingale", 10_000),
    ("slln-p-le-2", 10_000),
    ("slln-p-gt-2", 10_000),
    ("slln-n", 100_000),
)
LONG_DIM = 8
LONG_POOL = 4


class LongHorizon:
    name = "long_horizon"
    work_unit = "stages"

    def calls(self, seed: int) -> list:
        out = []
        for experiment, horizon in shuffled(EXPERIMENTS, seed, self.name):
            choice = draw(seed, self.name, experiment) % LONG_POOL
            out.append(self.call(experiment, horizon, pool(self.name, experiment, LONG_POOL)[choice]))
        return out

    def pool_calls(self) -> list:
        return [
            self.call(e, h, v) for e, h in EXPERIMENTS for v in pool(self.name, e, LONG_POOL)
        ]

    @staticmethod
    def call(experiment: str, horizon: int, seed: int) -> Call:
        return Call(f"simulate {experiment} {LONG_DIM} {horizon} {seed}", (experiment, horizon, seed))

    def work(self, calls) -> float:
        return sum(call.args[1] for call in calls)

    def run(self, call: Call, workdir: str):
        experiment, horizon, seed = call.args
        argv = ["simulate", experiment, "--dim", str(LONG_DIM), "--n", str(horizon),
                "--seed", str(seed), "--output-dir", workdir]
        start = perf_counter()
        status = cli.main(argv)
        return [perf_counter() - start], status

    def observe(self, call: Call, workdir: str, status) -> dict:
        files = {}
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name)) as fh:
                text = fh.read()
            files[name] = report_json(text) if name.endswith(".json") else csv_rows(text)
        return {"exit": status, "files": files}


# -- wide_atoms -----------------------------------------------------------

WIDE_SIZES = (128, 192, 256)
WIDE_POOL = 8
WIDE_P = 3.0


def wide_weights(seed: int, n: int) -> np.ndarray:
    """Atom weights in [0.05, 1), drawn by the harness."""
    return np.array([0.05 + 0.95 * ((draw(seed, "weight", i) >> 11) * 2.0**-53) for i in range(n)])


class WideAtoms:
    name = "wide_atoms"
    work_unit = "atom-stages"

    def calls(self, seed: int) -> list:
        out = []
        for n in WIDE_SIZES:
            choice = draw(seed, self.name, n) % WIDE_POOL
            out.append(self.call(n, pool(self.name, n, WIDE_POOL)[choice]))
        return out

    def pool_calls(self) -> list:
        return [self.call(n, v) for n in WIDE_SIZES for v in pool(self.name, n, WIDE_POOL)]

    @staticmethod
    def call(n: int, seed: int) -> Call:
        return Call(f"wide {n} {seed}", (n, seed, wide_weights(seed, n)))

    def work(self, calls) -> float:
        return sum(call.args[0] ** 2 for call in calls)

    def run(self, call: Call, workdir: str):
        """default_filtration, generate_mds, partial_sums + classify and
        burkholder_ratio against stage 0, each timed as one call."""
        n, seed, weights = call.args
        t0 = perf_counter()
        filtration = processes.default_filtration(lattice.SampleSpace(weights), n)
        t1 = perf_counter()
        diffs = processes.generate_mds(processes.GeneratorConfig(seed=seed, dim=n, steps=n), filtration)
        t2 = perf_counter()
        label = processes.classify(processes.partial_sums(diffs))
        t3 = perf_counter()
        report = inequalities.burkholder_ratio(diffs, filtration[0], WIDE_P)
        t4 = perf_counter()
        # Keep only the values, not the filtration and its operator matrices.
        return [t1 - t0, t2 - t1, t3 - t2, t4 - t3], (label, report, diffs.values)

    def observe(self, call: Call, workdir: str, raw) -> dict:
        label, report, values = raw
        return {
            "label": label,
            "failure_count": report.failure_count,
            "report": strip_elapsed(report.to_json_dict()),
            "mds_abs_sum": float(np.abs(values).sum()),
            "mds_sq_sum": float(np.square(values).sum()),
        }


WORKLOADS = {w.name: w for w in (VerifyMix(), LongHorizon(), WideAtoms())}
