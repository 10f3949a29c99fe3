"""Report containers shared by the verification suites and experiments.

JSON serialization is deterministic: dicts are dumped with sorted keys and
floats use Python's shortest round-trip repr, so two runs with the same seed
produce byte-identical files once the elapsed fields are stripped.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

from .lattice import DEFAULT_TOL, Tolerance

# Keep reports bounded even when a broken inequality fails at every step.
MAX_RECORDED_FAILURES = 50


@dataclass
class Failure:
    trial: int
    seed: int | None
    margin: float
    witness: str

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "margin": self.margin,
            "witness": self.witness,
        }


@dataclass
class VerificationReport:
    """Aggregated margins over the trials of one named suite."""

    suite: str
    trials: int = 0
    seed: int | None = None
    tol: Tolerance = DEFAULT_TOL
    min_margin: float = float("inf")
    failures: list[Failure] = field(default_factory=list)
    failure_count: int = 0
    config: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def record(
        self,
        ok: bool,
        margin: float,
        witness: str,
        trial: int = 0,
        seed: int | None = None,
    ) -> None:
        if margin < self.min_margin:
            self.min_margin = margin
        if not ok:
            self.failure_count += 1
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(Failure(trial, seed, margin, witness))

    def absorb(self, other: "VerificationReport", trial: int, seed: int | None) -> None:
        """Fold a single-instance report into this aggregate, reindexed by trial."""
        if other.min_margin < self.min_margin:
            self.min_margin = other.min_margin
        self.failure_count += other.failure_count
        for f in other.failures:
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(Failure(trial, seed, f.margin, f.witness))

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol.to_json_dict(),
            "min_margin": _json_float(self.min_margin),
            "failures": [f.to_json_dict() for f in self.failures],
            "failure_count": self.failure_count,
            "config": self.config,
            "details": self.details,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass
class SeriesReport:
    """Cauchy-tail summary of a partial-sum sequence at power-of-two checkpoints."""

    length: int
    checkpoints: list[int]
    values: list[list[float]]  # partial-sum coordinates at each checkpoint
    max_abs: list[float]
    tail_gap: float  # max over m >= length/2 of ||s_N - s_m||_max
    epsilon: float
    scale: float
    converged: bool
    term_min: float  # smallest coordinate over all terms (sign diagnostics)

    def to_json_dict(self) -> dict:
        return {
            "length": self.length,
            "checkpoints": self.checkpoints,
            "values": self.values,
            "max_abs": self.max_abs,
            "tail_gap": self.tail_gap,
            "epsilon": self.epsilon,
            "scale": self.scale,
            "converged": self.converged,
            "term_min": _json_float(self.term_min),
        }

    def to_csv(self) -> str:
        return _checkpoint_csv(self.checkpoints, self.max_abs, self.values)


@dataclass
class DecaySequenceReport:
    """Order-null verdict for a sequence z_n of elements up to a horizon.

    tail_sup[k] is sup over n >= checkpoints[k] of the max-coordinate of
    |z_n|; it is nonincreasing in k by construction.  The verdict declares
    the sequence order-null at (N0, epsilon) where N0 is the checkpoint at
    verdict_index (the final checkpoint unless configured otherwise).
    """

    horizon: int
    checkpoints: list[int]
    values: list[list[float]]  # z_n coordinates at each checkpoint
    max_abs: list[float]  # max-coordinate of |z_n| at each checkpoint
    tail_sup: list[float]
    epsilon: float
    verdict_index: int
    verdict: bool

    @property
    def verdict_checkpoint(self) -> int:
        return self.checkpoints[self.verdict_index]

    def order_null_at(self, index: int, epsilon: float) -> bool:
        return self.tail_sup[index] <= epsilon

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "checkpoints": self.checkpoints,
            "values": self.values,
            "max_abs": self.max_abs,
            "tail_sup": self.tail_sup,
            "epsilon": self.epsilon,
            "verdict_checkpoint": self.verdict_checkpoint,
            "verdict": self.verdict,
        }

    def to_csv(self) -> str:
        return _checkpoint_csv(self.checkpoints, self.max_abs, self.values)


@dataclass
class CheckSummary:
    """Failure count and worst margin of one named componentwise check."""

    failures: int = 0
    min_margin: float = float("inf")
    first_witness: str = ""

    def record(self, ok: bool, margin: float, witness: str) -> None:
        if margin < self.min_margin:
            self.min_margin = margin
        if not ok:
            if self.failures == 0:
                self.first_witness = witness
            self.failures += 1

    def to_json_dict(self) -> dict:
        return {
            "failures": self.failures,
            "min_margin": _json_float(self.min_margin),
            "first_witness": self.first_witness,
        }


@dataclass
class ExperimentReport:
    """Combined output of a limit-theorem experiment."""

    experiment: str
    config: dict
    decay: DecaySequenceReport
    hypothesis: SeriesReport | None
    checks: dict[str, CheckSummary] = field(default_factory=dict)
    verdict: bool = False
    elapsed_ms: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "decay": self.decay.to_json_dict(),
            "hypothesis": None if self.hypothesis is None else self.hypothesis.to_json_dict(),
            "checks": {k: v.to_json_dict() for k, v in sorted(self.checks.items())},
            "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms,
        }


def _checkpoint_csv(
    checkpoints: list[int], max_abs: list[float], values: list[list[float]]
) -> str:
    dim = len(values[0]) if values else 0
    header = ["n", "max_abs"] + [f"atom{i}" for i in range(dim)]
    lines = [",".join(header)]
    for k, c in enumerate(checkpoints):
        row = [str(c), repr(max_abs[k])] + [repr(v) for v in values[k]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def checkpoint_schedule(horizon: int) -> list[int]:
    """Powers of two up to the horizon, plus the horizon itself."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    points = []
    c = 1
    while c <= horizon:
        points.append(c)
        c *= 2
    if points[-1] != horizon:
        points.append(horizon)
    return points


def _json_float(x: float) -> float | str:
    # json cannot carry inf; an empty suite has min_margin = inf.
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return x


def dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json_atomic(path: str, obj: dict) -> None:
    _write_atomic(path, dump_json(obj))


def write_text_atomic(path: str, text: str) -> None:
    _write_atomic(path, text)


def _write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def strip_elapsed(obj):
    """Recursively remove elapsed fields so reports can be diffed byte-wise."""
    if isinstance(obj, dict):
        return {
            k: strip_elapsed(v)
            for k, v in obj.items()
            if k not in ("elapsed_ms", "elapsed")
        }
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj
