"""Adapted processes, martingale machinery, and seeded generators.

A ProcessSequence pairs one value per stage of a filtration.  Classification
compares apply(T_i, f_j) against f_i over every ordered pair i < j, not just
consecutive stages; the scan below is exact but organized per distinct
operator so the quadratic pair set costs linear work for the usual
filtrations (a few distinct coarse stages, then singletons repeated).  The
groups come from the filtration's stored stage index.

Generators draw the stages in row blocks from the per-step SplitMix64
substreams (seed, "mds-step", i), so a fixed GeneratorConfig reproduces the
same process bit for bit.  Step i draws a block-constant Z_i for the stage-i
partition in [-amplitude, amplitude] and takes Y_i = Z_i - T_{i-1} Z_i, with
Y_1 = Z_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditional import ConditionalExpectationOp, Filtration, Partition
from .errors import (
    NotAdapted,
    NotDifferenceSequence,
    NotSubmartingale,
    SpaceMismatch,
)
from .lattice import DEFAULT_TOL, LatticeElement, SampleSpace, Tolerance, row_blocks
from .rng import SplitMix64, derive_seed, substream_floats

MARTINGALE = "martingale"
SUBMARTINGALE = "submartingale"
SUPERMARTINGALE = "supermartingale"
NONE = "none"


class ProcessSequence:
    """One element per filtration stage, stored as an (N, n) matrix."""

    __slots__ = ("filtration", "values")

    def __init__(self, filtration: Filtration, values):
        if isinstance(values, np.ndarray):
            mat = np.array(values, dtype=np.float64)
        else:
            rows = []
            for f in values:
                if f.space != filtration.space:
                    raise SpaceMismatch("process value on a different space")
                rows.append(f.coords)
            mat = np.array(rows, dtype=np.float64)
        if mat.ndim != 2 or mat.shape != (len(filtration), filtration.space.n):
            raise ValueError(
                f"expected {len(filtration)} x {filtration.space.n} values, got {mat.shape}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValueError("process values must be finite")
        self.filtration = filtration
        self.values = mat
        self.values.flags.writeable = False

    @property
    def space(self) -> SampleSpace:
        return self.filtration.space

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, i: int) -> LatticeElement:
        return LatticeElement(self.space, self.values[i])

    def to_json_dict(self) -> dict:
        return {
            "filtration": self.filtration.to_json_dict(),
            "values": [[float(v) for v in row] for row in self.values],
        }

    def to_csv(self) -> str:
        lines = ["step,atom,value"]
        for i, row in enumerate(self.values):
            for a, v in enumerate(row):
                lines.append(f"{i + 1},{a},{float(v)!r}")
        return "\n".join(lines) + "\n"


def _stage_groups(filtration: Filtration, stop: int | None = None) -> list:
    """Stages [:stop] grouped by distinct operator, first seen first.  The
    stage index numbers operators in first-seen order, so a prefix holds
    groups 0..max and zip leaves out the operators it never reaches."""
    stage = filtration.stage[:stop]
    ends = np.cumsum(np.bincount(stage))
    return list(zip(filtration.distinct, np.split(np.argsort(stage, kind="stable"), ends)[:-1]))


def _max_abs(mat: np.ndarray) -> float:
    """max |mat| taken over row blocks, so no whole-size temporary is made;
    0.0 when there are no rows."""
    return max((float(np.max(np.abs(mat[rows]))) for rows in row_blocks(*mat.shape)), default=0.0)


def is_adapted(process: ProcessSequence, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Every stage value must be fixed by its own averaging operator."""
    mat = process.values
    slack = tol.abs + tol.rel * _max_abs(mat)
    for op, idx in _stage_groups(process.filtration):
        if op.is_identity:
            continue
        rows = mat[idx]
        if np.max(np.abs(op.apply_rows(rows) - rows)) > slack:
            return False
    return True


def classify(process: ProcessSequence, tol: Tolerance = DEFAULT_TOL) -> str:
    """Label a process by checking apply(T_i, f_j) against f_i for all i < j.

    Returns "martingale" when both one-sided comparisons hold (a martingale
    is both a sub- and a supermartingale), otherwise "submartingale",
    "supermartingale", or "none".  Raises NotAdapted first if any stage value
    is not fixed by its operator.
    """
    if not is_adapted(process, tol):
        raise NotAdapted("process value not fixed by its stage operator")
    mat = process.values
    count = mat.shape[0]
    if count < 2:
        return MARTINGALE
    slack = tol.abs + tol.rel * _max_abs(mat)
    is_sub = True
    is_super = True
    for op, idx in _stage_groups(process.filtration, count - 1):
        # Only stages after the operator's first use are ever compared.
        later = mat[idx[0] + 1 :]
        transformed = op.apply_rows(later)
        # suffix envelopes of T_i-transformed values over j = i+1 .. N-1,
        # row r standing for stage idx[0] + 1 + r
        suff_min = np.minimum.accumulate(transformed[::-1], axis=0)[::-1]
        suff_max = np.maximum.accumulate(transformed[::-1], axis=0)[::-1]
        here = mat[idx]
        after = idx - idx[0]
        if is_sub and np.any(suff_min[after] < here - slack):
            is_sub = False
        if is_super and np.any(suff_max[after] > here + slack):
            is_super = False
        if not (is_sub or is_super):
            return NONE
    if is_sub and is_super:
        return MARTINGALE
    return SUBMARTINGALE if is_sub else SUPERMARTINGALE


def is_difference_sequence(process: ProcessSequence, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Martingale difference property: apply(T_{i-1}, Y_i) = 0 for i >= 2."""
    if not is_adapted(process, tol):
        return False
    mat = process.values
    if mat.shape[0] < 2:
        return True
    slack = tol.abs + tol.rel * _max_abs(mat)
    for op, idx in _stage_groups(process.filtration, -1):
        # Only singletons refine singletons, so the identity group's stages
        # are a suffix and their next rows one contiguous view, not a copy.
        means = mat[idx[0] + 1 :] if op.is_identity else op.apply_rows(mat[idx + 1])
        if _max_abs(means) > slack:
            return False
    return True


def require_difference_sequence(process: ProcessSequence, tol: Tolerance = DEFAULT_TOL) -> None:
    if not is_difference_sequence(process, tol):
        raise NotDifferenceSequence(
            "sequence is not a martingale difference sequence for its filtration"
        )


def partial_sums(diffs: ProcessSequence) -> ProcessSequence:
    """X_n = Y_1 + ... + Y_n on the same filtration."""
    return ProcessSequence(diffs.filtration, np.cumsum(diffs.values, axis=0))


def increments(process: ProcessSequence) -> np.ndarray:
    """X_i - X_{i-1} with X_0 = 0, as a raw matrix."""
    mat = process.values
    out = np.array(mat)
    out[1:] -= mat[:-1]
    return out


def square_function(process: ProcessSequence) -> ProcessSequence:
    """Running sum of squared increments of the process (start value included)."""
    return ProcessSequence(
        process.filtration, np.cumsum(increments(process) ** 2, axis=0)
    )


def positive_part_process(
    process: ProcessSequence, tol: Tolerance = DEFAULT_TOL
) -> ProcessSequence:
    """Positive part of a (sub)martingale, itself a submartingale."""
    label = classify(process, tol)
    if label not in (MARTINGALE, SUBMARTINGALE):
        raise NotSubmartingale(f"positive part requires a (sub)martingale, got {label}")
    return ProcessSequence(process.filtration, np.maximum(process.values, 0.0))


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic recipe for a generated process."""

    seed: int
    dim: int
    steps: int
    amplitude: float = 1.0
    weight_mode: str = "uniform"  # "uniform" | "random"

    def __post_init__(self):
        if self.dim < 1 or self.steps < 1:
            raise ValueError("dim and steps must be >= 1")
        if not (np.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise ValueError("amplitude must be finite and positive")
        if self.weight_mode not in ("uniform", "random"):
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dim": self.dim,
            "steps": self.steps,
            "amplitude": self.amplitude,
            "weight_mode": self.weight_mode,
        }


def make_space(cfg: GeneratorConfig) -> SampleSpace:
    if cfg.weight_mode == "uniform":
        return SampleSpace.uniform(cfg.dim)
    stream = SplitMix64(derive_seed(cfg.seed, "space"))
    # Bounded away from zero so no atom degenerates.
    return SampleSpace(stream.uniforms(cfg.dim, 0.05, 1.0))


def default_filtration(space: SampleSpace, steps: int) -> Filtration:
    """Single block first, then split the largest block per stage;
    once singletons are reached the finest operator repeats."""
    return _split_largest_chain(Partition.single_block(space), steps)


def _split_largest_chain(first: Partition, steps: int) -> Filtration:
    """first, then split the largest block per stage: one operator per
    distinct partition, the singleton operator repeated by reference."""
    ops = [ConditionalExpectationOp(first)]
    while len(ops) < steps and not ops[-1].is_identity:
        ops.append(ConditionalExpectationOp(ops[-1].partition.split_largest()))
    return Filtration(ops[:steps], repeat_last=max(steps - len(ops), 0))


def generate_mds(cfg: GeneratorConfig, filtration: Filtration | None = None) -> ProcessSequence:
    """Martingale difference sequence with increments bounded by 2*amplitude.

    Stages are generated in consecutive row blocks of lattice.BLOCK_ELEMENTS
    values, written into one (N, n) output, so temporaries stay O(block)
    at any horizon.  Stage i draws its own substream (seed, "mds-step", i),
    and one bincount over per-stage block ids conditions a block's rows,
    row i binned by the blocks of stage i - 1 (read again for a block's
    first row).  Every bin holds the terms of one row, added in the order a
    per-row apply_array adds them, so the blocks change no bit.  The block
    ids of stage i are those of filtration.distinct[filtration.stage[i]].

    Once T_{i-1} is the singleton partition, Y_i = Z_i - T_{i-1} Z_i is
    rounding noise of (w Z)/w: exactly 0 when dim is a power of two with
    uniform weights, otherwise up to about 1.1e-16 * amplitude.  Stages
    past the first singleton stage add draws but no signal, so horizons
    beyond dim stages carry none.
    """
    if filtration is None:
        filtration = default_filtration(make_space(cfg), cfg.steps)
    elif len(filtration) != cfg.steps:
        raise ValueError("filtration length does not match steps")
    # The blocks' temporaries are freed before ProcessSequence copies the rows.
    return ProcessSequence(filtration, _mds_rows(cfg, filtration))


def _mds_rows(cfg: GeneratorConfig, filtration: Filtration) -> np.ndarray:
    """The (N, n) values of generate_mds, one row block at a time."""
    space, distinct, stage = filtration.space, filtration.distinct, filtration.stage
    group_blocks = np.array([op.partition.num_blocks for op in distinct])
    group_first = np.cumsum(group_blocks) - group_blocks
    block_weight = np.concatenate([op.block_weight for op in distinct])
    block_id = np.stack([op.partition.block_id for op in distinct])
    check_slack = 1e-12 * max(1.0, cfg.amplitude)
    out = np.empty((len(stage), space.n))
    for rows in row_blocks(len(stage), space.n):
        counts = group_blocks[stage[rows]]
        starts = np.cumsum(counts) - counts  # first drawn value of each stage
        # uniforms(count, -amplitude, amplitude) per stage, bit for bit.
        vals = substream_floats(counts, cfg.seed, "mds-step", first=rows.start)
        vals = -cfg.amplitude + 2 * cfg.amplitude * vals
        # mode="clip" writes straight into out (every index is in range).
        np.take(vals, block_id[stage[rows]] + starts[:, None], out=out[rows], mode="clip")
        lo = max(rows.start, 1)
        if lo == rows.stop:
            continue
        prev = stage[lo - 1 : rows.stop - 1]
        counts = group_blocks[prev]
        starts = np.cumsum(counts) - counts
        bins = block_id[prev] + starts[:, None]
        shift = np.repeat(group_first[prev] - starts, counts)  # bin to block_weight index
        weight = block_weight[shift + np.arange(shift.size)]
        cond = out[lo : rows.stop]
        scratch = cond * space.weights
        means = np.bincount(bins.ravel(), weights=scratch.ravel(), minlength=weight.size) / weight
        np.take(means, bins, out=scratch, mode="clip")
        cond -= scratch
        np.multiply(cond, space.weights, out=scratch)
        means = np.bincount(bins.ravel(), weights=scratch.ravel(), minlength=weight.size) / weight
        residuals = np.maximum.reduceat(np.abs(means), starts)
        over = np.flatnonzero(residuals > check_slack)
        if over.size:
            i = over[0]
            raise AssertionError(
                f"difference residual {residuals[i]} exceeds {check_slack} at step {lo + i}"
            )
    return out


def generate_submartingale(
    cfg: GeneratorConfig,
    mode: str = "positive-part",
    filtration: Filtration | None = None,
) -> ProcessSequence:
    """A submartingale built from a generated martingale.

    mode "positive-part" takes (X_n)+ of the partial-sum martingale (always
    nonnegative); mode "drift" adds a deterministic nondecreasing constant
    drift to X_n, which may still take negative values.
    """
    sums = partial_sums(generate_mds(cfg, filtration))
    if mode == "positive-part":
        return ProcessSequence(sums.filtration, np.maximum(sums.values, 0.0))
    if mode == "drift":
        stream = SplitMix64(derive_seed(cfg.seed, "drift"))
        steps_drift = stream.uniforms(cfg.steps, 0.0, cfg.amplitude / 2.0)
        return ProcessSequence(
            sums.filtration, sums.values + np.cumsum(steps_drift)[:, None]
        )
    raise ValueError(f"unknown submartingale mode {mode!r}")
