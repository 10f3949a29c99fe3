"""Adapted processes, martingale machinery, and seeded generators.

A ProcessSequence pairs one value per stage of a filtration.  Classification
compares apply(T_i, f_j) against f_i over every ordered pair i < j, not just
consecutive stages; the scan below is exact but organized per distinct
operator so the quadratic pair set costs linear work for the usual
filtrations (a few distinct coarse stages, then singletons repeated).  The
groups come from the filtration's stage index.  classify, is_adapted and
is_difference_sequence are shells over cores on raw arrays (Stages.table):
the values, the atom weights, the block ids of each distinct stage, filled
a row block at a time, and the stage index.  decide_gates decides classify
and the difference check for a whole batch of processes from block means,
with these cores only as fallback.

default_filtration is the one-process split-largest chain of
Stages.split_chains.  _mds_rows generates the rows of every process of a
Stages with one draw, one fill of block ids and one RaggedOps per row
block; generate_mds is its one-process case.  Generators draw the stages
in row blocks from the per-step SplitMix64 substreams (seed, "mds-step",
i), so a fixed GeneratorConfig reproduces the same process bit for bit.
Step i draws a block-constant Z_i for the stage-i partition in
[-amplitude, amplitude] and takes Y_i = Z_i - T_{i-1} Z_i, with Y_1 = Z_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditional import Filtration, Stages, average_rows
from .errors import (
    GeneratorResidual,
    NotAdapted,
    NotDifferenceSequence,
    NotSubmartingale,
    SpaceMismatch,
)
from .lattice import (
    DEFAULT_TOL,
    LatticeElement,
    SampleSpace,
    Tolerance,
    halving_fold,
    raise_first,
    row_blocks,
)
from .rng import SplitMix64, derive_seed, seeds_at, stream_floats, substream_grid

MARTINGALE = "martingale"
SUBMARTINGALE = "submartingale"
SUPERMARTINGALE = "supermartingale"
NONE = "none"
NOT_ADAPTED = "process value not fixed by its stage operator"


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
        self._take(filtration, mat)

    @classmethod
    def _owning(cls, filtration: Filtration, mat: np.ndarray) -> "ProcessSequence":
        """A sequence that keeps mat itself, a fresh float64 array no one
        else holds, validated as the constructor does but not copied."""
        process = cls.__new__(cls)
        process._take(filtration, mat)
        return process

    def _take(self, filtration: Filtration, mat: np.ndarray) -> None:
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
    """Stages [:stop] grouped by distinct operator, first seen first."""
    return [(filtration[int(idx[0])], idx) for idx in _groups(filtration.stage, stop)]


def _groups(stage: np.ndarray, stop: int | None = None) -> list:
    """Stages [:stop] grouped by distinct partition, the stages of partition
    d at [d].  A stage index numbers partitions in first-seen order, so a
    prefix holds groups 0..max."""
    stage = stage[:stop]
    ends = np.cumsum(np.bincount(stage)).tolist()  # before the sort: bincount copies stage
    order = np.argsort(stage, kind="stable")
    return [order[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _filled(ids, groups: list, n: int):
    """Each group of stages of _groups with its partition's block ids from
    0, filled by ids (Stages.table) one row block of partitions at a time."""
    for rows in row_blocks(len(groups), n):
        block = ids(np.arange(rows.start, rows.stop)).reshape(-1, n)
        block -= block[:, :1]
        yield from zip(groups[rows], block)


def _max_abs(mat: np.ndarray) -> float:
    """max |mat| taken over row blocks, so no whole-size temporary is made;
    0.0 when there are no rows."""
    blocks = row_blocks(*mat.shape)
    return max((float(np.max(np.abs(mat[rows]))) for rows in blocks), default=0.0)


def _slack(mat: np.ndarray, tol: Tolerance) -> float:
    return tol.abs + tol.rel * _max_abs(mat)


def is_adapted(process: ProcessSequence, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Every stage value must be fixed by its own averaging operator."""
    return _adapted(process.values, *process.filtration.stages.table(0), tol)


def _adapted(mat, weights, ids, stage, tol: Tolerance) -> bool:
    """is_adapted of the (N, n) values mat, on the filtration given by its
    atom weights, ids(d), the block ids of its distinct partitions d laid
    end to end, and its stage index (Stages.table)."""
    slack = _slack(mat, tol)
    for idx, block_id in _filled(ids, _groups(stage), mat.shape[1]):
        if block_id[-1] == mat.shape[1] - 1:  # the identity fixes everything
            continue
        rows = mat[idx]
        if np.max(np.abs(average_rows(weights, block_id, rows) - rows)) > slack:
            return False
    return True


def classify(process: ProcessSequence, tol: Tolerance = DEFAULT_TOL) -> str:
    """Label a process by checking apply(T_i, f_j) against f_i for all i < j.

    Returns "martingale" when both one-sided comparisons hold (a martingale
    is both a sub- and a supermartingale), otherwise "submartingale",
    "supermartingale", or "none".  Raises NotAdapted first if any stage value
    is not fixed by its operator.

    Stages from the singleton cut on condition on the identity, so they
    cost one pass over the values with no product (_classify).
    """
    return _classify(process.values, *process.filtration.stages.table(0), tol)


def _classify(mat, weights, ids, stage, tol: Tolerance) -> str:
    """classify on raw arrays, as _adapted takes them: stage i against the
    per-atom min (sub side) and max (super side) of T_i f_j over j > i.

    Only singletons refine singletons, so the identity stages are a suffix
    cut..N-1 of the sorted stage index, where T_i f_j = f_j: the values' own
    extremes, carried back one row block at a time.  An earlier operator
    keeps its one product, whose rows past the cut's enter as one extreme.
    A min or max is exact in any order, NaN included, so each comparison
    sees the operands of a whole suffix envelope.  A refuted side stops."""
    if not _adapted(mat, weights, ids, stage, tol):
        raise NotAdapted(NOT_ADAPTED)
    count, n = mat.shape
    if count < 2:
        return MARTINGALE
    slack = _slack(mat, tol)
    last = int(stage[-1])  # a refining chain never returns to a partition
    cut = int(stage.searchsorted(last)) if ids(last)[-1] == n - 1 else count
    live = [True, True]  # the sub and the super side
    for idx, block_id in _filled(ids, _groups(stage, min(cut, count - 1)), n):
        # Only stages after the operator's first use are ever compared.
        transformed = average_rows(weights, block_id, mat[idx[0] + 1 :])
        # Row r is stage idx[0] + 1 + r; the rows past the cut's enter as one extreme.
        m = min(cut - idx[0], len(transformed))
        at, here = m - 1 - (idx - idx[0]), mat[idx]
        for s, (ext, worse, shift) in enumerate(_SIDES):
            if live[s]:
                env = ext.accumulate(transformed[:m][::-1], axis=0)[at]
                if m < len(transformed):
                    ext(env, halving_fold(ext, transformed[m:], 0), out=env)
                live[s] = not worse(env, shift(here, slack)).any()
        if not any(live):
            return NONE
    for s, (ext, worse, shift) in enumerate(_SIDES):
        carry = mat[-1]  # the extreme of the rows past each block's accumulate
        for rows in reversed(row_blocks(count - 1, n, start=cut)) if live[s] else ():
            # env[q] is the extreme of the rows after stage rows.stop - 1 - q.
            env = ext.accumulate(mat[rows.stop : rows.start : -1], axis=0)
            if worse(ext(env, carry, out=env), shift(mat[rows][::-1], slack)).any():
                live[s] = False
                break
            carry = env[-1]
    if not any(live):
        return NONE
    if all(live):
        return MARTINGALE
    return SUBMARTINGALE if live[0] else SUPERMARTINGALE


# classify's sides: the extreme, the comparison that refutes, the slack's move.
_SIDES = ((np.minimum, np.less, np.subtract), (np.maximum, np.greater, np.add))


def is_difference_sequence(process: ProcessSequence, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Martingale difference property: apply(T_{i-1}, Y_i) = 0 for i >= 2."""
    return _difference_sequence(process.values, *process.filtration.stages.table(0), tol)


def _difference_sequence(mat, weights, ids, stage, tol: Tolerance) -> bool:
    """is_difference_sequence on raw arrays, as _adapted takes them."""
    if not _adapted(mat, weights, ids, stage, tol):
        return False
    if mat.shape[0] < 2:
        return True
    slack = _slack(mat, tol)
    for idx, block_id in _filled(ids, _groups(stage, -1), mat.shape[1]):
        # Only singletons refine singletons, so the identity group's stages
        # are a suffix and their next rows one contiguous view, not a copy.
        if block_id[-1] == mat.shape[1] - 1:
            means = mat[idx[0] + 1 :]
        else:
            means = average_rows(weights, block_id, mat[idx + 1])
        if _max_abs(means) > slack:
            return False
    return True


def require_difference_sequence(process: ProcessSequence, tol: Tolerance = DEFAULT_TOL) -> None:
    if not is_difference_sequence(process, tol):
        raise difference_error()


def difference_error(_process=None) -> NotDifferenceSequence:
    return NotDifferenceSequence("sequence is not a martingale difference sequence for its filtration")


def partial_sums(diffs: ProcessSequence) -> ProcessSequence:
    """X_n = Y_1 + ... + Y_n on the same filtration."""
    with np.errstate(over="ignore"):  # an overflowing sum is rejected as not finite
        sums = np.cumsum(diffs.values, axis=0)
    return ProcessSequence._owning(diffs.filtration, sums)


def increments(process: ProcessSequence) -> np.ndarray:
    """X_i - X_{i-1} with X_0 = 0, as a raw matrix."""
    mat = process.values
    out = np.array(mat)
    out[1:] -= mat[:-1]
    return out


def square_function(process: ProcessSequence) -> ProcessSequence:
    """Running sum of squared increments of the process (start value included)."""
    return ProcessSequence._owning(
        process.filtration, np.cumsum(increments(process) ** 2, axis=0)
    )


def positive_part_process(
    process: ProcessSequence, tol: Tolerance = DEFAULT_TOL
) -> ProcessSequence:
    """Positive part of a (sub)martingale, itself a submartingale."""
    label = classify(process, tol)
    if label not in (MARTINGALE, SUBMARTINGALE):
        raise NotSubmartingale(f"positive part requires a (sub)martingale, got {label}")
    return ProcessSequence._owning(process.filtration, np.maximum(process.values, 0.0))


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
        # Increments are bounded by 2 * amplitude, so that must be finite too.
        if not (math.isfinite(2.0 * float(self.amplitude)) and self.amplitude > 0.0):
            raise ValueError(
                f"amplitude must be finite and positive, and so must 2 * amplitude, "
                f"got {self.amplitude!r}"
            )
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
    once singletons are reached the finest partition repeats: the
    one-process case of Stages.split_chains, and nothing is checked."""
    if steps < 1:
        raise ValueError("filtration needs at least one stage")
    one, single = np.ones(1, dtype=np.intp), np.zeros(space.n, dtype=np.intp)
    stages = Stages.split_chains(space.n * one, steps * one, space.weights, single, one)
    return Filtration._of_stages(space, stages)


# decide_gates leaves to the exact cores a process whose max|f| (but 0) or
# some atom weight lies outside this range, where its rounding bound may fail.
_SAFE = (2.0**-400, 2.0**400)


def decide_gates(stages: Stages, values: np.ndarray, tol: Tolerance, labels: bool = True):
    """classify (labels) or is_difference_sequence of every process of
    stages, values its rows laid end to end, decided from block means for
    the whole batch, with the exact cores _classify and _difference_sequence
    as fallback.  Returns (bad, label, exact): bad marks the first process
    that fails (classify raises NotAdapted or finds neither a martingale nor
    a submartingale, or the difference check fails; later processes are not
    decided), label is its label (None when not adapted), and exact marks
    the processes sent to an exact core.

    One bincount pass gives, on row i of a process (N rows, stage operator
    T_i), a_i = T_i f_i - f_i and, but on row N, d_i = T_i f_{i+1} - f_i.  By
    the tower rule T_i T_k = T_i (k >= i), T_i f_j - f_i = d_i +
    sum_{k=i+1}^{j-1} T_i d_k for i < j, and T_i d_k >= min d_k as T_i is
    positive with T_i e = e.  So no pair misses the sub-comparison when
    sum_k max(0, -min d_k) + (N + 2) G <= slack, and the pair (k, k + 1),
    which the exact scan compares too, misses it when min d_k < -(slack + G);
    max for min decides the super side.  Adaptedness compares max|a_i| over
    the non-identity stages (the exact scan skips the identity), and the
    difference check max|T_i f_{i+1}|, with slack -+ G; the slack is
    _slack's, bit for bit.

    G bounds the rounding.  With u = 2^-53, gamma_m = m u / (1 - m u), M =
    max|f| and n atoms, a block mean by bincount (n products, n - 1
    additions each in sum(w x) and sum(w), a quotient) or by average_rows
    (quotients w / W, an n-term dot product) is within gamma_{2n+2} M of the
    exact one in any summation order, and subtracting f_i adds u 2M.  The
    exact scan's product and its comparison with f_i - slack add
    gamma_{2n+2} M + u (M + |slack|).  So G = gamma_{4n+8} M +
    gamma_{N+4} |slack| covers both sides, its |slack| term also the N + 3
    float operations of the certificate; gamma_m <= 1.02 m u at any size
    that fits in memory.  A process with a non-finite slack, or M or a
    weight outside _SAFE, goes to the exact core, as does every undecided
    one, in process order up to the first that fails."""
    ops, width = stages.row_ops(stages.stage), np.repeat(stages.n, stages.steps)  # atoms of each row
    heads, steps, rows = ops.starts[:-1], stages.steps, stages.first_row
    last = np.zeros(len(width), dtype=bool)
    last[rows + steps - 1] = True
    with np.errstate(all="ignore"):
        ahead = np.take(values, np.arange(values.size) + np.repeat(width, width), mode="clip")
        own, following = ops.apply(values), ops.apply(ahead)
        residual = np.maximum.reduceat(np.abs(own - values), heads)
        identity = stages.num_blocks[stages.stage] == width
        worst = np.maximum.reduceat(np.where(identity, -np.inf, residual), rows)
        big = np.maximum.reduceat(np.abs(values), stages.elements[:-1])
        slack = tol.abs + tol.rel * big
        guard = 1.02 * 2.0**-53 * ((4 * stages.n + 8) * big + (steps + 4) * np.abs(slack))
        lo, hi = slack - guard, slack + guard
        adapted, unadapted = worst <= lo, worst > hi
        safe = np.isfinite(slack) & (np.minimum.reduceat(stages.weights, stages.atoms[:-1]) >= _SAFE[0])
        safe &= (big == 0.0) | ((big >= _SAFE[0]) & (big <= _SAFE[1]))
        if labels:
            d, sides = following - values, []
            for ext, sign in ((np.minimum, -1.0), (np.maximum, 1.0)):
                step = np.where(last, -sign * np.inf, ext.reduceat(d, heads))
                spread = np.add.reduceat(np.maximum(sign * step, 0.0), rows)
                sides.append(((steps < 2) | (spread + (steps + 2) * guard <= slack),
                              sign * ext.reduceat(step, rows) > hi))
            (sub, not_sub), (sup, not_sup) = sides
            good = adapted & sub
            failed = unadapted | (adapted & not_sub & (sup | not_sup))
            label = np.where(unadapted, None, np.where(sup, SUPERMARTINGALE, NONE))
        else:
            means = np.where(last, -np.inf, np.maximum.reduceat(np.abs(following), heads))
            peak = np.maximum.reduceat(means, rows)
            good, failed = adapted & (peak <= lo), unadapted | (adapted & (peak > hi))
            label = np.full(len(steps), None)
    exact = np.zeros(len(steps), dtype=bool)
    for k in np.flatnonzero(~(good & safe)).tolist():
        if not (failed[k] and safe[k]):
            exact[k] = True
            table = (stages.values(values, k), *stages.table(k), tol)
            if labels:
                try:
                    label[k] = _classify(*table)
                except NotAdapted:
                    label[k] = None
                if label[k] in (MARTINGALE, SUBMARTINGALE):
                    continue
            elif _difference_sequence(*table):
                continue
        return np.arange(len(steps)) == k, label[k], exact
    return np.zeros(len(steps), dtype=bool), None, exact


def generate_mds(cfg: GeneratorConfig, filtration: Filtration | None = None) -> ProcessSequence:
    """Martingale difference sequence with increments bounded by 2*amplitude.

    Stages are generated in consecutive row blocks of lattice.BLOCK_ELEMENTS
    values by _mds_rows, of which this is the one-process case.  Stage i
    draws its own substream (seed, "mds-step", i).  Raises GeneratorResidual
    (an AssertionError) when the guard T_{i-1} Y_i = 0 fails, which a
    filtration whose block weights disagree with its atom weights can do.
    A given filtration fixes the space, so cfg.dim and cfg.weight_mode are
    then unused; its length must be cfg.steps.

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
    prefix = np.array([derive_seed(cfg.seed, "mds-step")], dtype=np.uint64)
    values, failed = _mds_rows(filtration.stages, prefix, cfg.amplitude)
    raise_first(failed)
    # The blocks' temporaries are freed before ProcessSequence copies the rows.
    return ProcessSequence(filtration, values.reshape(cfg.steps, -1))


def _mds_rows(stages: Stages, prefix: np.ndarray, amplitude: float):
    """The values of generate_mds for every process of stages, laid end to
    end, process k drawing stage i from substream (prefix[k], i), where
    prefix[k] is derive_seed(seed, "mds-step") of its seed; and the
    (failed, error) pair of the processes whose residual guard fails, for
    lattice.raise_first.

    Rows are generated in consecutive row blocks of about BLOCK_ELEMENTS
    values.  A block draws every row's block values in one SplitMix64 pass
    and conditions its rows with one RaggedOps (Stages.row_ops), row i of a
    process on its stage i - 1.  Each bin holds one block of one row, so
    neither the blocks nor the other processes change a bit.

    Only singletons refine singletons, so the rows of one process whose
    stage and previous stage both condition on the identity form a suffix.
    When a single process spans more than one row block, the blocks restart
    where that suffix begins, and its blocks skip the bins: their draws are
    one (rows, n) word grid and Y = Z - (w Z)/b, the same bits at a fraction
    of the cost.  A horizon of one block stays on the bincount path, so
    short horizons pay nothing extra.
    """
    check_slack = 1e-12 * max(1.0, amplitude)
    failed_at = np.full(len(prefix), -1)
    residual = np.zeros(len(prefix))
    out = np.empty(stages.size)
    total, width = len(stages.stage), int(stages.n.max())
    blocks, cut = row_blocks(total, width), total
    if len(prefix) == 1 and len(blocks) > 1 and stages.num_blocks[-1] == width:
        # A refining chain never returns to a partition, so stage is sorted.
        cut = min(int(stages.stage.searchsorted(len(stages.num_blocks) - 1)) + 1, total)
        suffix = row_blocks(total, width, start=cut)
        blocks = row_blocks(cut, width) + suffix
        # w and b tiled over a block, so no ufunc loops along the narrow axis,
        # and one work array for every block, so no block faults in fresh pages.
        reps = suffix[0].stop - cut if suffix else 0
        identity = stages.row_ops(stages.stage[-1:], np.zeros(1, dtype=np.intp))
        tiles = (np.tile(identity.weights, reps), np.tile(identity.block_weight, reps))
        work = np.empty(reps * width, dtype=np.uint64)
    for rows in blocks:
        if rows.start >= cut:
            block = out[rows.start * width : rows.stop * width].reshape(-1, width)
            residuals = _singleton_rows(amplitude, int(prefix[0]), tiles, work, block, rows.start)
            process, step = np.zeros(len(block), dtype=np.intp), np.arange(rows.start, rows.stop)
        else:
            residuals, process, step = _binned_rows(stages, rows, prefix, amplitude, out)
        for r in np.flatnonzero(~(residuals <= check_slack)).tolist():  # rows in order, NaN too
            if failed_at[process[r]] < 0:
                failed_at[process[r]], residual[process[r]] = step[r], residuals[r]

    def error(k):
        return GeneratorResidual(
            f"difference residual {residual[k]} exceeds {check_slack} at step {failed_at[k]}"
        )

    return out, (failed_at >= 0, error)


def _binned_rows(stages: Stages, rows: slice, prefix, amplitude: float, out: np.ndarray):
    """Rows rows of _mds_rows, written into out: the residual max
    |T_{i-1} Y_i| of each conditioned row (every row but a first stage), and
    its process and step."""
    process, step, width = stages.rows(rows)
    group = stages.stage[rows]
    starts = width.cumsum() - width
    counts = stages.num_blocks[group]
    # uniforms(count, -amplitude, amplitude) per stage, bit for bit.
    vals = stream_floats(seeds_at(prefix[process], step), counts)
    vals = -amplitude + 2 * amplitude * vals
    size = int(starts[-1] + width[-1])
    block = out[stages.elements[process[0]] + step[0] * width[0] :][:size]
    # One fill of block ids, from the row before the block when that conditions
    # its first row: the draw layout, and row i's bins at row i - 1's ids.
    back = int(step[0] > 0)
    fill = slice(rows.start - back, rows.stop)
    ids = stages.block_ids(stages.stage[fill], np.append(process[:back], process))
    head = back * int(width[0])
    # mode="clip" writes straight into out (every index is in range).
    np.take(vals, ids[head:] - ids[head], out=block, mode="clip")
    later = step > 0
    if not later.any():
        return np.zeros(0), process[later], step[later]
    process, step = process[later], step[later]
    stage = stages.stage[np.flatnonzero(later) + (rows.start - 1)]  # row i's is stage i - 1
    # A batch interleaves first stages with later ones; the block of one
    # process holds at most one, its first row, so its later rows are a view.
    skip = int(later.argmax())
    if later[skip:].all():
        at, w = slice(int(starts[skip]), None), int(width[skip])
        bins = ids[head + at.start - w : len(ids) - w]
        bins = bins - bins[0]
    else:  # numbered past the blocks of the rows before first stages, too
        at = later.repeat(width)
        bins = ids[(np.arange(head, head + size) - width.repeat(width))[at]]
        width, sizes = width[later], stages.num_blocks[stage]
        bins -= (bins[width.cumsum() - width] - sizes.cumsum() + sizes).repeat(width)
    ops = stages.row_ops(stage, process, bins)
    cond = block[at]
    cond -= ops.apply(cond)
    if not isinstance(at, slice):
        block[at] = cond
    return np.maximum.reduceat(np.abs(ops.means(cond)), ops.bins[ops.starts[:-1]]), process, step


def _singleton_rows(amplitude, prefix, tiles, work, block, first):
    """Steps first, first + 1, ... past the cut, written into block: Z drawn
    as one word grid, then Y = Z - (w Z)/b with b the identity's block
    weights, w and b tiled over a whole block.  That is the bincount path
    bit for bit: its 0.0 + w Z differs only where w Z is -0.0, and
    z - 0.0 == z - -0.0.  work holds the grid, then the products.  Returns
    each row's residual max |T_{i-1} Y_i|, or zeros when the block's
    largest is within the slack."""
    substream_grid(block, prefix, first=first, work=work)
    block *= 2 * amplitude
    block += -amplitude
    flat = block.reshape(-1)  # a view: out's row blocks are contiguous
    weights, block_weight = (tile[: flat.size] for tile in tiles)
    scratch = work[: flat.size].view(np.float64)
    np.multiply(flat, weights, out=scratch)
    scratch /= block_weight
    flat -= scratch
    np.multiply(flat, weights, out=scratch)
    scratch /= block_weight
    np.abs(scratch, out=scratch)
    if not np.max(scratch) <= 1e-12 * max(1.0, amplitude):  # a NaN max is searched as well
        return halving_fold(np.maximum, scratch.reshape(block.shape), 1)
    return np.zeros(len(block))


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
        return ProcessSequence._owning(sums.filtration, np.maximum(sums.values, 0.0))
    if mode == "drift":
        stream = SplitMix64(derive_seed(cfg.seed, "drift"))
        steps_drift = stream.uniforms(cfg.steps, 0.0, cfg.amplitude / 2.0)
        return ProcessSequence._owning(
            sums.filtration, sums.values + np.cumsum(steps_drift)[:, None]
        )
    raise ValueError(f"unknown submartingale mode {mode!r}")
