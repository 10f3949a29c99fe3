"""Adapted processes, martingale machinery, and seeded generators.

A ProcessSequence pairs one value per stage of a filtration.  Classification
compares apply(T_i, f_j) against f_i over every ordered pair i < j, not just
consecutive stages; the scan below is exact but organized per distinct
operator so the quadratic pair set costs linear work for the usual
filtrations (a few distinct coarse stages, then singletons repeated).  The
groups come from the filtration's stage index.  classify, is_adapted and
is_difference_sequence are shells over cores on raw arrays (Stages.table),
which share one scan (_scan): the slack, the adaptedness check, and the
stages grouped with their block ids.  decide_gates passes most processes
of a batch at once from block means, and only these cores refuse one.

default_filtration is the one-process split-largest chain of
Stages.split_chains.  _mds_rows generates the rows of every process of a
Stages with one draw, one fill of block ids and one RaggedOps per row
block; generate_mds is its one-process case.  Generators draw the stages
in row blocks from the per-step SplitMix64 substreams (seed, "mds-step",
i), so a fixed GeneratorConfig reproduces the same process bit for bit.
Step i draws a block-constant Z_i for the stage-i partition in
[-amplitude, amplitude] and takes Y_i = Z_i - T_{i-1} Z_i, with Y_1 = Z_1.
Every row is drawn and conditioned so but for a dyadic space's suffix
past the singleton cut, which is exactly +0.0 and not drawn.
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
from .rng import SplitMix64, derive_seed, seeds_at, stream_floats

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
    d at [d].  A refining chain never returns to a partition and numbers
    them first seen first, so stage is sorted and each group is a run."""
    stage = stage[:stop]
    ends = stage.searchsorted(np.arange(1, int(stage[-1]) + 2)).tolist() if len(stage) else []
    return [np.arange(lo, hi) for lo, hi in zip([0] + ends, ends)]


def _max_abs(mat: np.ndarray) -> float:
    """np.max(np.abs(mat)) taken over row blocks, so no whole-size temporary
    is made: NaN when any value is NaN, 0.0 when there are no rows."""
    return float(np.max([np.max(np.abs(mat[rows])) for rows in row_blocks(*mat.shape)], initial=0.0))


def _scan(mat, weights, ids, stage, tol: Tolerance) -> tuple:
    """What the cores read of the (N, n) values mat, given the atom weights,
    ids(d), the block ids of partitions d, and the stage index
    (Stages.table), with one max |f| pass over them: (adapted, slack,
    groups, cut, tail).  Only singletons refine singletons, so the identity's stages
    are a suffix cut..N-1 (cut = N if the last partition is not the
    identity), and they fix every value.  groups pairs the stages of each
    partition before the cut with its block ids from 0, filled one row block
    of partitions at a time.  tail is max |f| past stage cut, the slack is
    tol.abs + tol.rel * max |f|, and adapted tells whether every stage value
    is fixed by its own operator within the slack."""
    count, n = mat.shape
    last = int(stage[-1])  # a refining chain never returns to a partition
    cut = int(stage.searchsorted(last)) if ids(last)[-1] == n - 1 else count
    groups, filled = _groups(stage, cut), []
    for rows in row_blocks(len(groups), n):
        block = ids(np.arange(rows.start, rows.stop)).reshape(-1, n)
        filled += zip(groups[rows], block - block[:, :1])
    tail = _max_abs(mat[cut + 1 :])
    slack = tol.abs + tol.rel * float(np.maximum(_max_abs(mat[: cut + 1]), tail))  # NaN from either
    adapted = True
    for idx, block_id in filled:
        rows = mat[idx]
        if np.max(np.abs(average_rows(weights, block_id, rows) - rows)) > slack:
            adapted = False
            break
    return adapted, slack, filled, cut, tail


def is_adapted(process: ProcessSequence, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Every stage value must be fixed by its own averaging operator."""
    return _scan(process.values, *process.filtration.stages.table(0), tol)[0]


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
    """classify on the values, the atom weights, ids(d), the block ids of
    partitions d, and the stage index (Stages.table): stage i against the
    per-atom min (sub side) and max (super side) of T_i f_j over j > i.

    At the identity stages cut..N-1 of _scan, T_i f_j = f_j: the values' own
    extremes, carried back one row block at a time.  An earlier operator
    keeps its one product, whose rows past the cut's enter as one extreme.
    A min or max is exact in any order, NaN included, so each comparison
    sees the operands of a whole suffix envelope.  A refuted side stops."""
    adapted, slack, groups, cut, _ = _scan(mat, weights, ids, stage, tol)
    if not adapted:
        raise NotAdapted(NOT_ADAPTED)
    count, n = mat.shape
    if count < 2:
        return MARTINGALE
    live, stop = [True, True], min(cut, count - 1)  # the sub and the super side
    for idx, block_id in groups:
        if idx[0] >= stop:
            break
        idx = idx[: stop - idx[0]]
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
    """is_difference_sequence on raw arrays, as _classify takes them."""
    adapted, slack, groups, cut, tail = _scan(mat, weights, ids, stage, tol)
    if not adapted:
        return False
    for idx, block_id in groups:
        idx = idx[: len(mat) - 1 - idx[0]]  # the stages with a next stage
        if len(idx) and _max_abs(average_rows(weights, block_id, mat[idx + 1])) > slack:
            return False
    # The identity's stages are cut.., so their next rows are the scan's tail.
    return not (cut < len(mat) - 1 and tail > slack)


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


# decide_gates passes no process whose max|f| (but 0) or some atom weight
# lies outside this range, where its rounding bound may fail.
_SAFE = (2.0**-400, 2.0**400)


def decide_gates(stages: Stages, values: np.ndarray, tol: Tolerance, labels: bool = True):
    """classify (labels) or is_difference_sequence of every process of
    stages, values its rows laid end to end.  A certificate in block means
    passes most processes of the batch at once, and the exact cores
    _classify and _difference_sequence decide every other one, in process
    order up to the first that fails.  Returns (bad, label, exact): bad
    marks that process (classify raises NotAdapted or finds neither a
    martingale nor a submartingale, or the difference check fails; later
    processes are not decided), label is its label from _classify (None
    when not adapted, and for the difference check), and exact marks the
    processes sent to an exact core.

    One bincount pass gives, on row i of a process (N rows, stage operator
    T_i), a_i = T_i f_i - f_i and, but on row N, d_i = T_i f_{i+1} - f_i.  By
    the tower rule T_i T_k = T_i (k >= i), T_i f_j - f_i = d_i +
    sum_{k=i+1}^{j-1} T_i d_k for i < j, and T_i d_k >= min d_k as T_i is
    positive with T_i e = e.  So no pair misses the sub-comparison when
    sum_k max(0, -min d_k) + (N + 2) G <= slack.  Adaptedness needs max|a_i|
    over the non-identity stages (the exact scan skips the identity), and
    the difference check max|T_i f_{i+1}|, within slack - G; the slack is
    _scan's, bit for bit.  The certificate only passes: a process it does
    not pass goes to the exact core, whose answer alone refuses.

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
    weight outside _SAFE, is not passed."""
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
        good = worst <= slack - guard
        good &= np.isfinite(slack) & (np.minimum.reduceat(stages.weights, stages.atoms[:-1]) >= _SAFE[0])
        good &= (big == 0.0) | ((big >= _SAFE[0]) & (big <= _SAFE[1]))
        if labels:
            step = np.where(last, np.inf, np.minimum.reduceat(following - values, heads))
            spread = np.add.reduceat(np.maximum(-step, 0.0), rows)
            good &= (steps < 2) | (spread + (steps + 2) * guard <= slack)
        else:
            means = np.where(last, -np.inf, np.maximum.reduceat(np.abs(following), heads))
            good &= np.maximum.reduceat(means, rows) <= slack - guard
    exact = np.zeros(len(steps), dtype=bool)
    for k in np.flatnonzero(~good).tolist():
        exact[k] = True
        table, label = (stages.values(values, k), *stages.table(k), tol), None
        if labels:
            try:
                label = _classify(*table)
            except NotAdapted:
                pass
            if label in (MARTINGALE, SUBMARTINGALE):
                continue
        elif _difference_sequence(*table):
            continue
        return np.arange(len(steps)) == k, label, exact
    return np.zeros(len(steps), dtype=bool), None, exact


def generate_mds(cfg: GeneratorConfig, filtration: Filtration | None = None) -> ProcessSequence:
    """Martingale difference sequence with increments bounded by 2*amplitude.

    Stages are generated in consecutive row blocks of lattice.BLOCK_ELEMENTS
    values by _mds_rows, of which this is the one-process case.  Stage i
    draws its own substream (seed, "mds-step", i).  Raises GeneratorResidual
    (an AssertionError) when the guard T_{i-1} Y_i = 0 fails, which only
    block weights other than the atoms' sums (Stages.row_ops) can do.
    A given filtration fixes the space, so cfg.dim and cfg.weight_mode are
    then unused; its length must be cfg.steps.  The process keeps the
    generated array itself (ProcessSequence._owning checks it is finite),
    so no second (N, n) array is made.

    Once T_{i-1} is the singleton partition, Y_i = Z_i - T_{i-1} Z_i is
    rounding noise of (w Z)/w, up to about 1.1e-16 * amplitude, so horizons
    beyond dim stages carry no signal; those rows are drawn and conditioned
    like every other.  They are exactly +0.0 when every atom weight w is a
    power of two (uniform weights on 2^k atoms), amplitude * min(w) >=
    2^-968 and amplitude * max(w) is finite, and then not drawn when the
    horizon spans more than one row block.
    """
    if filtration is None:
        filtration = default_filtration(make_space(cfg), cfg.steps)
    elif len(filtration) != cfg.steps:
        raise ValueError("filtration length does not match steps")
    prefix = np.array([derive_seed(cfg.seed, "mds-step")], dtype=np.uint64)
    values, failed = _mds_rows(filtration.stages, prefix, cfg.amplitude)
    raise_first(failed)
    return ProcessSequence._owning(filtration, values.reshape(cfg.steps, -1))


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
    When a single process spans more than one row block, b is w bit for
    bit, every w is a power of two, amplitude * min(w) >= 2^-968 and
    amplitude * max(w) is finite, a nonzero draw has |Z| >= amplitude *
    2^-54, so w Z is normal, (w Z)/b is Z and every suffix row is +0.0:
    out's zeros, neither drawn nor written.  Any other suffix is drawn and
    conditioned like the rows before it, to rounding residue.
    """
    check_slack = 1e-12 * max(1.0, amplitude)
    failed_at = np.full(len(prefix), -1)
    residual = np.zeros(len(prefix))
    out = np.zeros(stages.size)  # an exact-zero suffix leaves its fresh pages unwritten
    total, width = len(stages.stage), int(stages.n.max())
    blocks = row_blocks(total, width)
    if len(prefix) == 1 and len(blocks) > 1 and stages.num_blocks[-1] == width:
        identity = stages.row_ops(stages.stage[-1:], np.zeros(1, dtype=np.intp))
        w = identity.weights
        if (np.array_equal(identity.block_weight, w) and (np.frexp(w)[0] == 0.5).all()
                and amplitude * w.min() >= 2.0**-968 and math.isfinite(amplitude * w.max())):
            # A refining chain never returns to a partition, so stage is sorted.
            cut = int(stages.stage.searchsorted(len(stages.num_blocks) - 1)) + 1
            blocks = row_blocks(min(cut, total), width)  # (w Z)/w is Z exactly: Y is out's +0.0
    for rows in blocks:
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
