"""Randomized trial drivers behind the `verify` command.

Every driver takes a RunConfig and returns one aggregated VerificationReport.
Trial t of suite S draws all of its randomness from the substream keyed by
(seed, S, t), so a single seed reproduces every trial regardless of how many
trials run or in what order.  Reports echo the effective configuration.

Every suite takes its trials in batches of about lattice.BLOCK_ELEMENTS
atoms, or values for the generated-process suites.  One SplitMix64 pass
draws the first words of every trial's substream (its dimension, and steps
and weight mode where it has them), and a later pass, at a per-trial word
offset, draws every later word the trial can use; a trial that uses fewer
leaves the rest of its own substream unread.  The floats are read back per
trial with the scalar generator's arithmetic (rng.Streams).  Each check then
runs once over the batch: the trials' atoms laid end to end, block ids
offset per trial, and per-trial outcomes from segment reductions, recorded
trial by trial.  A raising batch raises what its first failing trial raises.

burkholder, telescoping, hrc and doob generate their processes together:
every trial's split-largest chain is an atom order and a cut array
(conditional.Stages, not Partition and operator objects), one pass of
processes._mds_rows draws every trial's rows and conditions them through
Stages.row_ops, and the checkers run over the batch's (trial * stage,
atoms) rows.  The label and difference-sequence gates pass the whole
batch at once where they can (processes.decide_gates), and the exact
per-trial scan decides the rest; burkholder's two dense products of the
base operator still run trial by trial, on first-stage block ids filled
once for the batch.  holder
draws its batch the same way but checks each trial with one holder_sums
call, the checker span per trial that perfbench's tracer self-test counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .bands import exclusion_checks, inf_inequality_checks, sup_formula, sup_identity_checks
from .conditional import (
    ConditionalExpectationOp,
    Partition,
    RaggedOps,
    StageRows,
    Stages,
    average_rows,
    axiom_checks,
)
from .errors import RieszmartError
from .inequalities import (
    burkholder_rows,
    clarkson_checks,
    difference_check,
    exponent_error,
    holder_sums,
    jensen_checks,
    label_check,
    maximal_rows,
    telescoping_rows,
)
from .lattice import (
    DEFAULT_TOL,
    LatticeElement,
    SampleSpace,
    Tolerance,
    normalized,
    raise_first,
    row_blocks,
)
from .processes import _mds_rows
from .reports import VerificationReport
from .rng import (
    Streams,
    below,
    derive_seed,
    derive_seeds,
    seeds_at,
    stream_floats,
    substream_floats,
    substream_seeds,
)

STANDARD_SEED = 42


def _require_finite_options(**values) -> None:
    """Reject NaN and infinite numeric options (None means unset)."""
    for name, value in values.items():
        if value is not None and not np.isfinite(float(value)):
            raise RieszmartError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one verify run."""

    suite: str = "all"
    trials: int = 1000
    seed: int = STANDARD_SEED
    dim_max: int = 16
    steps_max: int = 20
    p_min: float | None = None  # suite-specific default when None
    p_max: float | None = None
    tol: Tolerance = DEFAULT_TOL
    horizon: int = 10_000  # echoed in reports only; no suite reads it
    output: str | None = None
    format: str = "json"

    def validate(self) -> None:
        if self.trials < 1:
            raise RieszmartError(f"trials must be >= 1, got {self.trials}")
        if self.dim_max < 1:
            raise RieszmartError(f"dim_max must be >= 1, got {self.dim_max}")
        if self.steps_max < 1:
            raise RieszmartError(f"steps_max must be >= 1, got {self.steps_max}")
        _require_finite_options(
            tol_abs=self.tol.abs, tol_rel=self.tol.rel, p_min=self.p_min, p_max=self.p_max
        )
        if self.format not in ("json", "csv"):
            raise RieszmartError(f"format must be json or csv, got {self.format!r}")
        if self.suite not in SUITES and self.suite != "all":
            raise RieszmartError(
                f"unknown suite {self.suite!r}; choose from {', '.join(sorted(SUITES))}, all"
            )

    def p_range(self, lo: float, hi: float) -> tuple[float, float]:
        lo = lo if self.p_min is None else self.p_min
        hi = hi if self.p_max is None else self.p_max
        if lo > hi:
            raise RieszmartError(f"{self.suite} exponent range is empty: p_min {lo} > p_max {hi}")
        return lo, hi

    def echo(self) -> dict:
        """Every field but where and how the report is written."""
        echo = {f.name: getattr(self, f.name) for f in fields(self)}
        del echo["output"], echo["format"]
        return echo | {"tol": self.tol.to_json_dict()}


# ---------------------------------------------------------------------------
# sampling helpers


def _partition_words(n):
    """How many floats a random partition draws on n atoms: n - 1 for the
    atom shuffle, one for the block count and n - 2 for the cut shuffle."""
    return np.maximum(2 * np.asarray(n) - 2, 1)


def _partition_ids(floats: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A random partition of each trial's n[t] atoms from its
    _partition_words(n[t]) floats laid end to end: the shuffled atoms cut
    into 1 + below(n[t]) blocks at shuffled cut points.  Returns the ids of
    all trials concatenated, and each trial's number of blocks."""
    counts = _partition_words(n)
    local = np.arange(len(floats)) - np.repeat(np.cumsum(counts) - counts, counts)
    size = np.repeat(n, counts)
    # below(i + 1) for i = n - 1, ..., 1; below(n); below(i + 1) for i = n - 2, ..., 1.
    k = np.where(local < size, size - local, 2 * size - 1 - local)
    draws = iter(below(floats, np.where(local == size - 1, size, k)).tolist())
    order, cut = [], []  # each trial's shuffled atoms, and whether a block starts there
    for m in n.tolist():
        atoms, rest = list(range(m)), list(range(1, m))
        for i in range(m - 1, 0, -1):
            j = next(draws)
            atoms[i], atoms[j] = atoms[j], atoms[i]
        k = 1 + next(draws)
        for i in range(m - 2, 0, -1):
            j = next(draws)
            rest[i], rest[j] = rest[j], rest[i]
        starts = [False] * m
        for c in [0] + rest[: k - 1]:
            starts[c] = True
        order += atoms
        cut += starts
    # Blocks in shuffled order, numbered across the trials, then renumbered
    # by their lowest atom, trial by trial.
    heads = np.cumsum(n) - n
    atom = np.array(order) + np.repeat(heads, n)
    block = np.empty(len(atom), dtype=np.intp)
    block[atom] = np.cumsum(cut) - 1
    num_blocks = np.add.reduceat(np.array(cut), heads)
    lowest = np.full(int(num_blocks.sum()), len(atom))
    np.minimum.at(lowest, block, np.arange(len(atom)))
    rank = np.empty(len(lowest), dtype=np.intp)
    rank[np.argsort(lowest)] = np.arange(len(lowest))
    return rank[block] - np.repeat(np.cumsum(num_blocks) - num_blocks, n), num_blocks


class _Batch:
    """Trials of one suite drawn together, each from its own substream: a
    first pass takes words 1 and 2 of every trial (its dimension and weight
    mode), a second pass every later word the trial can use, words(n) of
    them on n atoms after its weights.
    Trial t's atoms are starts[t]:starts[t + 1] of every array over atoms."""

    def __init__(self, cfg: "RunConfig", suite: str, trials: range, words):
        self.trials = np.arange(trials.start, trials.stop)
        head = _head(cfg, suite, self.trials, 2)
        self.n = 1 + below(head[:, 0], cfg.dim_max)
        self.starts = np.concatenate(([0], np.cumsum(self.n)))
        drawn = head[:, 1] >= 0.5
        counts = np.where(drawn, self.n, 0) + words(self.n)
        self.draws = Streams(
            substream_floats(counts, cfg.seed, suite, first=trials.start, offsets=2), counts
        )
        self.weights = _weights(self.n, [(drawn, self.draws)])

    def partitions(self) -> tuple[np.ndarray, np.ndarray]:
        """Each trial's random partition (_partition_ids): block ids and
        block counts."""
        return _partition_ids(self.draws.floats(_partition_words(self.n)), self.n)

    def sparse(self, hi: float, keep: float, lo: float = 0.0, where=None) -> np.ndarray:
        """One element per trial (or where where is True, and zeros
        elsewhere): uniforms on [lo, hi), each kept with probability keep."""
        sizes = self.n if where is None else np.where(where, self.n, 0)
        coords = self.draws.uniforms(sizes, lo, hi)
        out = np.zeros(self.starts[-1])
        out[np.repeat(sizes > 0, self.n)] = np.where(self.draws.floats(sizes) < keep, coords, 0.0)
        return out

    def family(self, hi: float, keep: float, lo: float = 0.0) -> np.ndarray:
        """2 + below(3) sparse elements per trial, as rows of a (4, atoms)
        stack; a trial with fewer repeats its first."""
        size = 2 + self.draws.below(3)
        rows = np.empty((4, self.starts[-1]))
        rows[0] = self.sparse(hi, keep, lo)
        for j in range(1, 4):
            drawn = self.sparse(hi, keep, lo, where=size > j)
            rows[j] = np.where(np.repeat(size > j, self.n), drawn, rows[0])
        return rows


def _weights(n: np.ndarray, sources) -> np.ndarray:
    """Each trial's SampleSpace weights laid end to end: uniform, or for the
    trials where a (where, draws) source's mask is True, n uniforms on
    [0.05, 1) read from its Streams; then normalized trial by trial."""
    weights = np.repeat(1.0 / n, n)
    for where, draws in sources:
        weights[np.repeat(where, n)] = draws.uniforms(np.where(where, n, 0), 0.05, 1.0)
    ends = np.cumsum(n).tolist()
    for lo, hi in zip([0] + ends, ends):
        weights[lo:hi] = normalized(weights[lo:hi])
    return weights


def _batches(cfg: "RunConfig", suite: str, words):
    """The suite's trials in batches of about BLOCK_ELEMENTS atoms."""
    for rows in row_blocks(cfg.trials, cfg.dim_max):
        yield _Batch(cfg, suite, range(rows.start, rows.stop), words)


# ---------------------------------------------------------------------------
# suite drivers


def _fresh(cfg: RunConfig, name: str) -> VerificationReport:
    report = VerificationReport(
        suite=name, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol
    )
    report.config = cfg.echo() | {"suite": name}
    return report


def run_holder(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "holder")
    lo, hi = cfg.p_range(1.01, 10.0)
    # After the weights: the partition, the pair count, p and at most 4 pairs.
    for batch in _batches(cfg, "holder", lambda n: _partition_words(n) + 2 + 8 * n):
        block_id, _ = batch.partitions()
        pairs = 1 + batch.draws.below(4)
        mode = batch.trials % 4
        drawn_p = batch.draws.uniform(lo, hi, where=mode < 2)
        xs = batch.draws.uniforms(pairs * batch.n, -2.0, 2.0)
        ys = batch.draws.uniforms(pairs * batch.n, -2.0, 2.0)
        ends = np.cumsum(pairs * batch.n).tolist()
        lows, highs = batch.starts[:-1].tolist(), batch.starts[1:].tolist()
        per_trial = zip(batch.trials.tolist(), mode.tolist(), drawn_p.tolist(), pairs.tolist())
        for i, (t, m, p, k) in enumerate(per_trial):
            space = SampleSpace(batch.weights[lows[i] : highs[i]])
            op = ConditionalExpectationOp(Partition(space, block_id=block_id[lows[i] : highs[i]]))
            if m == 2 or p == 1.0:  # a drawn p of 1 takes mode 2's conjugate
                p, q = 1.0, float("inf")
            elif m == 3:
                p, q = float("inf"), 1.0
            else:
                q = p / (p - 1.0)
            mine = slice(ends[i] - k * space.n, ends[i])
            x_list = [LatticeElement(space, x) for x in xs[mine].reshape(k, -1)]
            y_list = [LatticeElement(space, y) for y in ys[mine].reshape(k, -1)]
            report.absorb(holder_sums(x_list, y_list, p, q, op, cfg.tol), t, cfg.seed)
    return report


def run_clarkson(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "clarkson")
    lo, hi = cfg.p_range(1.0, 2.0)
    for batch in _batches(cfg, "clarkson", lambda n: 1 + 2 * n):
        t = batch.trials
        drawn = t % 5 != 0
        p = np.where(drawn, batch.draws.uniform(lo, hi, where=drawn), np.where(t % 10 == 0, lo, hi))
        x = batch.draws.uniforms(batch.n, -2.0, 2.0)
        y = batch.draws.uniforms(batch.n, -2.0, 2.0)
        report.record_parts([clarkson_checks(x, y, p, batch.starts, cfg.tol)], t, cfg.seed)
    return report


def _ops(batch: _Batch) -> RaggedOps:
    return RaggedOps(batch.starts, batch.weights, *batch.partitions())


def run_jensen(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "jensen")
    lo, hi = cfg.p_range(1.0, 4.0)
    for batch in _batches(cfg, "jensen", lambda n: _partition_words(n) + 1 + n):
        ops = _ops(batch)
        drawn = batch.trials % 5 != 0
        p = np.where(drawn, batch.draws.uniform(lo, hi, where=drawn), lo)
        f = batch.draws.uniforms(batch.n, -2.0, 2.0)
        report.record_parts([jensen_checks(f, p, ops, cfg.tol)], batch.trials, cfg.seed)
    return report


def _process_trials(cfg: RunConfig):
    """The trials of a generated-process suite in batches of about
    BLOCK_ELEMENTS values."""
    for rows in row_blocks(cfg.trials, cfg.dim_max * cfg.steps_max):
        yield np.arange(rows.start, rows.stop)


def _head(cfg: RunConfig, suite: str, t: np.ndarray, words: int) -> np.ndarray:
    """Words 1..words of each trial's substream, one row per trial."""
    count = np.full(len(t), words)
    return substream_floats(count, cfg.seed, suite, first=int(t[0])).reshape(-1, words)


def _process_seeds(cfg: RunConfig, suite: str, t: np.ndarray) -> np.ndarray:
    """The GeneratorConfig seeds derive_seed(cfg.seed, suite, "process", t)."""
    return seeds_at(np.uint64(derive_seed(cfg.seed, suite, "process")), t)


def _made_space(seeds: np.ndarray, n: np.ndarray, random: np.ndarray):
    """make_space's draws for the trials where random: a _weights source."""
    words = np.where(random, n, 0)
    return random, Streams(stream_floats(derive_seeds(seeds, "space"), words), words)


def _differences(seeds, n, steps, weights, first=None, blocks=None):
    """generate_mds of each trial's GeneratorConfig(seed=seeds[k],
    amplitude 1) on its weights, the split-largest chain from the first
    partitions with block ids first and blocks blocks (a single block when
    not given): the Stages, the rows laid end to end and the generator's
    (failed, error) pair."""
    if first is None:
        first, blocks = np.zeros(int(n.sum()), dtype=np.intp), np.ones(len(n), dtype=np.intp)
    stages = Stages.split_chains(n, steps, weights, first, blocks)
    diffs, failed = _mds_rows(stages, derive_seeds(seeds, "mds-step"), 1.0)
    return stages, diffs, failed


def _submartingales(t, seeds, stages: Stages, diffs: np.ndarray) -> np.ndarray:
    """generate_submartingale of the trials' rows: mode "positive-part" for
    even trials, "drift" for odd ones."""
    sums = stages.accumulate(np.add, diffs)
    drift = t % 2 == 1
    words = np.where(drift, stages.steps, 0)
    draws = Streams(stream_floats(derive_seeds(seeds, "drift"), words), words)
    per_row = np.zeros(len(stages.stage))
    per_row[np.repeat(drift, stages.steps)] = draws.uniforms(words, 0.0, 0.5)
    drifted = sums + stages.accumulate(np.add, stages.spread(per_row))
    return np.where(np.repeat(drift, stages.n * stages.steps), drifted, np.maximum(sums, 0.0))


def _within(mask: np.ndarray, check):
    """A (bad, error) pair over the trials where mask is True, as one over
    all trials."""
    bad, error = check
    full = np.zeros(len(mask), dtype=bool)
    full[mask] = bad
    index = np.cumsum(mask) - 1
    return full, lambda k: error(index[k])


def run_burkholder(cfg: RunConfig, p: float = 2.0) -> VerificationReport:
    report = _fresh(cfg, "burkholder")
    report.config["p"] = p
    p = float(p)
    lows, highs = [float("inf")], [float("-inf")]
    for t in _process_trials(cfg):
        head = _head(cfg, "burkholder", t, 3)  # dimension, steps, weight mode
        n = 1 + below(head[:, 0], cfg.dim_max)
        steps = 1 + below(head[:, 1], cfg.steps_max)
        seeds = _process_seeds(cfg, "burkholder", t)
        weights = _weights(n, [_made_space(seeds, n, head[:, 2] >= 0.5)])
        stages, diffs, failed = _differences(seeds, n, steps, weights)
        checks = [failed, (np.full(len(t), not 1.0 < p < math.inf), lambda k: exponent_error(p))]
        raise_first(*checks)  # before any power of p
        checks.append(difference_check(stages, diffs, cfg.tol))
        bad, parts, (low, high) = burkholder_rows(diffs, stages, _first_stage_rows(stages), p, cfg.tol)
        raise_first(*checks, bad)
        report.record_parts(parts, t, cfg.seed)
        lows += low[~np.isnan(low)].tolist()
        highs += high[~np.isnan(high)].tolist()
    ratio_min, ratio_max = min(lows), max(highs)
    report.details["ratio_min"] = None if ratio_min == float("inf") else ratio_min
    report.details["ratio_max"] = None if ratio_max == float("-inf") else ratio_max
    return report


def _first_stage_rows(stages: Stages):
    """apply(k, rows): apply_rows of process k's first stage, whose block ids
    are filled for every process at once."""
    ids = stages.block_ids(stages.stage[stages.first_row], np.arange(len(stages.n)))

    def apply(k, rows):
        at = slice(stages.atoms[k], stages.atoms[k + 1])
        return average_rows(stages.weights[at], ids[at] - ids[at][0], rows)

    return apply


def run_telescoping(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "telescoping")
    for t in _process_trials(cfg):
        # Trials t % 3 == 2 draw arbitrary rows, for which the pathwise bound
        # holds too: a random space (its weights unused), then the row
        # count.  The others draw a GeneratorConfig: dimension, steps, weight
        # mode.  Then every trial draws its rows, if free, and its threshold.
        head = _head(cfg, "telescoping", t, 2)
        free = t % 3 == 2
        n = 1 + below(head[:, 0], cfg.dim_max)
        skip = 2 + np.where(free & (head[:, 1] >= 0.5), n, 0)
        word = substream_floats(np.ones_like(t), cfg.seed, "telescoping", first=int(t[0]), offsets=skip)
        steps = 1 + below(np.where(free, word, head[:, 1]), cfg.steps_max)
        counts = np.where(free, steps * n, 0) + 2 * n
        draws = Streams(
            substream_floats(counts, cfg.seed, "telescoping", first=int(t[0]), offsets=skip + 1),
            counts,
        )
        rows = StageRows(n, steps)
        seq = np.empty(rows.size)
        seq[np.repeat(free, n * steps)] = draws.uniforms(np.where(free, steps * n, 0), -2.0, 2.0)
        made = ~free
        failed = (np.zeros(0, dtype=bool), None)
        if made.any():
            seeds = _process_seeds(cfg, "telescoping", t[made])
            weights = _weights(n[made], [_made_space(seeds, n[made], word[made] >= 0.5)])
            stages, diffs, failed = _differences(seeds, n[made], steps[made], weights)
            seq[np.repeat(made, n * steps)] = _submartingales(t[made], seeds, stages, diffs)
        coords = draws.uniforms(n, 0.0, np.repeat(1.0 + np.sqrt(steps), n))
        g = np.where(draws.floats(n) < 0.6, coords, 0.0)
        bad, parts = telescoping_rows(seq, g, rows, cfg.tol)
        raise_first(_within(made, failed), bad)
        report.record_parts(parts, t.repeat(steps), cfg.seed)
    return report


def _maximal_trials(cfg: RunConfig, suite: str, t: np.ndarray):
    """Trials t of the hrc and doob suites: their Stages, submartingale
    values, thresholds over the atoms and generator check."""
    # Words: the dimension, steps and weight mode of a GeneratorConfig, the
    # coarse-stage coin, then for a coarse first stage the dimension and
    # weight mode of a random space; else word 5 draws the threshold.
    head = _head(cfg, suite, t, 6)
    steps = 1 + below(head[:, 1], cfg.steps_max)
    coarse = head[:, 3] < 0.5
    n = 1 + below(np.where(coarse, head[:, 4], head[:, 0]), cfg.dim_max)
    own = coarse & (head[:, 5] >= 0.5)
    # A coarse trial goes on: its weights, the coin for a random first
    # partition (else a single block), the partition, one threshold value
    # per block.  The process lives on that space.
    counts = np.where(coarse, np.where(own, n, 0) + 1 + _partition_words(n) + n, 0)
    draws = Streams(substream_floats(counts, cfg.seed, suite, first=int(t[0]), offsets=6), counts)
    seeds = _process_seeds(cfg, suite, t)
    made = ~coarse & (head[:, 2] >= 0.5)
    weights = _weights(n, [(own, draws), _made_space(seeds, n, made)])
    split = coarse & (draws.next_float(where=coarse) >= 0.5)
    first = np.zeros(int(n.sum()), dtype=np.intp)
    blocks = np.ones(len(n), dtype=np.intp)
    if split.any():
        floats = draws.floats(np.where(split, _partition_words(n), 0))
        first[np.repeat(split, n)], blocks[split] = _partition_ids(floats, n[split])
    value = np.empty(int(blocks.sum()))
    value[np.repeat(coarse, blocks)] = draws.floats(np.where(coarse, blocks, 0))
    value[np.repeat(~coarse, blocks)] = head[~coarse, 4]
    # uniforms(blocks, 0, 1 + sqrt(steps)), broadcast over each block's atoms
    value = 0.0 + np.repeat(1.0 + np.sqrt(steps) - 0.0, blocks) * value
    g = value[first + np.repeat(np.cumsum(blocks) - blocks, n)]
    stages, diffs, failed = _differences(seeds, n, steps, weights, first, blocks)
    return stages, _submartingales(t, seeds, stages, diffs), g, failed


def _run_maximal(cfg: RunConfig, suite: str) -> VerificationReport:
    report = _fresh(cfg, suite)
    for t in _process_trials(cfg):
        stages, values, g, failed = _maximal_trials(cfg, suite, t)
        rates = np.ones(len(stages.stage))
        if suite == "hrc":
            # Rates i ** s, s = 0, 1/2 or 1 by the trial: one scalar exponent each.
            index = (stages.stage_of_rows() + 1).astype(np.float64)
            kind = np.repeat(t % 3, stages.steps)
            for k, s in enumerate((0.0, 0.5, 1.0)):
                rates[kind == k] = index[kind == k] ** s
        gates = label_check(stages, values, cfg.tol)
        t1 = stages.row_ops(np.repeat(stages.stage[stages.first_row], stages.steps))
        bad, parts = maximal_rows(values, rates, g, t1, stages, cfg.tol, suite == "doob")
        raise_first(failed, gates, *bad)
        report.record_parts(parts, t.repeat(stages.steps), cfg.seed)
    return report


def run_hrc(cfg: RunConfig) -> VerificationReport:
    return _run_maximal(cfg, "hrc")


def run_doob(cfg: RunConfig) -> VerificationReport:
    return _run_maximal(cfg, "doob")


def run_bands(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "bands")
    # After the weights: f, g, then two families of at most 4 elements each.
    for batch in _batches(cfg, "bands", lambda n: 2 + 20 * n):
        starts, heads, n = batch.starts, batch.starts[:-1], batch.n
        f = batch.sparse(2.0, 0.6)
        g = batch.sparse(2.0, 0.6)
        value, stabilized_at, bound = sup_formula(g, f, starts)
        masked = np.where(g > 0.0, f, 0.0)  # f under the band projection of g, a mask
        same = np.logical_and.reduceat(value == masked, heads)
        apart = np.maximum.reduceat(np.abs(value - masked), heads)
        checks = [
            (same, np.where(same, 0.0, -apart), lambda t: f"sup-formula vs mask on {n[t]} atoms"),
            (
                stabilized_at <= bound,
                (bound - stabilized_at).astype(np.float64),
                lambda t: f"stabilized at {stabilized_at[t]}, bound {bound[t]}",
            ),
        ]
        family = batch.family(2.0, 0.6)
        checks += sup_identity_checks(family, starts)[0] + inf_inequality_checks(family, starts)[0]
        checks += exclusion_checks(batch.family(2.0, 0.7, lo=-2.0), starts)
        report.record_parts([checks], batch.trials, cfg.seed)
    return report


def run_ce_axioms(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "ce-axioms")
    for batch in _batches(cfg, "ce-axioms", _partition_words):
        # Trial t is trial 0 of verify_axioms(op, 1, derive_seed(cfg.seed,
        # "ce-axioms-inner", t), cfg.tol).
        first = int(batch.trials[0])
        inner = substream_seeds(len(batch.trials), cfg.seed, "ce-axioms-inner", first=first)
        seeds = derive_seeds(inner, "ce-axioms", 0)
        checks = axiom_checks(_ops(batch), seeds, np.zeros_like(batch.trials), cfg.tol)
        report.record_parts([checks], batch.trials, cfg.seed)
    return report


SUITES = {
    "holder": run_holder,
    "clarkson": run_clarkson,
    "jensen": run_jensen,
    "burkholder": run_burkholder,
    "telescoping": run_telescoping,
    "hrc": run_hrc,
    "doob": run_doob,
    "bands": run_bands,
    "ce-axioms": run_ce_axioms,
}

# Suites whose stated trial counts assume wider spaces than the global default.
SUITE_DIM_DEFAULT = {"clarkson": 32, "holder": 32, "jensen": 32}


def run_suite(cfg: RunConfig) -> VerificationReport:
    """Run one named suite, timing it into the report."""
    cfg.validate()
    if cfg.suite == "all":
        raise RieszmartError("run_suite runs a single suite; use run_all")
    start = time.perf_counter()
    report = SUITES[cfg.suite](cfg)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def run_all(cfg: RunConfig) -> list[VerificationReport]:
    cfg.validate()
    reports = []
    for name in SUITES:
        sub = replace(cfg, suite=name)
        reports.append(run_suite(sub))
    return reports
