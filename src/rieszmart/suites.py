"""Randomized trial drivers behind the `verify` command.

Every driver takes a RunConfig and returns one aggregated VerificationReport.
Trial t of suite S draws all of its randomness from the substream keyed by
(seed, S, t), so a single seed reproduces every trial regardless of how many
trials run or in what order.  Reports echo the effective configuration.

holder, clarkson, jensen, bands and ce-axioms take their trials in batches of
about lattice.BLOCK_ELEMENTS atoms.  One SplitMix64 pass draws words 1 and 2
of every trial's substream (its dimension and weight mode), and a second
draws every later word the trial can use on that many atoms; a trial that
uses fewer leaves the rest of its own substream unread.  The floats are read
back per trial with the scalar generator's arithmetic (rng.Streams).  Each
check then runs once over the batch: the trials' atoms laid end to end, block
ids offset per trial, and per-trial outcomes from segment reductions, which
are recorded trial by trial.  holder keeps one holder_sums call per trial on
the batch's draws, the checker span per trial that perfbench's tracer
counts.  The other suites draw and check one trial at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .bands import exclusion_checks, inf_inequality_checks, sup_formula, sup_identity_checks
from .conditional import (
    ConditionalExpectationOp,
    Filtration,
    Partition,
    RaggedOps,
    axiom_checks,
)
from .errors import RieszmartError
from .inequalities import (
    _telescoping_rows,
    burkholder_ratio,
    clarkson_checks,
    doob_maximal,
    holder_sums,
    hrc_maximal,
    jensen_checks,
)
from .lattice import DEFAULT_TOL, LatticeElement, SampleSpace, Tolerance, normalized, row_blocks
from .processes import (
    GeneratorConfig,
    _split_largest_chain,
    generate_mds,
    generate_submartingale,
)
from .reports import VerificationReport
from .rng import (
    SplitMix64,
    Streams,
    below,
    derive_seed,
    derive_seeds,
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
    horizon: int = 10_000
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
        return (lo if self.p_min is None else self.p_min,
                hi if self.p_max is None else self.p_max)

    def echo(self) -> dict:
        """Every field but where and how the report is written."""
        echo = {f.name: getattr(self, f.name) for f in fields(self)}
        del echo["output"], echo["format"]
        return echo | {"tol": self.tol.to_json_dict()}


# ---------------------------------------------------------------------------
# sampling helpers


def _random_space(stream: SplitMix64, dim_max: int) -> SampleSpace:
    dim = 1 + stream.below(dim_max)
    if stream.next_float() < 0.5:
        return SampleSpace.uniform(dim)
    return SampleSpace(stream.uniforms(dim, 0.05, 1.0))


def _sparse_nonneg(stream: SplitMix64, space: SampleSpace, hi: float = 2.0) -> LatticeElement:
    """Nonnegative draw with exact zeros, so band supports are interesting."""
    coords = stream.uniforms(space.n, 0.0, hi)
    keep = stream.floats(space.n) < 0.6
    return LatticeElement(space, np.where(keep, coords, 0.0))


def _partition_words(n):
    """How many floats _random_partition draws on n atoms: n - 1 for the
    atom shuffle, one for the block count and n - 2 for the cut shuffle."""
    return np.maximum(2 * np.asarray(n) - 2, 1)


def _partition_ids(floats: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The block ids of _random_partition for each trial, read from its
    _partition_words(n[t]) floats laid end to end: the ids of all trials
    concatenated, and each trial's number of blocks."""
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


def _random_partition(stream: SplitMix64, space: SampleSpace) -> Partition:
    n = np.array([space.n])
    ids, _ = _partition_ids(stream.floats(int(_partition_words(n)[0])), n)
    return Partition(space, block_id=ids)


def _refining_filtration(stream: SplitMix64, space: SampleSpace, steps: int) -> Filtration:
    """A refining chain starting from a random coarse stage."""
    if stream.next_float() < 0.5:
        first = Partition.single_block(space)
    else:
        first = _random_partition(stream, space)
    return _split_largest_chain(first, steps)


def _block_constant_nonneg(
    stream: SplitMix64, op: ConditionalExpectationOp, hi: float
) -> LatticeElement:
    # Broadcasting one draw per block keeps the element exactly block-constant.
    vals = stream.uniforms(op.partition.num_blocks, 0.0, hi)
    return LatticeElement(op.space, vals[op.partition.block_id])


def _rates_for(trial: int, length: int) -> np.ndarray:
    s = (0.0, 0.5, 1.0)[trial % 3]
    return np.arange(1, length + 1, dtype=np.float64) ** s


class _Batch:
    """Trials of one suite drawn together, each from its own substream, as
    the per-trial helpers above draw: a first pass takes words 1 and 2 of
    every trial (its dimension and weight mode), a second pass every later
    word the trial can use, words(n) of them on n atoms after its weights.
    Trial t's atoms are starts[t]:starts[t + 1] of every array over atoms."""

    def __init__(self, cfg: "RunConfig", suite: str, trials: range, words):
        head = substream_floats(np.full(len(trials), 2), cfg.seed, suite, first=trials.start)
        self.trials = np.arange(trials.start, trials.stop)
        self.n = 1 + below(head[0::2], cfg.dim_max)
        self.starts = np.concatenate(([0], np.cumsum(self.n)))
        drawn = np.where(head[1::2] < 0.5, 0, self.n)
        counts = drawn + words(self.n)
        self.draws = Streams(
            substream_floats(counts, cfg.seed, suite, first=trials.start, offsets=2), counts
        )
        self.weights = np.repeat(1.0 / self.n, self.n)
        self.weights[np.repeat(drawn > 0, self.n)] = self.draws.uniforms(drawn, 0.05, 1.0)
        for lo, hi in zip(self.starts[:-1].tolist(), self.starts[1:].tolist()):
            self.weights[lo:hi] = normalized(self.weights[lo:hi])

    def partitions(self) -> tuple[np.ndarray, np.ndarray]:
        """Each trial's _random_partition: block ids and block counts."""
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
            if m == 2:
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
        report.record_trials(clarkson_checks(x, y, p, batch.starts, cfg.tol), t, cfg.seed)
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
        report.record_trials(jensen_checks(f, p, ops, cfg.tol), batch.trials, cfg.seed)
    return report


def _generator_for(cfg: RunConfig, suite: str, t: int, stream: SplitMix64) -> GeneratorConfig:
    return GeneratorConfig(
        seed=derive_seed(cfg.seed, suite, "process", t),
        dim=1 + stream.below(cfg.dim_max),
        steps=1 + stream.below(cfg.steps_max),
        amplitude=1.0,
        weight_mode="uniform" if stream.next_float() < 0.5 else "random",
    )


def run_burkholder(cfg: RunConfig, p: float = 2.0) -> VerificationReport:
    report = _fresh(cfg, "burkholder")
    report.config["p"] = p
    ratio_min, ratio_max = float("inf"), float("-inf")
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "burkholder", t))
        gen = _generator_for(cfg, "burkholder", t, stream)
        diffs = generate_mds(gen)
        sub = burkholder_ratio(diffs, diffs.filtration[0], p, cfg.tol)
        report.absorb(sub, t, cfg.seed)
        if sub.details.get("ratio_min") is not None:
            ratio_min = min(ratio_min, sub.details["ratio_min"])
            ratio_max = max(ratio_max, sub.details["ratio_max"])
    report.details["ratio_min"] = None if ratio_min == float("inf") else ratio_min
    report.details["ratio_max"] = None if ratio_max == float("-inf") else ratio_max
    return report


def run_telescoping(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "telescoping")
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "telescoping", t))
        if t % 3 == 2:
            # The bound is pathwise and holds for arbitrary sequences too.
            space = _random_space(stream, cfg.dim_max)
            count = 1 + stream.below(cfg.steps_max)
            seq = np.array([stream.uniforms(space.n, -2.0, 2.0) for _ in range(count)])
        else:
            gen = _generator_for(cfg, "telescoping", t, stream)
            mode = "positive-part" if t % 2 == 0 else "drift"
            proc = generate_submartingale(gen, mode)
            space, seq = proc.space, proc.values
        g = _sparse_nonneg(stream, space, 1.0 + float(np.sqrt(len(seq))))
        report.absorb(_telescoping_rows(seq, g.coords, cfg.tol), t, cfg.seed)
    return report


def _maximal_trials(cfg: RunConfig, suite: str):
    """Trials t of the hrc and doob suites: (t, submartingale, threshold)."""
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, suite, t))
        gen = _generator_for(cfg, suite, t, stream)
        filt = None
        if stream.next_float() < 0.5:
            # Nontrivial first stage: threshold lives on a coarse partition.
            base = _random_space(stream, cfg.dim_max)
            filt = _refining_filtration(stream, base, gen.steps)
        mode = "positive-part" if t % 2 == 0 else "drift"
        proc = generate_submartingale(gen, mode, filt)
        g = _block_constant_nonneg(
            stream, proc.filtration[0], 1.0 + float(np.sqrt(len(proc)))
        )
        yield t, proc, g


def run_hrc(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "hrc")
    for t, proc, g in _maximal_trials(cfg, "hrc"):
        report.absorb(hrc_maximal(proc, _rates_for(t, len(proc)), g, cfg.tol), t, cfg.seed)
    return report


def run_doob(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "doob")
    for t, proc, g in _maximal_trials(cfg, "doob"):
        report.absorb(doob_maximal(proc, g, cfg.tol), t, cfg.seed)
    return report


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
        report.record_trials(checks, batch.trials, cfg.seed)
    return report


def run_ce_axioms(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "ce-axioms")
    for batch in _batches(cfg, "ce-axioms", _partition_words):
        # Trial t is trial 0 of verify_axioms(op, 1, derive_seed(cfg.seed,
        # "ce-axioms-inner", t)), at its default tolerance, not cfg.tol.
        first = int(batch.trials[0])
        inner = substream_seeds(len(batch.trials), cfg.seed, "ce-axioms-inner", first=first)
        seeds = derive_seeds(inner, "ce-axioms", 0)
        checks = axiom_checks(_ops(batch), seeds, np.zeros_like(batch.trials), DEFAULT_TOL)
        report.record_trials(checks, batch.trials, cfg.seed)
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
