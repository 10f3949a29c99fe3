"""Randomized trial drivers behind the `verify` command.

Every driver takes a RunConfig and returns one aggregated VerificationReport.
Trial t of suite S draws all of its randomness from the substream keyed by
(seed, S, t), so a single seed reproduces every trial regardless of how many
trials run or in what order.  Reports echo the effective configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .bands import (
    apply_sup_formula_oracle,
    band_projection,
    check_exclusion_inequality,
    check_inf_inequality,
    check_sup_identity,
)
from .conditional import (
    ConditionalExpectationOp,
    Filtration,
    Partition,
    verify_axioms,
)
from .errors import RieszmartError
from .inequalities import (
    burkholder_ratio,
    clarkson,
    doob_maximal,
    holder_sums,
    hrc_maximal,
    jensen_power,
    telescoping_bound,
)
from .lattice import DEFAULT_TOL, LatticeElement, SampleSpace, Tolerance
from .processes import (
    GeneratorConfig,
    _split_largest_chain,
    generate_mds,
    generate_submartingale,
)
from .reports import VerificationReport
from .rng import SplitMix64, derive_seed

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
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "dim_max": self.dim_max,
            "steps_max": self.steps_max,
            "p_min": self.p_min,
            "p_max": self.p_max,
            "tol": self.tol.to_json_dict(),
            "horizon": self.horizon,
        }


# ---------------------------------------------------------------------------
# sampling helpers


def _random_space(stream: SplitMix64, dim_max: int) -> SampleSpace:
    dim = 1 + stream.below(dim_max)
    if stream.next_float() < 0.5:
        return SampleSpace.uniform(dim)
    return SampleSpace(stream.uniforms(dim, 0.05, 1.0))


def _random_element(stream: SplitMix64, space: SampleSpace, hi: float = 2.0) -> LatticeElement:
    return LatticeElement(space, stream.uniforms(space.n, -hi, hi))


def _sparse_nonneg(stream: SplitMix64, space: SampleSpace, hi: float = 2.0) -> LatticeElement:
    """Nonnegative draw with exact zeros, so band supports are interesting."""
    coords = stream.uniforms(space.n, 0.0, hi)
    keep = stream.floats(space.n) < 0.6
    return LatticeElement(space, np.where(keep, coords, 0.0))


def _sparse_signed(stream: SplitMix64, space: SampleSpace, hi: float = 2.0) -> LatticeElement:
    coords = stream.uniforms(space.n, -hi, hi)
    keep = stream.floats(space.n) < 0.7
    return LatticeElement(space, np.where(keep, coords, 0.0))


def _shuffled(stream: SplitMix64, xs: list) -> list:
    xs = list(xs)
    for i in range(len(xs) - 1, 0, -1):
        j = stream.below(i + 1)
        xs[i], xs[j] = xs[j], xs[i]
    return xs


def _random_partition(stream: SplitMix64, space: SampleSpace) -> Partition:
    n = space.n
    atoms = _shuffled(stream, range(n))
    k = 1 + stream.below(n)
    cuts = sorted(_shuffled(stream, range(1, n))[: k - 1])
    blocks, prev = [], 0
    for c in cuts + [n]:
        blocks.append(atoms[prev:c])
        prev = c
    return Partition(space, blocks)


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
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "holder", t))
        space = _random_space(stream, cfg.dim_max)
        op = ConditionalExpectationOp(_random_partition(stream, space))
        pairs = 1 + stream.below(4)
        mode = t % 4
        if mode == 2:
            p, q = 1.0, float("inf")
        elif mode == 3:
            p, q = float("inf"), 1.0
        else:
            p = stream.uniform(lo, hi)
            q = p / (p - 1.0)
        xs = [_random_element(stream, space) for _ in range(pairs)]
        ys = [_random_element(stream, space) for _ in range(pairs)]
        report.absorb(holder_sums(xs, ys, p, q, op, cfg.tol), t, cfg.seed)
    return report


def run_clarkson(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "clarkson")
    lo, hi = cfg.p_range(1.0, 2.0)
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "clarkson", t))
        space = _random_space(stream, cfg.dim_max)
        if t % 10 == 0:
            p = lo
        elif t % 10 == 5:
            p = hi
        else:
            p = stream.uniform(lo, hi)
        x = _random_element(stream, space)
        y = _random_element(stream, space)
        report.absorb(clarkson(x, y, p, cfg.tol), t, cfg.seed)
    return report


def run_jensen(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "jensen")
    lo, hi = cfg.p_range(1.0, 4.0)
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "jensen", t))
        space = _random_space(stream, cfg.dim_max)
        op = ConditionalExpectationOp(_random_partition(stream, space))
        p = lo if t % 5 == 0 else stream.uniform(lo, hi)
        f = _random_element(stream, space)
        report.absorb(jensen_power(f, p, op, cfg.tol), t, cfg.seed)
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
            xs = [_random_element(stream, space) for _ in range(count)]
        else:
            gen = _generator_for(cfg, "telescoping", t, stream)
            mode = "positive-part" if t % 2 == 0 else "drift"
            proc = generate_submartingale(gen, mode)
            space = proc.space
            xs = [proc[i] for i in range(len(proc))]
        hi = 1.0 + float(np.sqrt(len(xs)))
        g = _sparse_nonneg(stream, space, hi)
        report.absorb(telescoping_bound(xs, g, cfg.tol), t, cfg.seed)
    return report


def run_hrc(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "hrc")
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "hrc", t))
        gen = _generator_for(cfg, "hrc", t, stream)
        filt = None
        if stream.next_float() < 0.5:
            # Nontrivial first stage: threshold lives on a coarse partition.
            base = _random_space(stream, cfg.dim_max)
            filt = _refining_filtration(stream, base, gen.steps)
        mode = "positive-part" if t % 2 == 0 else "drift"
        proc = generate_submartingale(gen, mode, filt)
        a = _rates_for(t, len(proc))
        g = _block_constant_nonneg(
            stream, proc.filtration[0], 1.0 + float(np.sqrt(len(proc)))
        )
        report.absorb(hrc_maximal(proc, a, g, cfg.tol), t, cfg.seed)
    return report


def run_doob(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "doob")
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "doob", t))
        gen = _generator_for(cfg, "doob", t, stream)
        filt = None
        if stream.next_float() < 0.5:
            base = _random_space(stream, cfg.dim_max)
            filt = _refining_filtration(stream, base, gen.steps)
        mode = "positive-part" if t % 2 == 0 else "drift"
        proc = generate_submartingale(gen, mode, filt)
        g = _block_constant_nonneg(
            stream, proc.filtration[0], 1.0 + float(np.sqrt(len(proc)))
        )
        report.absorb(doob_maximal(proc, g, cfg.tol), t, cfg.seed)
    return report


def run_bands(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "bands")
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "bands", t))
        space = _random_space(stream, cfg.dim_max)
        f = _sparse_nonneg(stream, space)
        g = _sparse_nonneg(stream, space)
        oracle = apply_sup_formula_oracle(g, f)
        masked = band_projection(g).apply(f)
        same = bool(np.array_equal(oracle.value.coords, masked.coords))
        report.record(
            same,
            0.0 if same else -float(np.max(np.abs(oracle.value.coords - masked.coords))),
            f"sup-formula vs mask on {space.n} atoms",
            t,
            cfg.seed,
        )
        within = oracle.stabilized_at <= oracle.bound
        report.record(
            within,
            float(oracle.bound - oracle.stabilized_at),
            f"stabilized at {oracle.stabilized_at}, bound {oracle.bound}",
            t,
            cfg.seed,
        )
        family = [_sparse_nonneg(stream, space) for _ in range(2 + stream.below(3))]
        report.absorb(check_sup_identity(family), t, cfg.seed)
        report.absorb(check_inf_inequality(family), t, cfg.seed)
        signed = [_sparse_signed(stream, space) for _ in range(2 + stream.below(3))]
        report.absorb(check_exclusion_inequality(signed), t, cfg.seed)
    return report


def run_ce_axioms(cfg: RunConfig) -> VerificationReport:
    report = _fresh(cfg, "ce-axioms")
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "ce-axioms", t))
        space = _random_space(stream, cfg.dim_max)
        op = ConditionalExpectationOp(_random_partition(stream, space))
        sub = verify_axioms(op, trials=1, seed=derive_seed(cfg.seed, "ce-axioms-inner", t))
        report.absorb(sub, t, cfg.seed)
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
