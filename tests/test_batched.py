"""The trial-batched verify drivers against copies of the per-trial loops.

holder, clarkson, jensen, bands and ce-axioms draw the inputs of all their
trials in a few SplitMix64 passes and check them over ragged stacks, in
batches of about BLOCK_ELEMENTS atoms.  The copies below are the drivers,
samplers and checker bodies as they ran one trial at a time; they are the
reference.  Every report must come out with the same bytes, ±0.0 and
witnesses included, and every raising run must raise the same exception
type and message, on a grid fixed before comparing: trials 1, 2, 8 and 300,
block sizes that put batch boundaries inside a call, dim_max 1 to 32, the
default and a failing tolerance, exponents pinned at NumPy's sqrt and
square paths, and powers that overflow.
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rieszmart import (
    DEFAULT_TOL,
    ConditionalExpectationOp,
    LatticeElement,
    Partition,
    SampleSpace,
    Tolerance,
    apply_sup_formula_oracle,
    band_projection,
    check_exclusion_inequality,
    check_inf_inequality,
    check_sup_identity,
    clarkson,
    jensen_power,
    lattice,
    verify_axioms,
)
from rieszmart.conditional import lp_norm
from rieszmart.errors import BadExponent, ExponentMismatch
from rieszmart.lattice import compare, leq_with_tolerance, multiply, power, sup_many, inf_many
from rieszmart.reports import MAX_RECORDED_FAILURES, VerificationReport, dump_json
from rieszmart.rng import SplitMix64, derive_seed
from rieszmart.suites import SUITES, RunConfig, _fresh, run_suite

FAILING = Tolerance(abs=-1e-3, rel=0.0)

# --- the per-trial samplers --------------------------------------------------


def old_random_space(stream, dim_max):
    dim = 1 + stream.below(dim_max)
    if stream.next_float() < 0.5:
        return SampleSpace.uniform(dim)
    return SampleSpace(stream.uniforms(dim, 0.05, 1.0))


def old_random_element(stream, space, hi=2.0):
    return LatticeElement(space, stream.uniforms(space.n, -hi, hi))


def old_sparse(stream, space, lo, hi, keep):
    coords = stream.uniforms(space.n, lo, hi)
    kept = stream.floats(space.n) < keep
    return LatticeElement(space, np.where(kept, coords, 0.0))


def old_shuffled(stream, xs):
    xs = list(xs)
    for i in range(len(xs) - 1, 0, -1):
        j = stream.below(i + 1)
        xs[i], xs[j] = xs[j], xs[i]
    return xs


def old_random_partition(stream, space):
    n = space.n
    atoms = old_shuffled(stream, range(n))
    k = 1 + stream.below(n)
    cuts = sorted(old_shuffled(stream, range(1, n))[: k - 1])
    blocks, prev = [], 0
    for c in cuts + [n]:
        blocks.append(atoms[prev:c])
        prev = c
    return Partition(space, blocks)


# --- the single-instance checker bodies ----------------------------------------


def old_check_conjugate(p, q):
    for name, val in (("p", p), ("q", q)):
        if not val >= 1.0:
            raise BadExponent(f"{name} must be >= 1, got {val}")
    inv = (0.0 if p == math.inf else 1.0 / p) + (0.0 if q == math.inf else 1.0 / q)
    if abs(inv - 1.0) > 1e-12:
        raise ExponentMismatch(f"1/p + 1/q = {inv}, expected 1")


def old_norm_factor(elements, r, op):
    if r == math.inf:
        return sup_many([lp_norm(op, x, math.inf) for x in elements])
    total = op.space.zero()
    for x in elements:
        total = total + op.apply(power(x.abs(), r))
    return power(total, 1.0 / r)


def old_holder_sums(x_list, y_list, p, q, op, tol=DEFAULT_TOL):
    old_check_conjugate(p, q)
    report = VerificationReport(suite="holder", trials=1, tol=tol)
    lhs = op.space.zero()
    for x, y in zip(x_list, y_list):
        lhs = lhs + op.apply(multiply(x, y).abs())
    rhs = multiply(old_norm_factor(x_list, p, op), old_norm_factor(y_list, q, op))
    check = leq_with_tolerance(lhs, rhs, tol)
    report.record(check.ok, check.margin, f"pairs={len(x_list)} p={p} atom={check.atom}")
    return report


def old_clarkson(x, y, p, tol=DEFAULT_TOL):
    p = float(p)
    if not 1.0 <= p <= 2.0:
        raise BadExponent(f"Clarkson range is 1 <= p <= 2, got {p}")
    report = VerificationReport(suite="clarkson", trials=1, tol=tol)
    lhs = power((x + y).abs(), p) + power((x - y).abs(), p)
    plain = 2.0 * (power(x.abs(), p) + power(y.abs(), p))
    sharper = 2.0 * power(multiply(x, x) + multiply(y, y), p / 2.0)
    main = leq_with_tolerance(lhs, plain, tol)
    report.record(main.ok, main.margin, f"p={p} plain bound atom={main.atom}")
    mid = leq_with_tolerance(lhs, sharper, tol)
    report.record(mid.ok, mid.margin, f"p={p} quadratic-mean bound atom={mid.atom}")
    return report


def old_jensen_power(f, p, op, tol=DEFAULT_TOL):
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise BadExponent(f"Jensen power bound needs finite p >= 1, got {p}")
    report = VerificationReport(suite="jensen", trials=1, tol=tol)
    lhs = power(op.apply(f).abs(), p)
    rhs = op.apply(power(f.abs(), p))
    check = leq_with_tolerance(lhs, rhs, tol)
    report.record(check.ok, check.margin, f"p={p} atom={check.atom}")
    return report


def old_eq_check(a, b, tol):
    lhs, rhs = np.stack([a.coords, b.coords]), np.stack([b.coords, a.coords])
    misses, margin, atom = compare(lhs, rhs, tol.slack(lhs, rhs))
    worse = int(margin[1] < margin[0])
    return (not misses.any(), float(margin[worse]), int(atom[worse]))


def old_verify_axioms(op, trials=100, seed=0, tol=DEFAULT_TOL):
    report = VerificationReport(suite="ce-axioms", trials=trials, seed=seed, tol=tol)
    space = op.space
    e, zero = space.unit(), space.zero()
    for t in range(trials):
        stream = SplitMix64(derive_seed(seed, "ce-axioms", t))
        f = LatticeElement(space, stream.uniforms(space.n, -2.0, 2.0))
        g = LatticeElement(space, stream.uniforms(space.n, -2.0, 2.0))
        alpha = stream.uniform(-2.0, 2.0)
        beta = stream.uniform(-2.0, 2.0)
        lin = old_eq_check(
            op.apply(alpha * f + beta * g), alpha * op.apply(f) + beta * op.apply(g), tol
        )
        report.record(lin[0], lin[1], f"trial {t}: linearity at atom {lin[2]}", t, seed)
        pos = leq_with_tolerance(zero, op.apply(f.abs()), tol)
        report.record(pos.ok, pos.margin, f"trial {t}: positivity at atom {pos.atom}", t, seed)
        idem = old_eq_check(op.apply(op.apply(f)), op.apply(f), tol)
        report.record(idem[0], idem[1], f"trial {t}: idempotence at atom {idem[2]}", t, seed)
        unit = old_eq_check(op.apply(e), e, tol)
        report.record(unit[0], unit[1], f"trial {t}: unit preservation at atom {unit[2]}", t, seed)
        pinned = np.array(f.coords)
        k = stream.below(space.n)
        pinned[k] = stream.uniform(0.5, 1.5) * (1.0 if stream.next_float() < 0.5 else -1.0)
        peak = op.apply(LatticeElement(space, pinned).abs()).max_abs()
        witness = f"trial {t}: strict positivity (max T|f| = {peak})"
        report.record(peak > 0.0, peak, witness, t, seed)
        avg = old_eq_check(
            op.apply(multiply(op.apply(f), g)), multiply(op.apply(f), op.apply(g)), tol
        )
        report.record(avg[0], avg[1], f"trial {t}: averaging identity at atom {avg[2]}", t, seed)
    return report


def old_oracle(g, f):
    """(value, stabilized_at, bound) of the sup formula, scanned step by step."""
    positive = g.coords[g.coords > 0.0]
    bound = 1
    if positive.size:
        top, low = float(f.coords.max()), float(positive.min())
        if top > 2.0**52 * low:
            raise ValueError(f"sup formula needs max f / min positive g <= 2^52, got {top} / {low}")
        bound = int(np.ceil(top / low)) + 1

    def stage(n):
        with np.errstate(over="ignore"):
            return np.minimum(f.coords, n * g.coords)

    n = 1
    while not np.array_equal(stage(n), stage(n + 1)):
        n += 1
    return stage(n), n, bound


def old_sup_identity(generators):
    report = VerificationReport(suite="bands-join", trials=1)
    union = np.any([band_projection(g).mask for g in generators], axis=0)
    joined = band_projection(sup_many(generators))
    ok = np.array_equal(union, joined.mask)
    witness = f"union={np.flatnonzero(union).tolist()} vs join-support={list(joined.support)}"
    report.record(ok, 0.0 if ok else -1.0, witness)
    report.details["support_size"] = len(joined.support)
    return report


def old_inf_inequality(generators):
    report = VerificationReport(suite="bands-meet", trials=1)
    inter = np.all([band_projection(g).mask for g in generators], axis=0)
    met = band_projection(inf_many(generators)).mask
    ok = not np.any(met & ~inter)
    witness = (
        f"meet-support={np.flatnonzero(met).tolist()}"
        f" not within intersection={np.flatnonzero(inter).tolist()}"
    )
    report.record(ok, 0.0 if ok else -1.0, witness)
    report.details["strict"] = bool(np.any(met != inter))
    return report


def old_exclusion(elements):
    report = VerificationReport(suite="bands-exclusion", trials=1)
    pos_join = band_projection(sup_many([g.pos_part() for g in elements]))
    neg_meet = band_projection(inf_many([g.neg_part() for g in elements]))
    overlap = np.flatnonzero(pos_join.mask & neg_meet.mask).tolist()
    margin = 0.0 if not overlap else -float(len(overlap))
    report.record(not overlap, margin, f"overlapping atoms: {overlap}")
    ok_op = pos_join.leq(neg_meet.complement())
    report.record(ok_op, 0.0 if ok_op else -1.0, "projection not below complement")
    return report


# --- the per-trial drivers ---------------------------------------------------


def old_run_holder(cfg):
    report = _fresh(cfg, "holder")
    lo, hi = cfg.p_range(1.01, 10.0)
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "holder", t))
        space = old_random_space(stream, cfg.dim_max)
        op = ConditionalExpectationOp(old_random_partition(stream, space))
        pairs = 1 + stream.below(4)
        mode = t % 4
        if mode == 2:
            p, q = 1.0, float("inf")
        elif mode == 3:
            p, q = float("inf"), 1.0
        else:
            p = stream.uniform(lo, hi)
            q = p / (p - 1.0)
        xs = [old_random_element(stream, space) for _ in range(pairs)]
        ys = [old_random_element(stream, space) for _ in range(pairs)]
        report.absorb(old_holder_sums(xs, ys, p, q, op, cfg.tol), t, cfg.seed)
    return report


def old_run_clarkson(cfg):
    report = _fresh(cfg, "clarkson")
    lo, hi = cfg.p_range(1.0, 2.0)
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "clarkson", t))
        space = old_random_space(stream, cfg.dim_max)
        if t % 10 == 0:
            p = lo
        elif t % 10 == 5:
            p = hi
        else:
            p = stream.uniform(lo, hi)
        x = old_random_element(stream, space)
        y = old_random_element(stream, space)
        report.absorb(old_clarkson(x, y, p, cfg.tol), t, cfg.seed)
    return report


def old_run_jensen(cfg):
    report = _fresh(cfg, "jensen")
    lo, hi = cfg.p_range(1.0, 4.0)
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "jensen", t))
        space = old_random_space(stream, cfg.dim_max)
        op = ConditionalExpectationOp(old_random_partition(stream, space))
        p = lo if t % 5 == 0 else stream.uniform(lo, hi)
        f = old_random_element(stream, space)
        report.absorb(old_jensen_power(f, p, op, cfg.tol), t, cfg.seed)
    return report


def old_run_bands(cfg):
    report = _fresh(cfg, "bands")
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "bands", t))
        space = old_random_space(stream, cfg.dim_max)
        f = old_sparse(stream, space, 0.0, 2.0, 0.6)
        g = old_sparse(stream, space, 0.0, 2.0, 0.6)
        value, stabilized_at, bound = old_oracle(g, f)
        masked = band_projection(g).apply(f)
        same = bool(np.array_equal(value, masked.coords))
        report.record(
            same,
            0.0 if same else -float(np.max(np.abs(value - masked.coords))),
            f"sup-formula vs mask on {space.n} atoms",
            t,
            cfg.seed,
        )
        report.record(
            stabilized_at <= bound,
            float(bound - stabilized_at),
            f"stabilized at {stabilized_at}, bound {bound}",
            t,
            cfg.seed,
        )
        family = [old_sparse(stream, space, 0.0, 2.0, 0.6) for _ in range(2 + stream.below(3))]
        report.absorb(old_sup_identity(family), t, cfg.seed)
        report.absorb(old_inf_inequality(family), t, cfg.seed)
        signed = [old_sparse(stream, space, -2.0, 2.0, 0.7) for _ in range(2 + stream.below(3))]
        report.absorb(old_exclusion(signed), t, cfg.seed)
    return report


def old_run_ce_axioms(cfg):
    report = _fresh(cfg, "ce-axioms")
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "ce-axioms", t))
        space = old_random_space(stream, cfg.dim_max)
        op = ConditionalExpectationOp(old_random_partition(stream, space))
        sub = old_verify_axioms(op, trials=1, seed=derive_seed(cfg.seed, "ce-axioms-inner", t))
        report.absorb(sub, t, cfg.seed)
    return report


OLD = {
    "holder": old_run_holder,
    "clarkson": old_run_clarkson,
    "jensen": old_run_jensen,
    "bands": old_run_bands,
    "ce-axioms": old_run_ce_axioms,
}


def outcome(run, cfg):
    """The report's bytes without elapsed_ms, or the exception's type and message."""
    try:
        report = run(cfg)
    except Exception as exc:  # the comparison is the point
        return f"{type(exc).__name__}: {exc}"
    report.elapsed_ms = 0.0
    return dump_json(report.to_json_dict())


def old_outcome(suite, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the loops overflowed with warnings
        return outcome(OLD[suite], cfg)


BLOCKS = (65536, 64, 7, 1)
BLOCK_AT_300 = {1: 1, 2: 7, 16: 64, 32: 65536}  # one block size per dim at 300 trials


@pytest.mark.parametrize("suite", sorted(OLD))
@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
def test_batched_drivers_match_the_per_trial_loops(suite, tol, monkeypatch):
    failures = 0
    for trials in (1, 2, 8, 300):
        for dim_max in (1, 2, 16, 32):
            seed = trials + dim_max
            cfg = RunConfig(suite=suite, trials=trials, seed=seed, dim_max=dim_max, tol=tol)
            old = old_outcome(suite, cfg)
            for block in BLOCKS if trials < 300 else (BLOCK_AT_300[dim_max],):
                monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block)
                assert outcome(run_suite, cfg) == old, (trials, dim_max, block)
            failures += '"failure_count": 0,' not in old
    # The failing tolerance is seen by the suites that take one.
    assert (failures > 0) == (tol is FAILING and suite not in ("bands", "ce-axioms"))


def test_the_failure_cap_and_count_match_the_per_trial_loops(monkeypatch):
    for suite in ("holder", "clarkson", "jensen"):
        cfg = RunConfig(suite=suite, trials=400, seed=9, dim_max=16, tol=FAILING)
        old = old_outcome(suite, cfg)
        assert json.loads(old)["failure_count"] > MAX_RECORDED_FAILURES
        assert len(json.loads(old)["failures"]) == MAX_RECORDED_FAILURES
        monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", 100)
        assert outcome(run_suite, cfg) == old


@pytest.mark.parametrize(
    "suite, p_min, p_max",
    [
        ("holder", 2.0, 2.0),
        ("holder", 1.0, 1.0),  # p = 1 gives q = p / 0 in modes 0 and 1
        ("holder", None, 1e6),
        ("holder", 0.5, 3.0),
        ("clarkson", 1.0, 1.0),  # NumPy's sqrt path at p / 2
        ("clarkson", 2.0, 2.0),  # its square path at p
        ("clarkson", None, 1e6),
        ("clarkson", 0.5, 2.0),
        ("jensen", 1.0, 1.0),
        ("jensen", 2.0, 2.0),
        ("jensen", 0.5, 0.5),
        ("jensen", None, 1e6),  # powers overflow
        ("jensen", 3.0, 0.5),  # p below 1 only in drawn trials
    ],
)
def test_pinned_and_overflowing_exponents_match_the_per_trial_loops(
    suite, p_min, p_max, monkeypatch
):
    for seed in (1, 2, 3):
        for dim_max in (2, 32):
            cfg = RunConfig(suite=suite, trials=40, seed=seed, dim_max=dim_max, tol=FAILING)
            cfg = replace(cfg, p_min=p_min, p_max=p_max)
            old = old_outcome(suite, cfg)
            for block in (65536, 64, 1):
                monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block)
                assert outcome(run_suite, cfg) == old, (seed, dim_max, block)


def test_overflowing_jensen_raises_from_the_first_failing_trial():
    cfg = RunConfig(suite="jensen", trials=40, seed=1, dim_max=32, p_max=1e6)
    assert old_outcome("jensen", cfg) == "ValueError: coordinates must be finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coordinates must be finite"):
            run_suite(cfg)


# --- the single-instance checkers, as one-trial cases ---------------------------


def same(new, old):
    assert dump_json(new.to_json_dict()) == dump_json(old.to_json_dict())


@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
def test_single_instance_checkers_match_their_old_bodies(tol):
    stream = SplitMix64(77)
    for trial in range(150):
        space = old_random_space(stream, 12)
        op = ConditionalExpectationOp(old_random_partition(stream, space))
        x, y = old_random_element(stream, space), old_random_element(stream, space)
        p = (1.0, 2.0, stream.uniform(1.0, 2.0))[trial % 3]
        same(clarkson(x, y, p, tol), old_clarkson(x, y, p, tol))
        same(jensen_power(x, 2 * p, op, tol), old_jensen_power(x, 2 * p, op, tol))
        same(verify_axioms(op, 3, trial, tol), old_verify_axioms(op, 3, trial, tol))
        g = old_sparse(stream, space, 0.0, 2.0, 0.6)
        f = old_sparse(stream, space, 0.0, 2.0, 0.6)
        result = apply_sup_formula_oracle(g, f)
        value, stabilized_at, bound = old_oracle(g, f)
        assert result.value.coords.tobytes() == value.tobytes()
        assert (result.stabilized_at, result.bound) == (stabilized_at, bound)
        family = [old_sparse(stream, space, 0.0, 2.0, 0.6) for _ in range(1 + trial % 4)]
        same(check_sup_identity(family), old_sup_identity(family))
        same(check_inf_inequality(family), old_inf_inequality(family))
        signed = [old_sparse(stream, space, -2.0, 2.0, 0.7) for _ in range(1 + trial % 4)]
        same(check_exclusion_inequality(signed), old_exclusion(signed))


def test_verify_axioms_over_several_blocks_matches_its_old_body(monkeypatch):
    space = SampleSpace(np.linspace(0.2, 1.0, 7))
    op = ConditionalExpectationOp(Partition(space, [[0, 3], [1, 2, 6], [4], [5]]))
    old = old_verify_axioms(op, 30, 5, FAILING)
    assert old.failure_count > MAX_RECORDED_FAILURES
    for block in (65536, 20, 1):
        monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block)
        same(verify_axioms(op, 30, 5, FAILING), old)


# --- trial independence --------------------------------------------------------


# Trials per suite that record some failures at the failing tolerance, but
# fewer than 50 (bands and ce-axioms do not take the tolerance).
INDEPENDENCE_TRIALS = {"holder": 40, "doob": 6}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_run_records_the_failures_its_trials_record_in_a_longer_run(
    suite, lenient_gates, monkeypatch
):
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", 64)
    trials = INDEPENDENCE_TRIALS.get(suite, 10)
    cfg = RunConfig(suite=suite, trials=trials, seed=21, dim_max=5, steps_max=3, tol=FAILING)
    short = run_suite(cfg)
    longer = run_suite(replace(cfg, trials=trials + 5))
    assert short.failure_count == len(short.failures) < MAX_RECORDED_FAILURES
    earlier = [f.to_json_dict() for f in longer.failures if f.trial < trials]
    assert [f.to_json_dict() for f in short.failures] == earlier
    assert (short.failure_count > 0) == (suite not in ("bands", "ce-axioms"))
