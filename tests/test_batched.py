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

import functools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from chains import ScaledStages, scale_of, split_largest_chain, table_of, tamper

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
    holder_sums,
    jensen_power,
    lattice,
    verify_axioms,
)
from rieszmart.conditional import CompatibleTriple, lp_norm
from rieszmart.errors import (
    BadExponent,
    BadWeights,
    ExponentMismatch,
    GNotInRange,
    NotSubmartingale,
    SpaceMismatch,
)
from rieszmart.lattice import (
    compare,
    halving_fold,
    inf_many,
    leq_with_tolerance,
    multiply,
    power,
    require_finite,
    row_blocks,
    sup_many,
)
from rieszmart.processes import (
    MARTINGALE,
    SUBMARTINGALE,
    GeneratorConfig,
    ProcessSequence,
    classify,
    default_filtration,
    make_space,
    partial_sums,
    require_difference_sequence,
    square_function,
)
from rieszmart.reports import MAX_RECORDED_FAILURES, VerificationReport, dump_json
from rieszmart.rng import SplitMix64, derive_seed, substream_floats, substream_grid
from rieszmart.suites import SUITES, RunConfig, _fresh, run_burkholder, run_suite

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
            q = math.inf if p == 1.0 else p / (p - 1.0)  # mode 2's conjugate at p = 1
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
        sub = old_verify_axioms(op, 1, derive_seed(cfg.seed, "ce-axioms-inner", t), cfg.tol)
        report.absorb(sub, t, cfg.seed)
    return report


# --- the per-trial generated-process drivers, their checkers and generator ------
#
# burkholder, telescoping, hrc and doob draw a batch's trials together,
# generate every trial's rows in one binned pass over a table of block ids,
# and check them over ragged (trial * stage, atoms) rows.  Below are the
# drivers as they ran one trial at a time, the checker bodies they called and
# the generator as it ran for one process.


def old_generate_mds(cfg, filtration=None):
    if filtration is None:
        filtration = default_filtration(make_space(cfg), cfg.steps)
    return ProcessSequence(filtration, old_mds_rows(cfg, filtration))


def old_mds_rows(cfg, filtration) -> np.ndarray:
    """The (N, n) values of generate_mds, one row block at a time."""
    space, distinct, stage = filtration.space, filtration.distinct, filtration.stage
    group_blocks = np.array([op.partition.num_blocks for op in distinct])
    group_first = np.cumsum(group_blocks) - group_blocks
    block_weight = np.concatenate([op.ragged.block_weight for op in distinct])
    block_id = np.stack([op.partition.block_id for op in distinct])
    check_slack = 1e-12 * max(1.0, cfg.amplitude)
    out = np.empty((len(stage), space.n))
    # Only singletons refine singletons, so the rows whose stage and previous
    # stage both condition on the identity form a suffix: rows cut and on.
    # A refining chain never returns to a partition, so stage is sorted.  A
    # horizon of one block stays whole; a longer one restarts its blocks at
    # the cut, so every block lies on one side of it.
    blocks, cut = row_blocks(len(stage), space.n), len(stage)
    if len(blocks) > 1 and distinct[-1].is_identity:
        cut = min(int(stage.searchsorted(len(distinct) - 1)) + 1, cut)
        suffix = row_blocks(len(stage), space.n, start=cut)
        blocks = row_blocks(cut, space.n) + suffix
        # derive_seed(s, "mds-step", i) == derive_seed(derive_seed(s, "mds-step"), i)
        prefix = derive_seed(cfg.seed, "mds-step")
        # w and b tiled over a block, so no ufunc loops along the narrow axis,
        # and one work array for every block, so no block faults in fresh pages.
        reps = suffix[0].stop - cut if suffix else 0
        tiles = (np.tile(space.weights, reps), np.tile(distinct[-1].ragged.block_weight, reps))
        work = np.empty(reps * space.n, dtype=np.uint64)
    for rows in blocks:
        if rows.start >= cut:
            old_singleton_rows(cfg, prefix, tiles, work, out[rows], rows.start, check_slack)
            continue
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
        old_raise_residual(np.maximum.reduceat(np.abs(means), starts), lo, check_slack)
    return out


def old_singleton_rows(cfg, prefix, tiles, work, block, first, check_slack) -> None:
    """Steps first, first + 1, ... past the cut, written into block: Z drawn
    as one word grid, then Y = Z - (w Z)/b with b the identity's block
    weights, w and b tiled over a whole block.  That is the bincount path
    bit for bit: its 0.0 + w Z differs only where w Z is -0.0, and
    z - 0.0 == z - -0.0.  work holds the grid, then the products."""
    substream_grid(block, prefix, first=first, work=work)
    block *= 2 * cfg.amplitude
    block += -cfg.amplitude
    flat = block.reshape(-1)  # a view: out's row blocks are contiguous
    weights, block_weight = (tile[: flat.size] for tile in tiles)
    scratch = work[: flat.size].view(np.float64)
    np.multiply(flat, weights, out=scratch)
    scratch /= block_weight
    flat -= scratch
    np.multiply(flat, weights, out=scratch)
    scratch /= block_weight
    np.abs(scratch, out=scratch)
    if not np.max(scratch) <= check_slack:  # a NaN max is searched as well
        residuals = halving_fold(np.maximum, scratch.reshape(block.shape), 1)
        old_raise_residual(residuals, first, check_slack)


def old_raise_residual(residuals, first, check_slack) -> None:
    """AssertionError naming the first step whose residual max |T_{i-1} Y_i|
    exceeds check_slack; residuals[k] is that of step first + k."""
    over = np.flatnonzero(residuals > check_slack)
    if over.size:
        i = over[0]
        raise AssertionError(
            f"difference residual {residuals[i]} exceeds {check_slack} at step {first + i}"
        )


def old_generate_submartingale(cfg, mode="positive-part", filtration=None):
    sums = partial_sums(old_generate_mds(cfg, filtration))
    if mode == "positive-part":
        return ProcessSequence(sums.filtration, np.maximum(sums.values, 0.0))
    stream = SplitMix64(derive_seed(cfg.seed, "drift"))
    steps_drift = stream.uniforms(cfg.steps, 0.0, cfg.amplitude / 2.0)
    return ProcessSequence(sums.filtration, sums.values + np.cumsum(steps_drift)[:, None])


def old_burkholder_ratio(diffs, base, p, tol=DEFAULT_TOL):
    p = float(p)
    if not 1.0 < p < math.inf:
        raise BadExponent(f"ratio defined for 1 < p < inf, got {p}")
    require_difference_sequence(diffs, tol)
    CompatibleTriple(base, diffs.filtration)  # raises Incompatible
    report = VerificationReport(suite="burkholder", trials=1, tol=tol)
    sums = partial_sums(diffs)
    square = square_function(sums)
    a_side = base.apply_rows(np.abs(sums.values) ** p)
    b_side = base.apply_rows(square.values ** (p / 2.0))
    require_finite(a_side, b_side)
    if p == 2.0:
        ok, margin, worst = old_rows_agree(a_side.ravel(), b_side.ravel(), tol)
        n_idx, atom = np.unravel_index(worst, a_side.shape)
        report.record(bool(ok), float(margin), f"p=2 identity n={n_idx + 1} atom={atom}")
    positive = a_side > 0.0
    if np.any(positive):
        ratios = b_side[positive] / a_side[positive]
        report.details["ratio_min"] = float(ratios.min())
        report.details["ratio_max"] = float(ratios.max())
        finite = bool(np.all(np.isfinite(ratios)))
        report.record(finite, 0.0 if finite else -math.inf, "ratio finiteness")
    else:
        report.details["ratio_min"] = None
        report.details["ratio_max"] = None
    return report


def old_same_masks(prod, join):
    """Per stage n: (ok, margin, witness(n)) of product mask == join mask."""
    same = (prod == join).all(axis=1)
    return same, np.where(same, 0.0, -1.0), lambda n: (
        f"n={n} product-support {np.flatnonzero(prod[n - 1]).tolist()}"
        f" vs join-support {np.flatnonzero(join[n - 1]).tolist()}"
    )


def old_rows_leq(lhs, rhs, tol, label):
    """Per stage n: (ok, margin, witness(n)) of leq_with_tolerance on row n."""
    misses, margin, atom = compare(lhs, rhs, tol.slack(lhs, rhs))
    return misses == 0, margin, lambda n: f"n={n} {label} atom={atom[n - 1]}"


def old_rows_agree(a, b, tol):
    """Per row: (ok, -max|a - b|, first argmax of |a - b| - slack) of the
    two-sided comparison a = b within the slack.  The right side is -0.0 so
    that the margin of an exact agreement is -0.0, as -max|a - b| gives."""
    misses, margin, worst = compare(np.abs(a - b), -0.0, tol.slack(a, b))
    return misses == 0, margin, worst


def old_record_stages(report, first, second):
    """Record first, then second, at each stage n = 1..N in turn."""
    report.record_many(
        np.array((first[0], second[0])).T.ravel(),
        np.array((first[1], second[1])).T.ravel(),
        lambda i: (first, second)[i % 2][2](i // 2 + 1),
    )


def old_telescoping_rows(seq, g, tol):
    """telescoping_bound of the (N, n) stack seq of X_1..X_N and g's coordinates."""
    below, steps = g - seq, seq[1:] - seq[:-1]
    prod = np.logical_and.accumulate(np.maximum(below, 0.0) > 0.0, axis=0)
    join = np.maximum(g - np.maximum.accumulate(seq, axis=0), 0.0) > 0.0
    rhs_sum = np.cumsum(np.concatenate((seq[:1], np.where(prod[:-1], steps, 0.0))), axis=0)
    rhs = rhs_sum - np.where(prod, seq, 0.0)
    require_finite(below, steps, rhs)
    report = VerificationReport(suite="telescoping", trials=1, tol=tol)
    lhs = np.where(prod, 0.0, g)
    old_record_stages(report, old_same_masks(prod, join), old_rows_leq(lhs, rhs, tol, "bound"))
    return report


def old_hrc_pass(process, a_values, g, tol, suite):
    """hrc_maximal's report, plus T_1, Y+, join masks and right side for Doob."""
    label = classify(process, tol)
    if label not in (MARTINGALE, SUBMARTINGALE):
        raise NotSubmartingale(f"maximal inequality needs a (sub)martingale, got {label}")
    a = np.asarray(a_values, dtype=np.float64)
    if a.shape != (len(process),):
        raise BadWeights(f"need {len(process)} rate values, got shape {a.shape}")
    if not np.all(np.isfinite(a) & (a > 0.0)):
        raise BadWeights("rates must be strictly positive")
    if np.any(np.diff(a) < 0.0):
        raise BadWeights("rates must be nondecreasing")
    t1 = process.filtration[0]
    if g.space != process.space:
        raise SpaceMismatch("threshold on a different space")
    if np.any(g.coords < 0.0):
        raise GNotInRange("threshold must be nonnegative")
    if not t1.fixes_exactly(g):
        raise GNotInRange("threshold must be exactly block-constant for the base operator")
    scaled = process.values / a[:, None]
    pos = np.maximum(process.values, 0.0)
    excess = np.maximum(g.coords - scaled, 0.0)
    prod = np.logical_and.accumulate(excess > 0.0, axis=0)
    join = g.coords > np.maximum.accumulate(scaled, axis=0)
    steps = (pos[1:] - pos[:-1]) / a[1:, None]
    # One block sum for T_1 of the steps and of the rows (I - U_n) g.
    conditioned = t1.apply_array(np.concatenate((steps, np.where(prod, 0.0, g.coords))))
    rhs = np.cumsum(np.concatenate((pos[:1] / a[0], conditioned[: len(steps)])), axis=0)
    require_finite(excess, rhs)
    report = VerificationReport(suite=suite, trials=1, tol=tol)
    lhs = conditioned[len(steps) :]
    old_record_stages(report, old_same_masks(prod, join), old_rows_leq(lhs, rhs, tol, "bound"))
    return report, t1, pos, join, rhs


def old_hrc_maximal(process, a_values, g, tol=DEFAULT_TOL):
    return old_hrc_pass(process, a_values, g, tol, "hrc")[0]


def old_doob_maximal(process, g, tol=DEFAULT_TOL):
    report, t1, pos, join, rhs = old_hrc_pass(process, np.ones(len(process)), g, tol, "doob")
    conditioned = t1.apply_array(np.concatenate((pos, np.where(join, 0.0, g.coords))))
    telescoped, lhs = conditioned[: len(pos)], conditioned[len(pos) :]
    require_finite(telescoped)
    agree, margin, _ = old_rows_agree(rhs, telescoped, tol)
    agreement = (agree, margin, lambda n: f"n={n} telescoped-right-side agreement")
    old_record_stages(report, agreement, old_rows_leq(lhs, telescoped, tol, "telescoped bound"))
    return report


def old_generator_for(cfg, suite, t, stream):
    return GeneratorConfig(
        seed=derive_seed(cfg.seed, suite, "process", t),
        dim=1 + stream.below(cfg.dim_max),
        steps=1 + stream.below(cfg.steps_max),
        amplitude=1.0,
        weight_mode="uniform" if stream.next_float() < 0.5 else "random",
    )


def old_refining_filtration(stream, space, steps):
    if stream.next_float() < 0.5:
        first = Partition.single_block(space)
    else:
        first = old_random_partition(stream, space)
    return split_largest_chain(first, steps)


def old_run_burkholder(cfg, p=2.0):
    report = _fresh(cfg, "burkholder")
    report.config["p"] = p
    ratio_min, ratio_max = float("inf"), float("-inf")
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "burkholder", t))
        gen = old_generator_for(cfg, "burkholder", t, stream)
        diffs = old_generate_mds(gen)
        sub = old_burkholder_ratio(diffs, diffs.filtration[0], p, cfg.tol)
        report.absorb(sub, t, cfg.seed)
        if sub.details.get("ratio_min") is not None:
            ratio_min = min(ratio_min, sub.details["ratio_min"])
            ratio_max = max(ratio_max, sub.details["ratio_max"])
    report.details["ratio_min"] = None if ratio_min == float("inf") else ratio_min
    report.details["ratio_max"] = None if ratio_max == float("-inf") else ratio_max
    return report


def old_run_telescoping(cfg):
    report = _fresh(cfg, "telescoping")
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, "telescoping", t))
        if t % 3 == 2:
            space = old_random_space(stream, cfg.dim_max)
            count = 1 + stream.below(cfg.steps_max)
            seq = np.array([stream.uniforms(space.n, -2.0, 2.0) for _ in range(count)])
        else:
            gen = old_generator_for(cfg, "telescoping", t, stream)
            mode = "positive-part" if t % 2 == 0 else "drift"
            proc = old_generate_submartingale(gen, mode)
            space, seq = proc.space, proc.values
        g = old_sparse(stream, space, 0.0, 1.0 + float(np.sqrt(len(seq))), 0.6)
        report.absorb(old_telescoping_rows(seq, g.coords, cfg.tol), t, cfg.seed)
    return report


def old_maximal_trials(cfg, suite):
    for t in range(cfg.trials):
        stream = SplitMix64(derive_seed(cfg.seed, suite, t))
        gen = old_generator_for(cfg, suite, t, stream)
        filt = None
        if stream.next_float() < 0.5:
            base = old_random_space(stream, cfg.dim_max)
            filt = old_refining_filtration(stream, base, gen.steps)
        mode = "positive-part" if t % 2 == 0 else "drift"
        proc = old_generate_submartingale(gen, mode, filt)
        t1 = proc.filtration[0]
        vals = stream.uniforms(t1.partition.num_blocks, 0.0, 1.0 + float(np.sqrt(len(proc))))
        yield t, proc, LatticeElement(t1.space, vals[t1.partition.block_id])


def old_run_hrc(cfg):
    report = _fresh(cfg, "hrc")
    for t, proc, g in old_maximal_trials(cfg, "hrc"):
        rates = np.arange(1, len(proc) + 1, dtype=np.float64) ** (0.0, 0.5, 1.0)[t % 3]
        report.absorb(old_hrc_maximal(proc, rates, g, cfg.tol), t, cfg.seed)
    return report


def old_run_doob(cfg):
    report = _fresh(cfg, "doob")
    for t, proc, g in old_maximal_trials(cfg, "doob"):
        report.absorb(old_doob_maximal(proc, g, cfg.tol), t, cfg.seed)
    return report


OLD = {
    "holder": old_run_holder,
    "clarkson": old_run_clarkson,
    "jensen": old_run_jensen,
    "bands": old_run_bands,
    "ce-axioms": old_run_ce_axioms,
    "burkholder": old_run_burkholder,
    "telescoping": old_run_telescoping,
    "hrc": old_run_hrc,
    "doob": old_run_doob,
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


@pytest.mark.parametrize("suite", ["bands", "ce-axioms", "clarkson", "holder", "jensen"])
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
    assert (failures > 0) == (tol is FAILING and suite != "bands")


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
        ("holder", 1.0, 1.0),  # p = 1 takes q = inf in modes 0 and 1, as in mode 2
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
        ("jensen", 3.0, 0.5),  # an empty range: the same usage error from both
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


def holder_grid(stream, count):
    """(x_list, y_list, p, q, op) instances: 1-4 pairs on 1-32 atoms, p drawn
    with its conjugate, integer p and the pairs (1, inf) and (inf, 1)."""
    for trial in range(count):
        space = old_random_space(stream, 32)
        op = ConditionalExpectationOp(old_random_partition(stream, space))
        pairs = 1 + trial % 4
        xs = [old_random_element(stream, space) for _ in range(pairs)]
        ys = [old_random_element(stream, space) for _ in range(pairs)]
        p = (stream.uniform(1.01, 10.0), 1.0, math.inf, 2.0, 3.0)[trial % 5]
        q = {1.0: math.inf, math.inf: 1.0}[p] if p in (1.0, math.inf) else p / (p - 1.0)
        yield xs, ys, p, q, op


def raised(call, *args):
    """The type and message call raises, or None."""
    try:
        call(*args)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
def test_holder_sums_matches_its_old_body(tol):
    failures = 0
    for xs, ys, p, q, op in holder_grid(SplitMix64(19), 300):
        old = old_holder_sums(xs, ys, p, q, op, tol)
        same(holder_sums(xs, ys, p, q, op, tol), old)
        failures += old.failure_count
    assert (failures > 0) == (tol is FAILING)


def test_holder_sums_raises_what_it_raised():
    space = SampleSpace.uniform(3)
    op = ConditionalExpectationOp(Partition(space, [[0, 2], [1]]))
    e, big = space.unit(), LatticeElement(space, [1e200, 1.0, 2.0])
    other = SampleSpace.uniform(4).unit()
    lists = ValueError, "need equally many x and y elements, at least one pair"
    assert raised(holder_sums, [], [], 2.0, 2.0, op) == lists
    assert raised(holder_sums, [e], [e, e], 2.0, 2.0, op) == lists
    space_error = SpaceMismatch, "element on a different space than the operator"
    assert raised(holder_sums, [e], [other], 2.0, 2.0, op) == space_error
    for p, q in ((2.0, 3.0), (0.5, -1.0), (2.0, 0.5), (math.inf, math.inf), (1.0, 1.0)):
        expected = raised(old_check_conjugate, p, q)
        assert expected is not None and raised(holder_sums, [e], [e], p, q, op) == expected
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the old body overflowed with warnings
        old = raised(old_holder_sums, [big], [big], 2.0, 2.0, op)
    assert raised(holder_sums, [big], [big], 2.0, 2.0, op) == old == (
        ValueError, "coordinates must be finite"
    )


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
# fewer than 50 (bands does not take the tolerance).
INDEPENDENCE_TRIALS = {"holder": 40, "doob": 6, "ce-axioms": 6}


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
    assert (short.failure_count > 0) == (suite != "bands")


# --- the generated-process suites ------------------------------------------------

PROCESS_SUITES = ("burkholder", "telescoping", "hrc", "doob")


def process_outcomes(suite, cfg, old):
    """One outcome per run: burkholder at p = 2, 3 and 4, the others once."""
    if suite != "burkholder":
        return [old_outcome(suite, cfg) if old else outcome(run_suite, cfg)]
    run = old_run_burkholder if old else run_burkholder
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return [outcome(lambda c, p=p: run(c, p), cfg) for p in (2.0, 3.0, 4.0)]


@pytest.mark.parametrize("suite", PROCESS_SUITES)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
def test_process_suites_match_the_per_trial_loops(suite, tol, monkeypatch):
    failed = 0
    cases = [(trials, d, s) for trials in (1, 2, 8) for d in (1, 2, 16) for s in (1, 2, 20)]
    cases += [(300, 1, 20), (300, 2, 2), (300, 16, 1), (300, 16, 20)]
    for k, (trials, dim_max, steps_max) in enumerate(cases):
        seed = 1000 + k
        cfg = RunConfig(
            suite=suite, trials=trials, seed=seed, dim_max=dim_max, steps_max=steps_max, tol=tol
        )
        old = process_outcomes(suite, cfg, old=True)
        for block in BLOCKS if trials < 300 else (BLOCKS[k % len(BLOCKS)],):
            monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block)
            assert process_outcomes(suite, cfg, old=False) == old, (trials, dim_max, steps_max, block)
        failed += sum('"failure_count": 0,' not in o for o in old)
    # The failing tolerance is seen: it fails records, or raises from a gate.
    assert (failed > 0) == (tol is FAILING)


def long_horizon_cases():
    """The long_horizon workload's generator shapes, dim 8 at 10^4 and 10^5
    stages (the latter spans several row blocks past the singleton cut), and
    a random refining first stage."""
    for seed, steps in ((3, 10**4), (11, 10**5)):
        for weight_mode in ("uniform", "random"):
            cfg = GeneratorConfig(seed, 8, steps, 1.0, weight_mode)
            yield cfg, None
            stream = SplitMix64(derive_seed(seed, "first-stage"))
            yield cfg, old_refining_filtration(stream, make_space(cfg), steps)


def test_generators_at_the_long_horizon_shapes_match_the_per_trial_generator():
    from rieszmart.processes import generate_mds, generate_submartingale

    for cfg, filt in long_horizon_cases():
        assert generate_mds(cfg, filt).values.tobytes() == old_generate_mds(cfg, filt).values.tobytes()
        for mode in ("positive-part", "drift"):
            new = generate_submartingale(cfg, mode, filt).values
            assert new.tobytes() == old_generate_submartingale(cfg, mode, filt).values.tobytes()


def tampered_filtrations(seed):
    """Filtrations of several processes, some with a block weight that
    disagrees with the atom weights (the only way to fail the guard)."""
    stream = SplitMix64(seed)
    out = []
    for k in range(6):
        space = old_random_space(stream, 9)
        steps = 1 + stream.below(12)
        filt = old_refining_filtration(stream, space, steps)
        if stream.next_float() < 0.4 and len(filt.distinct) > 1:
            d = stream.below(len(filt.distinct))
            filt = tamper(filt, int(filt.stage.searchsorted(d)), 1.0 + 1e-3 * (1 + stream.below(3)))
        out.append((GeneratorConfig(seed + k, space.n, steps), filt))
    return out


def stages_of(*filtrations):
    """The stages of several filtrations of operators laid end to end, with
    the block-weight scales of any ScaledStages among them."""
    from rieszmart.conditional import Stages

    one = [f.stages for f in filtrations]
    groups = np.array([len(s.num_blocks) for s in one])
    n = np.concatenate([s.n for s in one])
    stages = Stages(
        n,
        np.concatenate([s.steps for s in one]),
        np.concatenate([s.weights for s in one]),
        np.concatenate([s.order + a for s, a in zip(one, np.cumsum(n) - n)]),
        np.concatenate([s.cut for s in one]),
        np.concatenate([s.num_blocks for s in one]),
        np.concatenate([s.stage + g for s, g in zip(one, np.cumsum(groups) - groups)]),
    )
    return ScaledStages(stages, np.concatenate([scale_of(s) for s in one]))


@pytest.mark.parametrize("block", [65536, 64, 7, 1])
def test_the_batched_generator_raises_what_the_per_trial_one_raises(block, monkeypatch):
    from rieszmart.processes import _mds_rows
    from rieszmart.rng import derive_seeds

    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block)
    raised = 0
    for seed in range(30):
        cases = tampered_filtrations(seed)
        old = []
        for cfg, filt in cases:
            try:
                old.append(old_generate_mds(cfg, filt).values)
            except AssertionError as exc:
                old.append(str(exc))
        stages = stages_of(*[filt for _, filt in cases])
        seeds = np.array([cfg.seed for cfg, _ in cases], dtype=np.uint64)
        values, (failed, error) = _mds_rows(stages, derive_seeds(seeds, "mds-step"), 1.0)
        for k, expected in enumerate(old):
            if isinstance(expected, str):
                raised += 1
                assert failed[k] and str(error(k)) == expected
                assert isinstance(error(k), AssertionError)
            else:
                assert not failed[k]
                assert stages.values(values, k).tobytes() == expected.tobytes()
    assert raised > 10


def old_binned_rows(stages, rows, prefix, amplitude, out):
    """processes._binned_rows as it conditioned its rows with bincounts of
    its own, row i binned by the blocks of stage i - 1: per-row bin
    offsets, the block weights read through a shifted index, both from the
    (D, n) table of stages."""
    from rieszmart.rng import seeds_at, stream_floats

    ids, id_starts, num_blocks, block_weight, _ = table_of(stages)
    weight_starts = np.cumsum(num_blocks) - num_blocks
    process, step, width = stages.rows(rows)
    group = stages.stage[rows]
    starts = np.cumsum(width) - width
    local = np.arange(int(width.sum())) - np.repeat(starts, width)
    counts = stages.num_blocks[group]
    first = np.cumsum(counts) - counts
    vals = stream_floats(seeds_at(prefix[process], step), counts)
    vals = -amplitude + 2 * amplitude * vals
    block = out[stages.elements[process[0]] + step[0] * width[0] :][: local.size]
    drawn = ids[np.repeat(id_starts[group], width) + local]
    np.take(vals, drawn + np.repeat(first, width), out=block, mode="clip")
    later = step > 0
    if not later.any():
        return np.zeros(0), process[later], step[later]
    prev = stages.stage[np.flatnonzero(later) + rows.start - 1]
    skip = int(np.argmax(later))
    at = slice(int(starts[skip]), None) if later[skip:].all() else np.repeat(later, width)
    width = width[later]
    sizes = stages.num_blocks[prev]
    first = np.cumsum(sizes) - sizes
    bins = ids[np.repeat(id_starts[prev], width) + local[at]]
    bins += np.repeat(first, width)
    shift = np.repeat(weight_starts[prev] - first, sizes)
    weight = block_weight[shift + np.arange(shift.size)]
    atom_weight = stages.weights[np.repeat(stages.atoms[process[later]], width) + local[at]]
    cond = block[at]
    scratch = cond * atom_weight
    means = np.bincount(bins, weights=scratch, minlength=weight.size) / weight
    np.take(means, bins, out=scratch, mode="clip")
    cond -= scratch
    np.multiply(cond, atom_weight, out=scratch)
    means = np.bincount(bins, weights=scratch, minlength=weight.size) / weight
    if not isinstance(at, slice):
        block[at] = cond
    return np.maximum.reduceat(np.abs(means), first), process[later], step[later]


@functools.cache
def maximal_batches():
    """The Stages and prefixes of hrc and doob batches (split-largest chains
    from single-block and random first partitions, uniform and random
    weights), as the suites generate them at the module block size, and
    each again with one partition's block weights scaled by 1.01
    (ScaledStages)."""
    from rieszmart import suites

    batches, real = [], suites._mds_rows

    def capture(stages, prefix, amplitude):
        batches.append((stages, prefix))
        return real(stages, prefix, amplitude)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites, "_mds_rows", capture)
        for seed, trials in ((0, 8), (1, 8), (2, 300), (3, 2), (4, 1)):
            for suite in ("hrc", "doob"):
                run_suite(RunConfig(suite=suite, trials=trials, seed=seed, dim_max=12, steps_max=15))
    stream = SplitMix64(2024)
    for s, prefix in list(batches):
        scale = np.ones(len(s.num_blocks))
        scale[stream.below(len(s.num_blocks))] = 1.01
        batches.append((ScaledStages(s, np.repeat(scale, s.num_blocks)), prefix))
    return batches


@pytest.mark.parametrize("block", [1, 7, 64, 65536])
def test_the_generator_matches_the_bincounts_it_replaced(block, monkeypatch):
    from rieszmart import processes

    batches = maximal_batches()
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block)
    interleaved = raised = 0
    for stages, prefix in batches:
        values, (failed, error) = processes._mds_rows(stages, prefix, 1.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(processes, "_binned_rows", old_binned_rows)
            old_values, (old_failed, old_error) = processes._mds_rows(stages, prefix, 1.0)
        assert values.tobytes() == old_values.tobytes()
        assert failed.tolist() == old_failed.tolist()
        assert [str(error(k)) for k in np.flatnonzero(failed)] == [
            str(old_error(k)) for k in np.flatnonzero(failed)
        ]
        raised += int(failed.sum())
        for rows in row_blocks(len(stages.stage), int(stages.n.max())):
            interleaved += bool((stages.rows(rows)[1][1:] == 0).any())
    # Tampered weights trip the guard, and with room for several rows a row
    # block interleaves first stages with later rows (the masked path).
    assert raised > 0 and (interleaved > 0 or block < 64)


def single_instances(count=80):
    """(process, rates, threshold) from the per-trial samplers."""
    for seed in range(count):
        cfg = RunConfig(trials=1, seed=seed, dim_max=1 + seed % 9, steps_max=1 + seed % 13)
        for t, proc, g in old_maximal_trials(cfg, "hrc"):
            rates = np.arange(1, len(proc) + 1, dtype=np.float64) ** (0.0, 0.5, 1.0)[seed % 3]
            yield proc, rates, g


@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
def test_single_process_checkers_match_their_old_bodies(tol):
    from rieszmart import burkholder_ratio, doob_maximal, hrc_maximal, telescoping_bound

    def both(new, old, *args):
        assert outcome(lambda a: new(*a), args) == outcome(lambda a: old(*a), args)

    for proc, rates, g in single_instances():
        both(hrc_maximal, old_hrc_maximal, proc, rates, g, tol)
        both(doob_maximal, old_doob_maximal, proc, g, tol)
        rows = [proc[i] for i in range(len(proc))]
        telescoped = lambda xs, g, tol: old_telescoping_rows(np.array([x.coords for x in xs]), g.coords, tol)
        both(telescoping_bound, telescoped, rows, g, tol)
        diffs = old_generate_mds(GeneratorConfig(len(proc), proc.space.n, len(proc)), proc.filtration)
        for p in (1.5, 2.0, 3.0):
            both(burkholder_ratio, old_burkholder_ratio, diffs, proc.filtration[0], p, tol)
