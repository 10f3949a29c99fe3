"""Long stacks in row blocks, against the whole-array bodies they replaced.

generate_mds, the experiments' componentwise checks, series_report,
decay_report and the four limit experiments process (N, n) stacks one row
block of lattice.BLOCK_ELEMENTS elements at a time, and the experiments keep
T_1's images as (N, k) stacks of block values.  The copies below are the
whole-array bodies on n atoms before those changes.  On a grid fixed in
advance, at the module block size and at block sizes small enough to put
block edges everywhere, every report must come out with the same bytes and
every overflow with the same error; so must a product that is not constant
on T_1's blocks, which keeps its n columns.  The memory tests bound the
traced peak of the long-horizon paths at N = 10^5 stages as multiples of the
values array.
"""

import math
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieszmart import (
    DEFAULT_TOL,
    GeneratorConfig,
    Tolerance,
    WeightSequence,
    checkpoint_schedule,
    classify,
    conditional,
    decay_report,
    default_filtration,
    generate_mds,
    generate_submartingale,
    is_difference_sequence,
    lattice,
    limits,
    partial_sums,
    require_difference_sequence,
    series_report,
)
from rieszmart.errors import RieszmartError
from rieszmart.lattice import compare, require_finite
from rieszmart.limits import SERIES_TAIL_REL
from rieszmart.processes import ProcessSequence, _stage_groups, make_space
from rieszmart.reports import (
    CheckSummary,
    DecaySequenceReport,
    ExperimentReport,
    SeriesReport,
    dump_json,
)
from rieszmart.rng import SplitMix64
from chains import refining_filtration

BLOCK_SIZES = [lattice.BLOCK_ELEMENTS, 1, 7, 64]
TOLS = [DEFAULT_TOL, Tolerance(abs=-1e-3)]


@pytest.fixture(params=BLOCK_SIZES, ids=lambda b: f"block{b}")
def block_elements(request, monkeypatch):
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", request.param)
    return request.param


@pytest.fixture
def lenient_gates(monkeypatch):
    """Hypothesis gates keep the default slack, so a negative one fails
    comparisons only (the copies below call them at the default)."""
    monkeypatch.setattr(limits, "classify", lambda proc, tol=None: classify(proc))
    gate = require_difference_sequence
    monkeypatch.setattr(limits, "require_difference_sequence", lambda proc, tol=None: gate(proc))


def outcome(run):
    """Report bytes, or the type and text of the exception raised."""
    try:
        return dump_json(run().to_json_dict())
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


# --- the whole-array bodies -------------------------------------------------


def old_decay_report(values, epsilon, verdict_index=None):
    count = values.shape[0]
    points = checkpoint_schedule(count)
    max_abs = np.max(np.abs(values), axis=1)
    suffix = np.maximum.accumulate(max_abs[::-1])[::-1]
    if verdict_index is None:
        verdict_index = len(points) - 1
    tail = [float(suffix[c - 1]) for c in points]
    return DecaySequenceReport(
        horizon=count,
        checkpoints=points,
        values=[[float(v) for v in values[c - 1]] for c in points],
        max_abs=[float(max_abs[c - 1]) for c in points],
        tail_sup=tail,
        epsilon=epsilon,
        verdict_index=verdict_index,
        verdict=bool(tail[verdict_index] <= epsilon),
    )


def old_series_report(terms):
    count = terms.shape[0]
    partial = np.cumsum(terms, axis=0)
    points = checkpoint_schedule(count)
    half = (count + 1) // 2
    gaps = np.abs(partial[-1][None, :] - partial[half - 1 :]).max(axis=1)
    tail_gap = float(gaps.max()) if gaps.size else 0.0
    scale = max(1.0, float(np.max(np.abs(partial[-1]))))
    epsilon = SERIES_TAIL_REL * scale
    return SeriesReport(
        length=count,
        checkpoints=points,
        values=[[float(v) for v in partial[c - 1]] for c in points],
        max_abs=[float(np.max(np.abs(partial[c - 1]))) for c in points],
        tail_gap=tail_gap,
        epsilon=epsilon,
        scale=scale,
        converged=bool(tail_gap <= epsilon),
        term_min=float(terms.min()) if terms.size else 0.0,
    )


def old_check(summary, lhs, rhs, slack, witness):
    require_finite(lhs, rhs)
    shape = np.broadcast(lhs, rhs).shape
    misses, margin, at = compare(np.ravel(lhs), np.ravel(rhs), np.ravel(slack))
    where = tuple(int(i) for i in np.unravel_index(at, shape))
    summary.record_many([misses], [margin], lambda _: f"{witness} at {where}")


def old_submartingale(process, rates, p, epsilon=0.1, tol=DEFAULT_TOL):
    classify(process)
    count = len(process)
    a = rates.values(count)
    t1 = process.filtration[0]
    powers = process.values**p
    if count > 1:
        terms = t1.apply_rows((powers[1:] - powers[:-1]) / (a[1:] ** p)[:, None])
    else:
        terms = np.zeros((0, process.space.n))
    checks = {"term-nonneg": CheckSummary()}
    if terms.size:
        old_check(checks["term-nonneg"], 0.0, terms, tol.slack(0.0, terms), "series term sign")
    else:
        checks["term-nonneg"].record(True, 0.0, "no terms")
    series = old_series_report(terms if terms.size else np.zeros((1, process.space.n)))
    decay = old_decay_report(process.values / a[:, None], epsilon)
    return ExperimentReport(
        experiment="submartingale",
        config={"p": p, "rates": rates.label(), "epsilon": epsilon},
        decay=decay,
        hypothesis=series,
        checks=checks,
        verdict=bool(series.converged and decay.verdict),
    )


def old_slln_p_le_2(diffs, rates, p, epsilon=0.1, tol=DEFAULT_TOL):
    require_difference_sequence(diffs)
    count = len(diffs)
    a = rates.values(count)
    t1 = diffs.filtration[0]
    absy_p = np.abs(diffs.values) ** p
    series = old_series_report(t1.apply_rows(absy_p / (a**p)[:, None]))
    sums = np.cumsum(diffs.values, axis=0)
    decay = old_decay_report(sums / a[:, None], epsilon)
    absx_p = np.abs(sums) ** p
    checks = {"power-diff-nonneg": CheckSummary(), "power-diff-dominated": CheckSummary()}
    scale = float(np.max(absx_p)) if absx_p.size else 1.0
    if count > 1:
        slack = tol.abs + tol.rel * scale
        for op, idx in _stage_groups(diffs.filtration, count - 1):
            nxt, here = op.apply_rows(absx_p[idx + 1]), op.apply_rows(absx_p[idx])
            dom = op.apply_rows(2.0 * absy_p[idx + 1])
            old_check(checks["power-diff-nonneg"], here, nxt, slack, "lower bound")
            old_check(checks["power-diff-dominated"], nxt - here, dom, slack, "upper bound")
    else:
        for summary in checks.values():
            summary.record(True, 0.0, "single stage")
    return ExperimentReport(
        experiment="slln-p-le-2",
        config={"p": p, "rates": rates.label(), "epsilon": epsilon},
        decay=decay,
        hypothesis=series,
        checks=checks,
        verdict=bool(series.converged and decay.verdict),
    )


def old_slln_p_gt_2(diffs, rates, p, gamma, k, epsilon=0.1, tol=DEFAULT_TOL):
    require_difference_sequence(diffs)
    count = len(diffs)
    a = rates.values(count)
    gate = old_series_report((1.0 / a**k)[:, None])
    if not gate.converged:
        raise ValueError("gate")
    delta = (p - gamma) / (p / 2.0 - 1.0)
    t1 = diffs.filtration[0]
    hyp_terms = t1.apply_rows(np.abs(diffs.values) ** p / (a**gamma)[:, None])
    series = old_series_report(hyp_terms)
    sums = np.cumsum(diffs.values, axis=0)
    decay = old_decay_report(sums / a[:, None], epsilon)
    pre_sq, pre_hyp, pre_delta = (
        np.cumsum(np.concatenate((np.zeros((1,) + terms.shape[1:]), terms)), axis=0)
        for terms in (t1.apply_rows(diffs.values**2 / (a**2)[:, None]), hyp_terms, 1.0 / a**delta)
    )
    points = np.array(checkpoint_schedule(count))
    m, n = (points[i] for i in np.triu_indices(len(points), 1))
    lhs = pre_sq[n] - pre_sq[m - 1]
    delta_factor = [d ** (1.0 - 2.0 / p) for d in pre_delta[n] - pre_delta[m - 1]]
    rhs = (pre_hyp[n] - pre_hyp[m - 1]) ** (2.0 / p) * np.array(delta_factor)[:, None]
    require_finite(lhs, rhs)
    misses, margin, at = compare(lhs, rhs, tol.slack(lhs, rhs))
    checks = {"holder-reduction": CheckSummary()}
    checks["holder-reduction"].record_many(
        misses, margin, lambda i: f"segment m={m[i]} n={n[i]} at ({at[i]},)"
    )
    return ExperimentReport(
        experiment="slln-p-gt-2",
        config={"p": p, "gamma": gamma, "k": k, "delta": delta, "rates": rates.label(),
                "epsilon": epsilon},
        decay=decay,
        hypothesis=series,
        checks=checks,
        verdict=bool(series.converged and decay.verdict),
    )


def old_slln_an_equals_n(diffs, p, epsilon=0.1, tol=DEFAULT_TOL):
    require_difference_sequence(diffs)
    count = len(diffs)
    steps = np.arange(1, count + 1, dtype=np.float64)
    t1 = diffs.filtration[0]
    absy = np.abs(diffs.values)
    absy_p = absy**p
    series = old_series_report(t1.apply_rows(absy_p / (steps ** (1.0 + p / 2.0))[:, None]))
    decay = old_decay_report(np.cumsum(diffs.values, axis=0) / steps[:, None], epsilon)
    bound_rhs = (steps ** (p / 2.0 - 1.0))[:, None] * np.cumsum(t1.apply_rows(absy_p), axis=0)
    absy_sq = absy**2
    exchange_lhs = t1.apply_rows(np.cumsum(absy_sq, axis=0) ** (p / 2.0))
    exchange_rhs = np.cumsum(t1.apply_rows(absy_sq), axis=0) ** (p / 2.0)
    checks = {
        "square-sum-exchange": CheckSummary(),
        "moment-power-step": CheckSummary(),
        "square-sum-power-bound": CheckSummary(),
    }
    for name, lhs, rhs in (
        ("square-sum-exchange", exchange_lhs, exchange_rhs),
        ("moment-power-step", exchange_rhs, bound_rhs),
        ("square-sum-power-bound", exchange_lhs, bound_rhs),
    ):
        old_check(checks[name], lhs, rhs, tol.slack(lhs, rhs), name)
    return ExperimentReport(
        experiment="slln-n",
        config={"p": p, "rates": "power:1", "epsilon": epsilon},
        decay=decay,
        hypothesis=series,
        checks=checks,
        verdict=bool(series.converged and decay.verdict),
    )


# --- the grid ----------------------------------------------------------------


def cases():
    """Fixed before any comparison: dims 1/2/3/5/8, 1 to 300 stages, both
    weight modes, the default filtration (T_1 trivial, the identity at dim 1)
    and a random refining one."""
    for seed in range(20):
        steps = (1, 2, 7, 40, 300)[seed % 5]
        cfg = GeneratorConfig(
            seed=seed,
            dim=(1, 2, 3, 5, 8)[seed // 4 % 5],
            steps=steps,
            weight_mode=("uniform", "random")[seed % 2],
        )
        filt = None if seed % 3 else refining_filtration(SplitMix64(seed), make_space(cfg), steps)
        yield cfg, filt


def experiment_pairs(cfg, filt, tol):
    """(blocked, whole-array) runs of the four experiments on one case."""
    power1, power3 = WeightSequence.power(1.0), WeightSequence.power(3.0)
    proc = generate_submartingale(cfg, "positive-part", filt)
    diffs = generate_mds(cfg, filt)
    yield (lambda: limits.submartingale_convergence_experiment(proc, power1, 2.0, tol=tol),
           lambda: old_submartingale(proc, power1, 2.0, tol=tol))
    for p in (1.5, 2.0):
        yield (lambda: limits.slln_p_le_2(diffs, power1, p, tol=tol),
               lambda: old_slln_p_le_2(diffs, power1, p, tol=tol))
    for p, gamma, k in ((4.0, 1.5, 2.0), (3.0, 0.5, 1.0)):
        if limits.series_report((1.0 / power3.values(len(diffs)) ** k)[:, None]).converged:
            yield (lambda: limits.slln_p_gt_2(diffs, power3, p, gamma, k, tol=tol),
                   lambda: old_slln_p_gt_2(diffs, power3, p, gamma, k, tol=tol))
    for p in (2.5, 3.0, 4.0):
        yield (lambda: limits.slln_an_equals_n(diffs, p, tol=tol),
               lambda: old_slln_an_equals_n(diffs, p, tol=tol))


@pytest.mark.parametrize("tol", TOLS, ids=["default", "negative-slack"])
def test_experiments_match_the_whole_array_bodies(tol, block_elements, lenient_gates):
    failures = compared = 0
    for cfg, filt in cases():
        for blocked, whole in experiment_pairs(cfg, filt, tol):
            new = outcome(blocked)
            assert new == outcome(whole)
            failures += '"failure_count": 0' not in new
            compared += 1
    assert compared > 100
    assert failures > 0  # the exchange step misses at the default slack too


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("amplitude", [1e100, 1e150, 1e200])
def test_overflowing_experiments_raise_as_the_whole_array_bodies(amplitude, block_elements):
    errors = 0
    for seed in range(4):
        cfg = GeneratorConfig(seed=seed, dim=(1, 3, 4, 8)[seed], steps=64, amplitude=amplitude)
        for blocked, whole in experiment_pairs(cfg, None, DEFAULT_TOL):
            new = outcome(blocked)
            assert new == outcome(whole)
            errors += new == "ValueError: coordinates must be finite"
    assert errors > 0


def record_layouts(monkeypatch) -> list:
    """(k, T_1's blocks, n) of every image an experiment keeps."""
    seen = []
    image = limits._image

    def recorded(t1, operand, *zeros):
        stack, layout = image(t1, operand, *zeros)
        seen.append((len(layout.size), t1.partition.num_blocks, len(layout.ids)))
        return stack, layout

    monkeypatch.setattr(limits, "_image", recorded)
    return seen


def test_the_grid_keeps_one_block_and_several_blocks(monkeypatch, lenient_gates):
    seen = record_layouts(monkeypatch)
    for cfg, filt in cases():
        for blocked, _ in experiment_pairs(cfg, filt, DEFAULT_TOL):
            outcome(blocked)
    assert any(k == 1 < n for k, _, n in seen)  # the default filtration's T_1
    assert any(1 < k < n for k, _, n in seen)  # random refining filtrations


def nudge_products(monkeypatch, share: int) -> None:
    """average_rows moving one row of a product that averages two or more
    atoms by 1 ulp, at the last atom not first in its block: of every
    product, or of one in share chosen by a checksum of the operand, so that
    the blocked and whole-array bodies nudge the same products."""
    average_rows = conditional.average_rows

    def nudged(weights, block_id, rows):
        out = average_rows(weights, block_id, rows)
        later = np.setdiff1d(np.arange(len(block_id)), np.unique(block_id, return_index=True)[1])
        if later.size and len(out) and zlib.crc32(np.ascontiguousarray(rows)) % share == 0:
            out = out.copy()
            at = (len(out) // 2, later[-1])
            out[at] = np.nextafter(out[at], np.inf)
        return out

    monkeypatch.setattr(conditional, "average_rows", nudged)


@pytest.mark.parametrize("share", [1, 2], ids=["every-product", "half-the-products"])
@pytest.mark.parametrize("tol", TOLS, ids=["default", "negative-slack"])
def test_products_off_the_blocks_keep_their_atoms(tol, share, monkeypatch, lenient_gates):
    nudge_products(monkeypatch, share)
    seen = record_layouts(monkeypatch)
    mixed = []
    align = limits._aligned

    def aligned(*images):
        mixed.append(len({len(layout.size) for _, layout in images}) > 1)
        return align(*images)

    monkeypatch.setattr(limits, "_aligned", aligned)
    compared = 0
    for cfg, filt in cases():
        for blocked, whole in experiment_pairs(cfg, filt, tol):
            assert outcome(blocked) == outcome(whole)
            compared += 1
    assert compared > 100
    # The images of a T_1 with fewer blocks than atoms: every nudged one
    # fell back to n columns, and slln-n widened its kept ones to match.
    fell_back = [k == n for k, blocks, n in seen if blocks < n]
    assert any(fell_back)
    if share == 1:
        assert all(fell_back)
    else:
        assert any(mixed) and not all(fell_back)


def test_products_with_both_zeros_keep_their_atoms(monkeypatch):
    """A min over k block values may keep the other sign of a tied zero than
    one over the n atoms, so a T_1 image with a -0.0 keeps its atoms.  On
    NumPy 2.4's reduce, the grid below holds rows where the two differ."""
    average_rows = conditional.average_rows
    zeros = {}  # row: signed zero, written over T_1's products

    def signed(weights, block_id, rows):
        out = np.array(average_rows(weights, block_id, rows))
        for row, zero in zeros.items():
            out[row] = zero
        return out

    monkeypatch.setattr(conditional, "average_rows", signed)
    power1 = WeightSequence.power(1.0)
    for steps in (17, 34, 101):
        # X_i = i on every atom: a submartingale whose terms are all positive.
        space = make_space(GeneratorConfig(seed=0, dim=8, steps=steps))
        values = np.repeat(np.arange(1.0, steps + 1)[:, None], 8, axis=1)
        proc = ProcessSequence(default_filtration(space, steps), values)
        for negative in range(0, steps - 1, 4):
            for positive in range(1, steps - 1, 5):
                if positive == negative:
                    continue
                zeros.clear()
                zeros.update({negative: -0.0, positive: 0.0})
                new = outcome(lambda: limits.submartingale_convergence_experiment(proc, power1, 2.0))
                assert new == outcome(lambda: old_submartingale(proc, power1, 2.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(
    exponent=st.floats(-300.0, 300.0),
    seed=st.integers(0, 1 << 16),
    dim=st.sampled_from([1, 2, 3, 5, 8]),
    steps=st.integers(1, 40),
    refining=st.booleans(),
)
def test_amplitudes_from_1e_minus_300_to_1e300_match_the_whole_array_bodies(
    exponent, seed, dim, steps, refining
):
    cfg = GeneratorConfig(
        seed=seed, dim=dim, steps=steps, amplitude=10.0**exponent,
        weight_mode=("uniform", "random")[seed % 2],
    )
    filt = refining_filtration(SplitMix64(seed), make_space(cfg), steps) if refining else None
    for blocked, whole in experiment_pairs(cfg, filt, DEFAULT_TOL):
        assert any_outcome(blocked) == any_outcome(whole)


def any_outcome(run):
    """outcome, also for the hypothesis errors that the gates raise."""
    try:
        return outcome(run)
    except RieszmartError as exc:
        return f"{type(exc).__name__}: {exc}"


def awkward_stack(rng, rows, width):
    """Normal draws with signed zeros and runs of tied rows."""
    x = rng.standard_normal((rows, width))
    x[rng.random((rows, width)) < 0.1] = -0.0
    x[rng.random((rows, width)) < 0.1] = 0.0
    x[rows // 3 :: 5] = x[rows // 3]
    return x


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_series_and_decay_reports_match_the_whole_array_bodies(block_elements):
    rng = np.random.default_rng(10)
    for rows in (1, 2, 3, 17, 100, 513):
        for width in (1, 3, 8):
            x = awkward_stack(rng, rows, width)
            for terms in (x, np.abs(x), x / np.arange(1, rows + 1)[:, None] ** 2):
                assert dump_json(series_report(terms).to_json_dict()) == dump_json(
                    old_series_report(terms).to_json_dict()
                )
                for at in (None, 0):
                    assert dump_json(decay_report(terms, 0.1, at).to_json_dict()) == dump_json(
                        old_decay_report(terms, 0.1, at).to_json_dict()
                    )
            # Non-finite partial sums: the tail gap is NaN or inf as before.
            for row, col, bad in (
                (rows // 2, 0, math.inf), (rows - 1, 0, -math.inf), (0, width - 1, math.nan)
            ):
                x[row, col] = bad
                assert dump_json(series_report(x).to_json_dict()) == dump_json(
                    old_series_report(x).to_json_dict()
                )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_folded_extremes_match_the_whole_array_bodies(block_elements):
    """decay_report's row maxima and series_report's tail extremes come from
    halving folds: wider stacks, and non-finite values in the trajectory."""
    rng = np.random.default_rng(13)
    for rows in (1, 2, 9, 130):
        for width in (2, 5, 13, 40):
            x = awkward_stack(rng, rows, width)
            assert dump_json(series_report(x).to_json_dict()) == dump_json(
                old_series_report(x).to_json_dict()
            )
            for bad in (math.inf, -math.inf, math.nan):
                y = x.copy()
                y[rng.integers(rows), rng.integers(width)] = bad
                assert dump_json(decay_report(y, 0.1).to_json_dict()) == dump_json(
                    old_decay_report(y, 0.1).to_json_dict()
                )
                assert dump_json(series_report(y).to_json_dict()) == dump_json(
                    old_series_report(y).to_json_dict()
                )


def test_checks_match_the_whole_array_body_on_ties(block_elements):
    rng = np.random.default_rng(11)
    tols = (DEFAULT_TOL, Tolerance(abs=-0.5), Tolerance(abs=-2.0))
    for rows in (1, 2, 5, 64, 129):
        for width in (1, 3, 8):
            atoms = limits._Layout.singletons(width)
            # Few distinct values, so the worst loose value ties across blocks.
            lhs = rng.integers(0, 3, (rows, width)).astype(float)
            rhs = rng.integers(0, 3, (rows, width)).astype(float)
            for tol in tols:
                for left in (lhs, 0.0):
                    new, old = CheckSummary(), CheckSummary()
                    limits._check(new, left, rhs, tol.slack, "w", atoms)
                    old_check(old, left, rhs, tol.slack(left, rhs), "w")
                    assert dump_json(new.to_json_dict()) == dump_json(old.to_json_dict())
                    scalar_slack = tol.abs + tol.rel * 2.0
                    new, old = CheckSummary(), CheckSummary()
                    limits._check(new, left, rhs, lambda *_: scalar_slack, "w", atoms)
                    old_check(old, left, rhs, scalar_slack, "w")
                    assert dump_json(new.to_json_dict()) == dump_json(old.to_json_dict())
    # A NaN slack is a miss, and the first NaN is the worst component.
    new, old = CheckSummary(), CheckSummary()
    slack = np.zeros((40, 2))
    slack[17, 1] = slack[30, 0] = math.nan
    fold = limits._Fold(limits._Layout.singletons(2))
    for rows in lattice.row_blocks(40, 2):
        fold.add(np.zeros((40, 2))[rows], np.ones((40, 2))[rows], slack[rows])
    fold.record(new, "w")
    old_check(old, np.zeros((40, 2)), np.ones((40, 2)), slack, "w")
    assert dump_json(new.to_json_dict()) == dump_json(old.to_json_dict())
    assert new.first_witness == "w at (17, 1)"


def test_row_blocks_cover_the_rows_in_order(monkeypatch):
    for block in (1, 5, 64, 1 << 16):
        monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block)
        for rows in (0, 1, 7, 100):
            for width in (1, 3, 8, 200):
                blocks = lattice.row_blocks(rows, width)
                assert [i for s in blocks for i in range(rows)[s]] == list(range(rows))
                assert all(s.stop - s.start == max(1, block // width) for s in blocks[:-1])
                for start in (0, 1, rows // 2, rows):
                    tail = lattice.row_blocks(rows, width, start=start)
                    assert [i for s in tail for i in range(rows)[s]] == list(range(start, rows))
                    assert all(s.stop - s.start == max(1, block // width) for s in tail[:-1])


# --- the running-sum and power kernels ----------------------------------------

NAN_PAYLOADS = np.array([0x7FF8000000000123, 0xFFF80000000BEEF0, 0x7FF0000000000001], np.uint64)
SPECIALS = np.concatenate(
    (
        NAN_PAYLOADS.view(np.float64),
        [math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1e308],
    )
)


def special_stack(rng, rows, width):
    """Normal draws, about a third of them replaced by NaNs with payloads,
    infinities, signed zeros, subnormals and values near the largest double."""
    x = rng.standard_normal((rows, width))
    hit = rng.random((rows, width)) < 0.3
    x[hit] = rng.choice(SPECIALS, int(hit.sum()))
    return x


def bits_and_warnings(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    # A kernel that works in row blocks warns once a block: compare the kinds.
    return out.view(np.uint64).tobytes(), out.shape, {(w.category, str(w.message)) for w in caught}


def layouts(x):
    """x as a C-contiguous stack, as a column slice of a wider one, and in
    Fortran order."""
    wide = np.zeros((x.shape[0], x.shape[1] + 3))
    wide[:, 1 : 1 + x.shape[1]] = x
    return {"c": x, "columns": wide[:, 1 : 1 + x.shape[1]], "fortran": np.asfortranarray(x)}


def test_running_sum_matches_cumsum_bit_for_bit():
    rng = np.random.default_rng(23)
    paired = 0
    for width in (*range(1, 10), 16):
        for rows in (0, 1, 2, 17, 10_000):
            for how, x in layouts(special_stack(rng, rows, width)).items():
                old = bits_and_warnings(lambda: np.cumsum(x, axis=0))
                assert bits_and_warnings(lambda: limits._running_sum(x)) == old, (width, rows, how)
                y = np.array(x, order="K")
                assert bits_and_warnings(lambda: (limits._running_sum(y, out=y), y)[1]) == old
                paired += how == "c" and width % 2 == 0 and rows > 2 and bool(old[2])
    assert paired  # overflow and invalid warnings were raised on the paired path too


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 10.0])
def test_power_that_skips_zero_bases_matches_numpy_bit_for_bit(p, block_elements):
    rng = np.random.default_rng(29)
    for width in (1, 3, 8, 16):
        for rows in (0, 1, 2, 17, 3000):
            bases = np.abs(special_stack(rng, rows, width))
            bases[rng.random((rows, width)) < 0.5] = 0.0  # mostly zero, as past the cut
            with np.errstate(invalid="ignore"):  # a signalling NaN is quieted
                bases[rows // 2 :] *= rng.choice([1e-300, 1e-120, 1.0], (rows - rows // 2, 1))
            old = bits_and_warnings(lambda: np.power(bases, p))
            y = bases.copy()
            assert bits_and_warnings(lambda: (limits._raise_nonzero(y, p), y)[1]) == old


# --- the difference-sequence check --------------------------------------------


def old_is_adapted(process, tol=DEFAULT_TOL):
    mat = process.values
    slack = tol.abs + tol.rel * float(np.max(np.abs(mat))) if mat.size else tol.abs
    for op, idx in _stage_groups(process.filtration):
        if op.is_identity:
            continue
        rows = mat[idx]
        if np.max(np.abs(op.apply_rows(rows) - rows)) > slack:
            return False
    return True


def old_is_difference_sequence(process, tol=DEFAULT_TOL):
    """The check before the identity group was read as one blocked view."""
    if not old_is_adapted(process, tol):
        return False
    mat = process.values
    if mat.shape[0] < 2:
        return True
    slack = tol.abs + tol.rel * float(np.max(np.abs(mat)))
    for op, idx in _stage_groups(process.filtration, -1):
        rows = mat[idx + 1]
        means = op.apply_rows(rows)
        if np.max(np.abs(means)) > slack:
            return False
    return True


def difference_candidates():
    """Each case's differences, their partial sums, and copies with one value
    moved by 0.5 or 2 slacks: in the last stage (a singleton stage once the
    horizon passes dim) and in the second."""
    for cfg, filt in cases():
        diffs = generate_mds(cfg, filt)
        yield diffs
        yield partial_sums(diffs)
        values = diffs.values
        slack = DEFAULT_TOL.abs + DEFAULT_TOL.rel * float(np.max(np.abs(values)))
        for row in {len(values) - 1, min(1, len(values) - 1)}:
            for scale in (0.5, 2.0):
                moved = values.copy()
                moved[row, -1] += scale * slack
                yield ProcessSequence(diffs.filtration, moved)


@pytest.mark.parametrize("tol", TOLS, ids=["default", "negative-slack"])
def test_difference_check_matches_the_copying_body(tol, block_elements):
    verdicts = [
        (is_difference_sequence(proc, tol), old_is_difference_sequence(proc, tol))
        for proc in difference_candidates()
    ]
    assert all(new == old for new, old in verdicts)
    # The grid reaches both verdicts.
    assert {old for _, old in verdicts} == {True, False}


# --- memory ------------------------------------------------------------------

LONG = GeneratorConfig(seed=3, dim=8, steps=100_000)


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_diffs():
    return generate_mds(LONG)


def test_generate_mds_peak_memory_is_at_most_three_values_arrays(long_diffs):
    assert traced_peak(lambda: generate_mds(LONG)) <= 3.0 * long_diffs.values.nbytes


def test_slln_n_peak_memory_is_at_most_four_and_a_half_values_arrays(long_diffs):
    peak = traced_peak(lambda: limits.slln_an_equals_n(long_diffs, 3.0))
    assert peak <= 4.5 * long_diffs.values.nbytes


def test_slln_n_peak_memory_is_at_most_two_and_a_half_values_arrays(long_diffs):
    # Past the singleton cut every stack repeats one row, so only the dense
    # T_1 products and their operands are whole height: 3.27 before.
    peak = traced_peak(lambda: limits.slln_an_equals_n(long_diffs, 3.0))
    assert peak <= 2.5 * long_diffs.values.nbytes


def test_slln_p_le_2_peak_memory_is_at_most_six_values_arrays(long_diffs):
    peak = traced_peak(lambda: limits.slln_p_le_2(long_diffs, WeightSequence.power(1.0), 2.0))
    assert peak <= 6.0 * long_diffs.values.nbytes


def test_generate_submartingale_peak_memory_is_at_most_three_values_arrays(long_diffs):
    # Partial sums and the positive part are owned, not copied: 3.4 before.
    peak = traced_peak(lambda: generate_submartingale(LONG))
    assert peak <= 3.0 * long_diffs.values.nbytes


def test_difference_check_peak_memory_is_at_most_a_quarter_values_array(long_diffs):
    # The identity group was copied with a fancy index and then made absolute
    # as a whole: 2.1 values arrays.
    peak = traced_peak(lambda: require_difference_sequence(long_diffs))
    assert peak <= 0.25 * long_diffs.values.nbytes
