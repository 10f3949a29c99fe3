"""lattice.compare, the one slack comparison behind every check.

Each check used to spell the comparison out itself: leq_with_tolerance, the
stage rows of the maximal checkers, the p = 2 Burkholder identity, Doob's
agreement rows and the limit experiments' componentwise checks.  The copies
of those bodies below are the reference: at the default slack and at a
negative slack that makes comparisons fail, every report must come out with
the same bytes, ±0.0 and witness atoms included.
"""

import math
import warnings

import numpy as np
import pytest
import test_batched as loops
from hypothesis import given
from hypothesis import strategies as st

from rieszmart import (
    DEFAULT_TOL,
    BadWeights,
    ConditionalExpectationOp,
    GeneratorConfig,
    Partition,
    SampleSpace,
    SpaceMismatch,
    Tolerance,
    WeightSequence,
    burkholder_ratio,
    conditional,
    doob_maximal,
    generate_mds,
    generate_submartingale,
    inequalities,
    limits,
    partial_sums,
    slln_p_gt_2,
    slln_p_le_2,
    square_function,
    submartingale_convergence_experiment,
)
from rieszmart.cli import main
from rieszmart.lattice import MarginCheck, compare, require_finite
from rieszmart.processes import _stage_groups, make_space, require_difference_sequence
from rieszmart.reports import CheckSummary, VerificationReport, checkpoint_schedule, dump_json
from rieszmart.rng import SplitMix64
from rieszmart.suites import RunConfig, _refining_filtration, run_suite

NEGATIVE_SLACK = Tolerance(abs=-1e-3, rel=0.0)
TOLS = pytest.mark.parametrize(
    "tol", [DEFAULT_TOL, NEGATIVE_SLACK], ids=["default", "negative-slack"]
)


def same_bytes(new, old):
    assert dump_json(new.to_json_dict()) == dump_json(old.to_json_dict())


def mds_cases(count=60):
    """Difference sequences on the default filtration (the first stage is the
    trivial averaging, the identity at dim 1) or a random refining one."""
    for seed in range(count):
        stream = SplitMix64(seed)
        steps = (1, 2, 7, 40, 300)[seed % 5]
        cfg = GeneratorConfig(
            seed=seed,
            dim=(1, 2, 3, 5, 8)[seed // 5 % 5],
            steps=steps,
            weight_mode=("uniform", "random")[seed % 2],
        )
        filt = None if seed % 3 else _refining_filtration(stream, make_space(cfg), steps)
        yield cfg, filt


# --- old comparison bodies ------------------------------------------------


def old_leq_with_tolerance(lhs, rhs, tol=DEFAULT_TOL):
    gap = rhs.coords - lhs.coords
    slack = tol.slack(lhs.coords, rhs.coords)
    atom = int(np.argmin(gap + slack))
    ok = bool(np.all(gap + slack >= 0.0))
    return MarginCheck(ok=ok, margin=float(np.min(gap)), atom=atom)


def old_rows_leq(lhs, rhs, tol, label):
    gap = rhs - lhs
    loose = gap + tol.slack(lhs, rhs)
    atom = loose.argmin(axis=1)
    ok, margin = (loose >= 0.0).all(axis=1), gap.min(axis=1)
    return ok, margin, lambda n: f"n={n} {label} atom={atom[n - 1]}"


def old_burkholder_p2(diffs, base, tol):
    require_difference_sequence(diffs, DEFAULT_TOL)
    report = VerificationReport(suite="burkholder", trials=1, tol=tol)
    sums = partial_sums(diffs)
    a_side = np.abs(sums.values) ** 2.0 @ base.matrix().T
    b_side = square_function(sums).values ** 1.0 @ base.matrix().T
    gap = np.abs(a_side - b_side)
    slack = tol.slack(a_side, b_side)
    worst = int(np.argmax(gap - slack))
    n_idx, atom = np.unravel_index(worst, gap.shape)
    report.record(
        bool(np.all(gap <= slack)), -float(gap.max()), f"p=2 identity n={n_idx + 1} atom={atom}"
    )
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


def old_doob_maximal(process, g, tol):
    ones = np.ones(len(process))
    report, t1, pos, join, rhs = loops.old_hrc_pass(process, ones, g, tol, "doob")
    conditioned = t1.apply_array(np.concatenate((pos, np.where(join, 0.0, g.coords))))
    telescoped, lhs = conditioned[: len(pos)], conditioned[len(pos) :]
    gap = np.abs(rhs - telescoped)
    agree = (gap <= tol.slack(rhs, telescoped)).all(axis=1)
    agreement = (agree, -gap.max(axis=1), lambda n: f"n={n} telescoped-right-side agreement")
    bound = old_rows_leq(lhs, telescoped, tol, "telescoped bound")
    loops.old_record_stages(report, agreement, bound)
    return report


def old_slacked_min(summary, gaps, slack, witness):
    worst = float(gaps.min())
    bad = gaps + slack < 0.0
    if np.any(bad):
        idx = np.unravel_index(int(np.argmin(gaps + slack)), gaps.shape)
        summary.record(False, worst, f"{witness} at {tuple(int(i) for i in idx)}")
        summary.failures += int(bad.sum()) - 1
    else:
        summary.record(True, worst, witness)


def old_condition(op, mat):
    return mat if op.is_identity else mat @ op.matrix().T


def old_term_checks(process, a, p, tol):
    summary = CheckSummary()
    powers = process.values**p
    terms = old_condition(process.filtration[0], (powers[1:] - powers[:-1]) / (a[1:] ** p)[:, None])
    old_slacked_min(summary, terms, tol.abs + tol.rel * np.abs(terms), "series term sign")
    return {"term-nonneg": summary}


def old_power_diff_checks(diffs, p, tol):
    checks = {"power-diff-nonneg": CheckSummary(), "power-diff-dominated": CheckSummary()}
    absy_p = np.abs(diffs.values) ** p
    absx_p = np.abs(np.cumsum(diffs.values, axis=0)) ** p
    scale = float(np.max(absx_p))
    for op, idx in _stage_groups(diffs.filtration, len(diffs) - 1):
        nxt, here = old_condition(op, absx_p[idx + 1]), old_condition(op, absx_p[idx])
        dom = old_condition(op, 2.0 * absy_p[idx + 1])
        diff = nxt - here
        slack = np.full_like(diff, tol.abs + tol.rel * scale)
        old_slacked_min(checks["power-diff-nonneg"], diff, slack, "lower bound")
        old_slacked_min(checks["power-diff-dominated"], dom - diff, slack, "upper bound")
    return checks


def old_holder_reduction(diffs, a, p, gamma, k, tol):
    """The nested pair loop, one closure per checkpoint pair."""
    t1 = diffs.filtration[0]
    delta = (p - gamma) / (p / 2.0 - 1.0)
    pre_sq = np.cumsum(old_condition(t1, diffs.values**2 / (a**2)[:, None]), axis=0)
    pre_hyp = np.cumsum(old_condition(t1, np.abs(diffs.values) ** p / (a**gamma)[:, None]), axis=0)
    pre_delta = np.cumsum(1.0 / a**delta)
    summary = CheckSummary()
    points = checkpoint_schedule(len(diffs))
    for mi in range(len(points)):
        for ni in range(mi + 1, len(points)):
            m, n = points[mi], points[ni]

            def segment(prefix, lo=m, hi=n):
                seg = prefix[hi - 1].copy()
                if lo >= 2:
                    seg = seg - prefix[lo - 2]
                return seg

            lhs = segment(pre_sq)
            rhs = segment(pre_hyp) ** (2.0 / p) * segment(pre_delta) ** (1.0 - 2.0 / p)
            slack = tol.abs + tol.rel * np.maximum(np.abs(lhs), np.abs(rhs))
            old_slacked_min(summary, rhs - lhs, slack, f"segment m={m} n={n}")
    return {"holder-reduction": summary}


def checks_bytes(checks):
    return dump_json({name: summary.to_json_dict() for name, summary in checks.items()})


# --- differential tests ---------------------------------------------------


def test_leq_with_tolerance_matches_the_old_body():
    stream = SplitMix64(17)
    for trial in range(400):
        space = SampleSpace.uniform(1 + stream.below(12))
        lhs = space.element(stream.uniforms(space.n, -2.0, 2.0))
        tie = stream.floats(space.n) < 0.3
        rhs = space.element(np.where(tie, lhs.coords, stream.uniforms(space.n, -2.0, 2.0)))
        tol = (DEFAULT_TOL, NEGATIVE_SLACK, Tolerance(abs=-0.5, rel=0.0))[trial % 3]
        new = inequalities.leq_with_tolerance(lhs, rhs, tol)
        same_bytes(new, old_leq_with_tolerance(lhs, rhs, tol))
        assert type(new.margin) is float and type(new.atom) is int


def old_eq_check(a, b, tol):
    """conditional._eq_check as two leq_with_tolerance calls."""
    forward = inequalities.leq_with_tolerance(a, b, tol)
    backward = inequalities.leq_with_tolerance(b, a, tol)
    worse = forward if forward.margin <= backward.margin else backward
    return MarginCheck(ok=forward.ok and backward.ok, margin=worse.margin, atom=worse.atom)


def test_eq_check_matches_the_old_two_call_body():
    stream = SplitMix64(29)
    space = SampleSpace(stream.uniforms(6, 0.05, 1.0))
    for trial in range(4000):
        a = space.element(stream.uniforms(6, -2.0, 2.0))
        kind = trial % 4
        if kind == 0:  # exact agreement
            b = a
        elif kind == 1:  # agreement up to rounding
            b = space.element(a.coords + stream.uniforms(6, -1e-13, 1e-13))
        else:  # ties on some atoms, or none
            tie = stream.floats(6) < (0.5 if kind == 2 else 0.0)
            b = space.element(np.where(tie, a.coords, stream.uniforms(6, -2.0, 2.0)))
        tol = (DEFAULT_TOL, NEGATIVE_SLACK, Tolerance(abs=-0.5, rel=0.0))[trial % 3]
        new = conditional._eq_check(a, b, tol)
        same_bytes(new, old_eq_check(a, b, tol))
        assert type(new.ok) is bool and type(new.margin) is float and type(new.atom) is int
        if kind == 0:
            assert math.copysign(1.0, new.margin) == 1.0
    with pytest.raises(SpaceMismatch):
        conditional._eq_check(a, SampleSpace.uniform(6).element(a.coords))


@pytest.mark.parametrize(
    "suite", ["holder", "clarkson", "jensen", "ce-axioms", "telescoping", "hrc"]
)
@TOLS
def test_suites_match_the_old_comparison_bodies(suite, tol, lenient_gates, monkeypatch):
    cfg = RunConfig(suite=suite, trials=60, seed=3, tol=tol)
    new = run_suite(cfg)
    monkeypatch.setattr(inequalities, "leq_with_tolerance", old_leq_with_tolerance)
    # telescoping and hrc check their batched rows without _rows_leq: their
    # per-trial loops, kept in test_batched, take the old body instead.
    monkeypatch.setattr(loops, "old_rows_leq", old_rows_leq)
    monkeypatch.setattr(loops, "classify", inequalities.classify)  # the lenient gate
    old = loops.OLD[suite](cfg) if suite in ("telescoping", "hrc") else run_suite(cfg)
    new.elapsed_ms = old.elapsed_ms = 0.0
    same_bytes(new, old)


@TOLS
def test_doob_and_burkholder_match_the_old_two_sided_bodies(tol, lenient_gates, monkeypatch):
    monkeypatch.setattr(loops, "classify", inequalities.classify)  # the lenient gate
    failures = 0
    for cfg, filt in mds_cases():
        diffs = generate_mds(cfg, filt)
        base = ConditionalExpectationOp(Partition.single_block(diffs.space))
        new = burkholder_ratio(diffs, base, 2.0, tol)
        same_bytes(new, old_burkholder_p2(diffs, base, tol))
        first = diffs.filtration[0]
        same_bytes(burkholder_ratio(diffs, first, 2.0, tol), old_burkholder_p2(diffs, first, tol))
        failures += new.failure_count
    for cfg, filt in mds_cases(40):
        proc = generate_submartingale(cfg, "drift", filt)
        part = proc.filtration[0].partition
        g = proc.space.element(np.linspace(0.5, 2.0, part.num_blocks)[part.block_id])
        new = doob_maximal(proc, g, tol)
        with monkeypatch.context() as patch:
            patch.setattr(loops, "old_rows_leq", old_rows_leq)
            same_bytes(new, old_doob_maximal(proc, g, tol))
        failures += new.failure_count
    assert (failures > 0) == (tol is NEGATIVE_SLACK)


@TOLS
def test_experiment_checks_match_the_old_slacked_min(tol, lenient_gates):
    rates = WeightSequence.power(1.0)
    failures = 0
    for cfg, filt in mds_cases():
        proc = generate_submartingale(cfg, "positive-part", filt)
        a = rates.values(len(proc))
        if len(proc) > 1:
            new = submartingale_convergence_experiment(proc, rates, 2.0, tol=tol).checks
            assert checks_bytes(new) == checks_bytes(old_term_checks(proc, a, 2.0, tol))
            failures += new["term-nonneg"].failures
        diffs = generate_mds(cfg, filt)
        if len(diffs) > 1:
            new = slln_p_le_2(diffs, rates, 1.5, tol=tol).checks
            assert checks_bytes(new) == checks_bytes(old_power_diff_checks(diffs, 1.5, tol))
            failures += sum(summary.failures for summary in new.values())
    assert (failures > 0) == (tol is NEGATIVE_SLACK)


@TOLS
def test_holder_reduction_pairs_match_the_old_pair_loop(tol, lenient_gates):
    failures = 0
    for rates in (WeightSequence.power(3.0), WeightSequence.power(1.5)):
        for cfg, filt in mds_cases():
            diffs = generate_mds(cfg, filt)
            a = rates.values(len(diffs))
            for p, gamma, k in ((4.0, 1.5, 2.0), (5.0, 1.5, 2.0), (3.0, 0.5, 1.0)):
                try:
                    new = slln_p_gt_2(diffs, rates, p, gamma, k, tol=tol).checks
                except BadWeights:  # sum 1/a^k fails its tail gate at short horizons
                    continue
                old = old_holder_reduction(diffs, a, p, gamma, k, tol)
                assert checks_bytes(new) == checks_bytes(old)
                failures += new["holder-reduction"].failures
    assert (failures > 0) == (tol is NEGATIVE_SLACK)


# --- the shared pieces ----------------------------------------------------


def test_compare_counts_nan_as_a_miss_per_row():
    lhs = np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 5.0]])
    rhs = np.array([[0.0, 0.5, 3.0], [1.0, 1.0, 4.0]])
    misses, margin, at = compare(lhs, rhs, 0.25)
    assert misses.tolist() == [1, 2]
    assert margin[0] == -0.5 and math.isnan(margin[1])
    assert at.tolist() == [1, 1]
    misses, margin, at = compare(lhs[0], rhs[0], 0.5)
    assert (misses, margin, at) == (0, -0.5, 1)


def test_require_finite_rejects_any_non_finite_entry():
    require_finite(np.zeros(3), 1.0, np.ones((2, 2)))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            require_finite(np.zeros(2), np.array([[1.0, bad]]))


ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, math.inf, -math.inf]),
    ),
    max_size=40,
)


@given(ROWS, st.sampled_from([math.inf, 0.0, -0.0, -1.0]), st.integers(min_value=0, max_value=2))
def test_check_summary_record_many_matches_record_and_the_old_hack(rows, start, earlier):
    looped = CheckSummary(min_margin=start)
    batched = CheckSummary(min_margin=start)
    for summary in (looped, batched):
        for k in range(earlier):
            summary.record(False, 5.0, f"earlier {k}")
    for i, (misses, margin) in enumerate(rows):
        looped.record(misses == 0, margin, f"w{i}")
        if misses:
            looped.failures += misses - 1
    asked = []
    batched.record_many(
        np.array([misses for misses, _ in rows], dtype=np.intp),
        np.array([margin for _, margin in rows], dtype=np.float64),
        lambda i: asked.append(i) or f"w{i}",
    )
    same_bytes(batched, looped)
    assert math.copysign(1.0, batched.min_margin) == math.copysign(1.0, looped.min_margin)
    assert type(batched.failures) is int
    failing = [i for i, (misses, _) in enumerate(rows) if misses]
    assert asked == (failing[:1] if earlier == 0 else [])


# --- overflow ---------------------------------------------------------------

OVERFLOWING = {
    "submartingale": lambda cfg: submartingale_convergence_experiment(
        generate_submartingale(cfg), WeightSequence.power(1.0), 3.0
    ),
    "slln-p-le-2": lambda cfg: slln_p_le_2(generate_mds(cfg), WeightSequence.power(1.0), 2.0),
    "slln-p-gt-2": lambda cfg: slln_p_gt_2(
        generate_mds(cfg), WeightSequence.power(3.0), 3.0, 1.5, 2.0
    ),
    "slln-n": lambda cfg: limits.slln_an_equals_n(generate_mds(cfg), 3.0),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "name, amplitude",
    [(name, 1e200) for name in OVERFLOWING] + [("slln-n", 1e150)],
)
def test_experiments_whose_compared_stacks_overflow_raise(name, amplitude):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        OVERFLOWING[name](GeneratorConfig(seed=1, dim=4, steps=64, amplitude=amplitude))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("p", [3.0, 4.0])
def test_burkholder_ratio_whose_sides_overflow_raises(p):
    # Before, both sides overflowed to inf and the ratios read NaN.
    diffs = generate_mds(GeneratorConfig(seed=1, dim=4, steps=16, amplitude=1e110))
    with pytest.raises(ValueError, match="coordinates must be finite"):
        burkholder_ratio(diffs, diffs.filtration[0], p)


def test_simulate_exits_2_and_writes_nothing_when_the_checks_overflow(tmp_path, capsys):
    argv = ["simulate", "slln-n", "--amplitude", "1e150", "--dim", "4", "--n", "64", "--seed", "1"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert "coordinates must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment", ["slln-n", "slln-p-le-2", "submartingale"])
@pytest.mark.parametrize("amplitude", ["1e200", "8.9e307"])
def test_overflowing_experiments_exit_2_without_a_warning(experiment, amplitude, tmp_path, capsys):
    argv = ["simulate", experiment, "--dim", "3", "--n", "20", "--amplitude", amplitude,
            "--seed", "1", "--output-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert "error: coordinates must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
