"""Limit-theorem experiments: rate sequences, averaging transforms, strong laws.

Reference values are computed inside the tests by direct summation (plain
ascending loops over floats, the same association order as a cumulative sum)
so the library output can be compared against an independent calculation
rather than a copied constant.
"""

import time
import tracemalloc

import numpy as np
import pytest

from rieszmart import (
    BadExponent,
    BadWeights,
    GeneratorConfig,
    NegativeArgument,
    NegativeProcess,
    NotSubmartingale,
    NotSummable,
    ParameterViolation,
    ProcessSequence,
    SampleSpace,
    Tolerance,
    WeightSequence,
    cesaro_weighted_mean,
    checkpoint_schedule,
    classify,
    decay_report,
    default_filtration,
    generate_mds,
    generate_submartingale,
    kronecker_transform,
    limits,
    make_filtration,
    series_report,
    slln_an_equals_n,
    slln_p_gt_2,
    slln_p_le_2,
    submartingale_convergence_experiment,
)
from rieszmart.lattice import DEFAULT_TOL
from rieszmart.limits import DEFAULT_STOCHASTIC_EPSILON
from rieszmart.processes import make_space, require_difference_sequence
from rieszmart.reports import CheckSummary, ExperimentReport, dump_json
from rieszmart.rng import SplitMix64
from chains import refining_filtration

DIM1 = SampleSpace.uniform(1)


def constant_process(value, dim, steps):
    space = SampleSpace.uniform(dim)
    return ProcessSequence(
        default_filtration(space, steps), np.full((steps, dim), float(value))
    )


# --- rate sequences -----------------------------------------------------------


def test_weight_sequence_power_values():
    rates = WeightSequence.power(1.0)
    assert np.array_equal(rates.values(4), [1.0, 2.0, 3.0, 4.0])
    assert rates.label() == "power:1"
    half = WeightSequence.power(0.5)
    assert np.allclose(half.values(4), np.sqrt([1.0, 2.0, 3.0, 4.0]))
    flat = WeightSequence.power(0.0)
    assert np.array_equal(flat.values(3), [1.0, 1.0, 1.0])


def test_weight_sequence_parse():
    assert WeightSequence.parse("power:1").exponent == 1.0
    assert WeightSequence.parse("power:0.5").exponent == 0.5
    with pytest.raises(BadWeights):
        WeightSequence.parse("linear")
    with pytest.raises(BadWeights):
        WeightSequence.parse("power:abc")
    with pytest.raises(BadWeights):
        WeightSequence.power(-1.0)


def test_weight_sequence_explicit():
    rates = WeightSequence.from_values([1.0, 1.5, 2.0])
    assert rates.label() == "explicit[3]"
    assert np.array_equal(rates.values(2), [1.0, 1.5])
    with pytest.raises(BadWeights):
        WeightSequence.from_values([])
    with pytest.raises(BadWeights):
        rates.values(5)  # too short
    with pytest.raises(BadWeights):
        WeightSequence.from_values([1.0, 0.0]).values(2)
    with pytest.raises(BadWeights):
        WeightSequence.from_values([2.0, 1.0]).values(2)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weight_sequence_rejects_non_finite_rates(bad):
    with pytest.raises(BadWeights, match="exponent >= 0"):
        WeightSequence.power(bad)
    with pytest.raises(BadWeights):
        WeightSequence.parse(f"power:{bad}")
    for values in ([1.0, bad], [bad, 2.0, 3.0], [1.0, bad, 3.0]):
        with pytest.raises(BadWeights, match="rates must be strictly positive"):
            WeightSequence.from_values(values).values(len(values))
    # Rates past the requested length are not read.
    assert WeightSequence.from_values([1.0, 2.0, bad]).values(2).tolist() == [1.0, 2.0]



def test_power_rates_that_overflow_are_rejected():
    rates = WeightSequence.power(400.0)
    assert np.all(np.isfinite(rates.values(5)))
    with pytest.raises(BadWeights, match="rates must be strictly positive"):
        rates.values(50)
    with pytest.raises(BadWeights):
        cesaro_weighted_mean([DIM1.element([1.0])] * 50, rates)


def test_weight_sequence_divergence_screen():
    WeightSequence.power(1.0).require_divergent()
    WeightSequence.from_values([1.0, 2.0]).require_divergent()
    with pytest.raises(BadWeights):
        WeightSequence.power(0.0).require_divergent()
    with pytest.raises(BadWeights):
        WeightSequence.from_values([2.0, 2.0]).require_divergent()


# --- checkpoints and report builders --------------------------------------------


def test_checkpoint_schedule_shapes():
    assert checkpoint_schedule(1) == [1]
    assert checkpoint_schedule(7) == [1, 2, 4, 7]
    assert checkpoint_schedule(8) == [1, 2, 4, 8]
    points = checkpoint_schedule(10_000)
    assert len(points) == 15
    assert points[0] == 1 and points[-2] == 8192 and points[-1] == 10_000
    with pytest.raises(ValueError):
        checkpoint_schedule(0)


def test_decay_report_tail_sup_is_suffix_max():
    values = (1.0 / np.arange(1, 65))[:, None]
    report = decay_report(values, epsilon=0.05)
    assert report.checkpoints == [1, 2, 4, 8, 16, 32, 64]
    assert np.all(np.diff(report.tail_sup) <= 0.0)
    # For a strictly decreasing sequence the suffix max is the value itself.
    assert report.tail_sup == [1.0 / c for c in report.checkpoints]
    assert report.verdict  # 1/64 < 0.05
    assert report.verdict_checkpoint == 64
    assert report.order_null_at(0, 2.0)
    assert not report.order_null_at(0, 0.5)


def test_decay_report_verdict_index_override():
    values = (1.0 / np.arange(1, 17))[:, None]
    report = decay_report(values, epsilon=0.2, verdict_index=0)
    assert report.verdict_checkpoint == 1
    assert not report.verdict  # tail from n=1 is 1.0 > 0.2


def test_decay_report_zero_sequence():
    report = decay_report(np.zeros((8, 3)), epsilon=1e-9)
    assert report.verdict
    assert report.tail_sup == [0.0] * 4


def test_decay_report_scaling_is_exact():
    values = np.abs(np.sin(np.arange(40, dtype=float)))[:, None] + 0.5
    a = decay_report(values, epsilon=1.0)
    b = decay_report(2.0 * values, epsilon=1.0)
    # Doubling is exact in binary floating point.
    assert b.tail_sup == [2.0 * t for t in a.tail_sup]
    assert b.max_abs == [2.0 * t for t in a.max_abs]


def test_series_report_discriminates_tails():
    n = np.arange(1, 10_001, dtype=float)
    squares = series_report((1.0 / n**2)[:, None])
    assert squares.converged
    harmonic = series_report((1.0 / n)[:, None])
    assert not harmonic.converged
    # The harmonic tail over the second half of the window is about ln 2.
    assert harmonic.tail_gap == pytest.approx(np.log(2.0), rel=1e-2)
    assert harmonic.scale == pytest.approx(np.log(10_000) + 0.5772, rel=1e-2)


def test_series_report_zero_terms():
    report = series_report(np.zeros((4, 2)))
    assert report.converged
    assert report.tail_gap == 0.0
    assert report.scale == 1.0
    assert report.term_min == 0.0


# --- averaging transforms ----------------------------------------------------------


def test_kronecker_desk_case_matches_direct_summation():
    n = 10_000
    xs = [DIM1.element([1.0 / i**2]) for i in range(1, n + 1)]
    start = time.perf_counter()
    report = kronecker_transform(xs, WeightSequence.power(1.0), epsilon=1e-2)
    elapsed = time.perf_counter() - start

    # Direct summation oracle: (1/N) sum_{i<=N} i * (1/i^2), ascending.
    acc = 0.0
    for i in range(1, n + 1):
        acc += float(i) * (1.0 / i**2)
    oracle = acc / n

    final = report.values[-1][0]
    assert final == pytest.approx(oracle, rel=1e-12)
    assert abs(final - 9.79e-4) / 9.79e-4 < 0.05
    assert report.verdict
    assert elapsed < 1.0


def test_kronecker_rejects_divergent_input():
    xs = [DIM1.element([1.0 / i]) for i in range(1, 2001)]
    with pytest.raises(NotSummable):
        kronecker_transform(xs, WeightSequence.power(1.0))


def test_kronecker_alternating_series():
    xs = [DIM1.element([(-1.0) ** (i + 1) / i]) for i in range(1, 4097)]
    report = kronecker_transform(xs, WeightSequence.power(1.0), epsilon=1e-2)
    assert report.verdict
    assert report.tail_sup[-1] < 1e-3


def test_kronecker_requires_divergent_rates():
    # Geometric terms sail through the summability gate, so the failure
    # must come from the constant rate sequence.
    xs = [DIM1.element([0.25**i]) for i in range(1, 21)]
    with pytest.raises(BadWeights):
        kronecker_transform(xs, WeightSequence.power(0.0))


def test_cesaro_mean_matches_direct_summation():
    n = 1000
    ss = [DIM1.element([1.0 / i]) for i in range(1, n + 1)]
    report = cesaro_weighted_mean(ss, WeightSequence.power(1.0), epsilon=1e-2)

    # With b_i = i the weighted mean of stage n is sum_{i<n} (1/i) / n.
    acc = 0.0
    for i in range(1, n):
        acc += 1.0 / i
    oracle = acc / n

    assert report.values[-1][0] == pytest.approx(oracle, rel=1e-12)
    assert report.verdict


def test_cesaro_of_null_sequence_is_null():
    ss = [DIM1.element([1.0 / i**0.5]) for i in range(1, 4097)]
    report = cesaro_weighted_mean(ss, WeightSequence.power(1.0), epsilon=0.05)
    assert report.verdict
    assert np.all(np.diff(report.tail_sup) <= 0.0)


def test_cesaro_rejects_negative_inputs():
    ss = [DIM1.element([1.0]), DIM1.element([-0.5])]
    with pytest.raises(NegativeArgument):
        cesaro_weighted_mean(ss, WeightSequence.power(1.0))


def test_cesaro_single_stage_is_zero():
    report = cesaro_weighted_mean([DIM1.element([3.0])], WeightSequence.power(1.0))
    assert report.values == [[0.0]]
    assert report.verdict


# --- submartingale decay experiment -------------------------------------------------


def test_constant_submartingale_decays_exactly_like_one_over_n():
    proc = constant_process(1.0, 4, 256)
    report = submartingale_convergence_experiment(
        proc, WeightSequence.power(1.0), p=2.0, epsilon=0.1
    )
    assert report.verdict
    assert report.checks["term-nonneg"].failures == 0
    # X_n / n = 1/n is a single exact division at each checkpoint.
    assert report.decay.max_abs == [1.0 / c for c in report.decay.checkpoints]
    assert report.hypothesis.converged
    assert report.hypothesis.tail_gap == 0.0


def test_submartingale_experiment_on_generated_processes():
    for seed in (0, 1, 2):
        proc = generate_submartingale(GeneratorConfig(seed=seed, dim=4, steps=256))
        report = submartingale_convergence_experiment(
            proc, WeightSequence.power(0.5), p=2.0, epsilon=0.1
        )
        assert report.checks["term-nonneg"].failures == 0, f"seed {seed}"
        assert report.checks["term-nonneg"].min_margin >= -1e-12
        assert report.experiment == "submartingale"


def test_submartingale_experiment_validation():
    proc = constant_process(1.0, 2, 8)
    rates = WeightSequence.power(1.0)
    with pytest.raises(BadExponent):
        submartingale_convergence_experiment(proc, rates, p=0.5)
    for p in (float("nan"), float("inf")):
        with pytest.raises(BadExponent):
            submartingale_convergence_experiment(proc, rates, p=p)
    with pytest.raises(BadWeights):
        submartingale_convergence_experiment(proc, WeightSequence.power(0.0), p=2.0)
    with pytest.raises(NegativeProcess):
        submartingale_convergence_experiment(constant_process(-1.0, 2, 8), rates, p=2.0)
    falling = ProcessSequence(
        default_filtration(SampleSpace.uniform(1), 3),
        np.array([[3.0], [2.0], [1.0]]),
    )
    with pytest.raises(NotSubmartingale):
        submartingale_convergence_experiment(falling, rates, p=2.0)


# --- strong law, 1 <= p <= 2 ----------------------------------------------------------


def test_slln_p_le_2_positive_verdict():
    diffs = generate_mds(GeneratorConfig(seed=3, dim=4, steps=256))
    report = slln_p_le_2(diffs, WeightSequence.power(1.0), p=2.0, epsilon=0.1)
    assert report.verdict
    assert report.hypothesis.converged
    assert report.checks["power-diff-nonneg"].failures == 0
    assert report.checks["power-diff-dominated"].failures == 0
    assert np.all(np.diff(report.decay.tail_sup) <= 0.0)


def test_slln_p_le_2_exponent_bounds():
    diffs = generate_mds(GeneratorConfig(seed=3, dim=2, steps=8))
    rates = WeightSequence.power(1.0)
    with pytest.raises(BadExponent):
        slln_p_le_2(diffs, rates, p=0.5)
    with pytest.raises(BadExponent):
        slln_p_le_2(diffs, rates, p=2.5)


def test_slln_p_le_2_rejects_non_difference_input():
    from rieszmart import NotDifferenceSequence, partial_sums

    sums = partial_sums(generate_mds(GeneratorConfig(seed=3, dim=4, steps=8)))
    with pytest.raises(NotDifferenceSequence):
        slln_p_le_2(sums, WeightSequence.power(1.0), p=2.0)


# --- strong law, p > 2 with rate constraint -------------------------------------------


def test_slln_p_gt_2_constraint_arithmetic():
    diffs = generate_mds(GeneratorConfig(seed=5, dim=4, steps=2048))
    rates = WeightSequence.power(1.0)
    with pytest.raises(ParameterViolation) as err:
        slln_p_gt_2(diffs, rates, p=4.0, gamma=2.5, k=2.0)
    assert "4.0 < 4.5" in str(err.value)

    # The boundary case gamma = 2 satisfies p = gamma + (p/2 - 1) k exactly.
    report = slln_p_gt_2(diffs, rates, p=4.0, gamma=2.0, k=2.0)
    assert report.config["delta"] == 2.0
    assert report.checks["holder-reduction"].failures == 0

    with pytest.raises(ParameterViolation):
        slln_p_gt_2(diffs, rates, p=3.0, gamma=-1.0, k=2.0)
    with pytest.raises(ParameterViolation):
        slln_p_gt_2(diffs, rates, p=3.0, gamma=1.0, k=0.0)
    with pytest.raises(BadExponent):
        slln_p_gt_2(diffs, rates, p=2.0, gamma=1.0, k=1.0)


def test_slln_p_gt_2_rejects_non_finite_exponents():
    # At p = inf a long horizon used to give a positive verdict.
    diffs = generate_mds(GeneratorConfig(seed=2, dim=2, steps=4096))
    for p in (float("nan"), float("inf")):
        with pytest.raises(BadExponent):
            slln_p_gt_2(diffs, WeightSequence.power(1.0), p=p, gamma=1.0, k=2.0)
    for gamma, k in ((float("nan"), 2.0), (1.0, float("nan"))):
        with pytest.raises(ParameterViolation):
            slln_p_gt_2(diffs, WeightSequence.power(1.0), p=4.0, gamma=gamma, k=k)


def test_slln_p_gt_2_positive_verdict_and_delta():
    diffs = generate_mds(GeneratorConfig(seed=5, dim=4, steps=2048))
    report = slln_p_gt_2(
        diffs, WeightSequence.power(1.0), p=3.0, gamma=1.5, k=2.0, epsilon=0.1
    )
    assert report.verdict
    assert report.config["delta"] == pytest.approx(3.0)
    assert report.checks["holder-reduction"].failures == 0
    assert report.hypothesis.converged


def test_slln_p_gt_2_gate_on_rate_summability():
    diffs = generate_mds(GeneratorConfig(seed=5, dim=2, steps=256))
    # sum 1/a_i^k with a_i = i, k = 2 has too fat a tail at this short
    # horizon, so the rate gate must refuse to proceed.
    with pytest.raises(BadWeights):
        slln_p_gt_2(diffs, WeightSequence.power(1.0), p=3.0, gamma=1.5, k=2.0)


# --- strong law at rate n ---------------------------------------------------------------


def test_slln_n_counterexample_breaks_only_the_exchange_step():
    # Difference sequence: Y_1 = 0, Y_2 = (1,-1,0,0), zeros afterwards, on
    # four uniform atoms with the trivial first stage.  The averaged square
    # sum is 1/2 while the squared averaged moments give only 1/4, so the
    # exchange relation fails at every later stage on every atom, while the
    # two sound relations hold everywhere.
    space = SampleSpace.uniform(4)
    steps = 16
    singles = [[0], [1], [2], [3]]
    filt = make_filtration(space, [[[0, 1, 2, 3]]] + [singles] * (steps - 1))
    values = np.zeros((steps, 4))
    values[1] = [1.0, -1.0, 0.0, 0.0]
    diffs = ProcessSequence(filt, values)

    report = slln_an_equals_n(diffs, p=4.0, epsilon=0.1)
    exchange = report.checks["square-sum-exchange"]
    assert exchange.failures == (steps - 1) * 4
    assert exchange.min_margin == pytest.approx(-0.25)
    assert report.checks["moment-power-step"].failures == 0
    assert report.checks["square-sum-power-bound"].failures == 0
    # The verdict tracks decay and the hypothesis series only; the broken
    # exchange relation is reported through checks, not folded in.
    assert report.verdict


def test_slln_n_generic_seed_behaviour():
    diffs = generate_mds(GeneratorConfig(seed=7, dim=6, steps=512))
    report = slln_an_equals_n(diffs, p=3.0, epsilon=0.1)
    assert report.verdict
    assert report.hypothesis.converged
    # Generic difference sequences break the exchange relation...
    assert report.checks["square-sum-exchange"].failures > 0
    # ...but never the sound pair.
    assert report.checks["moment-power-step"].failures == 0
    assert report.checks["square-sum-power-bound"].failures == 0


def test_slln_n_exponent_bound():
    diffs = generate_mds(GeneratorConfig(seed=7, dim=2, steps=8))
    with pytest.raises(BadExponent):
        slln_an_equals_n(diffs, p=2.0)
    for p in (float("nan"), float("inf")):
        with pytest.raises(BadExponent):
            slln_an_equals_n(diffs, p=p)


def test_slln_n_reports_rate_label():
    diffs = generate_mds(GeneratorConfig(seed=1, dim=2, steps=64))
    report = slln_an_equals_n(diffs, p=3.0)
    assert report.config["rates"] == "power:1"
    assert report.config["p"] == 3.0


def old_slacked_min(summary, gaps, slack, witness):
    """The comparison body the experiments used before lattice.compare:
    a NaN component counts as passing."""
    worst = float(gaps.min())
    bad = gaps + slack < 0.0
    if np.any(bad):
        idx = np.unravel_index(int(np.argmin(gaps + slack)), gaps.shape)
        summary.record(False, worst, f"{witness} at {tuple(int(i) for i in idx)}")
        summary.failures += int(bad.sum()) - 1
    else:
        summary.record(True, worst, witness)


def slln_an_equals_n_all_alive(
    diffs, p, epsilon=DEFAULT_STOCHASTIC_EPSILON, tol=DEFAULT_TOL
):
    """Reference slln_an_equals_n: the body that computed |Y|^p and |Y|^2
    twice each and kept every (N, n) intermediate alive to the end."""
    p = float(p)
    if p <= 2.0:
        raise BadExponent(f"this strong law needs p > 2, got {p}")
    require_difference_sequence(diffs, tol)
    count = len(diffs)
    steps = np.arange(1, count + 1, dtype=np.float64)
    t1 = diffs.filtration[0]

    def condition(mat: np.ndarray) -> np.ndarray:
        return mat if t1.is_identity else t1.apply_rows(mat)

    absy = np.abs(diffs.values)
    hyp_terms = condition(absy**p / (steps ** (1.0 + p / 2.0))[:, None])
    series = series_report(hyp_terms)
    sums = np.cumsum(diffs.values, axis=0)
    decay = decay_report(sums / steps[:, None], epsilon)

    sq_running = np.cumsum(absy**2, axis=0)
    exchange_lhs = condition(sq_running ** (p / 2.0))
    moment_running = np.cumsum(condition(absy**2), axis=0)
    exchange_rhs = moment_running ** (p / 2.0)
    pth_running = np.cumsum(condition(absy**p), axis=0)
    bound_rhs = (steps ** (p / 2.0 - 1.0))[:, None] * pth_running

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
        gaps = rhs - lhs
        slack = tol.abs + tol.rel * np.maximum(np.abs(lhs), np.abs(rhs))
        old_slacked_min(checks[name], gaps, slack, name)
    return ExperimentReport(
        experiment="slln-n",
        config={"p": p, "rates": "power:1", "epsilon": epsilon},
        decay=decay,
        hypothesis=series,
        checks=checks,
        verdict=bool(series.converged and decay.verdict),
    )


def report_bytes(report):
    return dump_json(report.to_json_dict())


@pytest.mark.parametrize("weight_mode", ["uniform", "random"])
def test_slln_n_matches_the_all_alive_body_byte_for_byte(weight_mode):
    for dim in range(1, 17):
        for steps in sorted({1, 2, 7, dim, 3 * dim + 1, 400}):
            p = (2.5, 3.0, 4.0)[(dim + steps) % 3]
            cfg = GeneratorConfig(seed=dim, dim=dim, steps=steps, weight_mode=weight_mode)
            diffs = generate_mds(cfg)
            assert report_bytes(slln_an_equals_n(diffs, p)) == report_bytes(
                slln_an_equals_n_all_alive(diffs, p)
            )
            # A random first stage, so T_1 is neither trivial nor the identity.
            filt = refining_filtration(SplitMix64(dim + steps), make_space(cfg), steps)
            diffs = generate_mds(cfg, filt)
            assert report_bytes(slln_an_equals_n(diffs, p, 1e-3)) == report_bytes(
                slln_an_equals_n_all_alive(diffs, p, 1e-3)
            )
    for dim in (1, 3, 8, 16):
        diffs = generate_mds(GeneratorConfig(seed=5, dim=dim, steps=20_000, weight_mode=weight_mode))
        for p in (2.5, 3.0, 4.0):
            assert report_bytes(slln_an_equals_n(diffs, p)) == report_bytes(
                slln_an_equals_n_all_alive(diffs, p)
            )


def test_slln_n_counterexample_matches_the_all_alive_body():
    space = SampleSpace.uniform(4)
    singles = [[0], [1], [2], [3]]
    filt = make_filtration(space, [[[0, 1, 2, 3]]] + [singles] * 15)
    values = np.zeros((16, 4))
    values[1] = [1.0, -1.0, 0.0, 0.0]
    diffs = ProcessSequence(filt, values)
    for p in (2.5, 3.0, 4.0):
        assert report_bytes(slln_an_equals_n(diffs, p)) == report_bytes(
            slln_an_equals_n_all_alive(diffs, p)
        )


def test_slln_n_peak_memory_is_at_most_six_tenths_of_the_all_alive_body():
    diffs = generate_mds(GeneratorConfig(seed=3, dim=8, steps=20_000))
    peaks = []
    for body in (slln_an_equals_n, slln_an_equals_n_all_alive):
        tracemalloc.start()
        try:
            body(diffs, 3.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.6 * peaks[1], peaks


# --- exact scaling by 2^k at p = 2 ----------------------------------------------


@pytest.mark.parametrize("k", [-300, -37, 1, 300])
def test_p2_checks_scale_exactly_by_a_power_of_two(k, monkeypatch):
    """At p = 2 and zero absolute slack, every compared value of slln_p_le_2
    and of the submartingale experiment is a sum of products of the values'
    squares, so scaling the values by 2^k scales it by 2^(2k) with no extra
    rounding: the same components miss, and every margin is 2^(2k) times the
    old one.  The gates keep the default slack, so a negative relative one
    fails comparisons only."""
    monkeypatch.setattr(limits, "classify", lambda proc, tol=None: classify(proc))
    gate = require_difference_sequence
    monkeypatch.setattr(limits, "require_difference_sequence", lambda proc, tol=None: gate(proc))
    power1 = WeightSequence.power(1.0)
    failing = compared = 0
    for seed in range(6):
        cfg = GeneratorConfig(
            seed=seed, dim=(3, 5, 8)[seed % 3], steps=(12, 40)[seed % 2],
            weight_mode=("uniform", "random")[seed % 2],
        )
        filt = None
        if seed % 3:
            filt = refining_filtration(SplitMix64(seed), make_space(cfg), cfg.steps)
        for rel in (1e-12, 0.0, -1e-3):
            tol = Tolerance(abs=0.0, rel=rel)
            for run, seq in (
                (lambda s: slln_p_le_2(s, power1, 2.0, tol=tol), generate_mds(cfg, filt)),
                (
                    lambda s: submartingale_convergence_experiment(s, power1, 2.0, tol=tol),
                    generate_submartingale(cfg, "positive-part", filt),
                ),
            ):
                old = run(seq).checks
                new = run(ProcessSequence(seq.filtration, seq.values * 2.0**k)).checks
                for name, check in old.items():
                    assert new[name].failures == check.failures, (seed, rel, name)
                    assert new[name].first_witness == check.first_witness
                    assert new[name].min_margin == check.min_margin * 2.0 ** (2 * k)
                    failing += check.failures > 0
                    compared += 1
    assert 0 < failing < compared
