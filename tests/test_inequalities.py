"""Hand-computed and randomized cases for the inequality checkers."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieszmart import (
    DEFAULT_TOL,
    BadExponent,
    BadWeights,
    BandProjection,
    ConditionalExpectationOp,
    ExponentMismatch,
    GeneratorConfig,
    GNotInRange,
    Incompatible,
    LatticeElement,
    NotSubmartingale,
    Partition,
    ProcessSequence,
    SampleSpace,
    SpaceMismatch,
    Tolerance,
    band_projection,
    burkholder_ratio,
    clarkson,
    default_filtration,
    doob_maximal,
    generate_mds,
    generate_submartingale,
    holder_sums,
    hrc_maximal,
    inequalities,
    jensen_power,
    leq_with_tolerance,
    partial_sums,
    telescoping_bound,
)
from rieszmart.processes import MARTINGALE, SUBMARTINGALE, classify
from rieszmart.reports import (
    MAX_RECORDED_FAILURES,
    Failure,
    VerificationReport,
    dump_json,
)
from rieszmart.rng import SplitMix64
from chains import refining_filtration


def single_block_op(n):
    return ConditionalExpectationOp(Partition.single_block(SampleSpace.uniform(n)))


def dim1_process(*values):
    space = SampleSpace.uniform(1)
    filt = default_filtration(space, len(values))
    return ProcessSequence(filt, np.array([[float(v)] for v in values]))


# --- Holder ---------------------------------------------------------------------


def test_holder_unit_case_margin_zero():
    op = single_block_op(3)
    e = op.space.unit()
    report = holder_sums([e], [e], 2.0, 2.0, op)
    assert report.passed
    assert abs(report.min_margin) <= 1e-12


def test_holder_two_pairs_hand_margin():
    op = single_block_op(1)
    space = op.space
    one = space.unit()
    zero = space.zero()
    # (1*1 + 1*0) <= sqrt(1+1) * sqrt(1+0): margin sqrt(2) - 1.
    report = holder_sums([one, one], [one, zero], 2.0, 2.0, op)
    assert report.passed
    assert abs(report.min_margin - (math.sqrt(2.0) - 1.0)) <= 1e-12


def test_holder_infinite_exponent_hand_case():
    op = single_block_op(2)
    space = op.space
    x = space.unit()
    y = space.element([1.0, 2.0])
    report = holder_sums([x], [y], 1.0, math.inf, op)
    assert report.passed
    # T|xy| = 1.5 e against 1 * max|y| = 2 e.
    assert abs(report.min_margin - 0.5) <= 1e-12


def test_holder_randomized_never_fails():
    stream = SplitMix64(55)
    for trial in range(100):
        n = 1 + stream.below(6)
        op = single_block_op(n)
        space = op.space
        count = 1 + stream.below(3)
        xs = [space.element(stream.uniforms(n, -2.0, 2.0)) for _ in range(count)]
        ys = [space.element(stream.uniforms(n, -2.0, 2.0)) for _ in range(count)]
        p = 1.0 + 4.0 * stream.next_float() + 0.01
        q = p / (p - 1.0)
        assert holder_sums(xs, ys, p, q, op).passed, f"trial {trial}"


def test_holder_exponent_validation():
    op = single_block_op(2)
    e = op.space.unit()
    with pytest.raises(ExponentMismatch):
        holder_sums([e], [e], 2.0, 3.0, op)
    with pytest.raises(BadExponent):
        holder_sums([e], [e], 0.5, -1.0, op)
    for p, q in ((math.nan, 2.0), (2.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(BadExponent):
            holder_sums([e], [e], p, q, op)
    # q = inf is Holder's blockwise-max factor.
    assert holder_sums([e], [e], 1.0, math.inf, op).passed
    with pytest.raises(ValueError):
        holder_sums([], [], 2.0, 2.0, op)
    with pytest.raises(ValueError):
        holder_sums([e], [e, e], 2.0, 2.0, op)


def test_holder_conjugate_pair_with_infinity():
    op = single_block_op(2)
    e = op.space.unit()
    assert holder_sums([e], [e], 1.0, math.inf, op).passed
    assert holder_sums([e], [e], math.inf, 1.0, op).passed


# --- Clarkson --------------------------------------------------------------------


def test_clarkson_disjoint_hand_case():
    space = SampleSpace.uniform(2)
    x = space.element([1.0, 0.0])
    y = space.element([0.0, 1.0])
    report = clarkson(x, y, 1.5)
    assert report.passed
    # Both bounds collapse to equality on disjoint unit vectors.
    assert abs(report.min_margin) <= 1e-12


def test_clarkson_parallelogram_at_p_two():
    space = SampleSpace.uniform(4)
    stream = SplitMix64(66)
    for _ in range(50):
        x = space.element(stream.uniforms(4, -3.0, 3.0))
        y = space.element(stream.uniforms(4, -3.0, 3.0))
        report = clarkson(x, y, 2.0)
        assert report.passed
        # |x+y|^2 + |x-y|^2 = 2x^2 + 2y^2 exactly, up to rounding.
        assert report.min_margin >= -1e-9


def test_clarkson_randomized_in_range():
    stream = SplitMix64(67)
    for trial in range(200):
        n = 1 + stream.below(6)
        space = SampleSpace.uniform(n)
        x = space.element(stream.uniforms(n, -5.0, 5.0))
        y = space.element(stream.uniforms(n, -5.0, 5.0))
        p = 1.0 + stream.next_float()
        assert clarkson(x, y, p).passed, f"trial {trial} p={p}"


def test_clarkson_rejects_out_of_range_exponent():
    space = SampleSpace.uniform(2)
    e = space.unit()
    with pytest.raises(BadExponent):
        clarkson(e, e, 3.0)
    with pytest.raises(BadExponent):
        clarkson(e, e, 0.5)


# --- Jensen ----------------------------------------------------------------------


def test_jensen_hand_case():
    op = single_block_op(2)
    f = op.space.element([0.0, 2.0])
    report = jensen_power(f, 2.0, op)
    assert report.passed
    # |Tf|^2 = e vs T|f|^2 = 2e.
    assert abs(report.min_margin - 1.0) <= 1e-12


def test_jensen_p_equal_one_is_triangle_inequality():
    op = single_block_op(3)
    stream = SplitMix64(8)
    for _ in range(50):
        f = op.space.element(stream.uniforms(3, -4.0, 4.0))
        report = jensen_power(f, 1.0, op)
        assert report.passed
        assert report.min_margin >= -1e-12


def test_jensen_rejects_p_below_one():
    op = single_block_op(2)
    with pytest.raises(BadExponent):
        jensen_power(op.space.unit(), 0.9, op)


def test_jensen_rejects_non_finite_exponents():
    op = single_block_op(2)
    for p in (math.nan, math.inf):
        with pytest.raises(BadExponent):
            jensen_power(op.space.unit(), p, op)


# --- Burkholder -------------------------------------------------------------------


def test_burkholder_identity_at_p_two():
    for seed in range(30):
        diffs = generate_mds(GeneratorConfig(seed=seed, dim=4, steps=8))
        base = diffs.filtration[0]
        report = burkholder_ratio(diffs, base, 2.0)
        assert report.passed, (seed, report.failures[:1])
        assert report.details["ratio_min"] == pytest.approx(1.0, rel=1e-9)
        assert report.details["ratio_max"] == pytest.approx(1.0, rel=1e-9)


def test_burkholder_single_step_ratio_is_one():
    diffs = generate_mds(GeneratorConfig(seed=4, dim=4, steps=1))
    base = diffs.filtration[0]
    report = burkholder_ratio(diffs, base, 2.0)
    assert report.passed
    assert report.details["ratio_min"] == pytest.approx(1.0, rel=1e-12)


def test_burkholder_brackets_are_finite_for_larger_p():
    diffs = generate_mds(GeneratorConfig(seed=12, dim=6, steps=10))
    base = diffs.filtration[0]
    for p in (3.0, 4.0):
        report = burkholder_ratio(diffs, base, p)
        assert report.passed
        assert 0.0 < report.details["ratio_min"] <= report.details["ratio_max"]
        assert math.isfinite(report.details["ratio_max"])


def test_burkholder_zero_process_has_no_ratios():
    space = SampleSpace.uniform(2)
    filt = default_filtration(space, 3)
    diffs = ProcessSequence(filt, np.zeros((3, 2)))
    report = burkholder_ratio(diffs, filt[0], 2.0)
    assert report.details["ratio_min"] is None
    assert report.details["ratio_max"] is None


def test_burkholder_validation():
    diffs = generate_mds(GeneratorConfig(seed=1, dim=4, steps=4))
    base = diffs.filtration[0]
    with pytest.raises(BadExponent):
        burkholder_ratio(diffs, base, 1.0)
    with pytest.raises(BadExponent):
        burkholder_ratio(diffs, base, math.inf)
    with pytest.raises(BadExponent):
        burkholder_ratio(diffs, base, math.nan)
    crossing = ConditionalExpectationOp(
        Partition(diffs.space, [[0, 2], [1, 3]])
    )
    with pytest.raises(Incompatible):
        burkholder_ratio(diffs, crossing, 2.0)


# --- telescoping bound ---------------------------------------------------------------


def test_telescoping_dim1_hand_case():
    space = SampleSpace.uniform(1)
    g = space.unit()
    xs = [space.element([0.5]), space.element([2.0])]
    report = telescoping_bound(xs, g)
    assert report.passed
    # Stage margins are 0 (threshold not yet crossed) and 1 (crossed).
    bound_margins = [0.0, 1.0]
    got = [f for f in report.failures]
    assert got == []
    assert report.min_margin == min(bound_margins)


def test_telescoping_when_first_value_dominates():
    space = SampleSpace.uniform(1)
    report = telescoping_bound([space.element([2.0])], space.unit())
    assert report.passed
    # The exact product-vs-join record contributes margin 0; the bound
    # itself holds with slack 2 - 1 = 1.
    assert report.min_margin == 0.0


def test_telescoping_arbitrary_sequences():
    stream = SplitMix64(99)
    for trial in range(150):
        n = 1 + stream.below(6)
        space = SampleSpace.uniform(n)
        count = 1 + stream.below(8)
        xs = [space.element(stream.uniforms(n, -3.0, 3.0)) for _ in range(count)]
        g = space.element(np.maximum(stream.uniforms(n, -1.0, 2.0), 0.0))
        report = telescoping_bound(xs, g)
        assert report.passed, f"trial {trial}: {report.failures[:1]}"


def test_telescoping_validation():
    space = SampleSpace.uniform(2)
    with pytest.raises(ValueError):
        telescoping_bound([], space.unit())
    with pytest.raises(SpaceMismatch):
        telescoping_bound([SampleSpace.uniform(3).unit()], space.unit())


# --- maximal inequalities -------------------------------------------------------------


def test_hrc_dim1_single_step():
    report = hrc_maximal(dim1_process(2.0), [1.0], SampleSpace.uniform(1).unit())
    assert report.passed
    # (I - U_1) g = g since the process already exceeds the threshold; the
    # bound reads 1 <= 2 while the exact form-equality record pins the
    # minimum margin at 0.
    assert report.min_margin == 0.0
    assert report.failure_count == 0


def test_hrc_dim1_two_steps_with_rates():
    proc = dim1_process(1.0, 3.0)
    report = hrc_maximal(proc, [1.0, 2.0], proc.space.unit())
    assert report.passed
    # Stage 1: 1 <= 1 exactly; stage 2: 1 <= 1 + (3-1)/2 = 2.
    assert report.min_margin == pytest.approx(0.0)


def test_hrc_threshold_validation():
    proc = dim1_process(1.0, 2.0)
    space = proc.space
    with pytest.raises(GNotInRange):
        hrc_maximal(proc, [1.0, 1.0], space.element([-0.5]))
    wide = generate_submartingale(GeneratorConfig(seed=2, dim=4, steps=3))
    ragged = wide.space.element([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(GNotInRange):
        # Stage 1 averages over a single block; a non-constant threshold
        # is rejected exactly, not rounded into range.
        hrc_maximal(wide, [1.0, 1.0, 1.0], ragged)


def test_hrc_rate_validation():
    proc = dim1_process(1.0, 2.0)
    g = proc.space.unit()
    with pytest.raises(BadWeights):
        hrc_maximal(proc, [2.0, 1.0], g)  # decreasing
    with pytest.raises(BadWeights):
        hrc_maximal(proc, [0.0, 1.0], g)  # not strictly positive
    with pytest.raises(BadWeights):
        hrc_maximal(proc, [1.0], g)  # wrong length



@pytest.mark.parametrize(
    "rates",
    [[math.nan] * 3, [1.0, 2.0, math.inf], [1.0, math.nan, 3.0], [math.inf] * 3, [-math.inf, 1.0, 2.0]],
)
def test_hrc_rejects_non_finite_rates(rates):
    proc = generate_submartingale(GeneratorConfig(seed=2, dim=4, steps=3))
    g = proc.space.unit()
    with pytest.raises(BadWeights, match="rates must be strictly positive"):
        hrc_maximal(proc, rates, g)


def test_doob_unit_rates_pass_the_finite_rate_check():
    # doob_maximal runs the HRC pass at a = 1, which the finite check accepts.
    proc = generate_submartingale(GeneratorConfig(seed=2, dim=4, steps=3))
    g = proc.space.unit()
    report = doob_maximal(proc, g)
    assert report.failure_count == 0
    assert report.to_json_dict() == doob_maximal(proc, g).to_json_dict()
    assert hrc_maximal(proc, [1.0, 2.0, 3.0], g).failure_count == 0


def test_hrc_rejects_non_submartingale():
    proc = dim1_process(1.0, 0.0, 2.0)
    with pytest.raises(NotSubmartingale):
        hrc_maximal(proc, [1.0, 1.0, 1.0], proc.space.unit())


def test_hrc_on_generated_submartingales():
    for seed in range(30):
        proc = generate_submartingale(GeneratorConfig(seed=seed, dim=5, steps=8))
        count = len(proc)
        for a in (
            np.ones(count),
            np.sqrt(np.arange(1, count + 1, dtype=float)),
            np.arange(1, count + 1, dtype=float),
        ):
            g = proc.space.element(np.full(5, 0.5))
            report = hrc_maximal(proc, a, g)
            assert report.passed, f"seed {seed}: {report.failures[:1]}"


def test_doob_constant_process():
    space = SampleSpace.uniform(3)
    filt = default_filtration(space, 4)
    proc = ProcessSequence(filt, np.full((4, 3), 2.0))
    report = doob_maximal(proc, space.element([1.0, 1.0, 1.0]))
    assert report.suite == "doob"
    assert report.passed
    # Bound margins are 2 - 1 = 1 at every stage; agreement and form
    # records sit at 0.
    assert report.min_margin == pytest.approx(0.0, abs=1e-12)


def test_doob_zero_process_zero_threshold():
    space = SampleSpace.uniform(2)
    filt = default_filtration(space, 3)
    proc = ProcessSequence(filt, np.zeros((3, 2)))
    report = doob_maximal(proc, space.zero())
    assert report.passed
    assert report.min_margin == pytest.approx(0.0)


def test_doob_matches_hrc_with_unit_rates():
    for seed in range(10):
        proc = generate_submartingale(GeneratorConfig(seed=seed, dim=4, steps=6))
        g = proc.space.element(np.full(4, 0.25))
        doob = doob_maximal(proc, g)
        hrc = hrc_maximal(proc, np.ones(len(proc)), g)
        assert doob.passed and hrc.passed
        # Doob refines the same run with extra agreement records.
        assert doob.min_margin <= hrc.min_margin + 1e-15


def test_doob_martingale_positive_part_bound():
    # Doob applied to the positive part of a plain martingale.
    for seed in range(10):
        sums = partial_sums(generate_mds(GeneratorConfig(seed=seed, dim=4, steps=6)))
        pos = ProcessSequence(sums.filtration, np.maximum(sums.values, 0.0))
        g = pos.space.element(np.full(4, 0.3))
        assert doob_maximal(pos, g).passed


# --- array passes against the per-stage loops --------------------------------------
#
# Reference: the per-stage loops that telescoping_bound, hrc_maximal and
# doob_maximal ran before they became array passes, copied verbatim apart
# from the sequential record fold, which is copied here as well.


def fold_record(report, ok, margin, witness, trial=0, seed=None):
    if margin < report.min_margin:
        report.min_margin = margin
    if not ok:
        report.failure_count += 1
        if len(report.failures) < MAX_RECORDED_FAILURES:
            report.failures.append(Failure(trial, seed, margin, witness))


def loop_telescoping(x_elements, g, tol=DEFAULT_TOL):
    xs = list(x_elements)
    if not xs:
        raise ValueError("need at least one element")
    for x in xs:
        if x.space != g.space:
            raise SpaceMismatch("sequence and threshold on different spaces")
    report = VerificationReport(suite="telescoping", trials=1, tol=tol)
    running_max = xs[0]
    product = band_projection((g - xs[0]).pos_part())
    rhs_sum = xs[0]  # X_1 + sum_{i<n} Q_i (X_{i+1} - X_i), built incrementally
    for n, x_n in enumerate(xs, start=1):
        if n > 1:
            running_max = running_max.sup(x_n)
            product = product.compose(band_projection((g - x_n).pos_part()))
        join_form = band_projection((g - running_max).pos_part())
        same = product == join_form
        fold_record(
            report,
            same,
            0.0 if same else -1.0,
            f"n={n} product-support {list(product.support)} vs join-support {list(join_form.support)}",
        )
        check = leq_with_tolerance(product.co_apply(g), rhs_sum - product.apply(x_n), tol)
        fold_record(report, check.ok, check.margin, f"n={n} bound atom={check.atom}")
        if n < len(xs):
            rhs_sum = rhs_sum + product.apply(xs[n] - x_n)
    return report


def _validate_rates(a_values, length: int) -> np.ndarray:
    a = np.asarray(a_values, dtype=np.float64)
    if a.shape != (length,):
        raise BadWeights(f"need {length} rate values, got shape {a.shape}")
    if np.any(a <= 0.0):
        raise BadWeights("rates must be strictly positive")
    if np.any(np.diff(a) < 0.0):
        raise BadWeights("rates must be nondecreasing")
    return a


def _validate_threshold(g, op) -> None:
    if np.any(g.coords < 0.0):
        raise GNotInRange("threshold must be nonnegative")
    if not op.fixes_exactly(g):
        raise GNotInRange("threshold must be exactly block-constant for the base operator")


def loop_hrc(process, a_values, g, tol=DEFAULT_TOL):
    label = classify(process, tol)
    if label not in (MARTINGALE, SUBMARTINGALE):
        raise NotSubmartingale(f"maximal inequality needs a (sub)martingale, got {label}")
    count = len(process)
    a = _validate_rates(a_values, count)
    t1 = process.filtration[0]
    if g.space != process.space:
        raise SpaceMismatch("threshold on a different space")
    _validate_threshold(g, t1)
    report = VerificationReport(suite="hrc", trials=1, tol=tol)
    space = process.space
    scaled = process.values / a[:, None]
    pos = np.maximum(process.values, 0.0)
    rhs = LatticeElement(space, pos[0] / a[0])
    running_max = scaled[0]
    product = band_projection(LatticeElement(space, np.maximum(g.coords - scaled[0], 0.0)))
    for n in range(1, count + 1):
        if n > 1:
            running_max = np.maximum(running_max, scaled[n - 1])
            product = product.compose(
                band_projection(
                    LatticeElement(space, np.maximum(g.coords - scaled[n - 1], 0.0))
                )
            )
            rhs = rhs + t1.apply(
                LatticeElement(space, (pos[n - 1] - pos[n - 2]) / a[n - 1])
            )
        join_form = BandProjection(space, np.flatnonzero(g.coords > running_max))
        same = product == join_form
        fold_record(
            report,
            same,
            0.0 if same else -1.0,
            f"n={n} product-support {list(product.support)} vs join-support {list(join_form.support)}",
        )
        check = leq_with_tolerance(t1.apply(product.co_apply(g)), rhs, tol)
        fold_record(report, check.ok, check.margin, f"n={n} bound atom={check.atom}")
    return report


def loop_doob(process, g, tol=DEFAULT_TOL):
    report = loop_hrc(process, np.ones(len(process)), g, tol)
    report.suite = "doob"
    t1 = process.filtration[0]
    pos = np.maximum(process.values, 0.0)
    running_max = np.maximum.accumulate(process.values, axis=0)
    rhs_sum = LatticeElement(process.space, pos[0])
    for n in range(1, len(process) + 1):
        if n > 1:
            rhs_sum = rhs_sum + t1.apply(
                LatticeElement(process.space, pos[n - 1] - pos[n - 2])
            )
        telescoped = t1.apply(LatticeElement(process.space, pos[n - 1]))
        gap = np.abs(rhs_sum.coords - telescoped.coords)
        slack = tol.slack(rhs_sum.coords, telescoped.coords)
        fold_record(
            report,
            bool(np.all(gap <= slack)),
            -float(gap.max()),
            f"n={n} telescoped-right-side agreement",
        )
        u_n = BandProjection(
            process.space, np.flatnonzero(g.coords > running_max[n - 1])
        )
        check = leq_with_tolerance(t1.apply(u_n.co_apply(g)), telescoped, tol)
        fold_record(report, check.ok, check.margin, f"n={n} telescoped bound atom={check.atom}")
    return report


def same_report(new, old):
    # dump_json also tells 0.0 from -0.0 and 1 from 1.0.
    assert dump_json(new.to_json_dict()) == dump_json(old.to_json_dict())


def generated_case(seed):
    """A submartingale with its rates and threshold, drawn as run_hrc draws
    them: dims 1-16, steps 1-40, both modes, half of them on a random
    refining filtration, rates i^0, i^(1/2) and i^1 in turn."""
    stream = SplitMix64(seed)
    steps = 1 + stream.below(40)
    gen = GeneratorConfig(
        seed=seed,
        dim=1 + stream.below(16),
        steps=steps,
        weight_mode="uniform" if stream.next_float() < 0.5 else "random",
    )
    filt = None
    if stream.next_float() < 0.5:
        n = 1 + stream.below(16)
        space = SampleSpace.uniform(n) if seed % 4 < 2 else SampleSpace(stream.uniforms(n, 0.05, 1.0))
        filt = refining_filtration(stream, space, steps)
    proc = generate_submartingale(gen, ("positive-part", "drift")[seed % 2], filt)
    rates = np.arange(1, steps + 1, dtype=np.float64) ** (0.0, 0.5, 1.0)[seed % 3]
    part = proc.filtration[0].partition
    vals = stream.uniforms(part.num_blocks, 0.0, 1.0 + np.sqrt(steps))
    vals[stream.floats(part.num_blocks) < 0.25] = 0.0
    return proc, rates, proc.space.element(vals[part.block_id])


NEGATIVE_SLACK = Tolerance(abs=-0.5, rel=0.0)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, NEGATIVE_SLACK], ids=["default", "negative-slack"])
def test_array_passes_match_the_stage_loops_on_submartingales(tol, monkeypatch):
    # classify keeps the default slack, so a negative one fails comparisons only.
    strict = classify

    def lenient(process, _tol):
        return strict(process, DEFAULT_TOL)

    monkeypatch.setattr(inequalities, "classify", lenient)
    monkeypatch.setattr(sys.modules[__name__], "classify", lenient)
    capped = 0
    for seed in range(120):
        proc, rates, g = generated_case(seed)
        rows = [proc[i] for i in range(len(proc))]
        for new, old in (
            (hrc_maximal(proc, rates, g, tol), loop_hrc(proc, rates, g, tol)),
            (doob_maximal(proc, g, tol), loop_doob(proc, g, tol)),
            (telescoping_bound(rows, g, tol), loop_telescoping(rows, g, tol)),
        ):
            same_report(new, old)
            capped += new.failure_count > MAX_RECORDED_FAILURES
    if tol is NEGATIVE_SLACK:
        # Witness text, order and the cap of 50 are all compared.
        assert capped >= 20


@pytest.mark.parametrize("tol", [DEFAULT_TOL, NEGATIVE_SLACK], ids=["default", "negative-slack"])
def test_telescoping_array_pass_matches_the_loop_on_arbitrary_sequences(tol):
    stream = SplitMix64(2024)
    for trial in range(300):
        n = 1 + stream.below(16)
        space = SampleSpace.uniform(n)
        count = 1 + stream.below(40)
        g = space.element(np.where(stream.floats(n) < 0.3, 0.0, stream.uniforms(n, 0.0, 2.0)))
        xs = []
        for _ in range(count):
            x = stream.uniforms(n, -3.0, 3.0)
            # Exact ties with g and exact zeros put atoms on the band edge.
            x[stream.floats(n) < 0.2] = 0.0
            tie = stream.floats(n) < 0.2
            x[tie] = g.coords[tie]
            xs.append(space.element(x))
        same_report(telescoping_bound(xs, g, tol), loop_telescoping(xs, g, tol))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_array_passes_raise_where_the_loops_overflow():
    space = SampleSpace.uniform(2)
    xs = [space.element([-1e308, 0.0]), space.element([1e308, 0.0])]
    for check in (telescoping_bound, loop_telescoping):
        with pytest.raises(ValueError, match="finite"):
            check(xs, space.zero())
    proc = dim1_process(1.0, 1e10)
    for check in (hrc_maximal, loop_hrc):
        with pytest.raises(ValueError, match="finite"):
            check(proc, [1e-300, 1e-300], proc.space.unit())


class _ProductRouteFault:
    """numpy as seen by the checkers, except that the running product of
    the stage masks drops or adds atom 0 at the last stage."""

    class logical_and:
        reduceat = staticmethod(np.logical_and.reduceat)

        @staticmethod
        def accumulate(masks, axis):
            # Stages run along the second-last axis, atoms along the last.
            out = np.logical_and.accumulate(masks, axis=axis)
            out[..., -1, 0] = ~out[..., -1, 0]
            return out

    def __getattr__(self, name):
        return getattr(np, name)


def test_product_form_record_watches_the_product_route(monkeypatch):
    proc = ProcessSequence(
        default_filtration(SampleSpace.uniform(3), 3),
        np.array([[1.0, 1.0, 1.0], [1.5, 1.5, 1.0], [3.0, 1.0, 1.0]]),
    )
    g = proc.space.element([2.0, 2.0, 2.0])
    rows = [proc[i] for i in range(len(proc))]
    for report in (hrc_maximal(proc, np.ones(3), g), doob_maximal(proc, g), telescoping_bound(rows, g)):
        assert report.passed
    monkeypatch.setattr(inequalities, "np", _ProductRouteFault())
    # Join support at n = 3 is [1, 2]; the faulted product adds atom 0.
    witness = "n=3 product-support [0, 1, 2] vs join-support [1, 2]"
    for report in (hrc_maximal(proc, np.ones(3), g), doob_maximal(proc, g), telescoping_bound(rows, g)):
        form = [f for f in report.failures if "product-support" in f.witness]
        assert [(f.margin, f.witness) for f in form] == [(-1.0, witness)]


OUTCOMES = st.lists(
    st.tuples(st.booleans(), st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, 3.0])),
    max_size=130,
)


@given(
    OUTCOMES,
    st.sampled_from([math.inf, 0.0, -0.0, -1.0]),
    st.integers(min_value=0, max_value=MAX_RECORDED_FAILURES),
)
def test_record_many_matches_a_loop_of_record(outcomes, start, earlier):
    folded = VerificationReport(suite="x", min_margin=start)
    batched = VerificationReport(suite="x", min_margin=start)
    for report in (folded, batched):
        for k in range(earlier):
            report.record(False, 5.0, f"earlier {k}")
    for i, (ok, margin) in enumerate(outcomes):
        folded.record(ok, margin, f"w{i}")
    asked = []
    batched.record_many(
        np.array([ok for ok, _ in outcomes], dtype=bool),
        np.array([m for _, m in outcomes], dtype=np.float64),
        lambda i: asked.append(i) or f"w{i}",
    )
    same_report(batched, folded)
    assert math.copysign(1.0, batched.min_margin) == math.copysign(1.0, folded.min_margin)
    assert type(batched.failure_count) is int
    misses = [i for i, (ok, _) in enumerate(outcomes) if not ok]
    assert asked == misses[: MAX_RECORDED_FAILURES - earlier]


def test_record_many_caps_witnesses_ties_and_empty_input():
    # Among equal minima the first one recorded wins, as in the fold.
    for margins in ([0.0, -0.0, 1.0], [-0.0, 2.0, 0.0]):
        report = VerificationReport(suite="x")
        report.record_many(np.ones(3, dtype=bool), np.array(margins), str)
        assert math.copysign(1.0, report.min_margin) == math.copysign(1.0, margins[0])
    report = VerificationReport(suite="x")
    report.record_many(np.zeros(0, dtype=bool), np.zeros(0), lambda i: 1 / 0)
    assert report.min_margin == math.inf and report.failure_count == 0
    report.record_many(np.zeros(120, dtype=bool), -np.arange(120.0), lambda i: f"w{i}")
    assert report.failure_count == 120
    assert [f.witness for f in report.failures] == [f"w{i}" for i in range(50)]
    assert report.min_margin == -119.0
