"""Componentwise verification of the operator inequalities.

Each checker evaluates both sides of its inequality on concrete coordinates
and reports margins through a VerificationReport: min_margin is the worst
value of min_i (rhs_i - lhs_i) seen, and a failure is recorded whenever the
comparison misses by more than the tolerance slack.

Covered here:
  * Holder for sums:  sum_i T|x_i y_i| <= (sum_i T|x_i|^p)^(1/p) (sum_i T|y_i|^q)^(1/q)
    with the q = inf factor replaced by the join of the blockwise maxima;
  * Clarkson for 1 <= p <= 2, together with its stronger intermediate
    |x+y|^p + |x-y|^p <= 2 (x^2 + y^2)^(p/2);
  * the power-function Jensen bound |Tf|^p <= T|f|^p for p >= 1;
  * Burkholder ratios between T|X_n|^p and T(S_n^(p/2)), with the exact
    identity at p = 2 coming from orthogonality of increments;
  * the telescoped band-projection bound and the Hajek-Renyi-Chow maximal
    inequality, including Doob's special case a = 1, each checked in array
    passes over the (N, n) stack of stages, with projections as masks.

clarkson and jensen_power are the one-trial case of clarkson_checks and
jensen_checks, which check many trials at once with their atoms laid end to
end (lattice.compare_segments), as the verify suites run them.
"""

from __future__ import annotations

import math

import numpy as np

from .conditional import CompatibleTriple, ConditionalExpectationOp, RaggedOps
from .errors import (
    BadExponent,
    BadWeights,
    ExponentMismatch,
    GNotInRange,
    NotSubmartingale,
    SpaceMismatch,
)
from .lattice import (
    DEFAULT_TOL,
    LatticeElement,
    Tolerance,
    _same_space,
    compare,
    compare_segments,
    leq_with_tolerance,
    power_array,
    ragged_power,
    raise_first,
    require_finite,
    require_finite_segments,
)
from .processes import (
    MARTINGALE,
    SUBMARTINGALE,
    ProcessSequence,
    classify,
    partial_sums,
    require_difference_sequence,
    square_function,
)
from .reports import VerificationReport

_CONJUGATE_TOL = 1e-12


def _check_conjugate(p: float, q: float) -> None:
    for name, val in (("p", p), ("q", q)):
        if not val >= 1.0:
            raise BadExponent(f"{name} must be >= 1, got {val}")
    inv = (0.0 if p == math.inf else 1.0 / p) + (0.0 if q == math.inf else 1.0 / q)
    if abs(inv - 1.0) > _CONJUGATE_TOL:
        raise ExponentMismatch(f"1/p + 1/q = {inv}, expected 1")


def holder_sums(
    x_list,
    y_list,
    p: float,
    q: float,
    op: ConditionalExpectationOp,
    tol: Tolerance = DEFAULT_TOL,
) -> VerificationReport:
    """Holder inequality for finite sums under an averaging operator.

    The right side multiplies (sum_i T|x_i|^p)^(1/p) by the same factor of
    the y_i at q; a factor at exponent inf is the join of the blockwise
    maxima.  One block sum conditions every row of both sides."""
    x_list, y_list = list(x_list), list(y_list)
    if len(x_list) != len(y_list) or not x_list:
        raise ValueError("need equally many x and y elements, at least one pair")
    _check_conjugate(p, q)
    if any(z.space != op.space for z in x_list + y_list):
        raise SpaceMismatch("element on a different space than the operator")
    xs = np.array([x.coords for x in x_list])
    ys = np.array([y.coords for y in y_list])
    with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
        stacks = [np.abs(xs * ys)] + [
            power_array(np.abs(zs), r) for zs, r in ((xs, p), (ys, q)) if r != math.inf
        ]
        conditioned = op.apply_array(np.concatenate(stacks)).reshape(len(stacks), *xs.shape)
        sums = conditioned[:, 0]
        for i in range(1, len(xs)):  # pair by pair, in order
            sums = sums + conditioned[:, i]
        lhs, moments = sums[0], iter(sums[1:])

        def factor(rows: np.ndarray, r: float) -> np.ndarray:
            if r == math.inf:
                return op.block_max_array(np.abs(rows))
            return power_array(next(moments), 1.0 / r)

        rhs = factor(xs, p) * factor(ys, q)
    check = leq_with_tolerance(LatticeElement(op.space, lhs), LatticeElement(op.space, rhs), tol)
    report = VerificationReport(suite="holder", trials=1, tol=tol)
    report.record(check.ok, check.margin, f"pairs={len(x_list)} p={p} atom={check.atom}")
    return report


def _one_trial(suite: str, tol: Tolerance, checks) -> VerificationReport:
    report = VerificationReport(suite=suite, trials=1, tol=tol)
    report.record_trials(checks, [0])
    return report


def _clarkson_range(p: np.ndarray):
    return ~((1.0 <= p) & (p <= 2.0)), lambda t: BadExponent(
        f"Clarkson range is 1 <= p <= 2, got {float(p[t])}"
    )


def clarkson(
    x: LatticeElement, y: LatticeElement, p: float, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Clarkson inequality for 1 <= p <= 2, plus its sharper intermediate.

    |x+y|^p + |x-y|^p <= 2 (x^2 + y^2)^(p/2) <= 2 (|x|^p + |y|^p);
    both upper bounds are checked against the same left side.
    """
    p = np.array([float(p)])
    raise_first(_clarkson_range(p))
    _same_space(x, y)
    checks = clarkson_checks(x.coords, y.coords, p, np.array([0, x.space.n]), tol)
    return _one_trial("clarkson", tol, checks)


def clarkson_checks(x, y, p, starts, tol: Tolerance):
    """clarkson's two checks for trials laid end to end, trial t on atoms
    starts[t]:starts[t + 1] at exponent p[t]: one (ok, margin, witness_at)
    triple per check, over the trials.  Raises as the first failing trial."""
    out_of_range = _clarkson_range(p)
    p_or_1 = np.where(out_of_range[0], 1.0, p)  # such a trial raises before its powers
    with np.errstate(over="ignore", invalid="ignore"):
        powers = ragged_power(np.abs(np.stack((x + y, x - y, x, y))), starts, p_or_1)
        lhs = powers[0] + powers[1]
        plain = 2.0 * (powers[2] + powers[3])
        sharper = 2.0 * ragged_power(x * x + y * y, starts, p_or_1 / 2.0)
    require_finite_segments(starts, lhs, plain, sharper, checks=[out_of_range])
    main = compare_segments(lhs, plain, tol.slack(lhs, plain), starts)
    mid = compare_segments(lhs, sharper, tol.slack(lhs, sharper), starts)
    return [
        (main[0] == 0, main[1], lambda t: f"p={float(p[t])} plain bound atom={main[2][t]}"),
        (mid[0] == 0, mid[1], lambda t: f"p={float(p[t])} quadratic-mean bound atom={mid[2][t]}"),
    ]


def _jensen_range(p: np.ndarray):
    return ~((1.0 <= p) & (p < math.inf)), lambda t: BadExponent(
        f"Jensen power bound needs finite p >= 1, got {float(p[t])}"
    )


def jensen_power(
    f: LatticeElement,
    p: float,
    op: ConditionalExpectationOp,
    tol: Tolerance = DEFAULT_TOL,
) -> VerificationReport:
    """Convexity bound |Tf|^p <= T|f|^p for p >= 1."""
    p = np.array([float(p)])
    raise_first(_jensen_range(p))
    if f.space != op.space:
        raise SpaceMismatch("element on a different space than the operator")
    return _one_trial("jensen", tol, jensen_checks(f.coords, p, RaggedOps.tiled(op), tol))


def jensen_checks(f, p, ops: RaggedOps, tol: Tolerance):
    """jensen_power's check for each trial t of ops, at exponent p[t]: one
    (ok, margin, witness_at) triple over the trials.  Raises as the first
    failing trial."""
    out_of_range = _jensen_range(p)
    p_or_1 = np.where(out_of_range[0], 1.0, p)  # such a trial raises before its powers
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = ragged_power(np.abs(ops.apply(f)), ops.starts, p_or_1)
        rhs = ops.apply(ragged_power(np.abs(f), ops.starts, p_or_1))
    require_finite_segments(ops.starts, lhs, rhs, checks=[out_of_range])
    misses, margin, atom = compare_segments(lhs, rhs, tol.slack(lhs, rhs), ops.starts)
    return [(misses == 0, margin, lambda t: f"p={float(p[t])} atom={atom[t]}")]


def burkholder_ratio(
    diffs: ProcessSequence,
    base: ConditionalExpectationOp,
    p: float,
    tol: Tolerance = DEFAULT_TOL,
) -> VerificationReport:
    """Ratio extremes of T(S_n^(p/2)) against T|X_n|^p over steps and atoms.

    X is the running sum of the difference sequence and S its running sum of
    squared increments.  At p = 2 the two sides agree exactly (orthogonality
    of increments under a compatible base), which is asserted; for other p
    the componentwise ratios are collected so empirical brackets for the
    equivalence constants can be frozen into golden reports.
    """
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
        ok, margin, worst = _rows_agree(a_side.ravel(), b_side.ravel(), tol)
        n_idx, atom = np.unravel_index(worst, a_side.shape)
        report.record(bool(ok), float(margin), f"p=2 identity n={n_idx + 1} atom={atom}")
    positive = a_side > 0.0
    if np.any(positive):
        ratios = b_side[positive] / a_side[positive]
        report.details["ratio_min"] = float(ratios.min())
        report.details["ratio_max"] = float(ratios.max())
        finite = bool(np.all(np.isfinite(ratios)))
        report.record(
            finite,
            0.0 if finite else -math.inf,
            "ratio finiteness",
        )
    else:
        report.details["ratio_min"] = None
        report.details["ratio_max"] = None
    return report


def _same_masks(prod: np.ndarray, join: np.ndarray):
    """Per stage n: (ok, margin, witness(n)) of product mask == join mask."""
    same = (prod == join).all(axis=1)
    return same, np.where(same, 0.0, -1.0), lambda n: (
        f"n={n} product-support {np.flatnonzero(prod[n - 1]).tolist()}"
        f" vs join-support {np.flatnonzero(join[n - 1]).tolist()}"
    )


def _rows_leq(lhs: np.ndarray, rhs: np.ndarray, tol: Tolerance, label: str):
    """Per stage n: (ok, margin, witness(n)) of leq_with_tolerance on row n."""
    misses, margin, atom = compare(lhs, rhs, tol.slack(lhs, rhs))
    return misses == 0, margin, lambda n: f"n={n} {label} atom={atom[n - 1]}"


def _rows_agree(a: np.ndarray, b: np.ndarray, tol: Tolerance):
    """Per row: (ok, -max|a - b|, first argmax of |a - b| - slack) of the
    two-sided comparison a = b within the slack.  The right side is -0.0 so
    that the margin of an exact agreement is -0.0, as -max|a - b| gives."""
    misses, margin, worst = compare(np.abs(a - b), -0.0, tol.slack(a, b))
    return misses == 0, margin, worst


def _record_stages(report: VerificationReport, first, second) -> None:
    """Record first, then second, at each stage n = 1..N in turn."""
    report.record_many(
        np.array((first[0], second[0])).T.ravel(),
        np.array((first[1], second[1])).T.ravel(),
        lambda i: (first, second)[i % 2][2](i // 2 + 1),
    )


def telescoping_bound(
    x_elements, g: LatticeElement, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Telescoped band-projection bound for an arbitrary finite sequence.

    With P_i the projection onto the band of (g - X_i)+ and Q_n their
    product, every n must satisfy
        (I - Q_n) g <= X_1 + sum_{i<n} Q_i (X_{i+1} - X_i) - Q_n X_n,
    and Q_n must agree exactly with the projection generated by
    (g - max_{j<=n} X_j)+.  Q_n is the running logical and of the P_i
    masks, independent of the join form, and the sum is a cumsum.
    """
    xs = list(x_elements)
    if not xs:
        raise ValueError("need at least one element")
    for x in xs:
        if x.space != g.space:
            raise SpaceMismatch("sequence and threshold on different spaces")
    return _telescoping_rows(np.array([x.coords for x in xs]), g.coords, tol)


def _telescoping_rows(seq: np.ndarray, g: np.ndarray, tol: Tolerance) -> VerificationReport:
    """telescoping_bound of the (N, n) stack seq of X_1..X_N and g's coordinates."""
    below, steps = g - seq, seq[1:] - seq[:-1]
    prod = np.logical_and.accumulate(np.maximum(below, 0.0) > 0.0, axis=0)
    join = np.maximum(g - np.maximum.accumulate(seq, axis=0), 0.0) > 0.0
    rhs_sum = np.cumsum(np.concatenate((seq[:1], np.where(prod[:-1], steps, 0.0))), axis=0)
    rhs = rhs_sum - np.where(prod, seq, 0.0)
    require_finite(below, steps, rhs)
    report = VerificationReport(suite="telescoping", trials=1, tol=tol)
    lhs = np.where(prod, 0.0, g)
    _record_stages(report, _same_masks(prod, join), _rows_leq(lhs, rhs, tol, "bound"))
    return report


def _hrc_pass(process: ProcessSequence, a_values, g: LatticeElement, tol, suite: str):
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
    _record_stages(report, _same_masks(prod, join), _rows_leq(lhs, rhs, tol, "bound"))
    return report, t1, pos, join, rhs


def hrc_maximal(
    process: ProcessSequence,
    a_values,
    g: LatticeElement,
    tol: Tolerance = DEFAULT_TOL,
) -> VerificationReport:
    """Hajek-Renyi-Chow maximal inequality for a submartingale.

    U_n projects onto the band of (g - max_{i<=n} Y_i/a_i)+; for every n,
        T_1 (I - U_n) g <= Y_1+/a_1 + sum_{i<n} T_1[(Y_{i+1}+ - Y_i+)/a_{i+1}].
    The threshold g must lie in the positive part of the range of T_1, with
    exact block-constancy (near misses are rejected, not rounded).  The left
    side takes U_n as the running product of the (g - Y_i/a_i)+ masks, which
    must equal the join-form mask exactly.
    """
    return _hrc_pass(process, a_values, g, tol, "hrc")[0]


def doob_maximal(
    process: ProcessSequence, g: LatticeElement, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Doob-style maximal bound: unit rates, telescoped right side.

    With a = 1 the sum on the right collapses to T_1 Y_n+; both forms are
    computed and must agree within tolerance, and the bound is checked
    against the telescoped form as well.  The HRC records at a = 1 come
    first; its masks and sum are reused, since Y/1 is Y exactly.
    """
    report, t1, pos, join, rhs = _hrc_pass(process, np.ones(len(process)), g, tol, "doob")
    conditioned = t1.apply_array(np.concatenate((pos, np.where(join, 0.0, g.coords))))
    telescoped, lhs = conditioned[: len(pos)], conditioned[len(pos) :]
    require_finite(telescoped)
    agree, margin, _ = _rows_agree(rhs, telescoped, tol)
    agreement = (agree, margin, lambda n: f"n={n} telescoped-right-side agreement")
    _record_stages(report, agreement, _rows_leq(lhs, telescoped, tol, "telescoped bound"))
    return report
