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
"""

from __future__ import annotations

import math

import numpy as np

from .conditional import CompatibleTriple, ConditionalExpectationOp, lp_norm
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
    leq_with_tolerance,
    multiply,
    power,
    sup_many,
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
        if val != math.inf and val < 1.0:
            raise BadExponent(f"{name} must be >= 1, got {val}")
    inv = (0.0 if p == math.inf else 1.0 / p) + (0.0 if q == math.inf else 1.0 / q)
    if abs(inv - 1.0) > _CONJUGATE_TOL:
        raise ExponentMismatch(f"1/p + 1/q = {inv}, expected 1")


def _norm_factor(elements, r: float, op: ConditionalExpectationOp) -> LatticeElement:
    """(sum_i T|x_i|^r)^(1/r), or the join of blockwise maxima at r = inf."""
    if r == math.inf:
        return sup_many([lp_norm(op, x, math.inf) for x in elements])
    total = op.space.zero()
    for x in elements:
        total = total + op.apply(power(x.abs(), r))
    return power(total, 1.0 / r)


def holder_sums(
    x_list,
    y_list,
    p: float,
    q: float,
    op: ConditionalExpectationOp,
    tol: Tolerance = DEFAULT_TOL,
) -> VerificationReport:
    """Holder inequality for finite sums under an averaging operator."""
    x_list, y_list = list(x_list), list(y_list)
    if len(x_list) != len(y_list) or not x_list:
        raise ValueError("need equally many x and y elements, at least one pair")
    _check_conjugate(p, q)
    report = VerificationReport(suite="holder", trials=1, tol=tol)
    lhs = op.space.zero()
    for x, y in zip(x_list, y_list):
        lhs = lhs + op.apply(multiply(x, y).abs())
    rhs = multiply(_norm_factor(x_list, p, op), _norm_factor(y_list, q, op))
    check = leq_with_tolerance(lhs, rhs, tol)
    report.record(check.ok, check.margin, f"pairs={len(x_list)} p={p} atom={check.atom}")
    return report


def clarkson(
    x: LatticeElement, y: LatticeElement, p: float, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Clarkson inequality for 1 <= p <= 2, plus its sharper intermediate.

    |x+y|^p + |x-y|^p <= 2 (x^2 + y^2)^(p/2) <= 2 (|x|^p + |y|^p);
    both upper bounds are checked against the same left side.
    """
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


def jensen_power(
    f: LatticeElement,
    p: float,
    op: ConditionalExpectationOp,
    tol: Tolerance = DEFAULT_TOL,
) -> VerificationReport:
    """Convexity bound |Tf|^p <= T|f|^p for p >= 1."""
    p = float(p)
    if p < 1.0:
        raise BadExponent(f"Jensen power bound needs p >= 1, got {p}")
    report = VerificationReport(suite="jensen", trials=1, tol=tol)
    lhs = power(op.apply(f).abs(), p)
    rhs = op.apply(power(f.abs(), p))
    check = leq_with_tolerance(lhs, rhs, tol)
    report.record(check.ok, check.margin, f"p={p} atom={check.atom}")
    return report


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
    if p <= 1.0 or p == math.inf:
        raise BadExponent(f"ratio defined for 1 < p < inf, got {p}")
    require_difference_sequence(diffs, tol)
    CompatibleTriple(base, diffs.filtration)  # raises Incompatible
    report = VerificationReport(suite="burkholder", trials=1, tol=tol)
    sums = partial_sums(diffs)
    square = square_function(sums)
    a_side = base.apply_rows(np.abs(sums.values) ** p)
    b_side = base.apply_rows(square.values ** (p / 2.0))
    if p == 2.0:
        gap = np.abs(a_side - b_side)
        slack = tol.slack(a_side, b_side)
        worst = int(np.argmax(gap - slack))
        n_idx, atom = np.unravel_index(worst, gap.shape)
        report.record(
            bool(np.all(gap <= slack)),
            -float(gap.max()),
            f"p=2 identity n={n_idx + 1} atom={atom}",
        )
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


def _require_finite(*stacks: np.ndarray) -> None:
    # Rows are elements of the space: an overflow raises as LatticeElement does.
    if not all(np.isfinite(stack).all() for stack in stacks):
        raise ValueError("coordinates must be finite")


def _same_masks(prod: np.ndarray, join: np.ndarray):
    """Per stage n: (ok, margin, witness(n)) of product mask == join mask."""
    same = (prod == join).all(axis=1)
    return same, np.where(same, 0.0, -1.0), lambda n: (
        f"n={n} product-support {np.flatnonzero(prod[n - 1]).tolist()}"
        f" vs join-support {np.flatnonzero(join[n - 1]).tolist()}"
    )


def _rows_leq(lhs: np.ndarray, rhs: np.ndarray, tol: Tolerance, label: str):
    """Per stage n: (ok, margin, witness(n)) of leq_with_tolerance on row n."""
    gap = rhs - lhs
    loose = gap + tol.slack(lhs, rhs)
    atom = loose.argmin(axis=1)
    ok, margin = (loose >= 0.0).all(axis=1), gap.min(axis=1)
    return ok, margin, lambda n: f"n={n} {label} atom={atom[n - 1]}"


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
    seq = np.array([x.coords for x in xs])
    below, steps = g.coords - seq, seq[1:] - seq[:-1]
    prod = np.logical_and.accumulate(np.maximum(below, 0.0) > 0.0, axis=0)
    join = np.maximum(g.coords - np.maximum.accumulate(seq, axis=0), 0.0) > 0.0
    rhs_sum = np.cumsum(np.concatenate((seq[:1], np.where(prod[:-1], steps, 0.0))), axis=0)
    rhs = rhs_sum - np.where(prod, seq, 0.0)
    _require_finite(below, steps, rhs)
    report = VerificationReport(suite="telescoping", trials=1, tol=tol)
    lhs = np.where(prod, 0.0, g.coords)
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
    _require_finite(excess, rhs)
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
    _require_finite(telescoped)
    gap = np.abs(rhs - telescoped)
    agree = (gap <= tol.slack(rhs, telescoped)).all(axis=1)
    agreement = (agree, -gap.max(axis=1), lambda n: f"n={n} telescoped-right-side agreement")
    _record_stages(report, agreement, _rows_leq(lhs, telescoped, tol, "telescoped bound"))
    return report
