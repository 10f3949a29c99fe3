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
    passes over the stages of one process or of many laid end to end
    (conditional.StageRows), with projections as masks.

burkholder_ratio, telescoping_bound, hrc_maximal and doob_maximal are the
one-process case of burkholder_rows, telescoping_rows and maximal_rows,
which the verify suites run over a batch of trials.

clarkson and jensen_power are the one-trial case of clarkson_checks and
jensen_checks, which check many trials at once with their atoms laid end to
end (lattice.compare_segments), as the verify suites run them.
"""

from __future__ import annotations

import math

import numpy as np

from .conditional import CompatibleTriple, ConditionalExpectationOp, RaggedOps, StageRows, Stages
from .errors import (
    BadExponent,
    BadWeights,
    ExponentMismatch,
    GNotInRange,
    NotAdapted,
    NotDifferenceSequence,
    NotSubmartingale,
    SpaceMismatch,
)
from .lattice import (
    DEFAULT_TOL,
    LatticeElement,
    Tolerance,
    _same_space,
    _not_finite,
    compare_segments,
    leq_with_tolerance,
    power_array,
    ragged_power,
    raise_first,
    require_finite_segments,
)
from .processes import (
    MARTINGALE,
    NOT_ADAPTED,
    SUBMARTINGALE,
    ProcessSequence,
    classify,
    decide_gates,
    require_difference_sequence,
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
    maxima.  One bincount of the operator's RaggedOps conditions every row
    of both sides, and its block maximum gives a factor at inf."""
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
        conditioned = op.apply_array(np.stack(stacks))
        sums = conditioned[:, 0]
        for i in range(1, len(xs)):  # pair by pair, in order
            sums = sums + conditioned[:, i]
        lhs, moments = sums[0], iter(sums[1:])

        def factor(rows: np.ndarray, r: float) -> np.ndarray:
            if r == math.inf:
                return op.ragged.block_max(np.abs(rows))
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
    return _one_trial("jensen", tol, jensen_checks(f.coords, p, op.ragged, tol))


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
        raise exponent_error(p)
    require_difference_sequence(diffs, tol)
    CompatibleTriple(base, diffs.filtration)  # raises Incompatible
    rows = diffs.filtration.stages
    bad, records, (low, high) = burkholder_rows(
        diffs.values.ravel(), rows, lambda k, mat: base.apply_rows(mat), p, tol
    )
    raise_first(bad)
    report = VerificationReport(suite="burkholder", trials=1, tol=tol)
    report.record_many(*records)
    some = not np.isnan(low[0])  # a positive left side somewhere
    report.details["ratio_min"] = float(low[0]) if some else None
    report.details["ratio_max"] = float(high[0]) if some else None
    return report


def exponent_error(p: float) -> BadExponent:
    return BadExponent(f"ratio defined for 1 < p < inf, got {p}")


def difference_check(stages: Stages, values: np.ndarray, tol: Tolerance):
    """The (bad, error) pair, for raise_first, of the first process of
    stages whose rows are not a difference sequence, the error of
    require_difference_sequence; later processes are not decided
    (processes.decide_gates)."""
    bad, _, _ = decide_gates(stages, values, tol, labels=False)
    return bad, lambda k: NotDifferenceSequence(
        "sequence is not a martingale difference sequence for its filtration"
    )


def label_check(stages: Stages, values: np.ndarray, tol: Tolerance):
    """The (bad, error) pair, for raise_first, of the first process of
    stages that hrc_maximal refuses for its label: classify raises, or finds
    neither a martingale nor a submartingale.  Later processes are not
    decided (processes.decide_gates)."""
    bad, label, _ = decide_gates(stages, values, tol)
    if label is None:
        return bad, lambda k: NotAdapted(NOT_ADAPTED)
    return bad, lambda k: _submartingale_error(label)


def _submartingale_error(label: str) -> NotSubmartingale:
    return NotSubmartingale(f"maximal inequality needs a (sub)martingale, got {label}")


def burkholder_rows(diffs: np.ndarray, rows: StageRows, apply, p: float, tol: Tolerance):
    """burkholder_ratio of every process of rows, with diffs their flat
    difference rows and apply(k, mat) the base operator's apply_rows for
    process k, called once per process.  Returns the (bad, error) pair of
    the processes whose sides are not finite, for raise_first; the records
    of every process in turn (ok, margin, witness_at and process numbers,
    as record_many takes them); and each process's smallest and largest
    ratio (NaN without a positive left side)."""
    sums = rows.accumulate(np.add, diffs)
    square = rows.accumulate(np.add, (sums - rows.previous(sums)) ** 2)
    sides = np.abs(sums) ** p, square ** (p / 2.0)
    for side in sides:
        for k in range(len(rows.n)):
            mat = rows.values(side, k)
            mat[:] = apply(k, mat)
    heads = rows.elements[:-1]
    bad = np.logical_or.reduceat(~(np.isfinite(sides[0]) & np.isfinite(sides[1])), heads)
    # A process with a non-finite side raises before its records are made.
    drop = np.repeat(bad, rows.n * rows.steps)
    a_side, b_side = (np.where(drop, 0.0, side) for side in sides)
    checks = []
    if p == 2.0:
        a, b = a_side, b_side
        misses, margin, worst = compare_segments(np.abs(a - b), -0.0, tol.slack(a, b), rows.elements)
        step, atom = divmod(worst, rows.n)
        checks.append(
            (np.ones(len(heads), dtype=bool), misses == 0, margin,
             lambda k: f"p=2 identity n={step[k] + 1} atom={atom[k]}")
        )
    positive = a_side > 0.0
    some = np.logical_or.reduceat(positive, heads)
    lows, highs = np.full(len(heads), np.nan), np.full(len(heads), np.nan)
    if some.any():
        counts = np.add.reduceat(positive, heads)[some]
        ratios = b_side[positive] / a_side[positive]
        starts = np.cumsum(counts) - counts
        lows[some] = np.minimum.reduceat(ratios, starts)
        highs[some] = np.maximum.reduceat(ratios, starts)
        finite = np.logical_and.reduceat(np.isfinite(ratios), starts)
        ok = np.ones(len(heads), dtype=bool)
        ok[some] = finite
        checks.append((some, ok, np.where(ok, 0.0, -math.inf), lambda k: "ratio finiteness"))
    kept = np.array([check[0] for check in checks]).T.ravel()  # process by process
    which = np.flatnonzero(kept)
    width = len(checks)
    records = (
        np.array([check[1] for check in checks]).T.ravel()[which],
        np.array([check[2] for check in checks]).T.ravel()[which],
        lambda i: checks[which[i] % width][3](which[i] // width),
        which // max(width, 1),
    )
    return (bad, _not_finite), records, (lows, highs)


def _same_masks(prod: np.ndarray, join: np.ndarray, rows: StageRows):
    """Per row: (ok, margin, witness(r)) of product mask == join mask."""
    heads = rows.row_starts()
    same = np.logical_and.reduceat(prod == join, heads[:-1])
    step = rows.stage_of_rows()

    def witness(r):
        lo, hi = heads[r], heads[r + 1]
        return (
            f"n={step[r] + 1} product-support {np.flatnonzero(prod[lo:hi]).tolist()}"
            f" vs join-support {np.flatnonzero(join[lo:hi]).tolist()}"
        )

    return same, np.where(same, 0.0, -1.0), witness


def _rows_leq(lhs: np.ndarray, rhs: np.ndarray, rows: StageRows, tol: Tolerance, label: str):
    """Per row: (ok, margin, witness(r)) of leq_with_tolerance on row r."""
    misses, margin, atom = compare_segments(lhs, rhs, tol.slack(lhs, rhs), rows.row_starts())
    step = rows.stage_of_rows()
    return misses == 0, margin, lambda r: f"n={step[r] + 1} {label} atom={atom[r]}"


def _rows_agree(a: np.ndarray, b: np.ndarray, rows: StageRows, tol: Tolerance):
    """Per row: (ok, -max|a - b|, first argmax of |a - b| - slack) of the
    two-sided comparison a = b within the slack.  The right side is -0.0 so
    that the margin of an exact agreement is -0.0, as -max|a - b| gives."""
    misses, margin, worst = compare_segments(np.abs(a - b), -0.0, tol.slack(a, b), rows.row_starts())
    return misses == 0, margin, worst


def record_stages(report: VerificationReport, parts, rows: StageRows, trials=None, seed=None):
    """Record the checks of every process of rows in turn: part by part,
    each part's two checks at stage n = 1..N in turn.  parts are pairs of
    (ok, margin, witness(r)) triples of arrays over the rows, witness(r)
    naming a miss at row r; trials[k] numbers process k's records (0 when
    None)."""
    ok = np.array([[check[0] for check in part] for part in parts]).transpose(0, 2, 1)
    margin = np.array([[check[1] for check in part] for part in parts]).transpose(0, 2, 1)
    process = np.repeat(np.arange(len(rows.n)), rows.steps)
    order = np.argsort(np.broadcast_to(process[:, None], ok.shape).ravel(), kind="stable")
    count = ok.shape[1]

    def witness_at(i):
        part, rest = divmod(int(order[i]), 2 * count)
        return parts[part][rest % 2][2](rest // 2)

    owner = np.broadcast_to(process[:, None], ok.shape).ravel()[order]
    report.record_many(
        ok.ravel()[order],
        margin.ravel()[order],
        witness_at,
        None if trials is None else np.asarray(trials)[owner],
        seed,
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
    rows = StageRows(np.array([g.space.n]), np.array([len(xs)]))
    bad, parts = telescoping_rows(np.concatenate([x.coords for x in xs]), g.coords, rows, tol)
    raise_first(bad)
    report = VerificationReport(suite="telescoping", trials=1, tol=tol)
    record_stages(report, parts, rows)
    return report


def telescoping_rows(seq: np.ndarray, g: np.ndarray, rows: StageRows, tol: Tolerance):
    """telescoping_bound of every process of rows: seq their X_1..X_N laid
    end to end, g each one's threshold over its atoms.  Returns the (bad,
    error) pair of the processes with a non-finite entry, for raise_first,
    and the parts for record_stages."""
    g = g[rows.atom_index()]
    below, steps = g - seq, seq - rows.previous(seq)  # a first stage's step is X_1 itself
    prod = rows.accumulate(np.logical_and, np.maximum(below, 0.0) > 0.0)
    join = np.maximum(g - rows.accumulate(np.maximum, seq), 0.0) > 0.0
    first = rows.spread(rows.stage_of_rows() == 0)
    rhs = rows.accumulate(np.add, np.where(first | rows.previous(prod), steps, 0.0))
    rhs -= np.where(prod, seq, 0.0)
    finite = np.isfinite(below) & np.isfinite(steps) & np.isfinite(rhs)
    bad = np.logical_or.reduceat(~finite, rows.elements[:-1])
    lhs = np.where(prod, 0.0, g)
    return (bad, _not_finite), [(_same_masks(prod, join, rows), _rows_leq(lhs, rhs, rows, tol, "bound"))]


def _check_maximal(process: ProcessSequence, a_values, g: LatticeElement, tol) -> np.ndarray:
    """hrc_maximal's preconditions, in order; the rates as an array."""
    label = classify(process, tol)
    if label not in (MARTINGALE, SUBMARTINGALE):
        raise _submartingale_error(label)
    a = np.asarray(a_values, dtype=np.float64)
    if a.shape != (len(process),):
        raise BadWeights(f"need {len(process)} rate values, got shape {a.shape}")
    if not np.all(np.isfinite(a) & (a > 0.0)):
        raise BadWeights("rates must be strictly positive")
    if np.any(np.diff(a) < 0.0):
        raise BadWeights("rates must be nondecreasing")
    if g.space != process.space:
        raise SpaceMismatch("threshold on a different space")
    if np.any(g.coords < 0.0):
        raise GNotInRange("threshold must be nonnegative")
    if not process.filtration[0].fixes_exactly(g):
        raise GNotInRange("threshold must be exactly block-constant for the base operator")
    return a


def maximal_rows(values, rates, g, t1: RaggedOps, rows: StageRows, tol: Tolerance, doob: bool):
    """The Hajek-Renyi-Chow pass of every process of rows, and with doob
    Doob's records after it: values their Y_1..Y_N laid end to end, rates
    each row's a_n, g each one's threshold over its atoms and t1 each row's
    first-stage operator.  Returns the (bad, error) pairs of the processes
    with a non-finite entry, for raise_first, and the parts for
    record_stages."""
    g = g[rows.atom_index()]
    a = rows.spread(rates)
    scaled = values / a
    pos = np.maximum(values, 0.0)
    excess = np.maximum(g - scaled, 0.0)
    prod = rows.accumulate(np.logical_and, excess > 0.0)
    join = g > rows.accumulate(np.maximum, scaled)
    steps = (pos - rows.previous(pos)) / a  # a first stage's term is Y_1+/a_1 itself
    first = rows.spread(rows.stage_of_rows() == 0)
    rhs = rows.accumulate(np.add, np.where(first, steps, t1.apply(steps)))
    heads = rows.elements[:-1]
    bad = [(np.logical_or.reduceat(~(np.isfinite(excess) & np.isfinite(rhs)), heads), _not_finite)]
    lhs = t1.apply(np.where(prod, 0.0, g))
    parts = [(_same_masks(prod, join, rows), _rows_leq(lhs, rhs, rows, tol, "bound"))]
    if doob:
        telescoped = t1.apply(pos)
        bad.append((np.logical_or.reduceat(~np.isfinite(telescoped), heads), _not_finite))
        agree, margin, _ = _rows_agree(rhs, telescoped, rows, tol)
        step = rows.stage_of_rows()
        agreement = (agree, margin, lambda r: f"n={step[r] + 1} telescoped-right-side agreement")
        bound = _rows_leq(t1.apply(np.where(join, 0.0, g)), telescoped, rows, tol, "telescoped bound")
        parts.append((agreement, bound))
    return bad, parts


def _maximal(process, a_values, g, tol, suite: str, doob: bool) -> VerificationReport:
    """hrc_maximal, or with doob doob_maximal, of one process."""
    a = _check_maximal(process, a_values, g, tol)
    rows = process.filtration.stages
    t1 = process.filtration[0].ragged  # applied row by row
    bad, parts = maximal_rows(process.values.ravel(), a, g.coords, t1, rows, tol, doob)
    raise_first(*bad)
    report = VerificationReport(suite=suite, trials=1, tol=tol)
    record_stages(report, parts, rows)
    return report


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
    return _maximal(process, a_values, g, tol, "hrc", doob=False)


def doob_maximal(
    process: ProcessSequence, g: LatticeElement, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Doob-style maximal bound: unit rates, telescoped right side.

    With a = 1 the sum on the right collapses to T_1 Y_n+; both forms are
    computed and must agree within tolerance, and the bound is checked
    against the telescoped form as well.  The HRC records at a = 1 come
    first; its masks and sum are reused, since Y/1 is Y exactly.
    """
    return _maximal(process, np.ones(len(process)), g, tol, "doob", doob=True)
