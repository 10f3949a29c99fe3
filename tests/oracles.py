"""Oracles: bodies replaced in src/, kept as the reference for their
replacements.

The gate cores and the T_1 image check before they read each (N, n) stack
once: the cores took the slack and grouped the stages once for the
adaptedness check and again for their own comparisons, and the difference
check took max|f| over the identity suffix in a third pass.  old_image
compared each row block of the product with a gathered copy of its block
values.  They are the bodies of processes._adapted (now part of _scan),
_classify and _difference_sequence and of limits._image as they were, with
their helpers, and tests/test_one_pass.py holds the new code to them bit for
bit.

old_decide_gates is processes.decide_gates when its certificate also
refused processes, under its rounding bound, and labelled them;
substream_grid drew the generator's rows past the singleton cut as one word
grid (rng.substream_grid).  tests/test_gates.py, tests/test_rng.py and
tests/test_batched.py hold the new code to them.

whole_submartingale, whole_slln_p_le_2, whole_slln_p_gt_2 and
whole_slln_an_equals_n are the four limit experiments before they carried a
stack's settled rows as one repeated row: every running sum, power, image
check, report and check ran over all N rows.  They read the hypothesis
gates from limits at call time, so a test that patches the gates there
patches both.  tests/test_tall.py holds the new code to them.
"""

import math

import numpy as np

from rieszmart import limits
from rieszmart.conditional import average_rows
from rieszmart.errors import BadExponent, BadWeights, NegativeProcess, NotAdapted, NotSubmartingale, ParameterViolation
from rieszmart.lattice import DEFAULT_TOL, Tolerance, compare, halving_fold, require_finite, row_blocks
from rieszmart.limits import (
    DEFAULT_STOCHASTIC_EPSILON,
    SERIES_TAIL_REL,
    WeightSequence,
    _cumsum_blocks,
    _experiment,
    _Layout,
    _raise_nonzero,
    _running_sum,
    _scaled_holder_factors,
)
from rieszmart.processes import (
    _SAFE,
    MARTINGALE,
    NONE,
    NOT_ADAPTED,
    SUBMARTINGALE,
    SUPERMARTINGALE,
    ProcessSequence,
    _classify,
    _difference_sequence,
    _stage_groups,
)
from rieszmart.reports import CheckSummary, DecaySequenceReport, ExperimentReport, SeriesReport, checkpoint_schedule
from rieszmart.rng import _GOLDEN, _mix64_in_place, derive_seed


def old_groups(stage, stop=None) -> list:
    """Stages [:stop] grouped by distinct partition, the stages of partition
    d at [d]."""
    stage = stage[:stop]
    ends = np.cumsum(np.bincount(stage)).tolist()  # before the sort: bincount copies stage
    order = np.argsort(stage, kind="stable")
    return [order[lo:hi] for lo, hi in zip([0] + ends, ends)]


def old_filled(ids, groups, n):
    for rows in row_blocks(len(groups), n):
        block = ids(np.arange(rows.start, rows.stop)).reshape(-1, n)
        block -= block[:, :1]
        yield from zip(groups[rows], block)


def old_max_abs(mat) -> float:
    blocks = row_blocks(*mat.shape)
    return max((float(np.max(np.abs(mat[rows]))) for rows in blocks), default=0.0)


def old_slack(mat, tol) -> float:
    return tol.abs + tol.rel * old_max_abs(mat)


def old_adapted(mat, weights, ids, stage, tol) -> bool:
    slack = old_slack(mat, tol)
    for idx, block_id in old_filled(ids, old_groups(stage), mat.shape[1]):
        if block_id[-1] == mat.shape[1] - 1:  # the identity fixes everything
            continue
        rows = mat[idx]
        if np.max(np.abs(average_rows(weights, block_id, rows) - rows)) > slack:
            return False
    return True


_SIDES = ((np.minimum, np.less, np.subtract), (np.maximum, np.greater, np.add))


def old_classify(mat, weights, ids, stage, tol) -> str:
    if not old_adapted(mat, weights, ids, stage, tol):
        raise NotAdapted(NOT_ADAPTED)
    count, n = mat.shape
    if count < 2:
        return MARTINGALE
    slack = old_slack(mat, tol)
    last = int(stage[-1])
    cut = int(stage.searchsorted(last)) if ids(last)[-1] == n - 1 else count
    live = [True, True]
    for idx, block_id in old_filled(ids, old_groups(stage, min(cut, count - 1)), n):
        transformed = average_rows(weights, block_id, mat[idx[0] + 1 :])
        m = min(cut - idx[0], len(transformed))
        at, here = m - 1 - (idx - idx[0]), mat[idx]
        for s, (ext, worse, shift) in enumerate(_SIDES):
            if live[s]:
                env = ext.accumulate(transformed[:m][::-1], axis=0)[at]
                if m < len(transformed):
                    ext(env, halving_fold(ext, transformed[m:], 0), out=env)
                live[s] = not worse(env, shift(here, slack)).any()
        if not any(live):
            return NONE
    for s, (ext, worse, shift) in enumerate(_SIDES):
        carry = mat[-1]
        for rows in reversed(row_blocks(count - 1, n, start=cut)) if live[s] else ():
            env = ext.accumulate(mat[rows.stop : rows.start : -1], axis=0)
            if worse(ext(env, carry, out=env), shift(mat[rows][::-1], slack)).any():
                live[s] = False
                break
            carry = env[-1]
    if not any(live):
        return NONE
    if all(live):
        return MARTINGALE
    return SUBMARTINGALE if live[0] else SUPERMARTINGALE


def old_difference_sequence(mat, weights, ids, stage, tol) -> bool:
    if not old_adapted(mat, weights, ids, stage, tol):
        return False
    if mat.shape[0] < 2:
        return True
    slack = old_slack(mat, tol)
    for idx, block_id in old_filled(ids, old_groups(stage, -1), mat.shape[1]):
        if block_id[-1] == mat.shape[1] - 1:
            means = mat[idx[0] + 1 :]
        else:
            means = average_rows(weights, block_id, mat[idx + 1])
        if old_max_abs(means) > slack:
            return False
    return True


_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)


def old_image(t1, operand) -> tuple:
    image = t1.apply_rows(operand)
    layout = _Layout.of(t1.partition.block_id)
    if len(layout.size) < image.shape[1]:
        values = image[:, layout.first]
        bits = values.view(np.int64)
        if (
            np.isfinite(values).all()
            and not (bits == _NEGATIVE_ZERO).any()
            and all(
                np.array_equal(image[rows].view(np.int64), bits[rows][:, layout.ids])
                for rows in row_blocks(*image.shape)
            )
        ):
            return values, layout
    return image, _Layout.singletons(image.shape[1])


def old_decide_gates(stages, values, tol, labels=True):
    """decide_gates with the failure half of its certificate: a process whose
    adaptedness residual, sub-side step or difference mean exceeds slack + G
    is refused, and labelled, without an exact core."""
    ops, width = stages.row_ops(stages.stage), np.repeat(stages.n, stages.steps)  # atoms of each row
    heads, steps, rows = ops.starts[:-1], stages.steps, stages.first_row
    last = np.zeros(len(width), dtype=bool)
    last[rows + steps - 1] = True
    with np.errstate(all="ignore"):
        ahead = np.take(values, np.arange(values.size) + np.repeat(width, width), mode="clip")
        own, following = ops.apply(values), ops.apply(ahead)
        residual = np.maximum.reduceat(np.abs(own - values), heads)
        identity = stages.num_blocks[stages.stage] == width
        worst = np.maximum.reduceat(np.where(identity, -np.inf, residual), rows)
        big = np.maximum.reduceat(np.abs(values), stages.elements[:-1])
        slack = tol.abs + tol.rel * big
        guard = 1.02 * 2.0**-53 * ((4 * stages.n + 8) * big + (steps + 4) * np.abs(slack))
        lo, hi = slack - guard, slack + guard
        adapted, unadapted = worst <= lo, worst > hi
        safe = np.isfinite(slack) & (np.minimum.reduceat(stages.weights, stages.atoms[:-1]) >= _SAFE[0])
        safe &= (big == 0.0) | ((big >= _SAFE[0]) & (big <= _SAFE[1]))
        if labels:
            d, sides = following - values, []
            for ext, sign in ((np.minimum, -1.0), (np.maximum, 1.0)):
                step = np.where(last, -sign * np.inf, ext.reduceat(d, heads))
                spread = np.add.reduceat(np.maximum(sign * step, 0.0), rows)
                sides.append(((steps < 2) | (spread + (steps + 2) * guard <= slack),
                              sign * ext.reduceat(step, rows) > hi))
            (sub, not_sub), (sup, not_sup) = sides
            good = adapted & sub
            failed = unadapted | (adapted & not_sub & (sup | not_sup))
            label = np.where(unadapted, None, np.where(sup, SUPERMARTINGALE, NONE))
        else:
            means = np.where(last, -np.inf, np.maximum.reduceat(np.abs(following), heads))
            peak = np.maximum.reduceat(means, rows)
            good, failed = adapted & (peak <= lo), unadapted | (adapted & (peak > hi))
            label = np.full(len(steps), None)
    exact = np.zeros(len(steps), dtype=bool)
    for k in np.flatnonzero(~(good & safe)).tolist():
        if not (failed[k] and safe[k]):
            exact[k] = True
            table = (stages.values(values, k), *stages.table(k), tol)
            if labels:
                try:
                    label[k] = _classify(*table)
                except NotAdapted:
                    label[k] = None
                if label[k] in (MARTINGALE, SUBMARTINGALE):
                    continue
            elif _difference_sequence(*table):
                continue
        return np.arange(len(steps)) == k, label[k], exact
    return np.zeros(len(steps), dtype=bool), None, exact


def substream_grid(out, seed, *labels, first=0, work=None) -> None:
    """Row i of the (rows, width) float64 array out becomes
    substream(seed, *labels, first + i).floats(width): word k of the stream
    seeded s is mix64(s + (k + 1) * golden), so the words form one grid.
    work, a uint64 array of at least out.size words, holds the grid."""
    rows, width = out.shape
    prefix = np.uint64(derive_seed(seed, *labels))
    seeds = _mix64_in_place(np.arange(first, first + rows, dtype=np.uint64) ^ prefix)
    if work is None:
        work = np.empty(out.size, dtype=np.uint64)
    # Laid out (width, rows), so every ufunc runs along the long axis.
    words = work[: out.size].reshape(width, rows)
    np.multiply(np.arange(1, width + 1, dtype=np.uint64)[:, None], np.uint64(_GOLDEN), out=words)
    words += seeds
    _mix64_in_place(words)
    words >>= np.uint64(11)
    np.multiply(words.T, 2.0**-53, out=out)


# --- the limit experiments on whole stacks ----------------------------------


def whole_decay_report(
    values: np.ndarray,
    epsilon: float,
    verdict_index: int | None = None,
    rates: np.ndarray | None = None,
) -> DecaySequenceReport:
    """Suffix-sup summary of an (N, dim) trajectory, values / rates[:, None]
    when rates are given; the row maxima are taken one row block at a time,
    by halving folds, and only they and the checkpoint rows are divided."""
    count = values.shape[0]
    points = checkpoint_schedule(count)
    max_abs = np.concatenate(
        [halving_fold(np.maximum, np.abs(values[rows]), 1) for rows in row_blocks(*values.shape)]
    )
    index = np.array(points) - 1
    rows = values[index]
    if rates is not None:
        max_abs /= rates
        rows = rows / rates[index, None]
    suffix = np.maximum.accumulate(max_abs[::-1])[::-1]
    if verdict_index is None:
        verdict_index = len(points) - 1
    tail = [float(suffix[i]) for i in index]
    return DecaySequenceReport(
        horizon=count,
        checkpoints=points,
        values=[[float(v) for v in row] for row in rows],
        max_abs=[float(max_abs[i]) for i in index],
        tail_sup=tail,
        epsilon=epsilon,
        verdict_index=verdict_index,
        verdict=bool(tail[verdict_index] <= epsilon),
    )


def whole_series_report(terms: np.ndarray, layout: _Layout | None = None) -> SeriesReport:
    """Cauchy-tail summary for the partial sums of an (N, dim) term matrix,
    or of the (N, k) block values of one in layout.

    The partial sums are formed one row block at a time.  The tail gap
    max |s_N - s_m| over m >= N/2 comes from the columnwise min and max of
    those s_m: rounded subtraction is monotone, so the extremes give it
    exactly, and a zero extreme of either sign gives the same gap.  The
    checkpoint rows and the extremes are widened back to the atoms."""
    if layout is None:
        layout = _Layout.singletons(terms.shape[1])
    count = terms.shape[0]
    points = checkpoint_schedule(count)
    half = (count + 1) // 2
    at = {}
    low, high = np.full(terms.shape[1], np.inf), np.full(terms.shape[1], -np.inf)
    for rows, partial in _cumsum_blocks(terms):
        for c in points:
            if rows.start < c <= rows.stop:
                at[c] = partial[c - 1 - rows.start].copy()
        tail = partial[max(half - 1 - rows.start, 0) :]
        if len(tail):
            low = np.minimum(low, halving_fold(np.minimum, tail, 0))
            high = np.maximum(high, halving_fold(np.maximum, tail, 0))
    at = {c: layout.widen(row) for c, row in at.items()}
    low, high = layout.widen(low), layout.widen(high)
    last = at[count]
    with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
        tail_gap = float(np.max(np.abs(last - np.stack([low, high]))))
    scale = max(1.0, float(np.max(np.abs(last))))
    epsilon = SERIES_TAIL_REL * scale
    return SeriesReport(
        length=count,
        checkpoints=points,
        values=[[float(v) for v in at[c]] for c in points],
        max_abs=[float(np.max(np.abs(at[c]))) for c in points],
        tail_gap=tail_gap,
        epsilon=epsilon,
        scale=scale,
        converged=bool(tail_gap <= epsilon),
        term_min=float(terms.min()) if terms.size else 0.0,
    )


def _whole_prefix_rows(terms: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Rows index of the prefix sums of terms from a zero row (row j sums
    terms[:j]), with the adds of one cumsum over the zero-topped stack."""
    out = np.zeros((len(index), terms.shape[1]))
    for rows, partial in _cumsum_blocks(terms, start=np.zeros(terms.shape[1])):
        hit = (index > rows.start) & (index <= rows.stop)
        out[hit] = partial[index[hit] - 1 - rows.start]
    return out


def _whole_aligned(*images) -> tuple:
    """(stacks, layout) of (stack, layout) pairs of T_1 images on one layout:
    their own when they share it, else each widened back to the atoms."""
    stacks, layouts = zip(*images)
    if len({len(layout.size) for layout in layouts}) == 1:
        return stacks, layouts[0]
    singletons = _Layout.singletons(len(layouts[0].ids))
    return [layout.widen(stack) for stack, layout in images], singletons


class _WholeFold:
    """One check lhs <= rhs + slack fed finite stacks in consecutive row
    blocks, their columns those of layout.  The misses add up, each counting
    its block's atoms, the margin is the least, and the witness is the first
    worst component, named by its block's lowest atom: what one compare over
    the ravelled stack of atoms gives."""

    def __init__(self, layout: _Layout):
        self.layout = layout
        self.misses, self.margin, self.rows = 0, math.inf, 0
        self.worst = self.where = None

    def add(self, lhs, rhs, slack) -> None:
        shape = np.broadcast(lhs, rhs).shape
        misses, margin, at = compare(np.ravel(lhs), np.ravel(rhs), np.ravel(slack))
        if misses:
            missed = ~(np.subtract(rhs, lhs) + slack >= 0.0)  # compare's, by column
            misses = np.count_nonzero(missed, axis=0) @ self.layout.size
        pos = np.unravel_index(at, shape)
        low, high, room = (np.broadcast_to(x, shape)[pos] for x in (lhs, rhs, slack))
        worst = high - low + room  # the compared value at the argmin
        self.misses += int(misses)
        self.margin = np.minimum(self.margin, margin)
        # argmin semantics: the first NaN, else the first least value.
        if self.worst is None or worst < self.worst or np.isnan(worst) > np.isnan(self.worst):
            self.worst = worst
            self.where = (self.rows + int(pos[0]), int(self.layout.first[pos[1]]))
        self.rows += shape[0]

    def record(self, summary: CheckSummary, witness: str) -> None:
        summary.record_many([self.misses], [self.margin], lambda _: f"{witness} at {self.where}")


def _whole_check(summary: CheckSummary, lhs, rhs, slack, witness: str, layout: _Layout) -> None:
    """Record lhs <= rhs + slack over whole stacks on the columns of layout
    as one comparison that counts every missing atom; a miss names the first
    worst one.  The stacks are compared one row block at a time, with
    slack(lhs, rhs) formed per block; a scalar side is broadcast."""
    fold = _WholeFold(layout)
    for rows in row_blocks(*np.broadcast(lhs, rhs).shape):
        low, high = (x if np.ndim(x) == 0 else x[rows] for x in (lhs, rhs))
        require_finite(low, high)
        fold.add(low, high, slack(low, high))
    fold.record(summary, witness)


def whole_submartingale(
    process: ProcessSequence,
    rates: WeightSequence,
    p: float,
    epsilon: float = DEFAULT_STOCHASTIC_EPSILON,
    tol: Tolerance = DEFAULT_TOL,
) -> ExperimentReport:
    """submartingale_convergence_experiment on whole stacks."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise BadExponent(f"need finite p >= 1, got {p}")
    label = limits.classify(process, tol)
    if label not in (MARTINGALE, SUBMARTINGALE):
        raise NotSubmartingale(f"experiment needs a (sub)martingale, got {label}")
    if np.any(process.values < 0.0):
        raise NegativeProcess("experiment defined for nonnegative processes")
    count = len(process)
    rates.require_divergent()
    a = rates.values(count)
    t1 = process.filtration[0]
    checks = {"term-nonneg": CheckSummary()}
    if count > 1:
        with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
            powers = process.values**p
            terms = powers[1:] - powers[:-1]
            del powers
            terms /= (a[1:] ** p)[:, None]
        terms, layout = old_image(t1, terms)
        _whole_check(checks["term-nonneg"], 0.0, terms, tol.slack, "series term sign", layout)
        series = whole_series_report(terms, layout)
        del terms
    else:
        checks["term-nonneg"].record(True, 0.0, "no terms")
        series = whole_series_report(np.zeros((1, process.space.n)))
    decay = whole_decay_report(process.values, epsilon, rates=a)
    config = {"p": p, "rates": rates.label(), "epsilon": epsilon}
    return _experiment("submartingale", config, decay, series, checks)


def whole_slln_p_le_2(
    diffs: ProcessSequence,
    rates: WeightSequence,
    p: float,
    epsilon: float = DEFAULT_STOCHASTIC_EPSILON,
    tol: Tolerance = DEFAULT_TOL,
) -> ExperimentReport:
    """slln_p_le_2 on whole stacks."""
    p = float(p)
    if not 1.0 <= p <= 2.0:
        raise BadExponent(f"this strong law needs 1 <= p <= 2, got {p}")
    limits.require_difference_sequence(diffs, tol)
    count = len(diffs)
    rates.require_divergent()
    a = rates.values(count)
    t1 = diffs.filtration[0]
    # Each (N, n) stack is built once, in place where the ufunc allows.
    absy_p = np.abs(diffs.values)
    with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
        absy_p **= p
        series = whole_series_report(*old_image(t1, absy_p / (a**p)[:, None]))
        absx_p = _running_sum(diffs.values)
        decay = whole_decay_report(absx_p, epsilon, rates=a)
        np.abs(absx_p, out=absx_p)
        absx_p **= p
    checks = {
        "power-diff-nonneg": CheckSummary(),
        "power-diff-dominated": CheckSummary(),
    }
    scale = float(np.max(absx_p)) if absx_p.size else 1.0
    if count > 1:
        slack = tol.abs + tol.rel * scale
        atoms = _Layout.singletons(diffs.space.n)
        # A non-finite product is raised on, not warned about; the powers are
        # >= 0, so nxt - here is finite when both are.
        with np.errstate(over="ignore", invalid="ignore"):
            for op, idx in _stage_groups(diffs.filtration, count - 1):
                lower, upper = _WholeFold(atoms), _WholeFold(atoms)
                # The identity group, most stages of a long horizon, is gathered
                # one row block at a time; a dense product keeps whole operands.
                if op.is_identity:
                    parts = [idx[rows] for rows in row_blocks(len(idx), absx_p.shape[1])]
                else:
                    parts = [idx]
                for rows in parts:
                    nxt, here = op.apply_rows(absx_p[rows + 1]), op.apply_rows(absx_p[rows])
                    dom = op.apply_rows(2.0 * absy_p[rows + 1])
                    require_finite(here, nxt, dom)
                    lower.add(here, nxt, slack)
                    upper.add(nxt - here, dom, slack)
                lower.record(checks["power-diff-nonneg"], "lower bound")
                upper.record(checks["power-diff-dominated"], "upper bound")
    else:
        for summary in checks.values():
            summary.record(True, 0.0, "single stage")
    config = {"p": p, "rates": rates.label(), "epsilon": epsilon}
    return _experiment("slln-p-le-2", config, decay, series, checks)


def whole_slln_p_gt_2(
    diffs: ProcessSequence,
    rates: WeightSequence,
    p: float,
    gamma: float,
    k: float,
    epsilon: float = DEFAULT_STOCHASTIC_EPSILON,
    tol: Tolerance = DEFAULT_TOL,
) -> ExperimentReport:
    """slln_p_gt_2 on whole stacks."""
    p = float(p)
    if not 2.0 < p < math.inf:
        raise BadExponent(f"bootstrap applies to finite p > 2, got {p}")
    gamma = float(gamma)
    k = float(k)
    if not (gamma > 0.0 and k > 0.0):
        raise ParameterViolation("gamma and k must be positive")
    if p < gamma + (p / 2.0 - 1.0) * k:
        raise ParameterViolation(
            f"constraint p >= gamma + (p/2 - 1) k violated: {p} < {gamma + (p / 2.0 - 1.0) * k}"
        )
    limits.require_difference_sequence(diffs, tol)
    count = len(diffs)
    rates.require_divergent()
    a = rates.values(count)
    with np.errstate(over="ignore"):  # an overflowing a_i^k stands for a zero term
        inv_k = (1.0 / a**k)[:, None]
    gate = whole_series_report(inv_k)
    if not gate.converged:
        raise BadWeights(
            f"sum 1/a^k fails the tail criterion: gap {gate.tail_gap:.3e} > {gate.epsilon:.3e}"
        )
    delta = (p - gamma) / (p / 2.0 - 1.0)
    t1 = diffs.filtration[0]
    points = np.array(checkpoint_schedule(count))
    m, n = (points[i] for i in np.triu_indices(len(points), 1))
    # Prefix sums from a zero row, so segment m..n is prefix[n] - prefix[m - 1];
    # only the rows at n (first) and m - 1 (second) are kept.
    ends = np.concatenate((n, m - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
        hyp_terms = np.abs(diffs.values)
        _raise_nonzero(hyp_terms, p)
        hyp_terms /= (a**gamma)[:, None]
        hyp_terms, layout = old_image(t1, hyp_terms)
        series = whole_series_report(hyp_terms, layout)
        pre_hyp = layout.widen(_whole_prefix_rows(hyp_terms, ends))
        del hyp_terms
        sums = _running_sum(diffs.values)
        decay = whole_decay_report(sums, epsilon, rates=a)
        del sums
        sq_terms = diffs.values**2
        sq_terms /= (a**2)[:, None]
        sq_terms, layout = old_image(t1, sq_terms)
        pre_sq = layout.widen(_whole_prefix_rows(sq_terms, ends))
        del sq_terms
        pairs = len(m)
        lhs = pre_sq[:pairs] - pre_sq[pairs:]
        inv_delta = 1.0 / a**delta
        pre_delta = _whole_prefix_rows(inv_delta[:, None], ends)[:, 0]
        delta_sums = pre_delta[:pairs] - pre_delta[pairs:]
        # One scalar power per pair for the delta factor: numpy's array power
        # may round it differently.
        delta_factor = np.array([d ** (1.0 - 2.0 / p) for d in delta_sums])
        # A segment's sum is at least its first term.  Below it, the prefix
        # sums have cancelled it; a last term below the least normal double
        # has underflowed, or its a_i^delta overflowed.
        lost = (delta_sums < inv_delta[m - 1]) | (inv_delta[n - 1] < np.finfo(np.float64).tiny)
        delta_factor[lost] = _scaled_holder_factors(a, delta, 1.0 - 2.0 / p, m[lost], n[lost])
        rhs = (pre_hyp[:pairs] - pre_hyp[pairs:]) ** (2.0 / p) * delta_factor[:, None]
    require_finite(lhs, rhs)
    misses, margin, at = compare(lhs, rhs, tol.slack(lhs, rhs))
    checks = {"holder-reduction": CheckSummary()}
    checks["holder-reduction"].record_many(
        misses, margin, lambda i: f"segment m={m[i]} n={n[i]} at ({at[i]},)"
    )
    config = {
        "p": p,
        "gamma": gamma,
        "k": k,
        "delta": delta,
        "rates": rates.label(),
        "epsilon": epsilon,
    }
    return _experiment("slln-p-gt-2", config, decay, series, checks)


def whole_slln_an_equals_n(
    diffs: ProcessSequence,
    p: float,
    epsilon: float = DEFAULT_STOCHASTIC_EPSILON,
    tol: Tolerance = DEFAULT_TOL,
) -> ExperimentReport:
    """slln_an_equals_n on whole stacks."""
    p = float(p)
    if not 2.0 < p < math.inf:
        raise BadExponent(f"this strong law needs finite p > 2, got {p}")
    limits.require_difference_sequence(diffs, tol)
    count = len(diffs)
    steps = np.arange(1, count + 1, dtype=np.float64)
    t1 = diffs.filtration[0]

    # Each (N, n) stack is built once, in place where the ufunc allows, and
    # dropped after its last use; T_1's images are (N, k) in block coordinates.
    with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
        sums = _running_sum(diffs.values)
        decay = whole_decay_report(sums, epsilon, rates=steps)
        del sums
        absy_p = np.abs(diffs.values)
        _raise_nonzero(absy_p, p)
        series = whole_series_report(*old_image(t1, absy_p / (steps ** (1.0 + p / 2.0))[:, None]))
        bound_rhs, bound_layout = old_image(t1, absy_p)
        del absy_p
        _running_sum(bound_rhs, out=bound_rhs)
        bound_rhs *= (steps ** (p / 2.0 - 1.0))[:, None]
        del steps
        absy_sq = np.square(diffs.values)
        running = _running_sum(absy_sq)
        running **= p / 2.0
        exchange_lhs, lhs_layout = old_image(t1, running)
        del running
        exchange_rhs, rhs_layout = old_image(t1, absy_sq)
        del absy_sq
        _running_sum(exchange_rhs, out=exchange_rhs)
        exchange_rhs **= p / 2.0

    # The three relations in one pass: each block of each stack is sliced,
    # checked for finiteness and made absolute once, and each relation keeps
    # its own fold, as three _whole_check calls would.
    stacks, layout = _whole_aligned(
        (exchange_lhs, lhs_layout), (exchange_rhs, rhs_layout), (bound_rhs, bound_layout)
    )
    del exchange_lhs, exchange_rhs, bound_rhs
    relations = {
        "square-sum-exchange": (0, 1),
        "moment-power-step": (1, 2),
        "square-sum-power-bound": (0, 2),
    }
    folds = {name: _WholeFold(layout) for name in relations}
    for rows in row_blocks(*stacks[0].shape):
        blocks = [x[rows] for x in stacks]
        require_finite(*blocks)
        sizes = [np.abs(x) for x in blocks]
        for name, (i, j) in relations.items():
            slack = tol.abs + tol.rel * np.maximum(sizes[i], sizes[j])  # tol.slack
            folds[name].add(blocks[i], blocks[j], slack)
    checks = {name: CheckSummary() for name in relations}
    for name, fold in folds.items():
        fold.record(checks[name], name)
    config = {"p": p, "rates": "power:1", "epsilon": epsilon}
    return _experiment("slln-n", config, decay, series, checks)
