"""Limit-theorem experiments at a finite horizon.

Order convergence is replaced by two desk-scale surrogates:

  * decay: a sequence z_n is declared order-null at (N0, epsilon) when the
    running sup of max-coordinates over n >= N0 up to the horizon stays
    <= epsilon; tail sups are reported at power-of-two checkpoints and are
    nonincreasing by construction.
  * series: partial sums s_m pass the Cauchy-tail criterion when
    ||s_N - s_m||_max <= eps_series for every m >= N/2.  The relative factor
    below is set so genuinely summable desk cases pass (inverse squares at
    N = 10^4 have tail about 1e-4) while divergent ones miss by orders of
    magnitude (the harmonic tail over the same window is ln 2).

Tall (N, n) stacks run at array speed with every output bit of the plain
NumPy calls.  Running sums add two columns per complex add (_running_sum).
Powers of |Y_i| skip zero bases, which past the singleton cut are almost all
of them (_raise_nonzero).  slln-n checks its three relations in one pass over
row blocks.  Decay summaries divide by the rates only at the checkpoint
rows: dividing by a positive a_n is monotone, so the row maxima of the
undivided stack, divided, are the divided stack's.

T_1 images are kept in block coordinates.  Each dense product still takes
the whole operand (rows @ M.T may round a row differently with the number of
rows that share it).  When the product is constant bit for bit on every block
of T_1, and finite and free of -0.0, it is kept as an (N, k) stack of block
values, and the running sums, powers, series summaries and checks run on k
columns.  _image compares neighbouring atoms' bits in flat row blocks, not a
gathered copy.  A miss counts its block's atoms, a witness names its block's
lowest atom, which is where compare's first argmin over the atoms lands, and
only checkpoint rows are widened back to atoms.  Any other product keeps its
n columns as n blocks of one atom each, so every consumer has one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadExponent,
    BadWeights,
    NegativeArgument,
    NegativeProcess,
    NotSubmartingale,
    NotSummable,
    ParameterViolation,
)
from .lattice import (
    DEFAULT_TOL,
    Tolerance,
    compare,
    halving_fold,
    require_finite,
    require_rates,
    row_blocks,
    stack_family,
)
from .processes import (
    MARTINGALE,
    SUBMARTINGALE,
    ProcessSequence,
    _stage_groups,
    classify,
    require_difference_sequence,
)
from .reports import (
    CheckSummary,
    DecaySequenceReport,
    ExperimentReport,
    SeriesReport,
    checkpoint_schedule,
)

SERIES_TAIL_REL = 1e-3
DEFAULT_DECAY_EPSILON = 1e-2
DEFAULT_STOCHASTIC_EPSILON = 0.1


@dataclass(frozen=True)
class WeightSequence:
    """Rate sequence a_i, either a power law i^s or an explicit list."""

    kind: str  # "power" | "explicit"
    exponent: float = 1.0
    explicit: tuple = ()

    @classmethod
    def power(cls, exponent: float) -> "WeightSequence":
        exponent = float(exponent)
        if not (np.isfinite(exponent) and exponent >= 0.0):
            raise BadWeights("power rates need exponent >= 0")
        return cls(kind="power", exponent=exponent)

    @classmethod
    def from_values(cls, values) -> "WeightSequence":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise BadWeights("explicit rates must be nonempty")
        return cls(kind="explicit", explicit=vals)

    @classmethod
    def parse(cls, text: str) -> "WeightSequence":
        """Parse "power:S" rate specs, e.g. power:1 for a_i = i."""
        if text.startswith("power:"):
            try:
                return cls.power(float(text.split(":", 1)[1]))
            except ValueError as exc:
                raise BadWeights(f"bad rate spec {text!r}") from exc
        raise BadWeights(f"unknown rate spec {text!r} (expected power:S)")

    def values(self, length: int) -> np.ndarray:
        """a_1..a_length; a power law that overflows to inf is rejected."""
        if self.kind == "power":
            with np.errstate(over="ignore"):  # rejected below
                vals = np.arange(1, length + 1, dtype=np.float64) ** self.exponent
        else:
            vals = np.asarray(self.explicit, dtype=np.float64)
            if vals.size < length:
                raise BadWeights(f"explicit rates have {vals.size} entries, need {length}")
            vals = vals[:length]
        return require_rates(vals)

    def require_divergent(self) -> None:
        """Divergence is decidable for power laws; explicit lists can only
        be screened for being nonconstant."""
        if self.kind == "power":
            if self.exponent <= 0.0:
                raise BadWeights("divergent rates needed: power exponent must be > 0")
        elif self.explicit[-1] <= self.explicit[0]:
            raise BadWeights("divergent rates needed: sequence never grows")

    def label(self) -> str:
        if self.kind == "power":
            return f"power:{self.exponent:g}"
        return f"explicit[{len(self.explicit)}]"


def decay_report(
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


def _running_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.cumsum(x, axis=0, out=out) of a 2-d float64 stack.  When a row
    holds an even number of values and the rows are C-contiguous, each pair
    of columns is viewed as one complex128: a complex add is two double
    adds, so every column gets the adds of np.cumsum in the same order, and
    the two chains of a pair run side by side instead of one after the
    other."""
    if (
        x.dtype != np.float64
        or x.shape[1] % 2
        or not x.flags.c_contiguous
        or (out is not None and not out.flags.c_contiguous)
    ):
        return np.cumsum(x, axis=0, out=out)
    pairs = None if out is None else out.view(np.complex128)
    return np.cumsum(x.view(np.complex128), axis=0, out=pairs).view(np.float64)


def _raise_nonzero(x: np.ndarray, p: float) -> None:
    """x **= p in place for bases that are np.abs values and p > 0, one row
    block at a time.  A zero base keeps its +0.0, which is pow(+0.0, p),
    without the call to pow: its zero path costs several times a positive
    base's, and past the singleton cut almost every base is zero."""
    for rows in row_blocks(*x.shape):
        block = x[rows]
        np.power(block, p, out=block, where=block != 0.0)


def _cumsum_blocks(terms: np.ndarray, start: np.ndarray | None = None):
    """(rows, partial sums) of cumsum(terms, axis=0) one row block at a time,
    added to start if given.  Each block's first row adds the last partial
    sum before it, so the adds are those of one cumsum."""
    carry = start
    for rows in row_blocks(*terms.shape):
        block = np.array(terms[rows])
        if carry is not None:
            block[0] += carry
        _running_sum(block, out=block)
        carry = block[-1]
        yield rows, block


def _prefix_rows(terms: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Rows index of the prefix sums of terms from a zero row (row j sums
    terms[:j]), with the adds of one cumsum over the zero-topped stack."""
    out = np.zeros((len(index), terms.shape[1]))
    for rows, partial in _cumsum_blocks(terms, start=np.zeros(terms.shape[1])):
        hit = (index > rows.start) & (index <= rows.stop)
        out[hit] = partial[index[hit] - 1 - rows.start]
    return out


class _Layout(NamedTuple):
    """The atoms that the k columns of a stack stand for: column b holds the
    value of block b on its size[b] atoms, the lowest first[b], and ids[j] is
    atom j's column.  Blocks are numbered by their lowest atom."""

    ids: np.ndarray
    size: np.ndarray
    first: np.ndarray

    @classmethod
    def of(cls, block_id: np.ndarray) -> "_Layout":
        _, first, size = np.unique(block_id, return_index=True, return_counts=True)
        return cls(block_id, size, first)

    @classmethod
    def singletons(cls, n: int) -> "_Layout":
        """n blocks of one atom: the atoms themselves."""
        return cls.of(np.arange(n))

    def widen(self, rows: np.ndarray) -> np.ndarray:
        """rows widened back to one value per atom."""
        return rows[..., self.ids]


_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)


def _image(t1, operand: np.ndarray) -> tuple:
    """(stack, layout) of T_1 applied to each row of operand by one dense
    product: its k block values when it is constant bit for bit on every
    block, finite and free of -0.0, else the product as n one-atom blocks.
    Non-finite images keep the atoms' arithmetic, and a -0.0 must: a min over
    the atoms and one over the blocks may keep different signs of a zero.
    One pass over row blocks compares neighbours in one run of atoms of one
    block in the flat block, and a later run's first atom with its block's
    value, gathering nothing but the k value columns."""
    image = t1.apply_rows(operand)
    layout = _Layout.of(t1.partition.block_id)
    count, n = image.shape
    if len(layout.size) < n:
        ends = np.flatnonzero(np.append(layout.ids[1:] != layout.ids[:-1], True)).tolist()  # of runs
        heads = [j + 1 for j in ends[:-1] if layout.first[layout.ids[j + 1]] != j + 1]  # later runs
        values = np.empty((count, len(layout.size)))
        bits, value_bits = image.view(np.int64), values.view(np.int64)
        for rows in row_blocks(count, n):
            flat = bits[rows].ravel()
            pairs = np.equal(flat[1:], flat[:-1])
            for j in ends:  # pairs across runs are not compared
                pairs[j::n] = True
            values[rows] = image[rows, layout.first]
            moved = any((bits[rows, h] != value_bits[rows, layout.ids[h]]).any() for h in heads)
            if moved or not pairs.all():
                break
        else:
            if np.isfinite(values).all() and not (value_bits == _NEGATIVE_ZERO).any():
                return values, layout
    return image, _Layout.singletons(n)


def series_report(terms: np.ndarray, layout: _Layout | None = None) -> SeriesReport:
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


def cesaro_weighted_mean(
    s_elements, rates: WeightSequence, epsilon: float = DEFAULT_DECAY_EPSILON
) -> DecaySequenceReport:
    """Weighted running means (1/b_n) sum_{i<n} (b_{i+1}-b_i) s_i.

    The s_i must be nonnegative and the rates positive, nondecreasing, and
    divergent; when the s_i themselves decay in order, so do the means.
    """
    mat = stack_family(s_elements, "need at least one element")
    if np.any(mat < 0.0):
        raise NegativeArgument("running means defined for nonnegative inputs")
    count = mat.shape[0]
    rates.require_divergent()
    b = rates.values(count)
    z = np.zeros_like(mat)
    if count > 1:
        weighted = _running_sum(np.diff(b)[:, None] * mat[:-1])
        z[1:] = weighted / b[1:, None]
    return decay_report(z, epsilon)


def kronecker_transform(
    x_elements, rates: WeightSequence, epsilon: float = DEFAULT_DECAY_EPSILON
) -> DecaySequenceReport:
    """Rate-damped averages (1/b_n) sum_{i<=n} b_i x_i of a summable sequence.

    Summability is screened by the Cauchy-tail criterion on the plain partial
    sums; NotSummable is raised when the tail at the horizon is too large.
    """
    mat = stack_family(x_elements, "need at least one element")
    tail = series_report(mat)
    if not tail.converged:
        raise NotSummable(
            f"partial sums fail the tail criterion: gap {tail.tail_gap:.3e} > {tail.epsilon:.3e}"
        )
    rates.require_divergent()
    b = rates.values(mat.shape[0])
    z = _running_sum(b[:, None] * mat) / b[:, None]
    return decay_report(z, epsilon)


def _aligned(*images) -> tuple:
    """(stacks, layout) of (stack, layout) pairs of T_1 images on one layout:
    their own when they share it, else each widened back to the atoms."""
    stacks, layouts = zip(*images)
    if len({len(layout.size) for layout in layouts}) == 1:
        return stacks, layouts[0]
    singletons = _Layout.singletons(len(layouts[0].ids))
    return [layout.widen(stack) for stack, layout in images], singletons


class _Fold:
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


def _check(summary: CheckSummary, lhs, rhs, slack, witness: str, layout: _Layout) -> None:
    """Record lhs <= rhs + slack over whole stacks on the columns of layout
    as one comparison that counts every missing atom; a miss names the first
    worst one.  The stacks are compared one row block at a time, with
    slack(lhs, rhs) formed per block; a scalar side is broadcast."""
    fold = _Fold(layout)
    for rows in row_blocks(*np.broadcast(lhs, rhs).shape):
        low, high = (x if np.ndim(x) == 0 else x[rows] for x in (lhs, rhs))
        require_finite(low, high)
        fold.add(low, high, slack(low, high))
    fold.record(summary, witness)


def _experiment(name: str, config: dict, decay, series, checks) -> ExperimentReport:
    """An experiment's report: positive when its hypothesis series converges
    and its sequence decays."""
    verdict = bool(series.converged and decay.verdict)
    return ExperimentReport(name, config, decay, series, checks, verdict)


def submartingale_convergence_experiment(
    process: ProcessSequence,
    rates: WeightSequence,
    p: float,
    epsilon: float = DEFAULT_STOCHASTIC_EPSILON,
    tol: Tolerance = DEFAULT_TOL,
) -> ExperimentReport:
    """Normalized decay X_n / a_n of a nonnegative submartingale.

    The driving series has terms T_1[(X_{i+1}^p - X_i^p) / a_{i+1}^p]; each
    term is certified nonnegative componentwise, the series is screened by
    the tail criterion, and the verdict combines series convergence with the
    order-null decay of X_n / a_n.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise BadExponent(f"need finite p >= 1, got {p}")
    label = classify(process, tol)
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
        terms, layout = _image(t1, terms)
        _check(checks["term-nonneg"], 0.0, terms, tol.slack, "series term sign", layout)
        series = series_report(terms, layout)
        del terms
    else:
        checks["term-nonneg"].record(True, 0.0, "no terms")
        series = series_report(np.zeros((1, process.space.n)))
    decay = decay_report(process.values, epsilon, rates=a)
    config = {"p": p, "rates": rates.label(), "epsilon": epsilon}
    return _experiment("submartingale", config, decay, series, checks)


def slln_p_le_2(
    diffs: ProcessSequence,
    rates: WeightSequence,
    p: float,
    epsilon: float = DEFAULT_STOCHASTIC_EPSILON,
    tol: Tolerance = DEFAULT_TOL,
) -> ExperimentReport:
    """Strong law for difference sequences with 1 <= p <= 2.

    Hypothesis series: sum_i T_1(|Y_i|^p / a_i^p).  Alongside the decay of
    (1/a_n) sum_{i<=n} Y_i, the submartingale step used on |X_n|^p is
    certified componentwise at every stage:
        0 <= T_i |X_{i+1}|^p - T_i |X_i|^p <= 2 T_i |Y_{i+1}|^p.
    """
    p = float(p)
    if not 1.0 <= p <= 2.0:
        raise BadExponent(f"this strong law needs 1 <= p <= 2, got {p}")
    require_difference_sequence(diffs, tol)
    count = len(diffs)
    rates.require_divergent()
    a = rates.values(count)
    t1 = diffs.filtration[0]
    # Each (N, n) stack is built once, in place where the ufunc allows.
    absy_p = np.abs(diffs.values)
    with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
        absy_p **= p
        series = series_report(*_image(t1, absy_p / (a**p)[:, None]))
        absx_p = _running_sum(diffs.values)
        decay = decay_report(absx_p, epsilon, rates=a)
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
                lower, upper = _Fold(atoms), _Fold(atoms)
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


def slln_p_gt_2(
    diffs: ProcessSequence,
    rates: WeightSequence,
    p: float,
    gamma: float,
    k: float,
    epsilon: float = DEFAULT_STOCHASTIC_EPSILON,
    tol: Tolerance = DEFAULT_TOL,
) -> ExperimentReport:
    """Bootstrapped strong law for p > 2 under the exact rate constraint.

    Requires p >= gamma + (p/2 - 1) k, checked exactly (no tolerance), and
    sum_i 1/a_i^k summable at the horizon.  The reduction to the p = 2 case
    runs through a Holder split with delta = (p - gamma)/(p/2 - 1) >= k:
        sum_{i=m}^n T_1|Y_i|^2/a_i^2
          <= (sum T_1|Y_i|^p/a_i^gamma)^(2/p) (sum 1/a_i^delta)^(1-2/p),
    verified here over all checkpoint pairs m < n.
    """
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
    require_difference_sequence(diffs, tol)
    count = len(diffs)
    rates.require_divergent()
    a = rates.values(count)
    with np.errstate(over="ignore"):  # an overflowing a_i^k stands for a zero term
        inv_k = (1.0 / a**k)[:, None]
    gate = series_report(inv_k)
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
        hyp_terms, layout = _image(t1, hyp_terms)
        series = series_report(hyp_terms, layout)
        pre_hyp = layout.widen(_prefix_rows(hyp_terms, ends))
        del hyp_terms
        sums = _running_sum(diffs.values)
        decay = decay_report(sums, epsilon, rates=a)
        del sums
        sq_terms = diffs.values**2
        sq_terms /= (a**2)[:, None]
        sq_terms, layout = _image(t1, sq_terms)
        pre_sq = layout.widen(_prefix_rows(sq_terms, ends))
        del sq_terms
        pairs = len(m)
        lhs = pre_sq[:pairs] - pre_sq[pairs:]
        inv_delta = 1.0 / a**delta
        pre_delta = _prefix_rows(inv_delta[:, None], ends)[:, 0]
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


def _scaled_holder_factors(a, delta: float, power: float, m, n) -> np.ndarray:
    """(sum_{i=m}^n a_i^-delta)^power for each segment m..n, as
    a_m^(-delta power) (sum_{i=m}^n (a_m / a_i)^delta)^power.  The scaled
    terms lie in [0, 1] and the first is 1, so a term that underflows, or an
    a_i^delta that overflows, costs no segment its sum, and no prefix sum
    cancels a segment."""
    factors = np.empty(len(m))
    for start in np.unique(m):
        scaled = np.cumsum((a[start - 1] / a[start - 1 :]) ** delta)
        hit = m == start
        factors[hit] = a[start - 1] ** (-delta * power) * scaled[n[hit] - start] ** power
    return factors


def slln_an_equals_n(
    diffs: ProcessSequence,
    p: float,
    epsilon: float = DEFAULT_STOCHASTIC_EPSILON,
    tol: Tolerance = DEFAULT_TOL,
) -> ExperimentReport:
    """Strong law for p > 2 at the plain rate a_n = n.

    Hypothesis series: sum_i T_1(|Y_i|^p / i^(1 + p/2)).  Three stage-n
    relations between the summed squares and the p-th moments are evaluated
    componentwise at every n (s_n = sum_{i<=n} |Y_i|^2):

      square-sum-exchange:    T_1(s_n^(p/2)) <= (sum_{i<=n} T_1|Y_i|^2)^(p/2)
      moment-power-step:      (sum_{i<=n} T_1|Y_i|^2)^(p/2)
                                  <= n^(p/2-1) sum_{i<=n} T_1|Y_i|^p
      square-sum-power-bound: T_1(s_n^(p/2)) <= n^(p/2-1) sum_{i<=n} T_1|Y_i|^p

    The first exchange puts the convex power outside the averaging where
    convexity actually pushes the other way, so it fails on generic
    difference sequences whenever some |Y_i|^2 is nonconstant across a block
    (take Y = (1,-1,0,0) on four uniform atoms under the trivial averaging:
    left side 1/2, right side 1/4); its failures are reported, not hidden.
    Its reverse, (sum_{i<=n} T_1|Y_i|^2)^(p/2) <= T_1(s_n^(p/2)), is
    conditional Jensen (T_1 is positive and linear, T_1 e = e, x^(p/2) is
    convex) and always holds; the reported misses are exactly the components
    where that inequality is strict by more than the slack.
    The other two hold unconditionally and must never fail.
    """
    p = float(p)
    if not 2.0 < p < math.inf:
        raise BadExponent(f"this strong law needs finite p > 2, got {p}")
    require_difference_sequence(diffs, tol)
    count = len(diffs)
    steps = np.arange(1, count + 1, dtype=np.float64)
    t1 = diffs.filtration[0]

    # Each (N, n) stack is built once, in place where the ufunc allows, and
    # dropped after its last use; T_1's images are (N, k) in block coordinates.
    with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
        sums = _running_sum(diffs.values)
        decay = decay_report(sums, epsilon, rates=steps)
        del sums
        absy_p = np.abs(diffs.values)
        _raise_nonzero(absy_p, p)
        series = series_report(*_image(t1, absy_p / (steps ** (1.0 + p / 2.0))[:, None]))
        bound_rhs, bound_layout = _image(t1, absy_p)
        del absy_p
        _running_sum(bound_rhs, out=bound_rhs)
        bound_rhs *= (steps ** (p / 2.0 - 1.0))[:, None]
        del steps
        absy_sq = np.square(diffs.values)
        running = _running_sum(absy_sq)
        running **= p / 2.0
        exchange_lhs, lhs_layout = _image(t1, running)
        del running
        exchange_rhs, rhs_layout = _image(t1, absy_sq)
        del absy_sq
        _running_sum(exchange_rhs, out=exchange_rhs)
        exchange_rhs **= p / 2.0

    # The three relations in one pass: each block of each stack is sliced,
    # checked for finiteness and made absolute once, and each relation keeps
    # its own fold, as three _check calls would.
    stacks, layout = _aligned(
        (exchange_lhs, lhs_layout), (exchange_rhs, rhs_layout), (bound_rhs, bound_layout)
    )
    del exchange_lhs, exchange_rhs, bound_rhs
    relations = {
        "square-sum-exchange": (0, 1),
        "moment-power-step": (1, 2),
        "square-sum-power-bound": (0, 2),
    }
    folds = {name: _Fold(layout) for name in relations}
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
