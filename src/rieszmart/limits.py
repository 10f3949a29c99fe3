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
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .lattice import DEFAULT_TOL, Tolerance
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
        if not np.all(np.isfinite(vals) & (vals > 0.0)):
            raise BadWeights("rates must be strictly positive")
        if np.any(np.diff(vals) < 0.0):
            raise BadWeights("rates must be nondecreasing")
        return vals

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
    values: np.ndarray, epsilon: float, verdict_index: int | None = None
) -> DecaySequenceReport:
    """Suffix-sup summary of an (N, dim) trajectory."""
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


def series_report(terms: np.ndarray, epsilon_rel: float = SERIES_TAIL_REL) -> SeriesReport:
    """Cauchy-tail summary for the partial sums of an (N, dim) term matrix."""
    count = terms.shape[0]
    partial = np.cumsum(terms, axis=0)
    points = checkpoint_schedule(count)
    half = (count + 1) // 2
    gaps = np.abs(partial[-1][None, :] - partial[half - 1 :]).max(axis=1)
    tail_gap = float(gaps.max()) if gaps.size else 0.0
    scale = max(1.0, float(np.max(np.abs(partial[-1]))))
    epsilon = epsilon_rel * scale
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


def _stack(elements) -> np.ndarray:
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")
    space = elements[0].space
    for f in elements:
        if f.space != space:
            raise ValueError("elements on different spaces")
    return np.array([f.coords for f in elements])


def cesaro_weighted_mean(
    s_elements, rates: WeightSequence, epsilon: float = DEFAULT_DECAY_EPSILON
) -> DecaySequenceReport:
    """Weighted running means (1/b_n) sum_{i<n} (b_{i+1}-b_i) s_i.

    The s_i must be nonnegative and the rates positive, nondecreasing, and
    divergent; when the s_i themselves decay in order, so do the means.
    """
    mat = _stack(s_elements)
    if np.any(mat < 0.0):
        raise NegativeArgument("running means defined for nonnegative inputs")
    count = mat.shape[0]
    rates.require_divergent()
    b = rates.values(count)
    z = np.zeros_like(mat)
    if count > 1:
        weighted = np.cumsum(np.diff(b)[:, None] * mat[:-1], axis=0)
        z[1:] = weighted / b[1:, None]
    return decay_report(z, epsilon)


def kronecker_transform(
    x_elements, rates: WeightSequence, epsilon: float = DEFAULT_DECAY_EPSILON
) -> DecaySequenceReport:
    """Rate-damped averages (1/b_n) sum_{i<=n} b_i x_i of a summable sequence.

    Summability is screened by the Cauchy-tail criterion on the plain partial
    sums; NotSummable is raised when the tail at the horizon is too large.
    """
    mat = _stack(x_elements)
    tail = series_report(mat)
    if not tail.converged:
        raise NotSummable(
            f"partial sums fail the tail criterion: gap {tail.tail_gap:.3e} > {tail.epsilon:.3e}"
        )
    rates.require_divergent()
    b = rates.values(mat.shape[0])
    z = np.cumsum(b[:, None] * mat, axis=0) / b[:, None]
    return decay_report(z, epsilon)


def _slacked_min(
    summary: CheckSummary, gaps: np.ndarray, slack: np.ndarray, witness: str
) -> None:
    """Record a componentwise lhs <= rhs check given gap = rhs - lhs."""
    worst = float(gaps.min())
    bad = gaps + slack < 0.0
    if np.any(bad):
        idx = np.unravel_index(int(np.argmin(gaps + slack)), gaps.shape)
        summary.record(False, worst, f"{witness} at {tuple(int(i) for i in idx)}")
        # count every failing component
        summary.failures += int(bad.sum()) - 1
    else:
        summary.record(True, worst, witness)


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
    if p < 1.0:
        raise BadExponent(f"need p >= 1, got {p}")
    label = classify(process, tol)
    if label not in (MARTINGALE, SUBMARTINGALE):
        raise NotSubmartingale(f"experiment needs a (sub)martingale, got {label}")
    if np.any(process.values < 0.0):
        raise NegativeProcess("experiment defined for nonnegative processes")
    count = len(process)
    rates.require_divergent()
    a = rates.values(count)
    t1 = process.filtration[0]
    powers = process.values**p
    if count > 1:
        scaled = (powers[1:] - powers[:-1]) / (a[1:] ** p)[:, None]
        terms = scaled if t1.is_identity else t1.apply_rows(scaled)
    else:
        terms = np.zeros((0, process.space.n))
    checks = {"term-nonneg": CheckSummary()}
    if terms.size:
        slack = tol.abs + tol.rel * np.abs(terms)
        _slacked_min(checks["term-nonneg"], terms, slack, "series term sign")
    else:
        checks["term-nonneg"].record(True, 0.0, "no terms")
    series = series_report(terms) if terms.size else series_report(np.zeros((1, process.space.n)))
    decay = decay_report(process.values / a[:, None], epsilon)
    return ExperimentReport(
        experiment="submartingale",
        config={"p": p, "rates": rates.label(), "epsilon": epsilon},
        decay=decay,
        hypothesis=series,
        checks=checks,
        verdict=bool(series.converged and decay.verdict),
    )


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
    absy_p = np.abs(diffs.values) ** p
    hyp_terms = absy_p / (a**p)[:, None]
    hyp_terms = hyp_terms if t1.is_identity else t1.apply_rows(hyp_terms)
    series = series_report(hyp_terms)
    sums = np.cumsum(diffs.values, axis=0)
    decay = decay_report(sums / a[:, None], epsilon)
    absx_p = np.abs(sums) ** p
    checks = {
        "power-diff-nonneg": CheckSummary(),
        "power-diff-dominated": CheckSummary(),
    }
    scale = float(np.max(absx_p)) if absx_p.size else 1.0
    if count > 1:
        for op, idx in _stage_groups(diffs.filtration, count - 1):
            nxt = absx_p[idx + 1]
            here = absx_p[idx]
            dom = 2.0 * absy_p[idx + 1]
            if not op.is_identity:
                nxt, here, dom = (op.apply_rows(m) for m in (nxt, here, dom))
            diff = nxt - here
            slack = tol.abs + tol.rel * scale
            _slacked_min(checks["power-diff-nonneg"], diff, np.full_like(diff, slack), "lower bound")
            _slacked_min(checks["power-diff-dominated"], dom - diff, np.full_like(diff, slack), "upper bound")
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
    if p <= 2.0:
        raise BadExponent(f"bootstrap applies to p > 2, got {p}")
    gamma = float(gamma)
    k = float(k)
    if gamma <= 0.0 or k <= 0.0:
        raise ParameterViolation("gamma and k must be positive")
    if p < gamma + (p / 2.0 - 1.0) * k:
        raise ParameterViolation(
            f"constraint p >= gamma + (p/2 - 1) k violated: {p} < {gamma + (p / 2.0 - 1.0) * k}"
        )
    require_difference_sequence(diffs, tol)
    count = len(diffs)
    rates.require_divergent()
    a = rates.values(count)
    inv_k = (1.0 / a**k)[:, None]
    gate = series_report(inv_k)
    if not gate.converged:
        raise BadWeights(
            f"sum 1/a^k fails the tail criterion: gap {gate.tail_gap:.3e} > {gate.epsilon:.3e}"
        )
    delta = (p - gamma) / (p / 2.0 - 1.0)
    t1 = diffs.filtration[0]

    def condition(mat: np.ndarray) -> np.ndarray:
        return mat if t1.is_identity else t1.apply_rows(mat)

    hyp_terms = condition(np.abs(diffs.values) ** p / (a**gamma)[:, None])
    series = series_report(hyp_terms)
    sums = np.cumsum(diffs.values, axis=0)
    decay = decay_report(sums / a[:, None], epsilon)

    second_moments = condition(diffs.values**2 / (a**2)[:, None])
    pre_sq = np.cumsum(second_moments, axis=0)
    pre_hyp = np.cumsum(hyp_terms, axis=0)
    pre_delta = np.cumsum(1.0 / a**delta)
    checks = {"holder-reduction": CheckSummary()}
    points = checkpoint_schedule(count)
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
            gaps = rhs - lhs
            slack = tol.abs + tol.rel * np.maximum(np.abs(lhs), np.abs(rhs))
            _slacked_min(checks["holder-reduction"], gaps, slack, f"segment m={m} n={n}")
    return ExperimentReport(
        experiment="slln-p-gt-2",
        config={
            "p": p,
            "gamma": gamma,
            "k": k,
            "delta": delta,
            "rates": rates.label(),
            "epsilon": epsilon,
        },
        decay=decay,
        hypothesis=series,
        checks=checks,
        verdict=bool(series.converged and decay.verdict),
    )


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
    if p <= 2.0:
        raise BadExponent(f"this strong law needs p > 2, got {p}")
    require_difference_sequence(diffs, tol)
    count = len(diffs)
    steps = np.arange(1, count + 1, dtype=np.float64)
    t1 = diffs.filtration[0]

    def condition(mat: np.ndarray) -> np.ndarray:
        return mat if t1.is_identity else t1.apply_rows(mat)

    # Each (N, n) intermediate is computed once and dropped after its last
    # use, for peak memory: at long horizons that halves the peak.
    absy = np.abs(diffs.values)
    absy_p = absy**p
    series = series_report(condition(absy_p / (steps ** (1.0 + p / 2.0))[:, None]))
    decay = decay_report(np.cumsum(diffs.values, axis=0) / steps[:, None], epsilon)
    bound_rhs = (steps ** (p / 2.0 - 1.0))[:, None] * np.cumsum(condition(absy_p), axis=0)
    del absy_p
    absy_sq = absy**2
    exchange_lhs = condition(np.cumsum(absy_sq, axis=0) ** (p / 2.0))
    exchange_rhs = np.cumsum(condition(absy_sq), axis=0) ** (p / 2.0)
    del absy, absy_sq

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
        _slacked_min(checks[name], gaps, slack, name)
        del gaps, slack
    return ExperimentReport(
        experiment="slln-n",
        config={"p": p, "rates": "power:1", "epsilon": epsilon},
        decay=decay,
        hypothesis=series,
        checks=checks,
        verdict=bool(series.converged and decay.verdict),
    )
