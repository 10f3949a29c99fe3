"""Finite-dimensional Riesz space with weighted atoms.

The carrier is R^n ordered componentwise; atom i carries a strictly positive
weight mu_i (normalized to sum to one).  Join/meet are componentwise max/min,
the constant-one element is a weak order unit, and componentwise product makes
the space an f-algebra with that unit.  Being finite dimensional, the space is
Dedekind complete and coincides with its universal completion, so every
operation below is total on the coordinate level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadExponent, BadWeights, NegativeBase, NonpositiveExponent, SpaceMismatch

_WEIGHT_TOL = 1e-12


class SampleSpace:
    """n weighted atoms; weights strictly positive and normalized to sum 1."""

    __slots__ = ("n", "weights")

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.isfinite(w).all() or (w <= 0.0).any():
            raise ValueError("weights must be finite and strictly positive")
        w = normalized(w)
        self.n = int(w.size)
        self.weights = w
        self.weights.flags.writeable = False

    @classmethod
    def uniform(cls, n: int) -> "SampleSpace":
        if n < 1:
            raise ValueError("need at least one atom")
        return cls(np.full(n, 1.0 / n))

    def element(self, values) -> "LatticeElement":
        return LatticeElement(self, values)

    def unit(self) -> "LatticeElement":
        """The weak order unit: all coordinates one."""
        return LatticeElement(self, np.ones(self.n))

    def zero(self) -> "LatticeElement":
        return LatticeElement(self, np.zeros(self.n))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, SampleSpace)
            and self.n == other.n
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.n, self.weights.tobytes()))

    def __repr__(self) -> str:
        return f"SampleSpace(n={self.n})"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "weights": [float(w) for w in self.weights]}


def normalized(weights: np.ndarray) -> np.ndarray:
    """Weights scaled to sum to one, or as given when they already do."""
    total = float(weights.sum())
    return weights / total if abs(total - 1.0) > _WEIGHT_TOL else weights


def atom_array(atoms) -> np.ndarray:
    """Atom labels as an intp array.  Labels must be integers: a float or
    string label raises ValueError instead of being truncated to an atom."""
    labels = np.asarray(atoms if isinstance(atoms, np.ndarray) else list(atoms))
    if labels.size and labels.dtype.kind not in "iu":
        raise ValueError(f"atom labels must be integers, got {labels.dtype} labels")
    return labels.astype(np.intp, copy=False)


def require_finite(*stacks) -> None:
    """Raise ValueError, as for an element's coordinates, unless every entry
    of every stack is finite."""
    for stack in stacks:
        if not np.isfinite(stack).all():
            raise _not_finite()


def require_rates(rates: np.ndarray) -> np.ndarray:
    """The rates, once checked finite, strictly positive and nondecreasing."""
    if not np.all(np.isfinite(rates) & (rates > 0.0)):
        raise BadWeights("rates must be strictly positive")
    if np.any(np.diff(rates) < 0.0):
        raise BadWeights("rates must be nondecreasing")
    return rates


def _not_finite(_trial=None) -> ValueError:
    return ValueError("coordinates must be finite")


def raise_first(*checks) -> None:
    """Raise what the first failing trial raises when its trials run one by
    one: checks are (bad, error) pairs in the order a trial meets them, bad a
    boolean array over the trials and error(t) the exception of trial t."""
    first = None
    for bad, error in checks:
        hit = np.flatnonzero(bad)
        if hit.size and (first is None or hit[0] < first[0]):
            first = (int(hit[0]), error)
    if first is not None:
        raise first[1](first[0])


def nonfinite_segments(starts: np.ndarray, *stacks) -> tuple:
    """Trials laid end to end, trial t on entries starts[t]:starts[t + 1]
    of each 1-d stack: the (bad, error) pair, for raise_first, of the trials
    with a non-finite entry in some stack, the error that of require_finite."""
    bad = np.zeros(int(starts[-1]), dtype=bool)
    for stack in stacks:
        bad |= ~np.isfinite(stack)
    return np.logical_or.reduceat(bad, starts[:-1]), _not_finite


def _same_space(a: "LatticeElement", b: "LatticeElement") -> None:
    if a.space != b.space:
        raise SpaceMismatch(
            f"operands on different spaces: {a.space.n} vs {b.space.n} atoms"
        )


class LatticeElement:
    """An element of the space: an immutable coordinate vector."""

    __slots__ = ("space", "coords")

    def __init__(self, space: SampleSpace, values):
        v = np.array(values, dtype=np.float64)
        if v.shape != (space.n,):
            raise ValueError(f"expected {space.n} coordinates, got shape {v.shape}")
        require_finite(v)
        self.space = space
        self.coords = v
        self.coords.flags.writeable = False

    # --- vector space structure -------------------------------------------

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        _same_space(self, other)
        return LatticeElement(self.space, self.coords + other.coords)

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        _same_space(self, other)
        return LatticeElement(self.space, self.coords - other.coords)

    def __neg__(self) -> "LatticeElement":
        return LatticeElement(self.space, -self.coords)

    def __mul__(self, other):
        if isinstance(other, LatticeElement):
            return multiply(self, other)
        return LatticeElement(self.space, self.coords * float(other))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "LatticeElement":
        return LatticeElement(self.space, self.coords / float(scalar))

    # --- lattice structure --------------------------------------------------

    def sup(self, other: "LatticeElement") -> "LatticeElement":
        _same_space(self, other)
        return LatticeElement(self.space, np.maximum(self.coords, other.coords))

    def inf(self, other: "LatticeElement") -> "LatticeElement":
        _same_space(self, other)
        return LatticeElement(self.space, np.minimum(self.coords, other.coords))

    def abs(self) -> "LatticeElement":
        return LatticeElement(self.space, np.abs(self.coords))

    def pos_part(self) -> "LatticeElement":
        return LatticeElement(self.space, np.maximum(self.coords, 0.0))

    def neg_part(self) -> "LatticeElement":
        """Negative part, itself nonnegative: (-f) v 0."""
        return LatticeElement(self.space, np.maximum(-self.coords, 0.0))

    # --- queries -------------------------------------------------------------

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coords)))

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.coords >= 0.0))

    def equals(self, other: "LatticeElement") -> bool:
        _same_space(self, other)
        return np.array_equal(self.coords, other.coords)

    def __repr__(self) -> str:
        return f"LatticeElement({np.array2string(self.coords, precision=6)})"

    def to_json_dict(self) -> dict:
        return {
            "space": self.space.to_json_dict(),
            "values": [float(v) for v in self.coords],
        }


def fold_family(items, combine, empty: str):
    """combine(...combine(items[0], items[1])..., items[-1]) over a nonempty
    family; ValueError(empty) for an empty one."""
    items = list(items)
    if not items:
        raise ValueError(empty)
    out = items[0]
    for item in items[1:]:
        out = combine(out, item)
    return out


def stack_family(elements, empty: str) -> np.ndarray:
    """The coordinates of a nonempty family of elements on one space, one
    row each; ValueError(empty) for an empty family."""
    elements = list(elements)
    if not elements:
        raise ValueError(empty)
    for f in elements[1:]:
        _same_space(elements[0], f)
    return np.array([f.coords for f in elements])


def sup_many(elements) -> LatticeElement:
    """Finite join of a nonempty family."""
    return fold_family(elements, LatticeElement.sup, "join of an empty family")


def inf_many(elements) -> LatticeElement:
    """Finite meet of a nonempty family."""
    return fold_family(elements, LatticeElement.inf, "meet of an empty family")


def multiply(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    """f-algebra product: componentwise multiplication."""
    _same_space(f, g)
    return LatticeElement(f.space, f.coords * g.coords)


def power(f: LatticeElement, p: float) -> LatticeElement:
    """Componentwise p-th power.

    Only non-integer p needs nonnegative coordinates (NegativeBase otherwise);
    integer p <= 16 uses repeated multiplication, which keeps e.g. squares
    exact for the identity checks downstream.  p must be finite (BadExponent).
    """
    out = power_array(f.coords, p)
    return f if out is f.coords else LatticeElement(f.space, out)


def power_array(values: np.ndarray, p: float) -> np.ndarray:
    """power on raw coordinates, with its checks; p = 1 returns values."""
    p = float(p)
    if p <= 0.0:
        raise NonpositiveExponent(f"exponent must be positive, got {p}")
    if not p < math.inf:
        raise BadExponent(f"exponent must be finite, got {p}")
    if p == 1.0:
        return values
    if p == int(p) and p <= 16:
        out = np.ones(values.shape)
        for _ in range(int(p)):
            out = out * values
        return out
    if p != int(p) and (values < 0.0).any():
        worst = int(np.argmin(values))
        raise NegativeBase(
            f"fractional power {p} of a negative coordinate at atom {worst}"
        )
    return np.power(values, p)


def ragged_power(values: np.ndarray, starts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """power_array of each trial's atoms starts[t]:starts[t + 1] (along the
    last axis) at its own exponent p[t]: one scalar-exponent call per trial,
    as NumPy's sqrt and square paths for an exponent array move bits."""
    out = np.empty(values.shape)
    for t, (lo, hi) in enumerate(zip(starts[:-1].tolist(), starts[1:].tolist())):
        out[..., lo:hi] = power_array(values[..., lo:hi], p[t])
    return out


@dataclass(frozen=True)
class Tolerance:
    """Comparison slack: lhs <= rhs + abs + rel * max(|lhs|, |rhs|) per atom."""

    abs: float = 1e-12
    rel: float = 1e-9

    def slack(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self.abs + self.rel * np.maximum(np.abs(lhs), np.abs(rhs))

    def to_json_dict(self) -> dict:
        return {"abs": self.abs, "rel": self.rel}


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class MarginCheck:
    """Outcome of a tolerant componentwise comparison.

    margin is min_i (rhs_i - lhs_i): nonnegative means the inequality holds
    with room to spare, and ok may still be True for slightly negative margins
    inside the tolerance slack.
    """

    ok: bool
    margin: float
    atom: int

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "margin": self.margin, "atom": self.atom}


# Long (N, n) stacks are processed in row blocks of about this many elements,
# so element-wise temporaries stay O(block) at any horizon.
BLOCK_ELEMENTS = 1 << 16


def row_blocks(rows: int, width: int, start: int = 0) -> list[slice]:
    """Consecutive slices covering range(start, rows), each of about
    BLOCK_ELEMENTS elements when a row holds width of them."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    return [slice(lo, min(lo + step, rows)) for lo in range(start, rows, step)]


# The widest blocks (columns) that halving_fold folds, along axis 0 and 1;
# past them a reduce is faster.  Measured on 65,536-value blocks: the fold
# breaks even with the reduce near 64 columns along axis 0 and between 48
# and 64 along axis 1, where it folds a transposed copy.
FOLD_MAX_WIDTH = (64, 48)


def halving_fold(ufunc, block: np.ndarray, axis: int) -> np.ndarray:
    """ufunc.reduce of a 2-d block along axis 0 or 1, for ufunc np.maximum or
    np.minimum, by folding the upper half of the slices onto the lower until
    one is left.  Exact, and on a narrow block several times faster than a
    reduce, which loops over the narrow axis innermost; a -0.0/+0.0 tie may
    keep the other sign.  Blocks wider than FOLD_MAX_WIDTH[axis] columns
    take the reduce.  The axis must not be empty."""
    if block.shape[1] > FOLD_MAX_WIDTH[axis] and block.shape[axis]:
        return ufunc.reduce(block, axis=axis)
    x = np.moveaxis(block, axis, 0)
    if axis:
        x = np.ascontiguousarray(x)  # so each call runs along whole columns
    n = x.shape[0]
    if n == 0:
        raise ValueError("fold along an empty axis")
    if n == 1:
        return np.array(x[0])
    h = n // 2
    acc = ufunc(x[:h], x[n - h :])
    if n % 2:
        ufunc(acc[0], x[h], out=acc[0])  # the middle slice
    while h > 1:
        k = h // 2
        ufunc(acc[:k], acc[h - k : h], out=acc[:k])
        h -= k
    return acc[0].copy()  # not a view that keeps the halves alive


def compare(lhs, rhs, slack):
    """lhs <= rhs + slack along the last axis.

    Per row: the number of components that miss (a NaN misses), the margin
    min(rhs - lhs), and the first argmin of rhs - lhs + slack.
    """
    gap = rhs - lhs
    loose = gap + slack
    misses = np.shape(loose)[-1] - np.count_nonzero(loose >= 0.0, axis=-1)
    return misses, gap.min(axis=-1), loose.argmin(axis=-1)


def compare_segments(lhs, rhs, slack, starts: np.ndarray):
    """compare for trials laid end to end along one axis: per trial t, on
    atoms starts[t]:starts[t + 1], the misses, the margin and the first
    argmin (counted from the trial's first atom), a NaN missing and coming
    first as in compare."""
    heads = starts[:-1]
    gap = rhs - lhs
    loose = gap + slack
    misses = np.add.reduceat((~(loose >= 0.0)).astype(np.intp), heads)
    least = np.repeat(np.minimum.reduceat(loose, heads), np.diff(starts))
    index = np.arange(len(loose))
    first = np.where((loose == least) | np.isnan(loose), index, len(loose))
    return misses, np.minimum.reduceat(gap, heads), np.minimum.reduceat(first, heads) - heads


def leq_with_tolerance(
    lhs: LatticeElement, rhs: LatticeElement, tol: Tolerance = DEFAULT_TOL
) -> MarginCheck:
    """Check lhs <= rhs componentwise up to tolerance; report the worst atom."""
    _same_space(lhs, rhs)
    misses, margin, atom = compare(lhs.coords, rhs.coords, tol.slack(lhs.coords, rhs.coords))
    return MarginCheck(ok=bool(misses == 0), margin=float(margin), atom=int(atom))
