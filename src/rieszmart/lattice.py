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

from .errors import BadExponent, NegativeBase, NonpositiveExponent, SpaceMismatch

_WEIGHT_TOL = 1e-12


class SampleSpace:
    """n weighted atoms; weights strictly positive and normalized to sum 1."""

    __slots__ = ("n", "weights")

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_TOL:
            w = w / total
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
    if not all(np.isfinite(stack).all() for stack in stacks):
        raise ValueError("coordinates must be finite")


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


def sup_many(elements) -> LatticeElement:
    """Finite join of a nonempty family."""
    elements = list(elements)
    if not elements:
        raise ValueError("join of an empty family")
    out = elements[0]
    for f in elements[1:]:
        out = out.sup(f)
    return out


def inf_many(elements) -> LatticeElement:
    """Finite meet of a nonempty family."""
    elements = list(elements)
    if not elements:
        raise ValueError("meet of an empty family")
    out = elements[0]
    for f in elements[1:]:
        out = out.inf(f)
    return out


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
    p = float(p)
    if p <= 0.0:
        raise NonpositiveExponent(f"exponent must be positive, got {p}")
    if not p < math.inf:
        raise BadExponent(f"exponent must be finite, got {p}")
    if p == 1.0:
        return f
    if p == int(p) and p <= 16:
        out = np.ones(f.space.n)
        base = f.coords
        for _ in range(int(p)):
            out = out * base
        return LatticeElement(f.space, out)
    if p != int(p) and np.any(f.coords < 0.0):
        worst = int(np.argmin(f.coords))
        raise NegativeBase(
            f"fractional power {p} of a negative coordinate at atom {worst}"
        )
    return LatticeElement(f.space, np.power(f.coords, p))


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


def row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices covering range(rows), each of about BLOCK_ELEMENTS
    elements when a row holds width of them."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def compare(lhs, rhs, slack):
    """lhs <= rhs + slack along the last axis.

    Per row: the number of components that miss (a NaN misses), the margin
    min(rhs - lhs), and the first argmin of rhs - lhs + slack.
    """
    gap = rhs - lhs
    loose = gap + slack
    misses = np.shape(loose)[-1] - np.count_nonzero(loose >= 0.0, axis=-1)
    return misses, gap.min(axis=-1), loose.argmin(axis=-1)


def leq_with_tolerance(
    lhs: LatticeElement, rhs: LatticeElement, tol: Tolerance = DEFAULT_TOL
) -> MarginCheck:
    """Check lhs <= rhs componentwise up to tolerance; report the worst atom."""
    _same_space(lhs, rhs)
    misses, margin, atom = compare(lhs.coords, rhs.coords, tol.slack(lhs.coords, rhs.coords))
    return MarginCheck(ok=bool(misses == 0), margin=float(margin), atom=int(atom))
