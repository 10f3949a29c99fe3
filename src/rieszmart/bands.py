"""Band projections as support masks.

In the coordinate model the band generated by g >= 0 is spanned by the atoms
where g is strictly positive, so the band projection just zeroes every other
coordinate; a BandProjection is that boolean mask.  apply_sup_formula_oracle
recomputes the same projection from the order-theoretic formula
sup_n (f ^ (n g)) and reports where the iteration stabilized; the two routes
are compared exactly, never through a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeArgument, NegativeGenerator, SpaceMismatch
from .lattice import LatticeElement, SampleSpace, inf_many, sup_many
from .reports import VerificationReport


class BandProjection:
    """Projection onto the atoms where mask is True."""

    __slots__ = ("space", "mask")

    def __init__(self, space: SampleSpace, support) -> None:
        atoms = np.fromiter(support, dtype=np.intp)
        if atoms.size and (atoms.min() < 0 or atoms.max() >= space.n):
            raise ValueError("support atom out of range")
        self.space = space
        self.mask = np.zeros(space.n, dtype=bool)
        self.mask[atoms] = True
        self.mask.flags.writeable = False

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.mask).tolist())

    @classmethod
    def identity(cls, space: SampleSpace) -> "BandProjection":
        return cls(space, range(space.n))

    @classmethod
    def zero(cls, space: SampleSpace) -> "BandProjection":
        return cls(space, ())

    def apply(self, f: LatticeElement) -> LatticeElement:
        if f.space != self.space:
            raise SpaceMismatch("element on a different space than the projection")
        return LatticeElement(self.space, np.where(self.mask, f.coords, 0.0))

    def co_apply(self, f: LatticeElement) -> LatticeElement:
        """(I - P) f: the part of f outside the band."""
        if f.space != self.space:
            raise SpaceMismatch("element on a different space than the projection")
        return LatticeElement(self.space, np.where(self.mask, 0.0, f.coords))

    def compose(self, other: "BandProjection") -> "BandProjection":
        """Product of commuting band projections: intersection of supports."""
        if self.space != other.space:
            raise SpaceMismatch("projections on different spaces")
        return BandProjection(self.space, np.flatnonzero(self.mask & other.mask))

    def complement(self) -> "BandProjection":
        return BandProjection(self.space, np.flatnonzero(~self.mask))

    def leq(self, other: "BandProjection") -> bool:
        """Order on projections: containment of supports."""
        if self.space != other.space:
            raise SpaceMismatch("projections on different spaces")
        return not np.any(self.mask & ~other.mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BandProjection)
            and self.space == other.space
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self):
        return hash((self.space, self.mask.tobytes()))

    def __repr__(self) -> str:
        return f"BandProjection(support={list(self.support)})"

    def to_json_dict(self) -> list:
        return list(self.support)


def band_projection(g: LatticeElement) -> BandProjection:
    """Projection onto the band generated by g >= 0.

    The support is read off exactly as {i : g_i > 0}: any strictly positive
    coordinate counts, with no epsilon blurring.
    """
    if np.any(g.coords < 0.0):
        worst = int(np.argmin(g.coords))
        raise NegativeGenerator(f"generator has negative coordinate at atom {worst}")
    return BandProjection(g.space, np.flatnonzero(g.coords > 0.0))


@dataclass(frozen=True)
class SupFormulaResult:
    value: LatticeElement
    stabilized_at: int
    bound: int


def apply_sup_formula_oracle(g: LatticeElement, f: LatticeElement) -> SupFormulaResult:
    """Evaluate the band projection of f via sup_n (f ^ (n g)).

    Both f and g must be nonnegative.  The sequence n -> f ^ (n g) is
    nondecreasing and constant from some n on; stabilized_at is the first n
    with f ^ (n g) = f ^ ((n+1) g) exactly, which is guaranteed to happen by
    N* = ceil(max_i f_i / min over the support of g) + 1.

    Below 2^52, fl(n g_i) strictly increases with n, so the equality holds
    iff g_i = 0 or f_i <= fl(n g_i) at every atom: once true it stays true,
    and doubling then bisection find the n a step-by-step scan would.
    """
    if np.any(g.coords < 0.0):
        raise NegativeGenerator("sup formula needs g >= 0")
    if np.any(f.coords < 0.0):
        raise NegativeArgument("sup formula needs f >= 0")
    if f.space != g.space:
        raise SpaceMismatch("f and g on different spaces")
    positive = g.coords[g.coords > 0.0]
    if positive.size == 0:
        bound = 1
    else:
        bound = int(np.ceil(f.coords.max() / positive.min())) + 1

    def stable(n: int) -> bool:
        fc, gc = f.coords, g.coords
        return np.array_equal(np.minimum(fc, n * gc), np.minimum(fc, (n + 1) * gc))

    if not stable(bound + 1):  # unreachable if the bound argument is right
        raise AssertionError("sup formula failed to stabilize within its bound")
    lo, n = 0, 1  # lo is 0 or a stage known to be unstable
    while not stable(n):
        lo, n = n, min(2 * n, bound + 1)
    while n - lo > 1:
        mid = (lo + n) // 2
        lo, n = (lo, mid) if stable(mid) else (mid, n)
    value = LatticeElement(f.space, np.minimum(f.coords, n * g.coords))
    return SupFormulaResult(value=value, stabilized_at=n, bound=bound)


def check_sup_identity(generators) -> VerificationReport:
    """Join of projections vs projection of the join: exact support equality."""
    generators = list(generators)
    report = VerificationReport(suite="bands-join", trials=1)
    union = np.any([band_projection(g).mask for g in generators], axis=0)
    joined = band_projection(sup_many(generators))
    ok = np.array_equal(union, joined.mask)
    witness = f"union={np.flatnonzero(union).tolist()} vs join-support={list(joined.support)}"
    report.record(ok, 0.0 if ok else -1.0, witness)
    report.details["support_size"] = len(joined.support)
    return report


def check_inf_inequality(generators) -> VerificationReport:
    """Meet of projections dominates the projection of the meet.

    The intersection of the supports contains the support of the pointwise
    minimum; the containment can be strict, which is recorded.
    """
    generators = list(generators)
    report = VerificationReport(suite="bands-meet", trials=1)
    inter = np.all([band_projection(g).mask for g in generators], axis=0)
    met = band_projection(inf_many(generators)).mask
    ok = not np.any(met & ~inter)
    witness = (
        f"meet-support={np.flatnonzero(met).tolist()}"
        f" not within intersection={np.flatnonzero(inter).tolist()}"
    )
    report.record(ok, 0.0 if ok else -1.0, witness)
    report.details["strict"] = bool(np.any(met != inter))
    return report


def check_exclusion_inequality(elements) -> VerificationReport:
    """Band of the joined positive parts excludes the common negative region.

    Where every element is strictly negative, no positive part survives, so
    the support of sup_n (g_n)+ must be disjoint from the support of
    inf_n (g_n)-; equivalently the first projection is below the complement
    of the second.
    """
    elements = list(elements)
    report = VerificationReport(suite="bands-exclusion", trials=1)
    pos_join = band_projection(sup_many([g.pos_part() for g in elements]))
    neg_meet = band_projection(inf_many([g.neg_part() for g in elements]))
    overlap = np.flatnonzero(pos_join.mask & neg_meet.mask).tolist()
    ok_sets = not overlap
    report.record(
        ok_sets,
        0.0 if ok_sets else -float(len(overlap)),
        f"overlapping atoms: {overlap}",
    )
    # The same fact as an operator inequality against the complement.
    ok_op = pos_join.leq(neg_meet.complement())
    report.record(ok_op, 0.0 if ok_op else -1.0, "projection not below complement")
    return report


def compose_all(projections) -> BandProjection:
    """Product of a nonempty family of band projections."""
    projections = list(projections)
    if not projections:
        raise ValueError("composition of an empty family")
    out = projections[0]
    for p in projections[1:]:
        out = out.compose(p)
    return out
