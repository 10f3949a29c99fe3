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
from .lattice import LatticeElement, SampleSpace, atom_array, fold_family, raise_first, stack_family
from .reports import VerificationReport


class BandProjection:
    """Projection onto the atoms where mask is True."""

    __slots__ = ("space", "mask")

    def __init__(self, space: SampleSpace, support) -> None:
        atoms = atom_array(support)
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
    and doubling then bisection find the n a step-by-step scan would.  Above
    it fl(n g_i) = fl((n + 1) g_i) can hold while f_i is still above, so a
    max f / min positive g over 2^52 raises ValueError.
    """
    if np.any(g.coords < 0.0):
        raise NegativeGenerator("sup formula needs g >= 0")
    if np.any(f.coords < 0.0):
        raise NegativeArgument("sup formula needs f >= 0")
    if f.space != g.space:
        raise SpaceMismatch("f and g on different spaces")
    value, stabilized_at, bound = sup_formula(g.coords, f.coords, np.array([0, f.space.n]))
    return SupFormulaResult(LatticeElement(f.space, value), int(stabilized_at[0]), int(bound[0]))


def sup_formula(g: np.ndarray, f: np.ndarray, starts: np.ndarray):
    """apply_sup_formula_oracle for trials laid end to end, trial t on atoms
    starts[t]:starts[t + 1] with f, g >= 0 there: (value, stabilized_at,
    bound), the last two one per trial.  Each trial runs its own doubling
    and bisection.  Raises as the first failing trial."""
    heads, sizes = starts[:-1], np.diff(starts)
    top = np.maximum.reduceat(f, heads)
    low = np.minimum.reduceat(np.where(g > 0.0, g, np.inf), heads)
    with np.errstate(over="ignore"):  # an infinite n g_i is above f_i, as n g_i is
        too_wide = (low < np.inf) & (top > 2.0**52 * low)
        bound = np.where((low < np.inf) & ~too_wide, np.ceil(top / low), 0.0).astype(np.int64) + 1

        def stage(n: np.ndarray) -> np.ndarray:
            return np.minimum(f, np.repeat(n, sizes) * g)

        def stable(n: np.ndarray) -> np.ndarray:
            return np.logical_and.reduceat(stage(n) == stage(n + 1), heads)

        def too_wide_error(t: int) -> ValueError:
            return ValueError(
                "sup formula needs max f / min positive g <= 2^52,"
                f" got {float(top[t])} / {float(low[t])}"
            )

        def unstable_error(_t: int) -> AssertionError:
            return AssertionError("sup formula failed to stabilize within its bound")

        # The second is unreachable if the bound argument is right.
        raise_first((too_wide, too_wide_error), (~stable(bound + 1), unstable_error))
        lo, n = np.zeros_like(bound), np.ones_like(bound)  # lo is 0 or a stage known to be unstable
        unstable = ~stable(n)
        while unstable.any():
            lo = np.where(unstable, n, lo)
            n = np.where(unstable, np.minimum(2 * n, bound + 1), n)
            unstable &= ~stable(n)
        apart = n - lo > 1
        while apart.any():
            mid = (lo + n) // 2
            settled = stable(mid)
            n = np.where(apart & settled, mid, n)
            lo = np.where(apart & ~settled, mid, lo)
            apart = n - lo > 1
        return stage(n), n, bound


def _atoms(mask: np.ndarray, starts: np.ndarray, t: int) -> list:
    return np.flatnonzero(mask[starts[t] : starts[t + 1]]).tolist()


def check_sup_identity(generators) -> VerificationReport:
    """Join of projections vs projection of the join: exact support equality."""
    generators = list(generators)
    for g in generators:
        band_projection(g)  # rejects a negative generator
    report = VerificationReport(suite="bands-join", trials=1)
    checks, support_size = sup_identity_checks(
        stack_family(generators, "join of an empty family"), np.array([0, generators[0].space.n])
    )
    report.record_parts([checks], [0])
    report.details["support_size"] = int(support_size[0])
    return report


def sup_identity_checks(family: np.ndarray, starts: np.ndarray):
    """check_sup_identity for trials laid end to end: family is a (k, atoms)
    stack of nonnegative generators, a trial with fewer than k repeating its
    first.  Returns its (ok, margin, witness_at) triples and each trial's
    support size."""
    heads = starts[:-1]
    union = np.any(family > 0.0, axis=0)
    joined = np.maximum.reduce(family, axis=0) > 0.0
    ok = np.logical_and.reduceat(union == joined, heads)

    def witness(t):
        return f"union={_atoms(union, starts, t)} vs join-support={_atoms(joined, starts, t)}"

    return [(ok, np.where(ok, 0.0, -1.0), witness)], np.add.reduceat(joined, heads)


def check_inf_inequality(generators) -> VerificationReport:
    """Meet of projections dominates the projection of the meet.

    The intersection of the supports contains the support of the pointwise
    minimum; the containment can be strict, which is recorded.
    """
    generators = list(generators)
    for g in generators:
        band_projection(g)  # rejects a negative generator
    report = VerificationReport(suite="bands-meet", trials=1)
    checks, strict = inf_inequality_checks(
        stack_family(generators, "meet of an empty family"), np.array([0, generators[0].space.n])
    )
    report.record_parts([checks], [0])
    report.details["strict"] = bool(strict[0])
    return report


def inf_inequality_checks(family: np.ndarray, starts: np.ndarray):
    """check_inf_inequality for trials laid end to end, family as in
    sup_identity_checks.  Returns its (ok, margin, witness_at) triples and
    whether each trial's containment is strict."""
    heads = starts[:-1]
    inter = np.all(family > 0.0, axis=0)
    met = np.minimum.reduce(family, axis=0) > 0.0
    ok = ~np.logical_or.reduceat(met & ~inter, heads)

    def witness(t):
        return (
            f"meet-support={_atoms(met, starts, t)}"
            f" not within intersection={_atoms(inter, starts, t)}"
        )

    return [(ok, np.where(ok, 0.0, -1.0), witness)], np.logical_or.reduceat(met != inter, heads)


def check_exclusion_inequality(elements) -> VerificationReport:
    """Band of the joined positive parts excludes the common negative region.

    Where every element is strictly negative, no positive part survives, so
    the support of sup_n (g_n)+ must be disjoint from the support of
    inf_n (g_n)-; equivalently the first projection is below the complement
    of the second.
    """
    family = stack_family(elements, "join of an empty family")
    report = VerificationReport(suite="bands-exclusion", trials=1)
    report.record_parts([exclusion_checks(family, np.array([0, family.shape[1]]))], [0])
    return report


def exclusion_checks(family: np.ndarray, starts: np.ndarray):
    """check_exclusion_inequality's (ok, margin, witness_at) triples for
    trials laid end to end, family a (k, atoms) stack of elements, a trial
    with fewer than k repeating its first."""
    heads = starts[:-1]
    pos_join = np.maximum.reduce(np.maximum(family, 0.0), axis=0) > 0.0
    neg_meet = np.minimum.reduce(np.maximum(-family, 0.0), axis=0) > 0.0
    overlap = pos_join & neg_meet
    count = np.add.reduceat(overlap, heads)
    # The same fact as an operator inequality against the complement.
    complement = ~neg_meet
    below = ~np.logical_or.reduceat(pos_join & ~complement, heads)
    return [
        (
            count == 0,
            np.where(count == 0, 0.0, -count.astype(np.float64)),
            lambda t: f"overlapping atoms: {_atoms(overlap, starts, t)}",
        ),
        (below, np.where(below, 0.0, -1.0), lambda t: "projection not below complement"),
    ]


def compose_all(projections) -> BandProjection:
    """Product of a nonempty family of band projections."""
    return fold_family(projections, BandProjection.compose, "composition of an empty family")
