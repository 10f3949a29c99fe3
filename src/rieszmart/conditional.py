"""Partition-induced conditional expectation operators.

A partition of the atoms induces the weighted block-averaging operator: on
each block B the value is sum(mu_i f_i, i in B) / sum(mu_i, i in B).  These
operators are exactly the linear, positive, idempotent maps fixing the unit
that admit the averaging identity T(Tf * g) = Tf * Tg; their ranges are the
block-constant elements.  verify_axioms exercises all of that on random
draws, and Filtration/CompatibleTriple package refining families of them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadExponent, Incompatible, NotRefining, SpaceMismatch
from .lattice import (
    DEFAULT_TOL,
    LatticeElement,
    MarginCheck,
    SampleSpace,
    Tolerance,
    _same_space,
    atom_array,
    compare,
    leq_with_tolerance,
    multiply,
)
from .reports import VerificationReport
from .rng import SplitMix64, derive_seed


class Partition:
    """Disjoint cover of the atoms by nonempty blocks, stored as one block
    label per atom: block_id[i] is the block of atom i, and blocks are
    numbered 0, 1, ... in the order of their lowest atom."""

    __slots__ = ("space", "block_id", "num_blocks")

    def __init__(self, space: SampleSpace, blocks=None, *, block_id=None):
        """Give either blocks, iterables of integer atoms in any order, or
        block_id, one integer label per atom numbered by lowest atom: 0
        first, and no label more than one above all labels before it."""
        if (blocks is None) == (block_id is None):
            raise TypeError("give exactly one of blocks and block_id")
        if block_id is None:
            blocks = [list(block) for block in blocks]
            flat = [a for block in blocks for a in block]
            atoms = atom_array(flat)
            if not all(blocks):
                raise ValueError("empty block")
            if sorted(flat) != list(range(space.n)):
                raise ValueError("blocks must partition the atoms exactly once")
            order = sorted(range(len(blocks)), key=lambda k: min(blocks[k]))
            ids = np.empty(space.n, dtype=np.intp)
            ids[atoms] = np.repeat(np.argsort(order), [len(block) for block in blocks])
            num_blocks = len(blocks)
        else:
            ids = atom_array(block_id).copy()
            if ids.shape != (space.n,) or ids[0] != 0 or ids.min() < 0:
                raise ValueError(f"block_id must hold {space.n} nonnegative labels, the first 0")
            top = np.maximum.accumulate(ids)
            if (top[1:] - top[:-1] > 1).any():
                raise ValueError("block_id must number the blocks by their lowest atom")
            num_blocks = int(top[-1]) + 1
        ids.flags.writeable = False
        self.space = space
        self.block_id = ids
        self.num_blocks = num_blocks

    @classmethod
    def single_block(cls, space: SampleSpace) -> "Partition":
        return cls(space, block_id=np.zeros(space.n, dtype=np.intp))

    @classmethod
    def singletons(cls, space: SampleSpace) -> "Partition":
        return cls(space, block_id=np.arange(space.n))

    @property
    def is_singletons(self) -> bool:
        return self.num_blocks == self.space.n

    @property
    def blocks(self) -> tuple:
        """The blocks as ascending atom tuples, ordered by lowest atom."""
        atoms = np.argsort(self.block_id, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.block_id)).tolist()
        return tuple(tuple(atoms[lo:hi]) for lo, hi in zip([0] + ends, ends))

    def is_constant_on_blocks(self, values: np.ndarray) -> bool:
        """True when values, one per atom, are equal within every block: each
        block keeps the value of some atom of it, and every atom is compared."""
        kept = np.empty(self.num_blocks, dtype=values.dtype)
        kept[self.block_id] = values
        return bool((kept[self.block_id] == values).all())

    def refines(self, coarser: "Partition") -> bool:
        """True when every block of self sits inside one block of coarser."""
        if self.space != coarser.space:
            raise SpaceMismatch("partitions on different spaces")
        return self.is_constant_on_blocks(coarser.block_id)

    def split_largest(self) -> "Partition":
        """Split the largest block in half (ties: block with the lowest atom).
        The upper half takes the label after those of the blocks starting
        below it, and every later label moves up by one."""
        bid = self.block_id
        sizes = np.bincount(bid)
        largest = sizes.argmax()  # first maximum: the lowest first atom
        if sizes[largest] == 1:
            return self
        members = np.flatnonzero(bid == largest)
        upper = members[(members.size + 1) // 2 :]
        label = bid[: upper[0]].max() + 1
        child = bid + (bid >= label)
        child[upper] = label
        return Partition(self.space, block_id=child)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.space == other.space
            and np.array_equal(self.block_id, other.block_id)
        )

    def __hash__(self):
        return hash(self.block_id.tobytes())  # __eq__ compares the spaces

    def __repr__(self) -> str:
        return f"Partition({[list(b) for b in self.blocks]})"

    def to_json_dict(self) -> list:
        return [list(b) for b in self.blocks]


class ConditionalExpectationOp:
    """Weighted block averaging along a partition."""

    __slots__ = ("space", "partition", "block_weight", "_matrix")

    def __init__(self, partition: Partition):
        self.space = partition.space
        self.partition = partition
        self.block_weight = np.bincount(
            partition.block_id,
            weights=self.space.weights,
            minlength=partition.num_blocks,
        )
        # Always None: perfbench/spans.py reads it to count matrix() builds.
        self._matrix = None

    def apply(self, f: LatticeElement) -> LatticeElement:
        if f.space != self.space:
            raise SpaceMismatch("element on a different space than the operator")
        return LatticeElement(self.space, self.apply_array(f.coords))

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Block averages of raw coordinates, one row or each row of a (k, n)
        stack: one bincount over block ids offset per row."""
        part, rows = self.partition, np.atleast_2d(values)
        size = len(rows) * part.num_blocks
        bins = part.block_id + np.arange(0, size, part.num_blocks)[:, None]
        weighted = (rows * self.space.weights).ravel()
        sums = np.bincount(bins.ravel(), weights=weighted, minlength=size)
        means = sums.reshape(len(rows), part.num_blocks) / self.block_weight
        return means[:, part.block_id].reshape(np.shape(values))

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Apply to each row of a (k, n) array at once; the identity returns
        rows itself."""
        if self.is_identity:
            return rows
        return rows @ self.matrix().T

    def matrix(self) -> np.ndarray:
        """The dense n x n operator, built on every call and never stored,
        so no operator keeps n^2 floats alive between calls."""
        n = self.space.n
        bid = self.partition.block_id
        m = np.zeros((n, n))
        contrib = self.space.weights / self.block_weight[bid]
        same = bid[:, None] == bid[None, :]
        m[same] = np.broadcast_to(contrib[None, :], (n, n))[same]
        return m

    @property
    def is_identity(self) -> bool:
        return self.partition.is_singletons

    def fixes(self, f: LatticeElement, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Is f in the range, i.e. block-constant for this partition?"""
        return _eq_check(self.apply(f), f, tol).ok

    def fixes_exactly(self, f: LatticeElement) -> bool:
        """Exact block-constancy: every block carries a single float value."""
        return self.partition.is_constant_on_blocks(f.coords)

    def block_max(self, f: LatticeElement) -> LatticeElement:
        """Blockwise maximum, broadcast back to a block-constant element (on
        a tie of -0.0 and 0.0, NumPy's loop order picks the sign)."""
        part = self.partition
        maxima = np.full(part.num_blocks, -np.inf)
        np.maximum.at(maxima, part.block_id, f.coords)
        return LatticeElement(self.space, maxima[part.block_id])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConditionalExpectationOp)
            and self.partition == other.partition
        )

    def __hash__(self):
        return hash(self.partition)

    def __repr__(self) -> str:
        return f"ConditionalExpectationOp(blocks={self.partition.num_blocks})"


def _eq_check(
    a: LatticeElement, b: LatticeElement, tol: Tolerance = DEFAULT_TOL
) -> MarginCheck:
    """Two-sided comparison; margin is -max|a-b| (0 when exactly equal).

    Rows a <= b and b <= a in one compare; the lower margin is reported, and
    the a <= b row on a tie."""
    _same_space(a, b)
    lhs, rhs = np.stack([a.coords, b.coords]), np.stack([b.coords, a.coords])
    misses, margin, atom = compare(lhs, rhs, tol.slack(lhs, rhs))
    worse = int(margin[1] < margin[0])
    return MarginCheck(ok=not misses.any(), margin=float(margin[worse]), atom=int(atom[worse]))


def lp_norm(op: ConditionalExpectationOp, f: LatticeElement, p: float) -> LatticeElement:
    """Operator-valued p-norm: (T|f|^p)^(1/p); blockwise max of |f| at p = inf."""
    p = float(p)
    if not p >= 1.0:
        raise BadExponent(f"norm exponent must satisfy p >= 1, got {p}")
    absf = f.abs()
    if p == math.inf:
        return op.block_max(absf)
    if p == 1.0:
        return op.apply(absf)
    moment = op.apply(LatticeElement(f.space, np.power(absf.coords, p)))
    return LatticeElement(f.space, np.power(moment.coords, 1.0 / p))


def _stage_index(ops: list) -> tuple[np.ndarray, list, np.ndarray]:
    """Run starts (stages whose operator object differs from the previous
    stage's), the distinct operators (equal partitions, first seen first)
    and each stage's index among them, with one dict lookup per run."""
    ids = np.fromiter(map(id, ops), dtype=np.intp, count=len(ops))
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    first: dict = {}
    runs = [
        first.setdefault(ops[k].partition, (len(first), ops[k]))[0] for k in starts.tolist()
    ]
    stage = np.repeat(np.asarray(runs, dtype=np.intp), np.diff(starts, append=len(ops)))
    return starts, [op for _, op in first.values()], stage


class Filtration:
    """A refining sequence of averaging operators on one space.

    Consecutive stages must refine (equal partitions are allowed); a stage
    may repeat the previous operator object.  Refinement is tested exactly
    and gives T_i T_j = T_j T_i = T_i for i < j: if F refines C, T_C e_j is
    constant on F-blocks, so T_F T_C = T_C, and T_C T_F = T_C by
    self-adjointness in L2(mu).  Transitivity extends this to all pairs.

    The stage structure is indexed once: distinct holds the first-seen
    operator of each distinct partition, and stage[i] is the index in
    distinct of stage i's partition.  Space and refinement are checked once
    per change of operator object.  repeat_last appends that many repeats
    of the last operator, so a long chain costs O(distinct) Python.
    """

    __slots__ = ("space", "ops", "distinct", "stage")

    def __init__(self, ops, repeat_last: int = 0):
        ops = list(ops)
        if not ops:
            raise ValueError("filtration needs at least one stage")
        starts, distinct, stage = _stage_index(ops)
        starts = starts.tolist()
        space = ops[0].space
        for k in starts:
            if ops[k].space != space:
                raise SpaceMismatch(f"stage {k} lives on a different space")
        for k in starts[1:]:
            if not ops[k].partition.refines(ops[k - 1].partition):
                raise NotRefining(f"stage {k} does not refine stage {k - 1}")
        self.space = space
        self.ops = ops + [ops[-1]] * repeat_last
        self.distinct = distinct
        self.stage = np.concatenate((stage, np.full(repeat_last, stage[-1])))
        self.stage.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, i: int) -> ConditionalExpectationOp:
        return self.ops[i]

    def __iter__(self):
        return iter(self.ops)

    def to_json_dict(self) -> list:
        """Each stage's blocks; stages with one partition share one list."""
        forms = [op.partition.to_json_dict() for op in self.distinct]
        return [forms[k] for k in self.stage.tolist()]


def make_filtration(space: SampleSpace, partitions) -> Filtration:
    """Build a validated filtration from raw block lists or Partition objects."""
    ops = []
    for p in partitions:
        part = p if isinstance(p, Partition) else Partition(space, p)
        ops.append(ConditionalExpectationOp(part))
    return Filtration(ops)


class CompatibleTriple:
    """A base operator together with a filtration it is coarser than.

    Coarseness gives T T_n = T = T_n T for every stage: the first stage must
    refine the base partition, exactly as between filtration stages, and
    transitivity covers the rest.
    """

    __slots__ = ("base", "filtration")

    def __init__(self, base: ConditionalExpectationOp, filtration: Filtration):
        if base.space != filtration.space:
            raise Incompatible("base operator on a different space")
        first = filtration[0].partition
        if not first.refines(base.partition):
            raise Incompatible("first stage does not refine the base partition")
        self.base = base
        self.filtration = filtration


def verify_axioms(
    op: ConditionalExpectationOp,
    trials: int = 100,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> VerificationReport:
    """Randomized check of the averaging-operator axioms.

    Per trial: linearity, positivity, idempotence, unit preservation, strict
    positivity (contrapositive on a draw bounded away from zero), and the
    averaging identity T(Tf * g) = Tf * Tg.
    """
    report = VerificationReport(suite="ce-axioms", trials=trials, seed=seed, tol=tol)
    space = op.space
    e = space.unit()
    zero = space.zero()
    for t in range(trials):
        stream = SplitMix64(derive_seed(seed, "ce-axioms", t))
        f = LatticeElement(space, stream.uniforms(space.n, -2.0, 2.0))
        g = LatticeElement(space, stream.uniforms(space.n, -2.0, 2.0))
        alpha = stream.uniform(-2.0, 2.0)
        beta = stream.uniform(-2.0, 2.0)

        lin = _eq_check(op.apply(alpha * f + beta * g), alpha * op.apply(f) + beta * op.apply(g), tol)
        report.record(lin.ok, lin.margin, f"trial {t}: linearity at atom {lin.atom}", t, seed)

        pos = leq_with_tolerance(zero, op.apply(f.abs()), tol)
        report.record(pos.ok, pos.margin, f"trial {t}: positivity at atom {pos.atom}", t, seed)

        idem = _eq_check(op.apply(op.apply(f)), op.apply(f), tol)
        report.record(idem.ok, idem.margin, f"trial {t}: idempotence at atom {idem.atom}", t, seed)

        unit = _eq_check(op.apply(e), e, tol)
        report.record(unit.ok, unit.margin, f"trial {t}: unit preservation at atom {unit.atom}", t, seed)

        # Strict positivity, contrapositively: pin one coordinate away from 0
        # and require T|f| to have a strictly positive coordinate.
        pinned = np.array(f.coords)
        k = stream.below(space.n)
        pinned[k] = stream.uniform(0.5, 1.5) * (1.0 if stream.next_float() < 0.5 else -1.0)
        tf = op.apply(LatticeElement(space, pinned).abs())
        peak = tf.max_abs()
        report.record(peak > 0.0, peak, f"trial {t}: strict positivity (max T|f| = {peak})", t, seed)

        avg = _eq_check(
            op.apply(multiply(op.apply(f), g)),
            multiply(op.apply(f), op.apply(g)),
            tol,
        )
        report.record(avg.ok, avg.margin, f"trial {t}: averaging identity at atom {avg.atom}", t, seed)
    return report
