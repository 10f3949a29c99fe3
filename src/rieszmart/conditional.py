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
    compare_segments,
    row_blocks,
)
from .reports import VerificationReport
from .rng import Streams, stream_floats, substream_seeds


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
        below it, and every later label moves up by one.  The chains that
        repeat this step are built whole by processes.split_cuts."""
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


def averaging_matrix(
    weights: np.ndarray, block_id: np.ndarray, block_weight: np.ndarray | None = None
) -> np.ndarray:
    """The dense n x n averaging operator along block_id: entry (i, j) is
    w_j / w(B) when atoms i and j share block B, else 0.  block_weight holds
    each block's weight, bincount(block_id, weights) when not given."""
    if block_weight is None:
        block_weight = np.bincount(block_id, weights=weights)
    return (block_id[:, None] == block_id) * (weights / block_weight[block_id])


def average_rows(
    weights: np.ndarray, block_id: np.ndarray, rows: np.ndarray, block_weight: np.ndarray | None = None
) -> np.ndarray:
    """The dense conditioning path: each row of a (k, n) array averaged
    along block_id by one product with averaging_matrix, or rows itself for
    singletons (block ids 0..n-1).  block_weight as averaging_matrix takes it."""
    if block_id[-1] == len(block_id) - 1:
        return rows
    return rows @ averaging_matrix(weights, block_id, block_weight).T


class ConditionalExpectationOp:
    """Weighted block averaging along a partition: the one-trial case of
    RaggedOps, which it holds as ragged."""

    __slots__ = ("space", "partition", "ragged", "_matrix")

    def __init__(self, partition: Partition):
        self.space = partition.space
        self.partition = partition
        ends = np.array([0, self.space.n])
        self.ragged = RaggedOps(ends, self.space.weights, partition.block_id, partition.num_blocks)
        # Always None: perfbench/spans.py reads it to count matrix() builds.
        self._matrix = None

    @property
    def block_weight(self) -> np.ndarray:
        """Each block's weight, the sum of its atoms' weights."""
        return self.ragged.block_weight

    @block_weight.setter
    def block_weight(self, value: np.ndarray) -> None:
        self.ragged.block_weight = value

    def apply(self, f: LatticeElement) -> LatticeElement:
        if f.space != self.space:
            raise SpaceMismatch("element on a different space than the operator")
        return LatticeElement(self.space, self.apply_array(f.coords))

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Block averages of raw coordinates, one row or each row of a (k, n)
        stack (RaggedOps.apply)."""
        return self.ragged.apply(values)

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Apply to each row of a (k, n) array at once (average_rows); the
        identity returns rows itself."""
        return average_rows(self.space.weights, self.partition.block_id, rows, self.block_weight)

    def matrix(self) -> np.ndarray:
        """The dense n x n operator, built on every call and never stored,
        so no operator keeps n^2 floats alive between calls."""
        return averaging_matrix(self.space.weights, self.partition.block_id, self.block_weight)

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
        """Blockwise maximum, broadcast back to a block-constant element
        (RaggedOps.block_max)."""
        return LatticeElement(self.space, self.ragged.block_max(f.coords))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConditionalExpectationOp)
            and self.partition == other.partition
        )

    def __hash__(self):
        return hash(self.partition)

    def __repr__(self) -> str:
        return f"ConditionalExpectationOp(blocks={self.partition.num_blocks})"


class RaggedOps:
    """Averaging operators of several trials laid end to end: trial t owns
    atoms starts[t]:starts[t + 1], with their weights and block ids, and its
    blocks are numbered after those of the trials before it, here from one
    num_blocks per trial, or already when num_blocks is one int for all.
    block_weight defaults to the blocks' bincount.  The one bincount
    operator: every bin sums the terms of one block of one row in atom
    order, so no trial or row changes a bit of another.  Its one-trial case
    is ConditionalExpectationOp's, and Stages.row_ops builds it over rows."""

    __slots__ = ("starts", "weights", "bins", "block_weight")

    def __init__(self, starts: np.ndarray, weights: np.ndarray, block_id: np.ndarray, num_blocks,
                 block_weight: np.ndarray | None = None):
        self.starts = starts
        self.weights = weights
        if not isinstance(num_blocks, int):
            block_id = block_id + np.repeat(np.cumsum(num_blocks) - num_blocks, np.diff(starts))
            num_blocks = int(np.sum(num_blocks))
        self.bins = block_id
        if block_weight is None:
            block_weight = np.bincount(block_id, weights=weights, minlength=num_blocks)
        self.block_weight = block_weight

    def means(self, values: np.ndarray) -> np.ndarray:
        """Each block's weighted mean of values over its atoms, in each row
        of a (..., atoms) stack in turn: the bins' means, flat."""
        return self._means(np.asarray(values))[1].ravel()

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Block averages of values over the atoms, one row or each row of a
        (..., atoms) stack: the means broadcast back to their atoms."""
        values = np.asarray(values)
        bins, means, scratch = self._means(values)
        return means.take(bins, out=scratch, mode="clip").reshape(values.shape)

    def _means(self, values: np.ndarray) -> tuple:
        """(bins, means, scratch): one bincount over the bins offset per row,
        its (rows, blocks) quotients, and the weighted terms, free for reuse."""
        atoms = len(self.bins)
        count, size, bins = values.size // atoms, len(self.block_weight), self.bins
        if count != 1:
            bins = (bins + np.arange(0, count * size, size)[:, None]).ravel()
        weighted = (values.reshape(count, atoms) * self.weights).ravel()
        sums = np.bincount(bins, weights=weighted, minlength=count * size)
        return bins, sums.reshape(count, size) / self.block_weight, weighted

    def block_max(self, values: np.ndarray) -> np.ndarray:
        """Each block's maximum over all rows of a (..., atoms) stack, at its
        atoms; on a tie of -0.0 and 0.0, NumPy's loop order picks the sign."""
        maxima = np.full(len(self.block_weight), -np.inf)
        np.maximum.at(maxima, np.broadcast_to(self.bins, np.shape(values)).ravel(), np.ravel(values))
        return maxima[self.bins]


def _eq_segments(a: np.ndarray, b: np.ndarray, tol: Tolerance, starts: np.ndarray):
    """Two-sided comparison per trial of atoms laid end to end: (ok, margin,
    atom), the margin -max|a-b| (0 when exactly equal).  Rows a <= b and
    b <= a share the slack; the lower margin is reported, and the a <= b row
    on a tie."""
    slack = tol.slack(a, b)
    misses, margin, atom = compare_segments(a, b, slack, starts)
    back_misses, back_margin, back_atom = compare_segments(b, a, slack, starts)
    worse = back_margin < margin
    return (
        misses + back_misses == 0,
        np.where(worse, back_margin, margin),
        np.where(worse, back_atom, atom),
    )


def _eq_check(
    a: LatticeElement, b: LatticeElement, tol: Tolerance = DEFAULT_TOL
) -> MarginCheck:
    """_eq_segments of one pair of elements."""
    _same_space(a, b)
    ok, margin, atom = _eq_segments(a.coords, b.coords, tol, np.array([0, a.space.n]))
    return MarginCheck(ok=bool(ok[0]), margin=float(margin[0]), atom=int(atom[0]))


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
    averaging identity T(Tf * g) = Tf * Tg.  Trial t draws from the
    substream (seed, "ce-axioms", t); trials run in blocks of about
    BLOCK_ELEMENTS atoms.
    """
    report = VerificationReport(suite="ce-axioms", trials=trials, seed=seed, tol=tol)
    for rows in row_blocks(trials, op.space.n):
        labels = np.arange(rows.start, rows.stop)
        seeds = substream_seeds(len(labels), seed, "ce-axioms", first=rows.start)
        k, n, part = len(labels), op.space.n, op.partition
        ops = RaggedOps(
            np.arange(0, (k + 1) * n, n),
            np.tile(op.space.weights, k),
            np.tile(part.block_id, k),
            np.full(k, part.num_blocks),
        )
        checks = axiom_checks(ops, seeds, labels, tol)
        report.record_trials(checks, labels, seed)
    return report


def axiom_checks(ops: RaggedOps, seeds: np.ndarray, labels: np.ndarray, tol: Tolerance):
    """verify_axioms' six checks for each trial t of ops, drawing from the
    SplitMix64 stream seeded seeds[t] and naming it trial labels[t] in
    witnesses: one (ok, margin, witness_at) triple per check, over the trials."""
    starts = ops.starts
    n = np.diff(starts)
    draws = Streams(stream_floats(seeds, 2 * n + 5), 2 * n + 5)
    f = draws.uniforms(n, -2.0, 2.0)
    g = draws.uniforms(n, -2.0, 2.0)
    alpha = np.repeat(draws.uniform(-2.0, 2.0), n)
    beta = np.repeat(draws.uniform(-2.0, 2.0), n)
    # Strict positivity, contrapositively: pin one coordinate away from 0
    # and require T|f| to have a strictly positive coordinate.
    pinned, at = f.copy(), starts[:-1] + draws.below(n)
    pinned[at] = draws.uniform(0.5, 1.5) * np.where(draws.next_float() < 0.5, 1.0, -1.0)
    tf, tg = ops.apply(f), ops.apply(g)
    e = np.ones(len(f))
    lin = _eq_segments(ops.apply(f * alpha + g * beta), tf * alpha + tg * beta, tol, starts)
    positive = ops.apply(np.abs(f))
    zero = np.zeros(len(f))
    pos_misses, pos_margin, pos_atom = compare_segments(
        zero, positive, tol.slack(zero, positive), starts
    )
    idem = _eq_segments(ops.apply(tf), tf, tol, starts)
    unit = _eq_segments(ops.apply(e), e, tol, starts)
    peak = np.maximum.reduceat(np.abs(ops.apply(np.abs(pinned))), starts[:-1])
    avg = _eq_segments(ops.apply(tf * g), tf * tg, tol, starts)

    def at_atom(check, atom):
        return lambda t: f"trial {labels[t]}: {check} at atom {atom[t]}"

    def strict(t):
        return f"trial {labels[t]}: strict positivity (max T|f| = {float(peak[t])})"

    return [
        (lin[0], lin[1], at_atom("linearity", lin[2])),
        (pos_misses == 0, pos_margin, at_atom("positivity", pos_atom)),
        (idem[0], idem[1], at_atom("idempotence", idem[2])),
        (unit[0], unit[1], at_atom("unit preservation", unit[2])),
        (peak > 0.0, peak, strict),
        (avg[0], avg[1], at_atom("averaging identity", avg[2])),
    ]
