"""Partition-induced conditional expectation operators.

A partition of the atoms induces the weighted block-averaging operator: on
each block B the value is sum(mu_i f_i, i in B) / sum(mu_i, i in B).  These
operators are exactly the linear, positive, idempotent maps fixing the unit
that admit the averaging identity T(Tf * g) = Tf * Tg; their ranges are the
block-constant elements.  verify_axioms exercises all of that on random
draws, and Filtration/CompatibleTriple package refining families of them.

Stages holds refining chains laid end to end, each as an atom order and a
cut per position, fills the block ids of the rows asked for, and builds
their per-row operators as one RaggedOps.  A Filtration is the one-process
case; it builds an operator only for a stage that is indexed.
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


def averaging_matrix(weights: np.ndarray, block_id: np.ndarray) -> np.ndarray:
    """The dense n x n averaging operator along block_id: entry (i, j) is
    w_j / w(B) when atoms i and j share block B, else 0, where w(B) is
    bincount(block_id, weights), the weight of B's atoms."""
    block_weight = np.bincount(block_id, weights=weights)
    return (block_id[:, None] == block_id) * (weights / block_weight[block_id])


def average_rows(weights: np.ndarray, block_id: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The dense conditioning path: each row of a (k, n) array averaged
    along block_id by one product with averaging_matrix, or rows itself for
    singletons (block ids 0..n-1)."""
    if block_id[-1] == len(block_id) - 1:
        return rows
    return rows @ averaging_matrix(weights, block_id).T


class ConditionalExpectationOp:
    """Weighted block averaging along a partition, each block's weight the
    sum of its atoms': the one-trial case of RaggedOps, held as ragged."""

    __slots__ = ("space", "partition", "ragged")

    def __init__(self, partition: Partition):
        self.space = partition.space
        self.partition = partition
        ends = np.array([0, self.space.n])
        self.ragged = RaggedOps(ends, self.space.weights, partition.block_id, partition.num_blocks)

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
        return average_rows(self.space.weights, self.partition.block_id, rows)

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
    block_weight is the atom weights' bincount.  The one bincount
    operator: every bin sums the terms of one block of one row in atom
    order, so no trial or row changes a bit of another.  Its one-trial case
    is ConditionalExpectationOp's, and Stages.row_ops builds it over rows."""

    __slots__ = ("starts", "weights", "bins", "block_weight")

    def __init__(self, starts: np.ndarray, weights: np.ndarray, block_id: np.ndarray, num_blocks):
        self.starts = starts
        self.weights = weights
        if not isinstance(num_blocks, int):
            block_id = block_id + np.repeat(np.cumsum(num_blocks) - num_blocks, np.diff(starts))
            num_blocks = int(np.sum(num_blocks))
        self.bins = block_id
        self.block_weight = np.bincount(block_id, weights=weights, minlength=num_blocks)

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


def split_cuts(n: np.ndarray, first: np.ndarray, num_blocks: np.ndarray) -> tuple:
    """The split-largest chains (the largest block split in half until
    singletons; tests/chains.py's split_largest is the reference) from first
    partitions laid end to end: n[k] atoms with num_blocks[k] blocks in
    chain k.  In the order of (chain, first block, atom), every block a
    chain creates is a run of positions whose lower half keeps ceil(s/2) of
    its s atoms, and a child is smaller than its parent, so the chain splits
    the nodes of this fixed halving tree by size descending, then lowest
    atom.  Returns (order, cut): the atom at each position, and the stage at
    which a block boundary opens before each position, 0 where a first
    block starts; stage i's blocks start where cut <= i.  O(atoms) memory:
    about log2(max n) passes and one lexsort."""
    bins = first + (num_blocks.cumsum() - num_blocks).repeat(n)
    order = bins.argsort(kind="stable")
    size = np.bincount(bins)
    lo = size.cumsum() - size
    levels = []
    while len(size):
        inner = size > 1
        lo, size = lo[inner], size[inner]
        levels.append((lo, size))
        half = (size + 1) // 2
        lo, size = np.concatenate((lo, lo + half)), np.concatenate((half, size - half))
    lo, size = (np.concatenate(nodes) for nodes in zip(*levels))
    chain = n.cumsum().searchsorted(lo, side="right")
    split = np.lexsort((order[lo], -size, chain))
    count = np.bincount(chain, minlength=len(n))
    stage = np.arange(1, len(split) + 1) - (count.cumsum() - count).repeat(count)
    cut = np.zeros(len(order), dtype=np.intp)
    cut[(lo + (size + 1) // 2)[split]] = stage
    return order, cut


class StageRows:
    """Several processes laid end to end in one flat array: process k has
    steps[k] stages on n[k] atoms, and its values are the C order of a
    (steps[k], n[k]) array at elements[k]:elements[k + 1].  Row r is one
    stage of one process, the processes in turn; a process's atoms are
    atoms[k]:atoms[k + 1] of an array over the atoms of all of them."""

    __slots__ = ("n", "steps", "atoms", "elements", "first_row")

    def __init__(self, n: np.ndarray, steps: np.ndarray):
        self.n, self.steps = n, steps
        self.atoms = np.concatenate(([0], n.cumsum()))
        self.elements = np.concatenate(([0], (n * steps).cumsum()))
        self.first_row = steps.cumsum() - steps

    @property
    def size(self) -> int:
        return int(self.elements[-1])

    def rows(self, rows: slice) -> tuple:
        """(process, step, n) of each row in rows."""
        index = np.arange(rows.start, rows.stop)
        process = self.first_row.searchsorted(index, side="right") - 1
        return process, index - self.first_row[process], self.n[process]

    def values(self, flat: np.ndarray, k: int) -> np.ndarray:
        """Process k's (steps, n) view of a flat array over the elements."""
        return flat[self.elements[k] : self.elements[k + 1]].reshape(-1, int(self.n[k]))

    def spread(self, per_row: np.ndarray) -> np.ndarray:
        """One value per row, repeated over the row's atoms."""
        return per_row.repeat(self.n.repeat(self.steps))

    def atom_index(self) -> np.ndarray:
        """Each element's atom, as an index into an array over all atoms."""
        width = self.n.repeat(self.steps)
        heads = self.atoms[:-1].repeat(self.steps)
        return np.arange(self.size) - (width.cumsum() - width - heads).repeat(width)

    def accumulate(self, ufunc, flat: np.ndarray) -> np.ndarray:
        """ufunc.accumulate of every process's values along its stages, as
        on its own (steps, n) array: one call on the processes padded to a
        (processes, max steps, max n) array, which moves no bit."""
        padded, at = self._padded(flat)
        out = ufunc.accumulate(padded, axis=1).reshape(-1)
        return out if at is None else out[at]

    def previous(self, flat: np.ndarray) -> np.ndarray:
        """Each element's value one stage earlier, 0 on first stages."""
        padded, at = self._padded(flat)
        out = np.zeros_like(padded)
        out[:, 1:] = padded[:, :-1]
        return out.reshape(-1) if at is None else out.reshape(-1)[at]

    def _padded(self, flat: np.ndarray) -> tuple:
        """flat as a (processes, max steps, max n) array, zero past each
        process's stages and atoms, and the index of each element in it
        (None when no process is padded, and the array is a view)."""
        shape = (len(self.n), int(self.steps.max()), int(self.n.max()))
        if self.size == math.prod(shape):
            return flat.reshape(shape), None
        process, step, width = self.rows(slice(0, int(self.steps.sum())))
        at = self.atom_index() - self.atoms[process].repeat(width)
        at += ((process * shape[1] + step) * shape[2]).repeat(width)
        padded = np.zeros(shape, dtype=flat.dtype)
        padded.reshape(-1)[at] = flat
        return padded, at

    def row_starts(self) -> np.ndarray:
        """Each row's first element, and the end of the last row."""
        return np.concatenate(([0], self.n.repeat(self.steps).cumsum()))

    def stage_of_rows(self) -> np.ndarray:
        """Each row's stage within its process."""
        return np.arange(int(self.steps.sum())) - self.first_row.repeat(self.steps)


class Stages(StageRows):
    """Processes laid end to end as in StageRows, with their filtrations as
    refining chains rather than Partition and operator objects; a
    Filtration is the one-process case, its stages.

    Row r conditions on partition stage[r]; a process's partitions are
    consecutive and first seen first, partition g with num_blocks[g] blocks.
    Nested blocks are runs of one atom order: process k's atoms are at
    positions atoms[k]:atoms[k + 1] of order, and its partition l's blocks
    start, lowest atom first, where cut <= l.  block_ids alone reads the
    layout; no block weight is stored, row_ops sums the atom weights."""

    __slots__ = ("weights", "order", "cut", "num_blocks", "stage", "in_order")

    def __init__(self, n, steps, weights, order, cut, num_blocks, stage):
        super().__init__(n, steps)
        self.weights, self.order, self.cut = weights, order, cut
        self.num_blocks, self.stage = num_blocks, stage
        self.in_order = bool((order == np.arange(len(order))).all())

    @classmethod
    def split_chains(cls, n, steps, weights, first, num_blocks) -> "Stages":
        """Each process on the split-largest chain (split_cuts) of its first
        partition, whose block ids are first[atoms[k]:atoms[k + 1]] with
        num_blocks[k] blocks, for steps[k] stages: the chain stops changing
        at singletons."""
        order, cut = split_cuts(n, first, num_blocks)
        depth = np.minimum(steps, n - num_blocks + 1)  # distinct partitions
        level = np.arange(int(depth.sum())) - (depth.cumsum() - depth).repeat(depth)
        step = np.arange(int(steps.sum())) - (steps.cumsum() - steps).repeat(steps)
        stage = (depth.cumsum() - depth).repeat(steps) + np.minimum(step, (depth - 1).repeat(steps))
        return cls(n, steps, weights, order, cut, num_blocks.repeat(depth) + level, stage)

    def block_ids(self, stage: np.ndarray, process: np.ndarray) -> np.ndarray:
        """The block ids of partition stage[j] of process process[j] for each
        j, laid end to end as RaggedOps takes them: row j's blocks numbered
        by lowest atom after those of the rows before it, that is by the
        count of block starts before their lowest atom in atom order."""
        width = self.n[process]
        position = (self.atoms[process] - (width.cumsum() - width)).repeat(width)
        element = np.arange(len(position))
        position += element
        opens = self.cut[position] <= (stage - self.stage[self.first_row[process]]).repeat(width)
        if self.in_order:
            return opens.cumsum() - 1
        slot = element + self.order[position] - position  # where each position's atom goes
        marked = np.zeros(len(element), dtype=bool)
        marked[slot] = opens
        rank = marked.cumsum() - 1
        start = np.maximum.accumulate(np.where(opens, element, 0))  # of each position's block
        ids = np.empty_like(rank)
        ids[slot] = rank[slot[start]]
        return ids

    def row_ops(self, stage: np.ndarray, process: np.ndarray | None = None, ids=None) -> RaggedOps:
        """RaggedOps over rows laid end to end, row j conditioned on partition
        stage[j]: every row in turn, or rows of processes process[j], with
        the block_ids of those rows, filled here unless given as ids.  Array
        methods (x.repeat) skip NumPy's wrappers, whose cost shows on small
        rows."""
        if process is None:
            process = np.repeat(np.arange(len(self.n)), self.steps)
        if ids is None:
            ids = self.block_ids(stage, process)
        width, sizes = self.n[process], self.num_blocks[stage]
        starts = np.concatenate(([0], width.cumsum()))
        weights = self.weights[(self.atoms[process] - starts[:-1]).repeat(width) + np.arange(starts[-1])]
        return RaggedOps(starts, weights, ids, int(sizes.sum()))

    def table(self, k: int) -> tuple:
        """Process k's (weights, ids, stage index), the arguments of the
        raw-array cores of processes.classify and its kin: ids(d) is
        block_ids of its partitions d, an int or an array."""
        rows = slice(int(self.first_row[k]), int(self.first_row[k] + self.steps[k]))
        stage = self.stage[rows]
        first = int(stage[0])

        def ids(d) -> np.ndarray:
            return self.block_ids(first + np.atleast_1d(d), np.full(np.size(d), k))

        return self.weights[self.atoms[k] : self.atoms[k + 1]], ids, stage - first if first else stage


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


class Filtration:
    """A refining sequence of averaging operators on one space, stored as its
    stages: the one-process Stages of its distinct partitions (first seen
    first) and the stage index.

    Consecutive stages must refine (equal partitions are allowed).
    Refinement is tested exactly and gives T_i T_j = T_j T_i = T_i for
    i < j: if F refines C, T_C e_j is constant on F-blocks, so T_F T_C =
    T_C, and T_C T_F = T_C by self-adjointness in L2(mu).  Transitivity
    extends this to all pairs.  Filtration(ops) checks the space once per
    run of one operator object, and Partition.refines at every change of
    partition; it takes only the partitions: block weights are always the
    atoms' weights summed per block.  default_filtration's chain refines by
    construction.  filtration[i] builds stage i's operator on first use.
    """

    __slots__ = ("space", "stages", "stage", "_ops")

    def __init__(self, ops):
        ops = list(ops)
        if not ops:
            raise ValueError("filtration needs at least one stage")
        objects = np.fromiter(map(id, ops), dtype=np.intp, count=len(ops))
        starts = np.flatnonzero(np.diff(objects, prepend=-1))
        space = ops[0].space
        for k in starts.tolist():
            if ops[k].space != space:
                raise SpaceMismatch(f"stage {k} lives on a different space")
        first: dict = {}
        runs = np.array([first.setdefault(ops[k].partition, (len(first), ops[k]))[0] for k in starts])
        distinct = [op for _, op in first.values()]
        for c in np.flatnonzero(runs[1:] != runs[:-1]).tolist():
            if not distinct[runs[c + 1]].partition.refines(distinct[runs[c]].partition):
                k = int(starts[c + 1])
                raise NotRefining(f"stage {k} does not refine stage {k - 1}")
        # Sorted by each partition's ids in turn, then the atom, every block
        # is a run, lowest atom first; one of partition l opens where the ids
        # of one up to l change, and ids equal at l are equal before it.
        keys = [op.partition.block_id for op in reversed(distinct)]
        order, cut = np.lexsort(keys), np.zeros(space.n, dtype=np.intp)
        for key in keys:
            cut[1:] += key[order[1:]] == key[order[:-1]]
        num_blocks = np.array([op.partition.num_blocks for op in distinct])
        stage = runs.repeat(np.diff(starts, append=len(ops)))
        self._take(space, Stages(np.array([space.n]), np.array([len(ops)]), space.weights, order, cut,
                                 num_blocks, stage))

    @classmethod
    def _of_stages(cls, space: SampleSpace, stages: Stages) -> "Filtration":
        """The filtration of one-process stages, taken unchecked."""
        filtration = cls.__new__(cls)
        filtration._take(space, stages)
        return filtration

    def _take(self, space: SampleSpace, stages: Stages) -> None:
        stages.stage.flags.writeable = False
        self.space, self.stages, self.stage = space, stages, stages.stage
        self._ops = [None] * len(stages.num_blocks)

    @property
    def distinct(self) -> list:
        """The operator of each distinct partition, first seen first."""
        return [self._op(d) for d in range(len(self._ops))]

    def _op(self, d: int) -> ConditionalExpectationOp:
        """The operator of distinct partition d, built on first use over the
        stages' RaggedOps of it (Stages.row_ops), which it holds as ragged."""
        if self._ops[d] is None:
            ragged = self.stages.row_ops(np.array([d]), np.zeros(1, dtype=np.intp))
            op = ConditionalExpectationOp(Partition(self.space, block_id=ragged.bins))
            op.ragged = ragged
            self._ops[d] = op
        return self._ops[d]

    def __len__(self) -> int:
        return len(self.stage)

    def __getitem__(self, i: int) -> ConditionalExpectationOp:
        """Stage i's operator; IndexError past the end also ends iteration."""
        return self._op(int(self.stage[i]))

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
        report.record_parts([checks], labels, seed)
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
