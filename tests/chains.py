"""Test inputs and oracles: random first partitions, split-largest chains
and the (D, n) block-id tables.

split_largest splits one partition's largest block, and split_largest_chain
repeats it one stage at a time, so they share no code with
conditional.split_cuts, which builds every chain whole; they are the
reference the chain tests compare against.  table_of_split_chains and
table_of_default_filtration are the (D, n) fills that Stages' cut arrays
replaced, and table_of reads a Stages back into their form.
"""

import numpy as np

from rieszmart.conditional import (
    ConditionalExpectationOp,
    Filtration,
    Partition,
    RaggedOps,
    Stages,
    make_filtration,
    split_cuts,
)
from rieszmart.lattice import SampleSpace, row_blocks
from rieszmart.suites import _partition_ids, _partition_words


def split_largest(part: Partition) -> Partition:
    """Split the largest block in half (ties: block with the lowest atom).
    The upper half takes the label after those of the blocks starting
    below it, and every later label moves up by one; singletons are
    returned as they are."""
    bid = part.block_id
    sizes = np.bincount(bid)
    largest = sizes.argmax()  # first maximum: the lowest first atom
    if sizes[largest] == 1:
        return part
    members = np.flatnonzero(bid == largest)
    upper = members[(members.size + 1) // 2 :]
    label = bid[: upper[0]].max() + 1
    child = bid + (bid >= label)
    child[upper] = label
    return Partition(part.space, block_id=child)


def split_largest_chain(first: Partition, steps: int) -> Filtration:
    """first, then split the largest block per stage: one operator per
    distinct partition, the singleton operator repeated by reference."""
    ops = [ConditionalExpectationOp(first)]
    while len(ops) < steps and not ops[-1].is_identity:
        ops.append(ConditionalExpectationOp(split_largest(ops[-1].partition)))
    return Filtration(ops[:steps] + [ops[-1]] * (steps - len(ops)))


def split_atom(filtration, atom):
    """filtration with atom split in two, the copy right after it, both of
    half its weight, and the atom map that carries the values over.  The
    lifted filtration is built from one operator per stage
    (make_filtration), and its chains are no longer split-largest."""
    lift = np.insert(np.arange(filtration.space.n), atom + 1, atom)
    weights = filtration.space.weights[lift]
    weights[atom : atom + 2] /= 2.0
    space = SampleSpace(weights)
    parts = [Partition(space, block_id=op.partition.block_id[lift]) for op in filtration]
    return make_filtration(space, parts), lift


def random_partition(stream, space) -> Partition:
    """The random partition the verify suites draw, from the SplitMix64
    stream."""
    n = np.array([space.n])
    ids, _ = _partition_ids(stream.floats(int(_partition_words(n)[0])), n)
    return Partition(space, block_id=ids)


def refining_filtration(stream, space, steps: int) -> Filtration:
    """A split-largest chain from a single block or, on a coin from the
    stream, from a random partition."""
    if stream.next_float() < 0.5:
        first = Partition.single_block(space)
    else:
        first = random_partition(stream, space)
    return split_largest_chain(first, steps)


# --- the (D, n) block-id tables that the cut array replaced ----------------------
#
# Stages once stored every partition's block ids as a row of a (D, n) table:
# split_chains and default_filtration filled it from the cut array, and
# Filtration(ops) stacked its operators' ids.  Those fills are the oracle
# that Stages.block_ids is compared with.


def table_of_split_chains(n, steps, weights, first, num_blocks):
    """Stages.split_chains' (D, n) fill: (ids, id_starts, num_blocks,
    block_weight, stage), partition g's ids at ids[id_starts[g]:] for the
    n[k] atoms of its process, numbered by lowest atom, and its block weights
    in block_weight after those of the partitions before it."""
    order, cut = split_cuts(n, first, num_blocks)
    atoms = np.concatenate(([0], n.cumsum()))
    depth = np.minimum(steps, n - num_blocks + 1)  # distinct partitions
    owner = np.arange(len(n)).repeat(depth)  # process of each partition
    level = np.arange(len(owner)) - (depth.cumsum() - depth).repeat(depth)
    width = n[owner]
    id_starts = width.cumsum() - width
    index = np.arange(int(width.sum()))
    # Read in position order, entry e is position atom[e]: it holds atom
    # order[atom[e]], whose id goes to entry slot[e].
    atom = index + (atoms[owner] - id_starts).repeat(width)
    opens = cut[atom] <= level.repeat(width)
    slot = index + order[atom] - atom
    marked = np.zeros(len(index), dtype=bool)
    marked[slot] = opens
    rank = marked.cumsum()
    head = np.maximum.accumulate(np.where(opens, index, 0))
    ids = np.empty(len(index), dtype=np.intp)
    ids[slot] = rank[slot[head]] - rank[id_starts.repeat(width)]
    blocks = num_blocks[owner] + level
    ops = RaggedOps(np.append(id_starts, index.size), weights[atom], ids, blocks)
    step = np.arange(int(steps.sum())) - (steps.cumsum() - steps).repeat(steps)
    first_group = (depth.cumsum() - depth).repeat(steps)
    stage = first_group + np.minimum(step, (depth - 1).repeat(steps))
    return ids, id_starts, blocks, ops.block_weight, stage


def table_of_default_filtration(space, steps):
    """default_filtration's (D, n) fill, one row block at a time, in the
    form of table_of_split_chains."""
    n = space.n
    _, cut = split_cuts(np.array([n]), np.zeros(n, dtype=np.intp), np.ones(1, dtype=np.intp))
    depth = min(steps, n)  # distinct partitions: stage i has i + 1 blocks
    num_blocks = np.arange(1, depth + 1)
    first = num_blocks.cumsum() - num_blocks
    ids = np.empty((depth, n), dtype=np.intp)
    block_weight = np.empty(int(first[-1] + depth))
    for rows in row_blocks(depth, n):
        block = ids[rows]
        np.cumsum(cut <= np.arange(rows.start, rows.stop)[:, None], axis=1, out=block)
        block -= 1
        lo, hi = first[rows.start], first[rows.stop - 1] + rows.stop
        bins = block + (first[rows] - lo)[:, None]
        block_weight[lo:hi] = np.bincount(bins.ravel(), np.tile(space.weights, len(block)))
    stage = np.minimum(np.arange(steps), depth - 1)
    return ids.ravel(), np.arange(0, depth * n, n), num_blocks, block_weight, stage


def partition_owners(stages: Stages) -> np.ndarray:
    """The process of each partition of stages."""
    first, last = stages.stage[stages.first_row], stages.stage[stages.first_row + stages.steps - 1]
    return np.arange(len(stages.n)).repeat(last - first + 1)


def table_of(stages: Stages):
    """Every partition of stages read through Stages.row_ops, in the form of
    table_of_split_chains: each one's ids from 0."""
    owner = partition_owners(stages)
    ops = stages.row_ops(np.arange(len(owner)), owner)
    ids = ops.bins - (np.cumsum(stages.num_blocks) - stages.num_blocks).repeat(stages.n[owner])
    return ids, ops.starts[:-1], stages.num_blocks, ops.block_weight, stages.stage


def storing(stages: Stages, scale=None) -> Stages:
    """stages with every partition's block weights stored: its own, read
    through Stages.row_ops, times scale[g] for partition g when given."""
    weight = stages.row_ops(np.arange(len(stages.num_blocks)), partition_owners(stages)).block_weight
    if scale is not None:
        weight = weight * np.repeat(scale, stages.num_blocks)
    s = stages
    return Stages(s.n, s.steps, s.weights, s.order, s.cut, s.num_blocks, s.stage, weight)
