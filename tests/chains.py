"""Test inputs: random first partitions and split-largest chains.

split_largest splits one partition's largest block, and split_largest_chain
repeats it one stage at a time, so they share no code with
conditional.split_cuts, which builds every chain whole; they are the
reference the chain tests compare against.
"""

import numpy as np

from rieszmart.conditional import ConditionalExpectationOp, Filtration, Partition
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
