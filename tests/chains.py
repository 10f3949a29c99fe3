"""Test inputs: random first partitions and split-largest chains.

split_largest_chain repeats Partition.split_largest one stage at a time, so
it shares no code with processes.split_cuts, which builds every chain
whole; it is the reference the chain tests compare against.
"""

import numpy as np

from rieszmart.conditional import ConditionalExpectationOp, Filtration, Partition
from rieszmart.suites import _partition_ids, _partition_words


def split_largest_chain(first: Partition, steps: int) -> Filtration:
    """first, then split the largest block per stage: one operator per
    distinct partition, the singleton operator repeated by reference."""
    ops = [ConditionalExpectationOp(first)]
    while len(ops) < steps and not ops[-1].is_identity:
        ops.append(ConditionalExpectationOp(ops[-1].partition.split_largest()))
    return Filtration(ops[:steps], repeat_last=max(steps - len(ops), 0))


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
