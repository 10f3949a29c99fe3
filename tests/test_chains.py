"""Split-largest chains from the cut array against repeated split_largest,
and every chain's block ids against the (D, n) tables they replaced.

Stages.split_chains and default_filtration read every chain from
conditional.split_cuts.  Every stage of both must match
chains.split_largest_chain, which repeats chains.split_largest: block
ids, block counts, block weights bit for bit, the stage index, and for
default_filtration every stage's blocks in to_json_dict.  A Stages keeps
each chain as an atom order and a cut array, and Stages.block_ids fills
the ids of the rows asked for; read back whole (chains.table_of), they
must equal the (D, n) fills in chains.py that split_chains and
default_filtration made, and for Filtration(ops) its operators' ids and
block weights.  The grid is fixed before comparing: dims 1 to 257;
single-block first partitions, random ones drawn by
suites._partition_ids, and singletons on dims 1, 17, ..., 257; uniform and
random weights; horizons below, at and past the dim; and batches of 1, 3
and 8 chains on mixed dims.  Hypothesis adds refining chains that split
several blocks per stage, on 1 to 39 atoms.
"""

import time
import tracemalloc

import numpy as np
from chains import (
    split_largest_chain,
    table_of,
    table_of_default_filtration,
    table_of_split_chains,
)
from hypothesis import given
from hypothesis import strategies as st

from rieszmart.conditional import ConditionalExpectationOp, Filtration, Partition, Stages, split_cuts
from rieszmart.lattice import SampleSpace
from rieszmart.processes import default_filtration
from rieszmart.rng import SplitMix64
from rieszmart.suites import _partition_ids, _partition_words

DIMS = range(1, 258)
BATCHES = (1, 3, 8)


def grid() -> list:
    """(space, first partition, steps) cases: per dim, a single block and a
    random partition, and singletons on every 16th dim; the weight mode and
    the horizon cycle with the dim and the case."""
    cases = []
    for n in DIMS:
        stream = SplitMix64(n)
        firsts = [np.zeros(n, dtype=np.intp)]
        firsts.append(_partition_ids(stream.floats(int(_partition_words(n))), np.array([n]))[0])
        if n % 16 == 1:
            firsts.append(np.arange(n))
        for case, first in enumerate(firsts):
            uniform = (n + case) % 2 == 0
            space = SampleSpace.uniform(n) if uniform else SampleSpace(stream.uniforms(n, 0.05, 1.0))
            steps = (max(n // 2, 1), n, 2 * n + 2)[(n + case) % 3]
            cases.append((space, Partition(space, block_id=first), steps))
    return cases


def batches(cases: list):
    """The cases in consecutive batches whose sizes cycle through BATCHES."""
    at, k = 0, 0
    while at < len(cases):
        size = BATCHES[k % len(BATCHES)]
        yield cases[at : at + size]
        at, k = at + size, k + 1


def assert_same_stages(stages: Stages, table, k: int, filtration) -> None:
    """Process k of stages, whose table_of is table, has filtration's
    partitions and stage index."""
    rows = slice(int(stages.first_row[k]), int(stages.first_row[k] + stages.steps[k]))
    stage = stages.stage[rows]
    assert np.array_equal(stage - stage[0], filtration.stage)
    ids, id_starts, num_blocks, block_weight, _ = table
    weight_starts = np.cumsum(num_blocks) - num_blocks
    n = int(stages.n[k])
    for g, op in enumerate(filtration.distinct, start=int(stage[0])):
        assert np.array_equal(ids[id_starts[g] :][:n], op.partition.block_id)
        assert num_blocks[g] == op.partition.num_blocks
        weight = block_weight[weight_starts[g] :][: op.partition.num_blocks]
        assert weight.tobytes() == op.block_weight.tobytes()


def assert_same_table(got, expected) -> None:
    """Two (ids, id_starts, num_blocks, block_weight, stage) tables are equal:
    every partition's ids, the block counts, the block-weight bits and the
    stage index."""
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def split_batch(batch):
    """The arguments of Stages.split_chains for a batch of grid cases."""
    return (
        np.array([space.n for space, _, _ in batch]),
        np.array([steps for _, _, steps in batch]),
        np.concatenate([space.weights for space, _, _ in batch]),
        np.concatenate([first.block_id for _, first, _ in batch]),
        np.array([first.num_blocks for _, first, _ in batch]),
    )


def test_split_chains_match_repeated_split_largest():
    cases = grid()
    assert set(BATCHES) <= {len(batch) for batch in batches(cases)}
    for batch in batches(cases):
        stages = Stages.split_chains(*split_batch(batch))
        assert len(stages.stage) == sum(steps for _, _, steps in batch)
        table = table_of(stages)
        for k, (_, first, count) in enumerate(batch):
            assert_same_stages(stages, table, k, split_largest_chain(first, count))


def test_default_filtration_matches_repeated_split_largest():
    for space, first, steps in grid():
        if first.num_blocks != 1:
            continue
        filtration = default_filtration(space, steps)
        expected = split_largest_chain(first, steps)
        assert len(filtration) == steps
        assert np.array_equal(filtration.stage, expected.stage)
        assert len(filtration.distinct) == len(expected.distinct) == min(steps, space.n)
        for op, want in zip(filtration.distinct, expected.distinct):
            assert np.array_equal(op.partition.block_id, want.partition.block_id)
            assert op.partition.num_blocks == want.partition.num_blocks
            assert op.block_weight.tobytes() == want.block_weight.tobytes()
        assert filtration.to_json_dict() == expected.to_json_dict()


def test_a_chain_on_a_million_atoms_is_linear():
    """The cut array of 10^6 + 1 atoms in well under 1 s, and a two-stage
    default_filtration on them holding O(n) bytes, not a (stages, n) table."""
    n = 10**6 + 1
    start = time.perf_counter()
    order, cut = split_cuts(np.array([n]), np.zeros(n, dtype=np.intp), np.ones(1, dtype=np.intp))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert np.array_equal(order, np.arange(n))
    assert cut[0] == 0 and cut[(n + 1) // 2] == 1
    assert np.array_equal(np.sort(cut[1:]), np.arange(1, n))

    space = SampleSpace.uniform(n)
    tracemalloc.start()
    try:
        filtration = default_filtration(space, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * n, f"{peak / n:.0f} bytes per atom"
    assert np.array_equal(np.bincount(filtration[1].partition.block_id), [(n + 1) // 2, n // 2])


def test_split_chains_match_the_table_fill():
    """Every partition of every batch, in and out of atom order: random
    first partitions sort their atoms by block, and Stages.block_ids
    numbers the blocks through that order."""
    orders = set()
    for batch in batches(grid()):
        stages = Stages.split_chains(*split_batch(batch))
        assert_same_table(table_of(stages), table_of_split_chains(*split_batch(batch)))
        orders.add(stages.in_order)
    assert orders == {True, False}


def test_default_filtration_matches_the_table_fill():
    for space, first, steps in grid():
        if first.num_blocks == 1:
            stages = default_filtration(space, steps).stages
            assert stages.in_order
            assert_same_table(table_of(stages), table_of_default_filtration(space, steps))


def refining_ops(seed: int, n: int, count: int) -> list:
    """Operators of a refining chain on n atoms with random weights: a random
    first partition, then per stage each block split into up to 3 random
    parts or kept, some stages repeated by reference, and every operator's
    block weights scaled by its own factor near 1."""
    rng = np.random.default_rng(seed)
    space = SampleSpace(rng.uniform(0.05, 1.0, n))
    labels = rng.integers(0, 1 + rng.integers(0, n), n)
    ops = []
    while len(ops) < count:
        part = Partition(space, [np.flatnonzero(labels == v) for v in np.unique(labels)])
        op = ConditionalExpectationOp(part)
        op.block_weight = op.block_weight * rng.uniform(0.99, 1.01, part.num_blocks)
        ops += [op] * int(rng.integers(1, 3))
        labels = labels * 3 + rng.integers(0, 3, n) * (rng.random(n) < 0.5)
    return ops[:count]


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=39),
    st.integers(min_value=1, max_value=12),
)
def test_filtrations_of_operators_keep_their_ids_and_weights(seed, n, count):
    ops = refining_ops(seed, n, count)
    filtration = Filtration(ops)
    distinct = list(dict.fromkeys(ops))  # refining: equal partitions are one operator here
    assert len(filtration.distinct) == len(distinct)
    ids, id_starts, num_blocks, block_weight, stage = table_of(filtration.stages)
    assert stage.tolist() == [distinct.index(op) for op in ops]
    assert np.array_equal(ids, np.concatenate([op.partition.block_id for op in distinct]))
    assert num_blocks.tolist() == [op.partition.num_blocks for op in distinct]
    expected = np.concatenate([op.block_weight for op in distinct])
    assert block_weight.tobytes() == expected.tobytes()
    for got, op in zip(filtration.distinct, distinct):
        assert got.partition == op.partition and got.block_weight.tobytes() == op.block_weight.tobytes()


def test_a_default_filtration_on_8192_atoms_holds_no_stage_table():
    """8192 stages of 8192 atoms under 10 MB: the (D, n) table peaked at
    807 MB."""
    space = SampleSpace.uniform(8192)
    tracemalloc.start()
    try:
        filtration = default_filtration(space, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7, f"{peak / 1e6:.1f} MB"
    assert filtration[4096].partition.num_blocks == 4097
