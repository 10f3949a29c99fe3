"""Split-largest chains from the cut array against repeated split_largest.

Stages.split_chains and default_filtration read every chain from
conditional.split_cuts.  Every stage of both must match
chains.split_largest_chain, which repeats chains.split_largest: block
ids, block counts, block weights bit for bit, the stage index, and for
default_filtration every stage's blocks in to_json_dict.  The
grid is fixed before comparing: dims 1 to 257; single-block first
partitions, random ones drawn by suites._partition_ids, and singletons on
dims 1, 17, ..., 257; uniform and random weights; horizons below, at and
past the dim; and batches of 1, 3 and 8 chains on mixed dims.
"""

import time
import tracemalloc

import numpy as np
from chains import split_largest_chain

from rieszmart.conditional import Partition, Stages, split_cuts
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


def assert_same_stages(stages: Stages, k: int, filtration) -> None:
    """Process k of stages has filtration's partitions and stage index."""
    rows = slice(int(stages.first_row[k]), int(stages.first_row[k] + stages.steps[k]))
    stage = stages.stage[rows]
    assert np.array_equal(stage - stage[0], filtration.stage)
    n = int(stages.n[k])
    for g, op in enumerate(filtration.distinct, start=int(stage[0])):
        ids = stages.ids[stages.id_starts[g] : stages.id_starts[g] + n]
        assert np.array_equal(ids, op.partition.block_id)
        assert stages.num_blocks[g] == op.partition.num_blocks
        weight = stages.block_weight[stages.weight_starts[g] :][: op.partition.num_blocks]
        assert weight.tobytes() == op.block_weight.tobytes()


def test_split_chains_match_repeated_split_largest():
    cases = grid()
    assert set(BATCHES) <= {len(batch) for batch in batches(cases)}
    for batch in batches(cases):
        n = np.array([space.n for space, _, _ in batch])
        steps = np.array([steps for _, _, steps in batch])
        stages = Stages.split_chains(
            n,
            steps,
            np.concatenate([space.weights for space, _, _ in batch]),
            np.concatenate([first.block_id for _, first, _ in batch]),
            np.array([first.num_blocks for _, first, _ in batch]),
        )
        assert len(stages.stage) == steps.sum()
        for k, (_, first, count) in enumerate(batch):
            assert_same_stages(stages, k, split_largest_chain(first, count))


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
