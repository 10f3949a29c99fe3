"""Partitions as block-id arrays, against the tuple-based class they replaced.

OldPartition below is the class as it stored its blocks: sorted atom tuples
in first-atom order, a block_id array and a reduceat index.  On a seeded
grid fixed in advance (random block lists on up to 64 atoms, and
split_largest chains from random first partitions down to singletons) the
array class must agree with it on every observable: block_id, num_blocks,
blocks, refines, equality and hashing, block_max, fixes_exactly,
to_json_dict and repr.
"""

import time

import numpy as np
import pytest

from rieszmart import (
    BandProjection,
    ConditionalExpectationOp,
    Partition,
    SampleSpace,
    SpaceMismatch,
    default_filtration,
)
from rieszmart.rng import SplitMix64
from chains import refining_filtration, split_largest


class OldPartition:
    """The tuple-based Partition, kept as the reference."""

    def __init__(self, space, blocks):
        canonical = []
        for block in blocks:
            atoms = sorted(int(a) for a in block)
            if not atoms:
                raise ValueError("empty block")
            canonical.append(tuple(atoms))
        canonical.sort(key=lambda b: b[0])
        flat = [a for block in canonical for a in block]
        if sorted(flat) != list(range(space.n)):
            raise ValueError("blocks must partition the atoms exactly once")
        self.space = space
        self.blocks = tuple(canonical)
        self.num_blocks = len(canonical)
        bid = np.empty(space.n, dtype=np.intp)
        for k, block in enumerate(canonical):
            bid[list(block)] = k
        self.block_id = bid
        self._order = np.array(flat, dtype=np.intp)
        self._starts = np.cumsum([0] + [len(b) for b in canonical[:-1]])

    def refines(self, coarser):
        firsts = np.array([b[0] for b in self.blocks], dtype=np.intp)
        rep = firsts[self.block_id]
        return bool(np.all(coarser.block_id == coarser.block_id[rep]))

    def split_largest(self):
        sizes = [len(b) for b in self.blocks]
        largest = max(sizes)
        if largest == 1:
            return self
        idx = sizes.index(largest)
        target = self.blocks[idx]
        cut = (len(target) + 1) // 2
        new_blocks = list(self.blocks[:idx]) + [target[:cut], target[cut:]]
        new_blocks += list(self.blocks[idx + 1 :])
        return OldPartition(self.space, new_blocks)

    def __eq__(self, other):
        return self.space == other.space and self.blocks == other.blocks

    def block_max(self, coords):
        maxima = np.maximum.reduceat(coords[self._order], self._starts)
        return maxima[self.block_id]

    def fixes_exactly(self, coords):
        firsts = np.array([b[0] for b in self.blocks], dtype=np.intp)
        return bool(np.all(coords == coords[firsts][self.block_id]))

    def __repr__(self):
        return f"Partition({[list(b) for b in self.blocks]})"

    def to_json_dict(self):
        return [list(b) for b in self.blocks]


def random_blocks(stream, n):
    """Shuffled atoms cut into 1..n blocks, each block in shuffled order."""
    atoms = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.below(i + 1)
        atoms[i], atoms[j] = atoms[j], atoms[i]
    k = 1 + stream.below(n)
    cuts = sorted({1 + stream.below(n - 1) for _ in range(k - 1)}) if n > 1 else []
    return [atoms[lo:hi] for lo, hi in zip([0] + cuts, cuts + [n])]


def grid():
    """(space, blocks) cases: 240 random block lists on 1..64 atoms, both
    weight modes, plus the single block and the singletons."""
    stream = SplitMix64(2024)
    for case in range(240):
        n = 1 + stream.below(64)
        space = SampleSpace.uniform(n) if case % 2 else SampleSpace(stream.uniforms(n, 0.05, 1.0))
        yield space, random_blocks(stream, n)
    for n in (1, 2, 5, 64):
        space = SampleSpace.uniform(n)
        yield space, [range(n)]
        yield space, [[a] for a in range(n)]


def chains():
    """split_largest chains to singletons from 30 random first partitions."""
    stream = SplitMix64(77)
    for _ in range(30):
        n = 1 + stream.below(48)
        space = SampleSpace.uniform(n)
        blocks = random_blocks(stream, n) if stream.next_float() < 0.7 else [range(n)]
        new, old = [Partition(space, blocks)], [OldPartition(space, blocks)]
        while not new[-1].is_singletons:
            new.append(split_largest(new[-1]))
            old.append(old[-1].split_largest())
        assert old[-1].split_largest() is old[-1]
        assert split_largest(new[-1]) is new[-1]
        yield new, old


def probe_values(stream, part):
    """Block-constant values with ties and signed zeros, then one atom moved."""
    n = part.space.n
    per_block = stream.uniforms(part.num_blocks, -2.0, 2.0)
    per_block[::3] = 0.0
    constant = per_block[part.block_id]
    constant[np.flatnonzero(constant == 0.0)[::2]] = -0.0
    rough = stream.uniforms(n, -2.0, 2.0)
    rough[::4] = np.round(rough[::4])
    moved = constant.copy()
    moved[stream.below(n)] += 0.5
    return [constant, rough, moved, np.zeros(n), -np.zeros(n)]


def assert_same(new, old, stream):
    assert new.block_id.tolist() == old.block_id.tolist()
    assert new.block_id.dtype == np.intp and not new.block_id.flags.writeable
    assert new.num_blocks == old.num_blocks
    assert new.blocks == old.blocks
    assert all(type(a) is int for b in new.blocks for a in b)
    assert new.to_json_dict() == old.to_json_dict()
    assert repr(new) == repr(old)
    op = ConditionalExpectationOp(new)
    for coords in probe_values(stream, new):
        f = new.space.element(coords)
        assert np.array_equal(op.block_max(f).coords, old.block_max(coords))
        # On a tie of -0.0 and 0.0 either is the maximum, and the sign kept
        # depends on the order NumPy combines a block's values in, which
        # reduceat and maximum.at need not share.  The program takes block
        # maxima of |f| only, which has no -0.0; there every bit agrees.
        absf = f.abs()
        assert op.block_max(absf).coords.tobytes() == old.block_max(absf.coords).tobytes()
        assert op.fixes_exactly(f) == old.fixes_exactly(coords)


def test_block_lists_match_the_tuple_class():
    stream = SplitMix64(5)
    cases = list(grid())
    for space, blocks in cases:
        assert_same(Partition(space, blocks), OldPartition(space, blocks), stream)
    # Equality, hashing and refinement over pairs on the same space.
    by_n = {}
    for space, blocks in cases:
        by_n.setdefault(space.n, []).append((space, blocks))
    for group in by_n.values():
        for sa, ba in group:
            for sb, bb in group:
                na, nb = Partition(sa, ba), Partition(sb, bb)
                oa, ob = OldPartition(sa, ba), OldPartition(sb, bb)
                assert (na == nb) == (oa == ob)
                if na == nb:
                    assert hash(na) == hash(nb)
                if sa == sb:
                    assert na.refines(nb) == oa.refines(ob)


def test_split_largest_chains_match_the_tuple_class():
    stream = SplitMix64(6)
    for new, old in chains():
        assert len(new) == len(old)
        for n_part, o_part in zip(new, old):
            assert_same(n_part, o_part, stream)
        for i, (fine, ofine) in enumerate(zip(new, old)):
            for coarse, ocoarse in zip(new, old):
                assert fine.refines(coarse) == ofine.refines(ocoarse)
            # A rebuilt copy is equal, hashes alike, and keys the same dict slot.
            again = Partition(fine.space, fine.blocks)
            assert again == fine and hash(again) == hash(fine)
            assert {fine: i}[again] == i
            assert all((fine == other) == (j == i) for j, other in enumerate(new))


def test_filtration_json_lists_every_stage():
    # Stages that repeat one operator share its list; the value is per stage.
    for seed in range(12):
        space = SampleSpace.uniform(1 + seed % 9)
        filt = refining_filtration(SplitMix64(seed), space, 3 * space.n)
        expected = [OldPartition(space, op.partition.blocks).to_json_dict() for op in filt]
        assert filt.to_json_dict() == expected


def test_slots_hold_only_the_block_ids():
    assert Partition.__slots__ == ("space", "block_id", "num_blocks")


def test_partitions_on_different_spaces():
    a = Partition.single_block(SampleSpace.uniform(3))
    b = Partition.single_block(SampleSpace([0.2, 0.3, 0.5]))
    assert a != b
    with pytest.raises(SpaceMismatch):
        a.refines(b)


def test_every_split_goes_through_the_constructor(monkeypatch):
    built = []
    init = Partition.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Partition, "__init__", counting)
    filt = default_filtration(SampleSpace.uniform(8), 12)
    assert not built  # the stage table holds no Partition until one is indexed
    assert len(filt.distinct) == len(built) == 8
    assert filt[11] is filt.distinct[-1] and len(built) == 8


@pytest.mark.parametrize(
    "blocks",
    [
        [[0.7], [1], [2]],
        [["1"], [0], [2]],
        [[0, 1.0], [2]],
        [[0, 1, 2.5]],
        [[np.float64(0)], [1], [2]],
        [[0, "a"], [1, 2]],
    ],
    ids=repr,
)
def test_non_integer_atom_labels_are_rejected(blocks):
    with pytest.raises(ValueError, match="integers"):
        Partition(SampleSpace.uniform(3), blocks)


def test_integer_labels_of_any_integer_type_are_accepted():
    space = SampleSpace.uniform(3)
    part = Partition(space, [np.array([2, 0], dtype=np.uint8), [np.int64(1)]])
    assert part.blocks == ((0, 2), (1,))


@pytest.mark.parametrize(
    "support", [[0.7], ["1"], np.array([0.0, 1.0]), (0, 1.5)], ids=repr
)
def test_band_projection_rejects_non_integer_atoms(support):
    with pytest.raises(ValueError, match="integers"):
        BandProjection(SampleSpace.uniform(3), support)


def test_block_id_constructor_checks_the_numbering():
    space = SampleSpace.uniform(5)
    part = Partition(space, block_id=[0, 0, 1, 0, 2])
    assert part.blocks == ((0, 1, 3), (2,), (4,))
    assert part == Partition(space, [[4], [2], [3, 1, 0]])
    labels = np.array([0, 1, 1, 2, 2])
    part = Partition(space, block_id=labels)
    labels[0] = 7  # the partition keeps its own copy
    assert part.block_id.tolist() == [0, 1, 1, 2, 2]
    for bad in ([1, 0, 0, 0, 0], [0, 2, 1, 1, 1], [0, 0, -1, 1, 1], [0, 1], [0.0] * 5):
        with pytest.raises(ValueError):
            Partition(space, block_id=bad)
    with pytest.raises(TypeError):
        Partition(space)
    with pytest.raises(TypeError):
        Partition(space, [range(5)], block_id=[0] * 5)


def test_default_filtration_builds_4096_atoms_in_linear_numpy_work():
    # The tuple class built one Python tuple per block per stage: quadratic
    # Python work, about 8 s at 2048 atoms.  The array class stays well
    # under a second at 4096; the bound leaves room for a slow host.
    space = SampleSpace.uniform(4096)
    start = time.perf_counter()
    filt = default_filtration(space, 4096)
    assert time.perf_counter() - start < 5.0
    assert filt[-1].is_identity and len(filt.distinct) == 4096
