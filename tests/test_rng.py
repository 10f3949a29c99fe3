"""Determinism and range checks for the seeded generator."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import substream_grid

from rieszmart.rng import (
    SplitMix64,
    Streams,
    below,
    derive_seed,
    derive_seeds,
    mix64,
    seeds_at,
    stream_floats,
    substream,
    substream_floats,
    substream_seeds,
)

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def test_same_seed_same_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_differ():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_mix64_is_64_bit():
    for z in (0, 1, 2**64 - 1, 2**63, 0xDEADBEEF):
        out = mix64(z)
        assert 0 <= out < 2**64


def test_floats_in_unit_interval():
    stream = SplitMix64(7)
    xs = stream.floats(1000)
    assert np.all(xs >= 0.0)
    assert np.all(xs < 1.0)
    # The stream should actually move around.
    assert xs.std() > 0.1


def test_uniform_respects_bounds():
    stream = SplitMix64(99)
    for _ in range(200):
        v = stream.uniform(-3.0, 5.0)
        assert -3.0 <= v < 5.0
    arr = stream.uniforms(100, 2.0, 2.5)
    assert np.all(arr >= 2.0) and np.all(arr < 2.5)


def test_below_range_and_coverage():
    stream = SplitMix64(3)
    seen = {stream.below(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        stream.below(0)


def test_derive_seed_label_sensitivity():
    base = derive_seed(42, "suite", 0)
    assert derive_seed(42, "suite", 0) == base
    assert derive_seed(42, "suite", 1) != base
    assert derive_seed(42, "other", 0) != base
    assert derive_seed(43, "suite", 0) != base
    # String and integer labels hash differently.
    assert derive_seed(42, "0") != derive_seed(42, 0)


def test_substream_matches_derive_seed():
    direct = SplitMix64(derive_seed(5, "trial", 17))
    conv = substream(5, "trial", 17)
    assert [direct.next_u64() for _ in range(5)] == [conv.next_u64() for _ in range(5)]


@given(st.lists(U64, min_size=1, max_size=8))
@example([0, 2**64 - 1, 2**63, 1])
def test_seeds_at_matches_scalar_mix64(words):
    z = np.array(words, dtype=np.uint64)
    assert seeds_at(np.uint64(0), z).tolist() == [mix64(w) for w in words]
    assert z.tolist() == words


@given(
    U64,
    st.sampled_from([("mds-step",), ("trial", 3), ()]),
    st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=6),
    st.sampled_from([1.0, 1e3, 0.25, 7]),
)
@example(0, ("mds-step",), [1, 64], 1.0)
@example(2**64 - 1, ("mds-step",), [64, 1, 7], 1e3)
def test_substream_floats_match_the_scalar_generator_bit_for_bit(seed, labels, counts, amplitude):
    streams = [substream(seed, *labels, i) for i in range(len(counts))]
    floats = substream_floats(np.array(counts), seed, *labels)
    scalar = np.concatenate([s.floats(c) for s, c in zip(streams, counts)])
    assert floats.tobytes() == scalar.tobytes()
    # generate_mds writes uniforms(c, -a, a) as -a + 2 * a * floats.
    streams = [substream(seed, *labels, i) for i in range(len(counts))]
    uniforms = np.concatenate(
        [s.uniforms(c, -amplitude, amplitude) for s, c in zip(streams, counts)]
    )
    assert (-amplitude + 2 * amplitude * floats).tobytes() == uniforms.tobytes()


@given(U64, st.integers(min_value=1, max_value=200), st.sampled_from(["mds-step", "", "trial"]))
@example(0, 1, "mds-step")
@example(2**64 - 1, 64, "mds-step")
def test_derive_seed_integer_label_is_one_mix_of_the_prefix(seed, count, label):
    prefix = derive_seed(seed, label)
    expected = [derive_seed(seed, label, i) for i in range(count)]
    assert [mix64(prefix ^ i) for i in range(count)] == expected
    assert seeds_at(np.uint64(prefix), np.arange(count)).tolist() == expected


@given(
    U64,
    st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=40),
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5),
)
@example(0, [1], [1])
@example(2**64 - 1, [3, 1, 8, 8, 8], [2, 2, 1])
def test_substream_floats_blocks_with_first_offsets_concatenate_to_one_call(seed, counts, cuts):
    counts = np.array(counts)
    bounds = np.unique(np.clip(np.cumsum(cuts), 0, len(counts)))
    pieces = [
        substream_floats(counts[lo:hi], seed, "mds-step", first=int(lo))
        for lo, hi in zip(np.concatenate(([0], bounds)), np.concatenate((bounds, [len(counts)])))
    ]
    whole = substream_floats(counts, seed, "mds-step")
    assert np.array_equal(np.concatenate(pieces), whole)
    assert np.concatenate(pieces).tobytes() == whole.tobytes()
    # first= numbers the substreams: stream first + i draws counts[i] floats.
    last = len(counts) - 1
    tail = substream_floats(counts[last:], seed, "mds-step", first=last)
    assert tail.tobytes() == substream(seed, "mds-step", last).floats(int(counts[last])).tobytes()


@given(
    U64,
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=2**40),
)
@example(0, 1, 1, 0)
@example(2**64 - 1, 7, 13, 2**40)
def test_substream_grid_rows_are_the_scalar_streams(seed, rows, width, first):
    out = np.empty((rows, width))
    substream_grid(out, seed, "mds-step", first=first)
    scalar = [substream(seed, "mds-step", first + i).floats(width) for i in range(rows)]
    assert out.tobytes() == np.array(scalar).tobytes()
    # A hashed prefix as the seed, with no labels, names the same streams,
    # and a work array longer than the grid changes nothing.
    again = np.empty((rows, width))
    work = np.full(rows * width + 5, 7, dtype=np.uint64)
    substream_grid(again, derive_seed(seed, "mds-step"), first=first, work=work)
    assert again.tobytes() == out.tobytes()
    counts = np.full(rows, width)
    assert substream_floats(counts, seed, "mds-step", first=first).tobytes() == out.tobytes()


@given(
    U64,
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=70)),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=0, max_value=2**40),
)
@example(0, [(0, 0)], 0)
@example(2**64 - 1, [(3, 2), (0, 5), (12, 0), (1, 70)], 2**40)
def test_substream_floats_with_word_offsets_match_the_scalar_generator(seed, streams, first):
    counts = np.array([count for count, _ in streams])
    offsets = np.array([offset for _, offset in streams])
    scalar = []
    for i, (count, offset) in enumerate(streams):
        stream = substream(seed, "holder", first + i)
        for _ in range(offset):
            stream.next_u64()
        scalar.append(stream.floats(count))
    drawn = substream_floats(counts, seed, "holder", first=first, offsets=offsets)
    assert drawn.tobytes() == np.concatenate(scalar).tobytes()
    # One offset for every stream reads as that offset given to each.
    same = substream_floats(counts, seed, "holder", first=first, offsets=2)
    assert same.tobytes() == substream_floats(counts, seed, "holder", first=first, offsets=np.full(len(counts), 2)).tobytes()


@given(U64, st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**40))
@example(2**64 - 1, 3, 0)
def test_derived_seed_arrays_match_derive_seed(seed, count, first):
    parents = substream_seeds(count, seed, "ce-axioms-inner", first=first)
    assert parents.tolist() == [derive_seed(seed, "ce-axioms-inner", first + i) for i in range(count)]
    inner = derive_seeds(parents, "ce-axioms", 0)
    assert inner.tolist() == [derive_seed(int(s), "ce-axioms", 0) for s in parents.tolist()]
    counts = np.arange(count) % 5
    scalar = [SplitMix64(int(s)).floats(c) for s, c in zip(inner.tolist(), counts)]
    assert stream_floats(inner, counts).tobytes() == np.concatenate(scalar).tobytes()


def test_streams_read_each_stream_as_its_scalar_generator():
    seeds = substream_seeds(6, 11, "bands")
    counts = np.array([9, 4, 12, 7, 9, 6])
    draws = Streams(stream_floats(seeds, counts), counts)
    scalar = [SplitMix64(int(s)) for s in seeds.tolist()]
    k = np.array([1, 2, 3, 5, 8, 13])
    assert draws.below(k).tolist() == [s.below(int(j)) for s, j in zip(scalar, k)]
    where = np.array([True, False, True, True, False, True])
    got = draws.uniform(-1.5, 0.5, where=where)
    assert np.isnan(got[~where]).all()
    assert got[where].tolist() == [s.uniform(-1.5, 0.5) for s, w in zip(scalar, where) if w]
    sizes = np.array([3, 0, 2, 4, 1, 3])
    expected = np.concatenate([s.uniforms(int(c), 0.05, 1.0) for s, c in zip(scalar, sizes)])
    assert draws.uniforms(sizes, 0.05, 1.0).tobytes() == expected.tobytes()
    assert draws.next_float().tolist() == [s.next_float() for s in scalar]
    # below clamps a product that rounds up to k, as the scalar method does.
    assert below(np.array([1.0 - 2.0**-53, 0.5]), 3).tolist() == [2, 1]
