"""Determinism and range checks for the seeded generator."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rieszmart.rng import (
    SplitMix64,
    derive_seed,
    mix64,
    mix64_array,
    substream,
    substream_floats,
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
def test_mix64_array_matches_scalar_mix64(words):
    z = np.array(words, dtype=np.uint64)
    assert mix64_array(z).tolist() == [mix64(w) for w in words]
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
    labels = np.arange(count, dtype=np.uint64) ^ np.uint64(prefix)
    expected = [derive_seed(seed, label, i) for i in range(count)]
    assert [mix64(prefix ^ i) for i in range(count)] == expected
    assert mix64_array(labels).tolist() == expected
