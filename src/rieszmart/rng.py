"""Deterministic pseudo-randomness.

All randomness in the package flows through SplitMix64 implemented here with
masked Python integers, so identical seeds give bit-identical streams on every
platform.  Uniform doubles use the top 53 bits of each output word divided by
2**53.  Substreams (per trial, per step, per suite) are derived by hashing the
parent seed together with string/integer labels, never by sharing state.
mix64_array and substream_floats do the same over numpy uint64 arrays, which
wrap mod 2**64; the scalar SplitMix64 class is the reference they match bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit avalanche permutation."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 of every word of a uint64 array, as a new array."""
    z = np.array(z, dtype=np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def substream_floats(counts: np.ndarray, seed: int, *labels: int | str) -> np.ndarray:
    """substream(seed, *labels, i).floats(counts[i]) for every i, concatenated.
    Label i is one mix64 of the hashed prefix; word k of a stream seeded s is
    mix64(s + k * golden) mod 2**64, and k = j - before for word j of the whole."""
    golden = np.uint64(_GOLDEN)
    prefix = np.uint64(derive_seed(seed, *labels))
    seeds = mix64_array(np.arange(len(counts), dtype=np.uint64) ^ prefix)
    words = np.arange(1, int(np.sum(counts)) + 1, dtype=np.uint64) * golden
    words += np.repeat(seeds - (np.cumsum(counts) - counts).astype(np.uint64) * golden, counts)
    return (mix64_array(words) >> np.uint64(11)) * 2.0**-53


def derive_seed(seed: int, *labels: int | str) -> int:
    """Hash a parent seed with labels into an independent substream seed."""
    h = seed & _MASK64
    for label in labels:
        if isinstance(label, str):
            for byte in label.encode("utf-8"):
                h = mix64(h ^ byte)
        else:
            h = mix64(h ^ (int(label) & _MASK64))
    return h


class SplitMix64:
    """The SplitMix64 generator (Steele/Lea/Flood) over masked Python ints."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        # 53-bit mantissa division: uniform on [0, 1).
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def below(self, k: int) -> int:
        """Integer in [0, k).  Negligible bias is irrelevant for test draws."""
        if k <= 0:
            raise ValueError("below() needs k >= 1")
        v = int(self.next_float() * k)
        return k - 1 if v >= k else v

    def floats(self, count: int) -> np.ndarray:
        return np.array([self.next_float() for _ in range(count)], dtype=np.float64)

    def uniforms(self, count: int, lo: float, hi: float) -> np.ndarray:
        return lo + (hi - lo) * self.floats(count)


def substream(seed: int, *labels: int | str) -> SplitMix64:
    """Convenience: a fresh generator for (seed, labels...)."""
    return SplitMix64(derive_seed(seed, *labels))
