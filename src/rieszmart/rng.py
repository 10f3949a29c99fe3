"""Deterministic pseudo-randomness.

All randomness in the package flows through SplitMix64 implemented here with
masked Python integers, so identical seeds give bit-identical streams on every
platform.  Uniform doubles use the top 53 bits of each output word divided by
2**53.  Substreams (per trial, per step, per suite) are derived by hashing the
parent seed together with string/integer labels, never by sharing state.
mix64_array and substream_floats do the same over numpy uint64 arrays, which
wrap mod 2**64; the scalar SplitMix64 class is the reference they match bit for bit.
substream_floats can skip a number of words per stream, and Streams reads
such draws back, stream by stream, with the scalar methods' arithmetic.
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
    return _mix64_in_place(np.array(z, dtype=np.uint64))


def _mix64_in_place(z: np.ndarray) -> np.ndarray:
    """mix64 of every word of a uint64 array that the caller owns, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def substream_floats(
    counts: np.ndarray, seed: int, *labels: int | str, first: int = 0, offsets=0
) -> np.ndarray:
    """substream(seed, *labels, first + i).floats(counts[i]) for every i,
    concatenated, after skipping offsets[i] words of stream i (offsets may
    be one number for all streams)."""
    return stream_floats(substream_seeds(len(counts), seed, *labels, first=first), counts, offsets)


def substream_seeds(count: int, seed: int, *labels: int | str, first: int = 0) -> np.ndarray:
    """derive_seed(seed, *labels, first + i) for i < count, as uint64: label
    first + i is one mix64 of the hashed prefix."""
    return seeds_at(np.uint64(derive_seed(seed, *labels)), np.arange(first, first + count))


def seeds_at(prefix, index: np.ndarray) -> np.ndarray:
    """derive_seed(p, i) for uint64 seeds p and integer labels i >= 0,
    elementwise (one seed for all, or one each), as a new uint64 array."""
    return _mix64_in_place(np.asarray(index).astype(np.uint64) ^ prefix)


def derive_seeds(seeds: np.ndarray, *labels: int | str) -> np.ndarray:
    """derive_seed(s, *labels) for every uint64 seed s, as a new array."""
    h = np.array(seeds, dtype=np.uint64)
    for label in labels:
        for word in label.encode("utf-8") if isinstance(label, str) else (int(label) & _MASK64,):
            h ^= np.uint64(word)
            _mix64_in_place(h)
    return h


def stream_floats(seeds: np.ndarray, counts: np.ndarray, offsets=0) -> np.ndarray:
    """SplitMix64(seeds[i]).floats(counts[i]) after skipping offsets[i]
    words, for every i, concatenated.  Word k of the stream seeded s is
    mix64(s + k * golden) mod 2**64, and k = j - before + offset for word j
    of the whole."""
    golden = np.uint64(_GOLDEN)
    counts = np.asarray(counts, dtype=np.int64)
    shift = (np.asarray(offsets, dtype=np.int64) - (counts.cumsum() - counts)).astype(np.uint64)
    words = np.arange(1, int(counts.sum()) + 1, dtype=np.uint64) * golden
    words += (seeds + shift * golden).repeat(counts)
    return (_mix64_in_place(words) >> np.uint64(11)) * 2.0**-53


def substream_grid(
    out: np.ndarray, seed: int, *labels: int | str, first: int = 0, work: np.ndarray | None = None
) -> None:
    """Row i of the (rows, width) float64 array out becomes
    substream(seed, *labels, first + i).floats(width): word k of the stream
    seeded s is mix64(s + (k + 1) * golden), so the words form one grid.
    work, a uint64 array of at least out.size words, holds the grid; a
    caller drawing many grids passes one, as a fresh one costs page faults."""
    rows, width = out.shape
    prefix = np.uint64(derive_seed(seed, *labels))
    seeds = _mix64_in_place(np.arange(first, first + rows, dtype=np.uint64) ^ prefix)
    if work is None:
        work = np.empty(out.size, dtype=np.uint64)
    # Laid out (width, rows), so every ufunc runs along the long axis.
    words = work[: out.size].reshape(width, rows)
    np.multiply(np.arange(1, width + 1, dtype=np.uint64)[:, None], np.uint64(_GOLDEN), out=words)
    words += seeds
    _mix64_in_place(words)
    words >>= np.uint64(11)
    np.multiply(words.T, 2.0**-53, out=out)


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


class Streams:
    """Floats drawn for several streams at once, stream i's counts[i] of them
    in turn, read in order through one cursor per stream.  Each method reads
    like the SplitMix64 method of its name, for every stream at once, or
    only where the mask where is True (NaN elsewhere)."""

    __slots__ = ("drawn", "pos")

    def __init__(self, drawn: np.ndarray, counts: np.ndarray):
        self.drawn = drawn
        self.pos = np.cumsum(counts) - counts

    def next_float(self, where=None) -> np.ndarray:
        if where is None:
            out = self.drawn[self.pos]
            self.pos = self.pos + 1
            return out
        out = np.full(len(self.pos), np.nan)
        out[where] = self.drawn[self.pos[where]]
        self.pos = self.pos + where
        return out

    def uniform(self, lo: float, hi: float, where=None) -> np.ndarray:
        return lo + (hi - lo) * self.next_float(where)

    def below(self, k) -> np.ndarray:
        return below(self.next_float(), k)

    def floats(self, sizes) -> np.ndarray:
        """sizes[i] floats of stream i, for every i, concatenated."""
        sizes = np.asarray(sizes)
        heads = np.cumsum(sizes) - sizes
        out = self.drawn[np.repeat(self.pos - heads, sizes) + np.arange(int(np.sum(sizes)))]
        self.pos = self.pos + sizes
        return out

    def uniforms(self, sizes, lo: float, hi: float) -> np.ndarray:
        return lo + (hi - lo) * self.floats(sizes)


def below(floats: np.ndarray, k) -> np.ndarray:
    """SplitMix64.below(k) read from each float, k >= 1 (one or one each)."""
    v = (floats * k).astype(np.int64)
    return np.minimum(v, np.asarray(k) - 1)


def substream(seed: int, *labels: int | str) -> SplitMix64:
    """Convenience: a fresh generator for (seed, labels...)."""
    return SplitMix64(derive_seed(seed, *labels))
