"""Deterministic 64-bit PRNG (splitmix64) used for all random generation.

The generator is fixed bit-for-bit so that seeded corpora are reproducible
across platforms and Python versions; nothing here depends on the stdlib
`random` module. The stream is counter-based (output i of state s is
mix(s + i * golden)), so SplitMix64.uniforms computes a block of it with
numpy uint64 arithmetic; a block holds the same bits as drawing its values
one by one, and the stream itself is unchanged.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def splitmix64(seed: int, index: int) -> int:
    """The index-th output (0-based) of the splitmix64 stream seeded with seed.

    O(1): the stream's state advance is a constant increment, so output i is
    mix(seed + (i+1)*golden).
    """
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK64)


class SplitMix64:
    """Sequential splitmix64 stream with small sampling helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, count: int) -> np.ndarray:
        """The next count uniform() values, as one float64 array.

        numpy uint64 array arithmetic wraps mod 2^64 without a warning, and
        (z >> 11) * 2^-53 is exact in float64, so the values are bit-identical
        to count successive uniform() calls. The state advances in Python
        ints, as next_u64 advances it.
        """
        u64 = np.uint64
        z = np.arange(1, count + 1, dtype=u64)
        z *= u64(_GOLDEN)
        z += u64(self._state)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z ^= z >> u64(30)
        z *= u64(_MUL1)
        z ^= z >> u64(27)
        z *= u64(_MUL2)
        z ^= z >> u64(31)
        z >>= u64(11)
        return z * (1.0 / (1 << 53))

    def below(self, bound: int) -> int:
        """Unbiased integer in [0, bound); bound >= 1."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound

    def randrange(self, lo: int, hi: int) -> int:
        """Unbiased integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)
