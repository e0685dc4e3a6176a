"""Deterministic 64-bit PRNG (splitmix64) used for all random generation.

The generator is fixed bit-for-bit so that seeded corpora are reproducible
across platforms and Python versions; nothing here depends on the stdlib
`random` module. The stream is counter-based (output i of state s is
mix(s + i * golden)), so SplitMix64.skip hands a block of it to be drawn
elsewhere: the compiled G(n, p) coin block (gnp_rows in _jacobi.c, with these
constants) draws the same bits as uniform() one by one, and the stream itself
is unchanged.
"""
from __future__ import annotations

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

    def skip(self, count: int) -> int:
        """Moves the stream past its next count outputs and returns the state
        they are drawn from: output i of them (0-based) is
        mix(state + (i + 1) * golden)."""
        state = self._state
        self._state = (state + count * _GOLDEN) & _MASK64
        return state

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
