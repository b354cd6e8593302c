"""numpy's default_rng(seed), SeedSequence into PCG64 (XSL-RR), for the draws `verify` makes.

`Generator(seed)` gives what np.random.default_rng(seed) gives, bit for bit, for
`integers`, `random` and `uniform`, without importing `numpy.random` (about 5.5 MB a
process); tests/test_draws.py compares the two streams.
"""

from __future__ import annotations

import math

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64): the seed's 32-bit words, least
    significant first, hashed into a pool of four words, and eight words hashed out of it."""
    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(v):
        nonlocal h
        v = (v ^ h) * (h := h * mult & _M32) & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src, dst in [(s, d) for s in range(4) for d in range(4) if s != d]:
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w, dst in [(w, d) for w in words[4:] for d in range(4)]:
        pool[dst] = mix(pool[dst], hashmix(w))
    h, mult = 0x8B51F9DD, 0x58F38DED
    out = [hashmix(pool[i % 4]) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in (0, 2, 4, 6)]


class Generator:
    """The draws of np.random.default_rng(seed) that `verify` makes; seed is a nonnegative int."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = (i0 << 64 | i1) << 1 & _M128 | 1
        self._state = (self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc & _M128
        self._half = None  # the high half of the last 64-bit output split into two 32-bit ones

    def _next64(self) -> int:
        self._state = s = self._state * _PCG_MULT + self._inc & _M128
        v, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (v >> rot | v << (64 - rot)) & _M64

    def _next32(self) -> int:
        half, self._half = self._half, None
        if half is None:
            v = self._next64()
            half, self._half = v & _M32, v >> 32
        return half

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high) by Lemire's method, high - low in [1, 2^32 - 2]."""
        n = high - low
        if not 0 < n < _M32:
            raise ValueError(f"integers: high - low must be in [1, 2^32 - 2], got {n}")
        m = self._next32() * n
        if m & _M32 < n:
            threshold = (_M32 - (n - 1)) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return low + (m >> 32)

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size=None):
        """low + (high - low) * random(), one float, or an array of shape size filled in C order."""
        span = high - low
        if size is None:
            return low + span * self.random()
        return np.array([low + span * self.random() for _ in range(math.prod(size))]).reshape(size)
