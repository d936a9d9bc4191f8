"""Deterministic random streams for input sampling.

The generator is xoshiro256** seeded through splitmix64, implemented here so
sampled golden values never depend on a library's stream guarantees. Each
driver that draws (``ttl_in`` and ``edge_counter``) seeds its own substream
from (seed, device name), so adding a device never perturbs another device's
draws.
"""

from __future__ import annotations

import hashlib
import math

_U64 = 0xFFFF_FFFF_FFFF_FFFF


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _U64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _U64


def substream_seed(seed: int, name: str) -> int:
    """Derive a 64-bit substream seed from the base seed and a stream name."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Xoshiro256StarStar:
    """xoshiro256** with the reference output function and state update."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        state = seed & _U64
        s = []
        for _ in range(4):
            state, out = _splitmix64(state)
            s.append(out)
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _U64, 7) * 9) & _U64
        t = (s[1] << 17) & _U64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def bernoulli(self, p: float) -> int:
        """1 with probability p, 0 otherwise. p=0 and p=1 are exact."""
        if p <= 0.0:
            return 0
        if p >= 1.0:
            return 1
        return 1 if self.random() < p else 0

    def poisson(self, mean: float) -> int:
        """Poisson draw via summed exponential arrivals (exact for any finite mean >= 0)."""
        if not 0 <= mean < math.inf:  # a nan or infinite mean would never end the loop
            raise ValueError(f"poisson mean must be finite and non-negative: {mean}")
        if mean == 0:
            return 0
        count = 0
        acc = 0.0
        while True:
            u = self.random()
            if u <= 0.0:
                u = 5e-324
            acc += -math.log(u)
            if acc > mean:
                return count
            count += 1
