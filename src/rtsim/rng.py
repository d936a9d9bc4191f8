"""Deterministic random streams for input sampling.

The generator is xoshiro256** seeded through splitmix64, implemented here so
sampled golden values never depend on a library's stream guarantees. Each
driver that draws (``ttl_in`` and ``edge_counter``) seeds its own substream
from (seed, device name), so adding a device never perturbs another device's
draws.

A Poisson count below mean 10 takes one uniform and inverts the cumulative
distribution by one bisect in the cumulative sums it keeps for that mean,
which stop within a bounded number of terms; from mean 10 up it uses
Hormann's PTRS transformed rejection, whose cost does not grow with the
mean. Either way the mean must be below 2**63, the range of a signed 64-bit
count.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left

_U64 = 0xFFFF_FFFF_FFFF_FFFF

# Every Poisson mean must be below this: no signed 64-bit counter holds a larger count.
POISSON_MEAN_LIMIT = 2.0**63
_TABLE_MEANS = 64  # the most means below 10 whose cumulative sums a stream keeps: one more clears them all


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _U64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return state, z ^ (z >> 31)


def substream_seed(seed: int, name: str) -> int:
    """Derive a 64-bit substream seed from the base seed and a stream name."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Xoshiro256StarStar:
    """xoshiro256** with the reference output function and state update."""

    __slots__ = ("_s", "_tables")

    def __init__(self, seed: int):
        state = seed & _U64
        s = []
        for _ in range(4):
            state, out = _splitmix64(state)
            s.append(out)
        self._s = tuple(s)
        self._tables = {}  # a mean below 10 -> its cumulative sums

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        x = (s1 * 5) & _U64
        s2 ^= s0
        s3 ^= s1
        self._s = (s0 ^ s3, s1 ^ s2, s2 ^ ((s1 << 17) & _U64), ((s3 << 45) | (s3 >> 19)) & _U64)
        return ((x << 7 | x >> 57) * 9) & _U64  # rotl(x, 7) * 9; the bits past 64 vanish in the mask

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
        """Poisson draw for a mean in [0, 2**63).

        Below mean 10 it draws one uniform ``u`` and returns the least k whose
        cumulative probability reaches ``u``: ``bisect_left`` of ``u`` in the
        sums a sequential search would visit (Devroye 1986, X.3). The stream
        builds them at a mean's first draw and keeps them, for at most
        ``_TABLE_MEANS`` means before it clears them all. The sums stop once
        the next term no longer changes them, within 60 terms, so even ``u``
        just below 1 gets a count. From 10 up it uses PTRS (Hormann 1993, with
        the constants of NumPy's ``random_poisson_ptrs``): 2.2 to 2.7 draws a
        call at any mean. From k = 10 up its rejection test takes the log pmf
        by Stirling in k - mean, so it keeps its precision up to the largest
        mean.
        """
        tables = self._tables
        if mean not in tables:  # a mean without kept sums
            if not 0.0 <= mean < POISSON_MEAN_LIMIT:  # nan, inf or a count past 64 bits
                raise ValueError(f"poisson mean must be finite and non-negative and below 2**63: {mean}")
            if mean < 10.0:  # float literals: a float mean compares on the interpreter's float fast path
                if mean == 0.0:
                    return 0
                if len(tables) >= _TABLE_MEANS:
                    tables.clear()
                p = s = math.exp(-mean)  # s_0 ... s_{K-1}, by the search's recurrence
                sums = [s]
                k = 1
                while s + (p := p * (mean / k)) != s:  # stops at K, whose term no longer changes the sum
                    s += p
                    sums.append(s)
                    k += 1
                tables[mean] = tuple(sums)
        if mean < 10.0:
            return bisect_left(tables[mean], self.random())  # the least k with u <= s_k, or K past every sum
        loglam = math.log(mean)
        b = 0.931 + 2.53 * math.sqrt(mean)
        a = -0.059 + 0.02483 * b
        log_invalpha = math.log(1.1239 + 1.1328 / (b - 3.4))
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0.0:  # u = -0.5 lies under an unbounded hat: reject it
                continue
            k = math.floor((2 * a / us + b) * u + mean + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            if k < 10:
                log_pmf = -mean + k * loglam - math.lgamma(k + 1)
            else:  # the same, by Stirling in d = k - mean: no terms near k*log(k) that cancel
                d = k - mean
                log_pmf = (d - k * math.log1p(d / mean) - 0.5 * math.log(2 * math.pi * k)
                           - 1 / (12 * k) + 1 / (360 * k**3))
            # v = 0 would be log(0) = -inf, which accepts
            if v == 0.0 or math.log(v) + log_invalpha - math.log(a / (us * us) + b) <= log_pmf:
                return k
