"""Distribution, cost and reference tests for the xoshiro256** streams.

Each statistical tolerance is five standard errors of its statistic, set
before the test was first run. The seeds are fixed, so every test is
deterministic.
"""

import math
import statistics
from bisect import bisect_right

import pytest

from rtsim.rng import Xoshiro256StarStar

from oracles import poisson_search, poisson_sums

# The first counts at seed 7 and the sum of the first 1000; a change of the
# inversion path (mean 5) or of the PTRS path shows here.
POISSON_SEED_7_MEAN_5 = [6, 4, 7, 10, 11, 8, 2, 2]
POISSON_SEED_7_MEAN_5_SUM_1000 = 5028
POISSON_SEED_7_MEAN_10 = [12, 4, 9, 10, 9, 7, 6, 6]
POISSON_SEED_7_MEAN_10_SUM_1000 = 9759
POISSON_SEED_7_MEAN_1E6 = [1000592, 997980, 999726, 1000116, 1002014, 999863, 999265, 998855]
POISSON_SEED_7_MEAN_1E6_SUM_1000 = 999981974

# The PTRS path starts at mean 10 and must cost the same up to the 2**63 bound.
PTRS_MEANS = [10.0, 10.5, 12.0, 15.0, 20.0, 30.0, 50.0, 100.0] + [10.0**e for e in range(3, 19)]
# Below mean 10 inversion takes one uniform a call, from the smallest means up.
INVERSION_MEANS = [1e-300, 1e-10, 0.01, 0.8, 1.0, 2.5, 5.2, 9.6, 9.999, math.nextafter(10.0, 0)]


def poisson_pmf(k: int, mean: float) -> float:
    return math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))


def test_reference_outputs():
    # xoshiro256**'s published outputs from the state {1, 2, 3, 4}
    rng = Xoshiro256StarStar(0)
    rng._s = (1, 2, 3, 4)
    assert [rng.next_u64() for _ in range(4)] == [11520, 0, 1509978240, 1215971899390074240]


@pytest.mark.parametrize("mean", [0.8, 5.2, 9.6, 9.999, 10.0, 30.0])
def test_chi_square_against_exact_pmf(mean):
    n = 20_000
    rng = Xoshiro256StarStar(1)
    counts = {}
    for _ in range(n):
        k = rng.poisson(mean)
        counts[k] = counts.get(k, 0) + 1
    # Bins of k with at least 5 expected; both tails go into the outer bins.
    lo = 0
    while n * poisson_pmf(lo, mean) < 5:
        lo += 1
    hi = lo
    while n * poisson_pmf(hi + 1, mean) >= 5:
        hi += 1
    expected = [n * poisson_pmf(k, mean) for k in range(lo, hi + 1)]
    expected[0] += n * sum(poisson_pmf(k, mean) for k in range(lo))
    expected[-1] = n - sum(expected[:-1])
    observed = [counts.get(k, 0) for k in range(lo, hi + 1)]
    observed[0] += sum(c for k, c in counts.items() if k < lo)
    observed[-1] += sum(c for k, c in counts.items() if k > hi)
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    df = len(expected) - 1
    assert chi2 < df + 5 * math.sqrt(2 * df)


@pytest.mark.parametrize("mean", [10.0, 1e3, 1e6, 1e12, 1e16, 1e18])
def test_sample_mean_and_variance(mean):
    n = 4000
    rng = Xoshiro256StarStar(2)
    draws = [rng.poisson(mean) for _ in range(n)]
    assert all(type(k) is int and k >= 0 for k in draws)
    assert abs(statistics.fmean(draws) - mean) < 5 * math.sqrt(mean / n)
    # The sample variance of a Poisson sample has variance about (2 mean**2 + mean) / n.
    assert abs(statistics.variance(draws) - mean) < 5 * math.sqrt((2 * mean * mean + mean) / n)


@pytest.mark.parametrize(("mean", "first", "total"), [
    (5.0, POISSON_SEED_7_MEAN_5, POISSON_SEED_7_MEAN_5_SUM_1000),
    (10.0, POISSON_SEED_7_MEAN_10, POISSON_SEED_7_MEAN_10_SUM_1000),
    (1e6, POISSON_SEED_7_MEAN_1E6, POISSON_SEED_7_MEAN_1E6_SUM_1000),
])
def test_pinned_values(mean, first, total):
    rng = Xoshiro256StarStar(7)
    draws = [rng.poisson(mean) for _ in range(1000)]
    assert draws[:len(first)] == first
    assert sum(draws) == total


def test_below_10_inverts_the_cumulative_pmf():
    # Longhand inversion: the least k whose cumulative pmf, summed from the exact
    # pmf, reaches the uniform taken from one raw 64-bit draw.
    mean = 9.999
    stream = Xoshiro256StarStar(11)

    def reference():
        u = (stream.next_u64() >> 11) / 2.0**53
        k, cdf = 0, poisson_pmf(0, mean)
        while cdf < u:
            k += 1
            cdf += poisson_pmf(k, mean)
        return k

    rng = Xoshiro256StarStar(11)
    assert [rng.poisson(mean) for _ in range(1000)] == [reference() for _ in range(1000)]


@pytest.mark.parametrize("mean", PTRS_MEANS)
def test_draws_per_call_bounded(monkeypatch, mean):
    calls = 2000
    draws = 0
    next_u64 = Xoshiro256StarStar.next_u64

    def counted(self):
        nonlocal draws
        draws += 1
        if draws >= 3 * calls:  # fail here, not after the about `mean` draws a summing loop takes
            raise RuntimeError(f"{draws} draws in fewer than {calls} calls")
        return next_u64(self)

    monkeypatch.setattr(Xoshiro256StarStar, "next_u64", counted)
    rng = Xoshiro256StarStar(5)
    for _ in range(calls):
        rng.poisson(mean)
    assert draws < 3 * calls


@pytest.mark.parametrize("mean", INVERSION_MEANS)
def test_one_draw_per_call_below_10(monkeypatch, mean):
    calls = 2000
    draws = 0
    next_u64 = Xoshiro256StarStar.next_u64

    def counted(self):
        nonlocal draws
        draws += 1
        if draws > calls:  # fail here, not after the about `mean` draws a per-arrival loop takes
            raise RuntimeError(f"{draws} draws in fewer than {calls} calls")
        return next_u64(self)

    monkeypatch.setattr(Xoshiro256StarStar, "next_u64", counted)
    rng = Xoshiro256StarStar(5)
    for _ in range(calls):
        rng.poisson(mean)
    assert draws == calls


def test_largest_mean_below_bound():
    mean = math.nextafter(2.0**63, 0)
    rng = Xoshiro256StarStar(9)
    for _ in range(100):
        k = rng.poisson(mean)
        assert type(k) is int and k >= 0


def test_zero_uniforms_never_reach_log(monkeypatch):
    # u = 0.0 would divide by zero in the hat and v = 0.0 would be log(0): PTRS
    # rejects the first pair and accepts the second without calling log(v).
    uniforms = iter([0.0, 0.0, 0.96, 0.0])
    monkeypatch.setattr(Xoshiro256StarStar, "random", lambda self: next(uniforms))
    assert Xoshiro256StarStar(0).poisson(10.0) == 18  # floor((2a / 0.04 + b) * 0.46 + 10.43)


def test_zero_mean_draws_nothing():
    rng = Xoshiro256StarStar(3)
    state = rng._s
    assert rng.poisson(0.0) == 0
    assert rng._s == state


def test_zero_uniform_below_10_never_reaches_log(monkeypatch):
    # u = 0.0 lies below exp(-mean), the cumulative pmf at 0.
    monkeypatch.setattr(Xoshiro256StarStar, "random", lambda self: 0.0)
    assert Xoshiro256StarStar(0).poisson(1.0) == 0


@pytest.mark.parametrize("mean", INVERSION_MEANS)
def test_zero_uniform_below_10_gives_zero(monkeypatch, mean):
    monkeypatch.setattr(Xoshiro256StarStar, "random", lambda self: 0.0)
    assert Xoshiro256StarStar(0).poisson(mean) == 0


def test_largest_uniform_below_10_ends_the_search(monkeypatch):
    # u just below 1 can lie past every cumulative sum that rounding reaches;
    # the search stops once a term no longer changes the sum.
    monkeypatch.setattr(Xoshiro256StarStar, "random", lambda self: (2**53 - 1) / 2**53)
    rng = Xoshiro256StarStar(0)
    for mean in INVERSION_MEANS + [i / 1000 for i in range(1, 10_000)]:
        k = rng.poisson(mean)
        assert type(k) is int and 0 <= k < 60, (mean, k)


# Gate means that repeat, as a scan's do, and means that never repeat; each stream
# sees more than 64 means, so it also clears the sums it keeps.
REPEATING_MEANS = [0.8 + 0.37 * i for i in range(25)]
DISTINCT_MEANS = [9.9 * (i + 1) / 2001 for i in range(2000)]


def _mean_sequence():
    """20 000 draws at the repeating means, with a distinct mean after every tenth."""
    distinct = iter(DISTINCT_MEANS)
    for i in range(22_000):
        yield next(distinct) if i % 11 == 10 else REPEATING_MEANS[i % 25]


@pytest.mark.parametrize("seed", range(4))
def test_below_10_matches_the_sequential_search(seed):
    # Each count is the sequential search's for the uniform a twin stream draws at that step.
    rng, twin = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    means = list(_mean_sequence())
    assert [rng.poisson(mean) for mean in means] == [poisson_search(mean, twin.random()) for mean in means]


@pytest.mark.parametrize("mean", INVERSION_MEANS + [0.37, 3.0, 7.77])
def test_uniform_on_a_cumulative_sum_gives_its_index(monkeypatch, mean):
    # u equal to the sum s_k reaches it: the count is k, at the first draw and at every later one.
    sums = poisson_sums(mean)
    for k, s in enumerate(sums):
        assert bisect_right(sums, s) == k + 1  # the count one past k
        monkeypatch.setattr(Xoshiro256StarStar, "random", lambda self: s)
        rng = Xoshiro256StarStar(0)
        assert [rng.poisson(mean) for _ in range(3)] == [k] * 3, (mean, k)


BERNOULLI_PS = [0.5, 3 * 2.0**-53, (2**52 + 1) * 2.0**-53, 5e-324, 1 - 2.0**-53]


@pytest.mark.parametrize("p", BERNOULLI_PS)
def test_bernoulli_is_a_uniform_below_p(monkeypatch, p):
    # Against a twin stream's random() < p, then at each 53-bit uniform next to p.
    rng, twin = Xoshiro256StarStar(4), Xoshiro256StarStar(4)
    assert [rng.bernoulli(p) for _ in range(2000)] == [int(twin.random() < p) for _ in range(2000)]
    edge = math.floor(p * 2**53)
    uniforms = [n for n in range(edge - 1, edge + 3) if 0 <= n < 2**53] + [0, 2**53 - 1]
    for n in uniforms:
        for low in (0, 0x7FF):  # the 11 low bits a uniform drops
            monkeypatch.setattr(Xoshiro256StarStar, "next_u64", lambda self: n << 11 | low)
            assert rng.bernoulli(p) == int(n * 2.0**-53 < p), (p, n)
