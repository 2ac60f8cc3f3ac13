"""Samplers: determinism, distribution sanity, agreement with exact values."""

import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from math import nextafter, sqrt
from struct import iter_unpack

import pytest

from ksetfix.finite import finite_fix_probability
from ksetfix.montecarlo import (
    _poisson_cdf,
    _threshold,
    sample_finite_fix,
    sample_limit_survival,
)

from reference_data import (
    reference_finite_cycle_types,
    reference_sample_finite_fix,
    reference_sample_limit_survival,
    within,
)

ORACLE_SAMPLES = 3000


def test_limit_sampler_deterministic():
    a = sample_limit_survival(4, 5000, seed=123)
    b = sample_limit_survival(4, 5000, seed=123)
    assert a == b
    c = sample_limit_survival(4, 5000, seed=124)
    assert c.estimate != a.estimate


def test_finite_sampler_deterministic():
    a = sample_finite_fix(10, 5, 5000, seed=9)
    b = sample_finite_fix(10, 5, 5000, seed=9)
    assert a == b


def test_limit_sampler_near_e_inverse():
    # k=1: survival means no fixed points at all, probability e^{-1}
    est = sample_limit_survival(1, 100000, seed=2024)
    assert within(est, 0.36787944, sigmas=4)


def test_limit_sampler_k4():
    est = sample_limit_survival(4, 100000, seed=2024)
    assert within(est, 0.53044227, sigmas=4)


def test_finite_sampler_small_case_vs_exact():
    exact = float(finite_fix_probability(4, 2).fix_probability)
    est = sample_finite_fix(4, 2, 100000, seed=31)
    assert within(est, exact, sigmas=4)
    assert est.std_error == pytest.approx(
        sqrt(est.estimate * (1 - est.estimate) / est.samples)
    )


def test_finite_sampler_n2():
    est = sample_finite_fix(2, 1, 100000, seed=5)
    assert within(est, 0.5, sigmas=4)


def test_mean_cycle_counts_near_reciprocals():
    # the cycle types both finite samplers draw from a seed: E[number of
    # j-cycles] is exactly 1/j for j <= n; variance 1/j for j <= n/2, so
    # the mean over S samples has sigma sqrt(1/(j*S))
    samples = 100000
    totals = [0] * 20
    for ms in reference_finite_cycle_types(20, samples, seed=77):
        totals = [t + m for t, m in zip(totals, ms)]
    for j in range(1, 11):
        mean = totals[j - 1] / samples
        sigma = sqrt(1 / (j * samples))
        assert abs(mean - 1 / j) <= 4 * sigma, j


def test_poisson_cdf_short_and_monotone():
    for j in range(1, 11):
        cdf = _poisson_cdf(1 / j)
        assert len(cdf) < 40
        assert all(a < b or b == a for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] <= 1.0
        assert cdf[-1] > 1 - 1e-12


def test_validation():
    with pytest.raises(ValueError):
        sample_limit_survival(0, 10, seed=1)
    with pytest.raises(ValueError):
        sample_limit_survival(3, 0, seed=1)
    with pytest.raises(ValueError):
        sample_finite_fix(4, 5, 10, seed=1)


def test_estimates_in_unit_interval():
    est = sample_limit_survival(6, 2000, seed=0)
    assert 0 <= est.estimate <= 1
    assert est.std_error >= 0
    # the estimate is an exact multiple of 1/samples
    assert (Fraction(est.estimate).limit_denominator(2000)).denominator <= 2000


# small k: Poisson counts often exceed the knapsack cap k // j
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 4, 10, 17, 25, 30, 64])
def test_limit_sampler_equals_is_k_free_oracle(k, seed):
    fast = sample_limit_survival(k, ORACLE_SAMPLES, seed)
    slow = reference_sample_limit_survival(k, ORACLE_SAMPLES, seed)
    assert fast == slow


# the limiting sampler reads 1024 samples per block: one sample, a block
# less one, a whole block, a block and one, two blocks either side, and
# counts that leave the last block partly filled
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "k, samples",
    [(1, 1), (17, 1), (64, 1), (1, 1023), (1, 1024), (1, 1025), (17, 1024),
     (17, 1025), (64, 2047), (64, 2049),
     # odd block edges: a short last block at several fill levels
     (17, 480), (17, 481), (17, 482), (64, 127), (64, 128), (64, 129),
     (64, 1000)],
)
def test_limit_sampler_equals_oracle_across_blocks(k, samples, seed):
    fast = sample_limit_survival(k, samples, seed)
    slow = reference_sample_limit_survival(k, samples, seed)
    assert fast == slow


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "n, k", [(1, 1), (2, 1), (5, 5), (10, 5), (30, 1), (50, 20), (70, 30), (70, 35)]
)
def test_finite_sampler_equals_is_k_free_oracle(n, k, seed):
    fast = sample_finite_fix(n, k, ORACLE_SAMPLES, seed)
    slow = reference_sample_finite_fix(n, k, ORACLE_SAMPLES, seed)
    assert fast == slow


@pytest.mark.parametrize("n, k", [(1, 1), (50, 20), (70, 35)])
def test_finite_sampler_equals_oracle_for_one_sample(n, k):
    assert sample_finite_fix(n, k, 1, 3) == reference_sample_finite_fix(n, k, 1, 3)


# the limiting sampler reads random()'s stream through getrandbits
@pytest.mark.parametrize("seed", [0, 1, 7, -3])
def test_random_stream_identity(seed):
    draws = 1000
    blocked, single = random.Random(seed), random.Random(seed)
    raw = blocked.getrandbits(64 * draws).to_bytes(8 * draws, "little")
    rebuilt = [
        ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 9007199254740992.0)
        for w0, w1 in iter_unpack("<II", raw)
    ]
    uniforms = [single.random() for _ in range(draws)]
    assert rebuilt == uniforms
    assert [raw[8 * i + 3] for i in range(draws)] == [int(256 * u) for u in uniforms]
    assert blocked.random() == single.random()


# the sampler reads u >= step from the top byte of u, except in the edge
# byte, whose interval holds the step; the full CDF has steps equal to 1.0.
# Summed over the first cap steps, the table bits of a byte that is no
# step's edge give the capped Poisson count of its whole interval.
@pytest.mark.parametrize("j", range(1, 65))
def test_byte_table_entries_decide_their_whole_interval(j):
    cdf = _poisson_cdf(1 / j)
    thresholds = list(map(_threshold, cdf))
    for step, (same, edge, table) in zip(cdf, thresholds):
        assert same == step
        assert len(table) == 256 and set(table) <= set(b"01")
        assert edge / 256 <= step < (edge + 1) / 256 or (step, edge) == (1.0, 255)
        for t, bit in enumerate(table):
            if t == edge:
                continue
            ends = (t / 256, nextafter((t + 1) / 256, 0.0))
            assert {u >= step for u in ends} == {bit == ord("1")}, (step, t)
    for cap in sorted({1, 2, 3, max(1, 64 // j), 100}):
        edges = {edge for _, edge, _ in thresholds[:cap]}
        for t in range(256):
            if t in edges:
                continue
            count = sum(table[t] == ord("1") for _, _, table in thresholds[:cap])
            ends = (t / 256, nextafter((t + 1) / 256, 0.0))
            got = {min(bisect_right(cdf, u), cap) for u in ends}
            assert got == {count}, (cap, t)


# a block's planes and random bytes bound the sampler's memory, whatever
# the sample count
def test_limit_sampler_memory_does_not_grow_with_samples():
    peaks = []
    for samples in (4096, 40960):
        tracemalloc.start()
        sample_limit_survival(30, samples, 1)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
