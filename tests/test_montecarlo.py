"""Samplers: determinism, distribution sanity, agreement with exact values."""

import dataclasses
from fractions import Fraction
from math import sqrt

import pytest

from ksetfix.finite import finite_fix_probability
from ksetfix.montecarlo import (
    _poisson_cdf,
    sample_finite_fix,
    sample_limit_survival,
)

from reference_data import reference_sample_finite_fix, reference_sample_limit_survival

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
    assert est.within(0.36787944, sigmas=4)


def test_limit_sampler_k4():
    est = sample_limit_survival(4, 100000, seed=2024)
    assert est.within(0.53044227, sigmas=4)


def test_finite_sampler_small_case_vs_exact():
    exact = float(finite_fix_probability(4, 2).fix_probability)
    est = sample_finite_fix(4, 2, 100000, seed=31)
    assert est.within(exact, sigmas=4)
    assert est.std_error == pytest.approx(
        sqrt(est.estimate * (1 - est.estimate) / est.samples)
    )


def test_finite_sampler_n2():
    est = sample_finite_fix(2, 1, 100000, seed=5)
    assert est.within(0.5, sigmas=4)


def test_mean_cycle_counts_near_reciprocals():
    # E[number of j-cycles] is exactly 1/j for j <= n; variance 1/j for
    # j <= n/2, so the mean over S samples has sigma sqrt(1/(j*S))
    samples = 100000
    est = sample_finite_fix(20, 10, samples, seed=77)
    assert est.mean_cycle_counts is not None
    for j in range(1, 11):
        mean = est.mean_cycle_counts[j - 1]
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
@pytest.mark.parametrize("k", [1, 2, 4, 10, 25, 30])
def test_limit_sampler_equals_is_k_free_oracle(k, seed):
    fast = sample_limit_survival(k, ORACLE_SAMPLES, seed)
    slow = reference_sample_limit_survival(k, ORACLE_SAMPLES, seed)
    assert dataclasses.astuple(fast) == dataclasses.astuple(slow)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "n, k", [(1, 1), (2, 1), (5, 5), (10, 5), (30, 1), (50, 20), (70, 30)]
)
def test_finite_sampler_equals_is_k_free_oracle(n, k, seed):
    fast = sample_finite_fix(n, k, ORACLE_SAMPLES, seed)
    slow = reference_sample_finite_fix(n, k, ORACLE_SAMPLES, seed)
    assert dataclasses.astuple(fast) == dataclasses.astuple(slow)
