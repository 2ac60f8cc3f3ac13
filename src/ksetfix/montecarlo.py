"""Monte Carlo cross-checks for the exact engines.

Two samplers, both driven by the Mersenne Twister behind
:class:`random.Random` seeded explicitly (only its ``random()`` method is
used, whose stream is stable across Python releases):

* the limiting model draws independent Poisson(1/j) counts of parts of
  size j for j <= k by CDF inversion and tests k-freeness, estimating
  the limiting survival probability;
* the finite model draws the cycle type of a uniform random permutation
  of degree n by the standard sequential construction (the cycle through
  the smallest remaining point has uniformly distributed length) and
  tests whether some k-subset is fixed.

Estimates come with the binomial standard error sqrt(p(1-p)/S).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import exp, sqrt

from .partitions import is_k_free

# Poisson counts above this would signal a broken CDF table (for means
# <= 1 the chance of even 30 is astronomically small)
_COUNT_CAP = 64


@dataclass(frozen=True)
class McEstimate:
    """A sampled proportion with its binomial standard error."""

    estimate: float
    std_error: float
    samples: int
    seed: int
    mean_cycle_counts: tuple[float, ...] | None = None

    def within(self, target: float, sigmas: float) -> bool:
        slack = sigmas * self.std_error
        return target - slack <= self.estimate <= target + slack


def _poisson_cdf(mean: float) -> list[float]:
    """Cumulative Poisson probabilities until the tail vanishes in doubles."""
    p = exp(-mean)
    cdf = [p]
    i = 0
    while cdf[-1] < 1.0 and i < _COUNT_CAP:
        i += 1
        p *= mean / i
        nxt = min(cdf[-1] + p, 1.0)
        if nxt == cdf[-1]:
            break
        cdf.append(nxt)
    if not len(cdf) < _COUNT_CAP:
        raise AssertionError("Poisson CDF table hit the count cap")
    return cdf


def _binomial_stderr(hits: int, samples: int) -> float:
    p = hits / samples
    return sqrt(p * (1.0 - p) / samples)


def sample_limit_survival(k: int, samples: int, seed: int) -> McEstimate:
    """Fraction of Poisson-cycle partitions with no size-k subpartition.

    Deterministic in (k, samples, seed); the estimate converges to the
    limiting survival probability.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    uniform = rng.random
    cdfs = [_poisson_cdf(1.0 / j) for j in range(1, k + 1)]
    free = 0
    for _ in range(samples):
        ms = tuple(bisect_right(cdf, uniform()) for cdf in cdfs)
        if is_k_free(k, ms):
            free += 1
    return McEstimate(free / samples, _binomial_stderr(free, samples), samples, seed)


def sample_finite_fix(n: int, k: int, samples: int, seed: int) -> McEstimate:
    """Fraction of uniform random permutations of Sym_n fixing some k-subset.

    Cycle types are drawn without building permutations: with r points
    left, the cycle through the smallest one has length uniform on
    {1..r}. Also reports the empirical mean number of j-cycles for each
    j <= n (their exact means are 1/j).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    uniform = rng.random
    totals = [0] * n
    fixes = 0
    ms = [0] * k
    for _ in range(samples):
        for j in range(k):
            ms[j] = 0
        r = n
        while r:
            length = 1 + int(uniform() * r)
            totals[length - 1] += 1
            if length <= k:
                ms[length - 1] += 1
            r -= length
        if not is_k_free(k, ms):
            fixes += 1
    return McEstimate(
        fixes / samples,
        _binomial_stderr(fixes, samples),
        samples,
        seed,
        tuple(t / samples for t in totals),
    )
