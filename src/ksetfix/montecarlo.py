"""Monte Carlo cross-checks for the exact engines.

Two samplers, both driven by the Mersenne Twister behind
:class:`random.Random` seeded explicitly (only its ``random()`` method is
used, whose stream is stable across Python releases):

* the limiting model draws independent Poisson(1/j) counts of parts of
  size j for j <= k by CDF inversion, one uniform per position j in
  increasing order, estimating the limiting survival probability;
* the finite model draws the cycle type of a uniform random permutation
  of degree n by the standard sequential construction (the cycle through
  the smallest remaining point has uniformly distributed length), one
  uniform per cycle, and tests whether some k-subset is fixed.

Neither sampler builds a multiplicity vector. k-freeness is a bounded
knapsack folded into the draw: each sample carries one integer whose bit
s says that some of the parts drawn so far sum to s <= k, and every
drawn part of size j <= k shifts it left by j and ors it in (at most
k // j copies of each size, as more cannot add a size <= k). The sample
is k-free iff bit k stays clear. This decides exactly what
:func:`ksetfix.partitions.is_k_free` decides on the drawn vector, from
the same stream, so the estimates do not depend on which route runs.

Estimates come with the binomial standard error sqrt(p(1-p)/S).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import exp, sqrt

# not used here; the benchmark's tracer hooks this name on this module
from .partitions import is_k_free  # noqa: F401

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
    # bisect_right(cdf, u) is 0 exactly when u < cdf[0], the common case
    positions = []
    for j in range(1, k + 1):
        cdf = _poisson_cdf(1.0 / j)
        positions.append((j, cdf[0], cdf, k // j))
    full = (1 << (k + 1)) - 1
    free = 0
    for _ in range(samples):
        bits = 1
        for j, p0, cdf, cap in positions:
            u = uniform()
            if u < p0:
                continue
            m = bisect_right(cdf, u)
            for _ in range(m if m < cap else cap):
                bits |= bits << j & full
        if not bits >> k & 1:
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
    full = (1 << (k + 1)) - 1
    fixes = 0
    for _ in range(samples):
        bits = 1
        r = n
        while r:
            length = 1 + int(uniform() * r)
            totals[length - 1] += 1
            if length <= k:
                bits |= bits << length & full
            r -= length
        if bits >> k & 1:
            fixes += 1
    return McEstimate(
        fixes / samples,
        _binomial_stderr(fixes, samples),
        samples,
        seed,
        tuple(t / samples for t in totals),
    )
