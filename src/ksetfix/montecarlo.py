"""Monte Carlo cross-checks for the exact engines.

Two samplers, both driven by the Mersenne Twister behind
:class:`random.Random` seeded explicitly. The stream is that of its
``random()`` method, which is stable across Python releases:

* the limiting model draws independent Poisson(1/j) counts of parts of
  size j for j <= k by CDF inversion, one uniform per position j in
  increasing order, estimating the limiting survival probability;
* the finite model draws the cycle type of a uniform random permutation
  of degree n by the standard sequential construction (the cycle through
  the smallest remaining point has uniformly distributed length), one
  uniform per cycle, and tests whether some k-subset is fixed.

k-freeness is a bounded knapsack: one integer whose bit s says that
some of the parts drawn so far sum to s <= k, and every drawn part of
size j <= k shifts it left by j and ors it in (at most k // j copies of
each size, as more cannot add a size <= k). The sample is k-free iff
bit k stays clear. It is the knapsack of
:func:`ksetfix.partitions.is_k_free`, run as the parts are drawn, so the
tests' reference samplers, which build each drawn vector and call
``is_k_free`` on it, give the same estimates from the same stream.
The step is inline rather than a call of
:func:`ksetfix.partitions.part_ladder`, which gives its rule.

The finite sampler calls ``random()`` once per cycle and folds each
cycle into the knapsack as it is drawn. The limiting sampler reads the
same stream in blocks of samples. It rests on an identity of CPython's
Mersenne Twister: ``getrandbits(64 * N)``, written as 8N little-endian
bytes, advances the generator exactly as N calls of ``random()`` do, and
draw i is the pair of 32-bit words at byte 8i, with ``random()`` equal
to ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``. Byte 8i + 3, the top
byte of w0, is then ``floor(256 * u)``. A sample has at least c parts j
exactly when its draw u at position j is at least step c - 1 of the
Poisson CDF; every byte but the one whose interval holds that step
decides this for its whole interval, and the draws in that byte rebuild
u. So one ``bytes.translate`` of a column of top bytes gives, as a
base-2 numeral, the samples of a block with one more part j, and the
knapsack runs on the whole block at once, transposed: plane s is an
integer whose bit i says that some parts of sample i sum to s.
``test_random_stream_identity`` in ``tests/test_montecarlo.py`` pins the
identity, so the tests fail if CPython ever changes it.

Estimates come with the binomial standard error sqrt(p(1-p)/S).
"""

from __future__ import annotations

import random
from itertools import repeat, starmap
from math import exp, sqrt
from struct import unpack_from
from typing import NamedTuple

# not used here; the benchmark's tracer hooks this name on this module
from .partitions import is_k_free  # noqa: F401

# Poisson counts above this would signal a broken CDF table (for means
# <= 1 the chance of even 30 is astronomically small)
_COUNT_CAP = 64
# samples per block of the limiting sampler: 8k random bytes and one bit each
_BLOCK_SAMPLES = 1024


class McEstimate(NamedTuple):
    """A sampled proportion with its binomial standard error, sample
    count and seed: the four numbers ``ksetfix mc`` prints."""

    estimate: float
    std_error: float
    samples: int
    seed: int


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


def _threshold(step: float) -> tuple[float, int, bytes]:
    """A CDF step, its edge byte and the table that sends every top byte of
    u to "1" if its whole interval has u >= step, else to "0".

    The edge byte's interval holds the step, so u itself decides there.
    """
    edge = min(int(step * 256), 255)  # the CDFs of j = 1, 2, 3 end at 1.0
    return step, edge, b"0" * (edge + 1) + b"1" * (255 - edge)


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
    steps = [list(map(_threshold, _poisson_cdf(1.0 / j)[:k // j]))
             for j in range(1, k + 1)]
    stride = 8 * k
    free = 0
    for start in range(0, samples, _BLOCK_SAMPLES):
        b = min(_BLOCK_SAMPLES, samples - start)
        raw = rng.getrandbits(64 * k * b).to_bytes(stride * b, "little")
        plane = [(1 << b) - 1] + [0] * k
        for j, cuts in enumerate(steps, 1):
            top = raw[8 * j - 5::stride]
            for step, edge, table in cuts:
                more = bytearray(top.translate(table))
                i = top.find(edge)
                while i >= 0:
                    w0, w1 = unpack_from("<II", raw, stride * i + 8 * j - 8)
                    u = ((w0 >> 5) * 67108864.0 + (w1 >> 6)) / 9007199254740992.0
                    if u >= step:
                        more[i] = 49  # ord("1")
                    i = top.find(edge, i + 1)
                have = int(more, 2)
                if not have:
                    break
                for s in range(k, j - 1, -1):
                    plane[s] |= plane[s - j] & have
        free += b - plane[k].bit_count()
    return McEstimate(free / samples, _binomial_stderr(free, samples), samples, seed)


def sample_finite_fix(n: int, k: int, samples: int, seed: int) -> McEstimate:
    """Fraction of uniform random permutations of Sym_n fixing some k-subset.

    Cycle types are drawn without building permutations: with r points
    left, the cycle through the smallest one has length uniform on
    {1..r}. Deterministic in (n, k, samples, seed).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    full = (1 << (k + 1)) - 1
    fixes = 0
    left = samples
    bits, r = 1, n
    # one flat loop over the cycles of all samples; for u * r >= 0,
    # __floor__ gives what int() gives, without the cost of a type call
    for u in starmap(rng.random, repeat(())):
        length = (u * r).__floor__() + 1
        if length <= k:
            bits |= bits << length & full
        r -= length
        if not r:
            if bits >> k & 1:
                fixes += 1
            left -= 1
            if not left:
                break
            bits, r = 1, n
    return McEstimate(fixes / samples, _binomial_stderr(fixes, samples), samples, seed)
