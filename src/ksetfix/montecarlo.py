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
bit k stays clear. This decides exactly what
:func:`ksetfix.partitions.is_k_free` decides on the drawn vector, from
the same stream, so the estimates do not depend on which route runs.
The step is inline rather than a call of
:func:`ksetfix.partitions.part_ladder`, which gives its rule.

The finite sampler calls ``random()`` once per cycle and folds each
cycle into the knapsack as it is drawn. The limiting sampler reads the
same stream in blocks of samples. It rests on an identity of CPython's
Mersenne Twister: ``getrandbits(64 * N)``, written as 8N little-endian
bytes, advances the generator exactly as N calls of ``random()`` do, and
draw i is the pair of 32-bit words at byte 8i, with ``random()`` equal
to ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``. Byte 8i + 3, the top
byte of w0, is then ``floor(256 * u)``. For almost every byte value the
whole interval of u it stands for inverts to one capped count, so one
256-byte table per position turns a column of draws into counts at
once; the draws in the other intervals (under 1 %) rebuild u and
bisect. Each distinct row of counts is then decided once.
``test_random_stream_identity`` in ``tests/test_montecarlo.py`` pins the
identity, so the tests fail if CPython ever changes it.

Estimates come with the binomial standard error sqrt(p(1-p)/S).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import compress, repeat, starmap
from math import exp, sqrt
from struct import iter_unpack, unpack_from
from typing import NamedTuple

# not used here; the benchmark's tracer hooks this name on this module
from .partitions import is_k_free  # noqa: F401

# Poisson counts above this would signal a broken CDF table (for means
# <= 1 the chance of even 30 is astronomically small)
_COUNT_CAP = 64
# a byte-table entry whose byte interval of u straddles a CDF step
_UNDECIDED = 255
# draws per block of the limiting sampler: 8 bytes each, 64 KB a block
_BLOCK_DRAWS = 8192
# distinct count rows whose verdicts the limiting sampler keeps at once
_VERDICT_CACHE = 65536


class McEstimate(NamedTuple):
    """A sampled proportion with its binomial standard error, sample
    count and seed: the four numbers ``ksetfix mc`` prints."""

    estimate: float
    std_error: float
    samples: int
    seed: int

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


def _byte_table(cdf: list[float]) -> bytes:
    """Entry t: bisect_right(cdf, u) for every u in [t/256, (t+1)/256).

    The entry is 255 where that interval holds a step of the CDF, so
    that u itself decides the count.
    """
    table = bytearray()
    for m, step in enumerate(cdf):  # the count is m for u < step
        edge = step * 256
        byte = int(edge)
        table += bytes([m]) * (byte - len(table))
        if byte < edge and len(table) == byte:  # the step is inside this byte
            table.append(_UNDECIDED)
    table += bytes([len(cdf)]) * (256 - len(table))
    return bytes(table)


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
    sizes = range(1, k + 1)
    cdfs = [_poisson_cdf(1.0 / j)[:k // j] for j in sizes]
    tables = [_byte_table(cdf) for cdf in cdfs]
    row_format = f"{k}s"  # one sample's k counts
    full = (1 << (k + 1)) - 1
    verdicts: dict[tuple[bytes], bool] = {}
    block = max(1, _BLOCK_DRAWS // k)
    stride = 8 * k
    free = 0
    for start in range(0, samples, block):
        draws = k * min(block, samples - start)
        raw = rng.getrandbits(64 * draws).to_bytes(8 * draws, "little")
        counts = bytearray(draws)
        for p, table in enumerate(tables):
            counts[p::k] = raw[8 * p + 3::stride].translate(table)
        i = counts.find(_UNDECIDED)
        while i >= 0:
            w0, w1 = unpack_from("<II", raw, 8 * i)  # as random() reads them
            u = ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 9007199254740992.0)
            counts[i] = bisect_right(cdfs[i % k], u)
            i = counts.find(_UNDECIDED, i + 1)
        rows = list(iter_unpack(row_format, counts))
        if len(verdicts) >= _VERDICT_CACHE:
            verdicts.clear()
        for key in set(rows).difference(verdicts):
            ms = key[0]
            bits = 1
            for j in compress(sizes, ms):  # ms[j - 1] <= k // j copies
                for _ in range(ms[j - 1]):
                    bits |= bits << j & full
            verdicts[key] = not bits >> k & 1
        free += sum(map(verdicts.__getitem__, rows))
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
