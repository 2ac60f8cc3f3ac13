"""Frozen reference values and independent oracles used across the suite.

The golden tables in tests/golden/*.csv and the constants here are
regression targets; the oracle functions recompute quantities by routes
deliberately different from the library's (direct enumeration, classical
recurrences, vectorized orbit tests, and the finite engine's former
one-knapsack-per-partition pass).

The slow paths the package no longer ships live here too: the limiting
engine's row-by-row weights, the exponential-polynomial algebra they
need (on ``Fraction`` coefficients, converted to and from the package's
integer numerators over one denominator), centralizer orders,
evaluation with every exponent as a ``Fraction``, and the Monte Carlo
samplers that build each drawn vector and call ``is_k_free``.
Functions that need ksetfix import it when called, because the
benchmark's tests load this module's constants without the package on
the path.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from itertools import permutations
from math import factorial, floor, lcm
from pathlib import Path
from typing import Iterator

GOLDEN_DIR = Path(__file__).parent / "golden"

# limiting fix probability at 8 places and row count, for k = 1..30
LIMIT_TABLE_8DP = {
    1: ("0.63212056", 1),
    2: ("0.55373968", 2),
    3: ("0.49658324", 4),
    4: ("0.46955773", 8),
    5: ("0.44145770", 15),
    6: ("0.42505870", 29),
    7: ("0.40848113", 53),
    8: ("0.39727771", 93),
    9: ("0.38516443", 187),
    10: ("0.37687192", 305),
    11: ("0.36773064", 561),
    12: ("0.36119415", 916),
    13: ("0.35396068", 2067),
    14: ("0.34855007", 2782),
    15: ("0.34256331", 5670),
    16: ("0.33807249", 8420),
    17: ("0.33297333", 19553),
    18: ("0.32907588", 23586),
    19: ("0.32472908", 61470),
    20: ("0.32132422", 71413),
    21: ("0.31750065", 193303),
    22: ("0.31449862", 216928),
    23: ("0.31110428", 508502),
    24: ("0.30842280", 532542),
    25: ("0.30538904", 2235240),
    26: ("0.30295361", 1817364),
    27: ("0.30021508", 5143197),
    28: ("0.29801340", 4961040),
    29: ("0.29550915", 17517544),
    30: ("0.29348611", 12022223),
}

# every (n,k) with 4 <= n <= 70, 2(k+1) <= n, where fix(n,k) < fix(n,k+1)
RISING_PAIRS_70 = {
    (30, 9), (36, 11), (39, 12), (42, 13), (45, 14), (47, 15), (48, 15),
    (51, 16), (53, 17), (54, 17), (57, 18), (59, 19), (60, 19), (63, 20),
    (64, 21), (65, 21), (66, 21), (68, 22), (69, 22), (70, 23),
}

# well-known constants, 30 places
E_MINUS_1_30DP = "0.367879441171442321595523770161"
LN_2_30DP = "0.693147180559945309417232121458"

# independently confirmed comparison-curve values (10 places)
DECAY_EXPONENT_10DP = "0.0860713321"
RATIO_K2_10DP = "0.3391984738"
RATIO_K4_10DP = "0.8635595373"

# limiting survival of the k=4 table rows, 6 places, in emission order
K4_ROW_VALUES_6DP = [
    "0.020752", "0.062257", "0.062257", "0.124514",
    "0.024630", "0.062257", "0.049259", "0.124514",
]


def load_golden_finite(which: str) -> dict[tuple[int, int], str]:
    """Golden 5-place finite tables keyed by (n, k); which is 'fix' or 'survival'."""
    path = GOLDEN_DIR / f"finite_{which}_5dp.csv"
    table = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            table[(int(row["n"]), int(row["k"]))] = row["value"]
    return table


def load_golden_limit_5dp() -> dict[int, str]:
    """Golden 5-place limiting fix probabilities for k = 1..30."""
    path = GOLDEN_DIR / "limit_fix_5dp.csv"
    table = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            table[int(row["k"])] = row["value"]
    return table


def brute_subpartition_sums(ms) -> set[int]:
    """All sub-multiset sums by direct expansion (no bit tricks, no caps)."""
    sums = {0}
    for j, m in enumerate(ms, start=1):
        if m:
            sums = {s + j * a for s in sums for a in range(m + 1)}
    return sums


def subpartition_sums(ms, cap: int) -> set[int]:
    """All achievable subpartition sizes in {0..cap}, read off the knapsack mask."""
    from ksetfix.partitions import achievable_sizes_mask

    if cap < 1:
        raise ValueError("cap must be >= 1")
    bits = achievable_sizes_mask(ms, cap)
    return {s for s in range(cap + 1) if bits >> s & 1}


def centralizer_size(ms) -> int:
    """Centralizer order prod_j j^m_j * m_j! of a permutation of cycle type ms.

    n!/centralizer_size(ms) counts the permutations of Sym_n with this
    cycle type, so 1/centralizer_size is the probability that a uniform
    permutation has it.
    """
    z = 1
    for j, m in enumerate(ms, start=1):
        if m:
            z *= j**m * factorial(m)
    return z


def brute_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as multiplicity tuples, by simple recursion."""

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    out = []
    for parts in rec(n, n):
        ms = [0] * (parts[0] if parts else 0)
        for p in parts:
            ms[p - 1] += 1
        out.append(tuple(ms))
    return out


def descending_part_lists(n: int) -> Iterator[list[int]]:
    """All partitions of n as weakly decreasing part lists, largest first.

    Successor rule: decrement the rightmost part exceeding 1 and repack
    everything after it greedily into parts no larger than the new value.
    The yielded list is reused between steps; copy it if retained.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    parts = [n]
    while True:
        yield parts
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        v = parts[i] - 1
        freed = len(parts) - i
        del parts[i:]
        parts.append(v)
        chunks, rest = divmod(freed, v)
        parts.extend([v] * chunks)
        if rest:
            parts.append(rest)


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as multiplicity tuples, in descending-lex part order."""
    for parts in descending_part_lists(n):
        ms = [0] * parts[0]
        for p in parts:
            ms[p - 1] += 1
        yield tuple(ms)


def partition_fixing_counts(n: int, k_cap: int) -> list[int]:
    """counts[k] = permutations of Sym_n fixing some k-subset, k <= k_cap.

    One pass over the partitions of n with one achievable-size knapsack
    per partition (skipped for partitions universal past k_cap), adding
    the class size n!/z to every k it reaches. counts[0] is n!.
    """
    from ksetfix.partitions import achievable_sizes_mask, universality_index

    nf = factorial(n)
    counts = [0] * (k_cap + 1)
    counts[0] = nf
    universal_weight = 0
    for ms in partitions_of(n):
        w = nf // centralizer_size(ms)
        if universality_index(ms) >= k_cap:
            universal_weight += w
            continue
        bits = achievable_sizes_mask(ms, k_cap)
        for k in range(1, k_cap + 1):
            if bits >> k & 1:
                counts[k] += w
    for k in range(1, k_cap + 1):
        counts[k] += universal_weight
    return counts


def partition_count_recurrence(n_max: int) -> list[int]:
    """Partition numbers p(0..n_max) by Euler's pentagonal recurrence."""
    p = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        g = 1
        total = 0
        while True:
            lo = g * (3 * g - 1) // 2
            hi = g * (3 * g + 1) // 2
            if lo > m and hi > m:
                break
            sign = 1 if g % 2 else -1
            if lo <= m:
                total += sign * p[m - lo]
            if hi <= m:
                total += sign * p[m - hi]
            g += 1
        p[m] = total
    return p


def brute_fix_fractions(n: int) -> dict[int, Fraction]:
    """fraction of Sym_n fixing some k-set, every k, by the literal orbit test.

    Vectorized over all n! permutations: a subset (bitmask) is fixed by a
    permutation iff its pointwise image equals itself. No cycle theory is
    consulted.
    """
    import numpy as np

    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    nf = perms.shape[0]
    bit_images = np.left_shift(1, perms)  # (n!, n); column i is 2**perm(i)
    hits = {k: np.zeros(nf, dtype=bool) for k in range(1, n + 1)}
    for mask in range(1, 1 << n):
        img = np.zeros(nf, dtype=np.int64)
        for i in range(n):
            if mask >> i & 1:
                img |= bit_images[:, i]
        hits[mask.bit_count()] |= img == mask
    return {k: Fraction(int(hits[k].sum()), nf) for k in range(1, n + 1)}


# --- exponential-polynomial algebra and the row-by-row limiting sum ---


def exponent_fraction(mask: int) -> Fraction:
    """The exact exponent sum_{j in S} 1/j for a bitmask S."""
    q = Fraction(0)
    j = 1
    while mask:
        if mask & 1:
            q += Fraction(1, j)
        mask >>= 1
        j += 1
    return q


def fraction_evaluate_scaled(poly, prec: int) -> int:
    """poly at scale 10**prec, with each term's exponent as a reduced Fraction.

    The evaluation oracle: the same exponential series as
    ``limits.evaluate_scaled``, which takes every exponent over one
    common denominator instead, combined with the coefficients as
    Fractions and floored once.
    """
    from ksetfix.precision import exp_neg_fraction

    total = Fraction(0)
    for mask, c in poly_fractions(poly).items():
        q = exponent_fraction(mask)
        total += c * exp_neg_fraction(q.numerator, q.denominator, prec)
    return floor(total)


def poly_from_fractions(mapping):
    """The ExpPoly with these rational coefficients, over their denominators' lcm."""
    from ksetfix.exppoly import ExpPoly

    coeffs = {mask: Fraction(c) for mask, c in mapping.items()}
    den = lcm(*(c.denominator for c in coeffs.values()))
    return ExpPoly(
        {mask: c.numerator * (den // c.denominator) for mask, c in coeffs.items()},
        den,
    )


def poly_fractions(poly) -> dict[int, Fraction]:
    """The coefficients of poly as Fractions, keyed by exponent mask."""
    return {mask: Fraction(c, poly.den) for mask, c in poly.terms.items()}


def exp_inv(j: int, coeff=1):
    """The single term coeff * e^{-1/j}."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return poly_from_fractions({1 << (j - 1): coeff})


def poly_one():
    """The constant polynomial 1."""
    return poly_from_fractions({0: 1})


def poly_add(a, b):
    """a + b, termwise, over the lcm of the two denominators."""
    from ksetfix.exppoly import ExpPoly

    den = lcm(a.den, b.den)
    out = {mask: c * (den // a.den) for mask, c in a.terms.items()}
    for mask, c in b.terms.items():
        out[mask] = out.get(mask, 0) + c * (den // b.den)
    return ExpPoly(out, den)


def poly_scaled(poly, factor):
    """Every coefficient of poly times a rational factor."""
    factor = Fraction(factor)
    return poly_from_fractions(
        {mask: c * factor for mask, c in poly_fractions(poly).items()}
    )


def poly_sub(a, b):
    """a - b, termwise."""
    return poly_add(a, poly_scaled(b, -1))


def poly_mul(a, b):
    """a * b; the operands' exponent sets must be disjoint term by term.

    Multiplying exponentials unions their exponent sets, which is exact
    only when no 1/j would appear twice in one exponent.
    """
    out: dict[int, Fraction] = {}
    for ma, ca in poly_fractions(a).items():
        for mb, cb in poly_fractions(b).items():
            if ma & mb:
                raise ValueError(
                    "product would repeat an exponent 1/j; operand "
                    "exponent sets must be disjoint"
                )
            out[ma | mb] = out.get(ma | mb, 0) + ca * cb
    return poly_from_fractions(out)


def coefficient_sum(poly) -> Fraction:
    """Value with every exponential replaced by 1 (a pure rational)."""
    return sum(poly_fractions(poly).values(), Fraction(0))


def capped_tail_weight(k: int, j: int) -> Fraction:
    """sum_{0 <= i < floor(k/j)} 1/(j^i i!), the weight subtracted by a capped factor."""
    return sum(
        (Fraction(1, j**i * factorial(i)) for i in range(k // j)), Fraction(0)
    )


def row_factor(k: int, j: int, m: int):
    """The weight x_j of multiplicity m at position j of a k-free row.

    x_j = e^{-1/j} / (j^m m!) below the cap floor(k/j), and at the cap
    1 - e^{-1/j} * capped_tail_weight(k, j), which charges the row with
    every tail multiplicity at once.
    """
    if not 1 <= j <= k:
        raise ValueError("need 1 <= j <= k")
    cap = k // j
    if not 0 <= m <= cap:
        raise ValueError("multiplicity out of range for this position")
    if m < cap:
        return exp_inv(j, Fraction(1, j**m * factorial(m)))
    return poly_sub(poly_one(), exp_inv(j, capped_tail_weight(k, j)))


def row_contribution(k: int, row):
    """Product of all position weights of a row, including the k-cycle factor.

    The row has length k-1; position k always carries multiplicity 0 and
    contributes the single factor e^{-1/k}. Summed over the k-free rows,
    this is the limiting survival polynomial.
    """
    if len(row) != k - 1:
        raise ValueError("row must have length k-1")
    poly = exp_inv(k)
    for j, m in enumerate(row, start=1):
        poly = poly_mul(poly, row_factor(k, j, m))
    return poly


# --- Monte Carlo samplers that test each drawn vector with is_k_free ---


def reference_sample_limit_survival(k: int, samples: int, seed: int):
    """The limiting sampler with one is_k_free call per drawn count vector.

    Same stream as ``montecarlo.sample_limit_survival`` (one uniform per
    position j = 1..k, inverted through the Poisson(1/j) CDF), but it
    builds each multiplicity tuple and asks the layered test.
    """
    import random
    from bisect import bisect_right

    from ksetfix.montecarlo import McEstimate, _binomial_stderr, _poisson_cdf
    from ksetfix.partitions import is_k_free

    uniform = random.Random(seed).random
    cdfs = [_poisson_cdf(1.0 / j) for j in range(1, k + 1)]
    free = 0
    for _ in range(samples):
        ms = tuple(bisect_right(cdf, uniform()) for cdf in cdfs)
        if is_k_free(k, ms):
            free += 1
    return McEstimate(free / samples, _binomial_stderr(free, samples), samples, seed)


def reference_sample_finite_fix(n: int, k: int, samples: int, seed: int):
    """The finite sampler with one is_k_free call per drawn cycle type.

    Same stream as ``montecarlo.sample_finite_fix`` (one uniform per
    cycle), but it counts the cycles up to length k in a list and asks
    the layered test.
    """
    import random

    from ksetfix.montecarlo import McEstimate, _binomial_stderr
    from ksetfix.partitions import is_k_free

    uniform = random.Random(seed).random
    totals = [0] * n
    fixes = 0
    for _ in range(samples):
        ms = [0] * k
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
