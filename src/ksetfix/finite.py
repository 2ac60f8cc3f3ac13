"""Exact k-subset fixing probabilities for finite symmetric groups.

A permutation of degree n fixes some k-subset exactly when its cycle
type, read as a partition of n, has a subpartition of size k (the fixed
subset is a union of cycles). The probability of cycle type t is 1/z(t),
with z(t) = prod_j j^{m_j} m_j! the order of its centralizer, so the
fixing probability is a sum of exact unit fractions over the partitions
of n, with denominator dividing n!.

Partitions are never built. Whether a cycle type reaches every k <= cap
depends only on the achievable-sum mask of its parts up to cap, so one
dynamic programme over the part lengths j = 1..cap serves every n <= n_max
and every k <= cap at once. Its states are, per total size s of the parts
folded so far, {mask: sum of n_max!/z}, always an integer. A state whose
size leaves no room for another part up to cap is settled into per-(s, k)
totals at once, so the live states stay few. Parts longer than cap never
change the mask; they fill the remaining n - s points in closed form,
through the number of permutations of n - s points whose cycles are all
longer than cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

# not used here; the benchmark's tracer hooks these names on this module
from .partitions import achievable_sizes_mask, universality_index  # noqa: F401
from .precision import format_scaled, round_div


@dataclass(frozen=True)
class FiniteResult:
    """Exact fixing and survival probabilities for one (n, k)."""

    n: int
    k: int
    fix_probability: Fraction
    survival: Fraction


def fixing_count_table(n_max: int, cap: int) -> list[list[int]]:
    """counts[n][k] = number of permutations of Sym_n fixing some k-subset.

    Covers every n <= n_max and k <= min(cap, n); counts[n][0] is n!.
    Parts j = 1..cap are folded in bounded-knapsack order (sizes from the
    largest down), dividing the weight n_max!/z by j*m for the m-th copy
    of j, which is always exact.
    """
    if n_max < 1 or cap < 1:
        raise ValueError("need n_max >= 1 and cap >= 1")
    fact = [1]
    for i in range(1, n_max + 1):
        fact.append(fact[-1] * i)
    full = (1 << cap + 1) - 1
    live: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    live[0][1] = fact[n_max]
    # totals[s][k] = weight[s] - missing[s][k]: most masks have more bits
    # set than clear, so settling walks the clear bits
    weight = [0] * (n_max + 1)
    missing = [[0] * (cap + 1) for _ in range(n_max + 1)]

    def settle(s: int, mask: int, w: int) -> None:
        weight[s] += w
        row = missing[s]
        gaps = ~mask & full
        while gaps:
            low = gaps & -gaps
            row[low.bit_length() - 1] += w
            gaps ^= low

    for j in range(1, cap + 1):
        # after this layer, a state of size above limit has no room for
        # any part j+1..cap, so it is settled instead of kept
        limit = n_max - j - 1 if j < cap else -1
        for s in range(n_max - j, -1, -1):
            for mask, w in live[s].items():
                t, m = s, 0
                while t + j <= n_max:
                    t += j
                    m += 1
                    mask |= mask << j & full
                    w //= j * m
                    if t > limit:
                        settle(t, mask, w)
                    else:
                        layer = live[t]
                        layer[mask] = layer.get(mask, 0) + w
            if s > limit:
                for mask, w in live[s].items():
                    settle(s, mask, w)
                live[s] = {}

    # big[r]: permutations of r points whose cycles are all longer than cap
    big = [1] + [0] * n_max
    for r in range(cap + 1, n_max + 1):
        big[r] = sum(
            fact[r - 1] // fact[r - length] * big[r - length]
            for length in range(cap + 1, r + 1)
        )
    counts = []
    for n in range(n_max + 1):
        row = [0] * (min(cap, n) + 1)
        for s in range(n + 1):
            if big[n - s]:
                scale, div = fact[n] * big[n - s], fact[n_max] * fact[n - s]
                for k in range(len(row)):
                    row[k] += (weight[s] - missing[s][k]) * scale // div
        counts.append(row)
    return counts


def fixing_counts(n: int, k_cap: int) -> list[int]:
    """counts[k] = number of permutations of Sym_n fixing some k-subset, k <= k_cap.

    counts[0] is n! for convenience.
    """
    if not 1 <= k_cap <= n:
        raise ValueError("need 1 <= k_cap <= n")
    return fixing_count_table(n, k_cap)[n]


def finite_fix_probability(n: int, k: int) -> FiniteResult:
    """Exact probability that a uniform permutation of Sym_n fixes a k-subset."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    counts = fixing_counts(n, k)
    fix = Fraction(counts[k], counts[0])
    return FiniteResult(n, k, fix, 1 - fix)


def exceptions(n_max: int) -> set[tuple[int, int]]:
    """All (n, k) with 2(k+1) <= n <= n_max where the fix probability rises in k.

    Returns the pairs with fix(n, k) < fix(n, k+1), compared exactly on
    integer permutation counts. Only pairs whose two columns both lie in
    the k <= n/2 half are scanned: past the midpoint the probabilities
    mirror (a permutation fixes a set iff it fixes the complement), so
    every n = 2k pair would trivially qualify and carries no information.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    table = fixing_count_table(n_max, n_max // 2)
    return {
        (n, k)
        for n in range(4, n_max + 1)
        for k in range(1, n // 2)
        if table[n][k] < table[n][k + 1]
    }


def format_probability(value: Fraction, digits: int) -> str:
    """value as a decimal string with ``digits`` places, ties to even."""
    scaled = round_div(value.numerator * 10**digits, value.denominator)
    return format_scaled(scaled, digits)


def finite_table(
    n_max: int,
    k_max: int,
    digits: int,
    *,
    survival: bool = False,
) -> Iterator[tuple[int, int, str]]:
    """Rows (n, k, value) for 2 <= n <= n_max, 1 <= k <= min(n//2, k_max).

    Values are fixing probabilities, or their complements with
    ``survival=True``, rounded to ``digits`` places.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    table = fixing_count_table(n_max, min(n_max // 2, k_max))
    for n in range(2, n_max + 1):
        counts = table[n]
        for k in range(1, min(n // 2, k_max) + 1):
            num = counts[0] - counts[k] if survival else counts[k]
            yield n, k, format_scaled(round_div(num * 10**digits, counts[0]), digits)
