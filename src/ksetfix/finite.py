"""Exact k-subset fixing probabilities for finite symmetric groups.

A permutation of degree n fixes some k-subset exactly when its cycle
type, read as a partition of n, has a subpartition of size k (the fixed
subset is a union of cycles). The probability of cycle type t is
1/centralizer_size(t), so the fixing probability is a sum of exact unit
fractions over the partitions of n, with denominator dividing n!.

All partitions of one n are enumerated in a single pass that serves
every k at once: each partition's achievable-size bit vector is computed
once and the conjugacy-class size n!/z is added to every k it covers.
Partitions universal past the largest k short-circuit the bit vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator

from .partitions import achievable_sizes_mask, centralizer_size, universality_index
from .precision import format_scaled


@dataclass(frozen=True)
class FiniteResult:
    """Exact fixing and survival probabilities for one (n, k)."""

    n: int
    k: int
    fix_probability: Fraction
    survival: Fraction


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


def fixing_counts(n: int, k_cap: int) -> list[int]:
    """counts[k] = number of permutations of Sym_n fixing some k-subset, k <= k_cap.

    One pass over the partitions of n. counts[0] is n! for convenience.
    """
    if not 1 <= k_cap <= n:
        raise ValueError("need 1 <= k_cap <= n")
    nf = factorial(n)
    counts = [0] * (k_cap + 1)
    counts[0] = nf
    universal_weight = 0
    for parts in descending_part_lists(n):
        ms = [0] * parts[0]
        z = 1
        for p in parts:
            ms[p - 1] += 1
        for j, m in enumerate(ms, start=1):
            if m:
                z *= j**m * factorial(m)
        w = nf // z
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
    found = set()
    for n in range(4, n_max + 1):
        counts = fixing_counts(n, n // 2)
        for k in range(1, n // 2):
            if counts[k] < counts[k + 1]:
                found.add((n, k))
    return found


def format_probability(value: Fraction, digits: int) -> str:
    """value as a decimal string with ``digits`` places, ties to even."""
    return format_scaled(round(value * 10**digits), digits)


def _table_rows_for_n(args) -> list[tuple[int, int, str]]:
    n, k_max, digits, survival = args
    k_top = min(n // 2, k_max)
    if k_top < 1:
        return []
    counts = fixing_counts(n, k_top)
    out = []
    for k in range(1, k_top + 1):
        value = Fraction(counts[k], counts[0])
        if survival:
            value = 1 - value
        out.append((n, k, format_probability(value, digits)))
    return out


def finite_table(
    n_max: int,
    k_max: int,
    digits: int,
    *,
    survival: bool = False,
    jobs: int = 1,
) -> Iterator[tuple[int, int, str]]:
    """Rows (n, k, value) for 2 <= n <= n_max, 1 <= k <= min(n//2, k_max).

    Values are fixing probabilities, or their complements with
    ``survival=True``, rounded to ``digits`` places. With jobs > 1 the
    independent per-n passes run in a process pool; results stream in
    n order either way.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    work = [(n, k_max, digits, survival) for n in range(2, n_max + 1)]
    if jobs <= 1:
        for item in work:
            yield from _table_rows_for_n(item)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for rows in pool.map(_table_rows_for_n, work):
            yield from rows
