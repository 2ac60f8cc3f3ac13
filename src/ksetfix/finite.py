"""Exact k-subset fixing probabilities for finite symmetric groups.

A permutation of degree n fixes some k-subset exactly when its cycle
type, read as a partition of n, has a subpartition of size k (the fixed
subset is a union of cycles). The probability of cycle type t is 1/z(t),
with z(t) = prod_j j^{m_j} m_j! the order of its centralizer, so the
fixing probability is a sum of exact unit fractions over the partitions
of n, with denominator dividing n!.

Partitions are never built. For one k, :func:`survival_counts` folds
every cycle length j = 1..n_max, in one loop, into states (size,
achievable-sum mask) -> sum of n_max!/z, an integer. The mask keeps
only the sums that can still grow to exactly k, so it rejects a k-cycle
and is empty from there on: longer cycles lie in no k-subset, and they
are folded in over sizes alone, with the same weights. One run serves
every n <= n_max; tables over several k run it per k.
"""

from __future__ import annotations

from math import factorial
from typing import TYPE_CHECKING, Iterator, NamedTuple

# not used here; the benchmark's tracer hooks these names on this module
from .partitions import achievable_sizes_mask, universality_index  # noqa: F401
from .precision import format_scaled, round_div

if TYPE_CHECKING:  # only finite_fix_probability builds one, and imports it there
    from fractions import Fraction


class FiniteResult(NamedTuple):
    """Exact fixing and survival probabilities for one (n, k)."""

    n: int
    k: int
    fix_probability: Fraction
    survival: Fraction


def survival_counts(n_max: int, k: int) -> list[int]:
    """alive[n] = number of permutations of Sym_n fixing no k-subset, n <= n_max.

    Parts j = 1..n_max are folded in increasing order over states (size
    s, achievable-sum mask) weighted by n_max!/z; the m-th copy of j
    divides the weight by j*m, which is always exact. A state is dropped
    once bit k is set, and after part j keeps only the bits below k - j,
    by the rule of :func:`ksetfix.partitions.part_ladder`, inline here as
    calls cost more at about 1.8 parts per state. Every mask holds bit 0,
    the empty sum, until part k: one k-cycle then sets bit k and is
    dropped, and the trim leaves mask 0, so from part k on each size has
    one state and only the weight rule acts. A state with no room for
    part j+1 is final and goes into its size's total, and alive[n] is
    total[n] scaled from n_max! down to n!.
    """
    if not 1 <= k <= n_max:
        raise ValueError("need 1 <= k <= n_max")
    fact = [1]
    for i in range(1, n_max + 1):
        fact.append(fact[-1] * i)
    kbit = 1 << k
    live: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    live[0][1] = fact[n_max]
    total = [0] * (n_max + 1)
    for j in range(1, n_max + 1):
        keep = (1 << max(k - j, 0)) - 1
        limit = n_max - j - 1  # larger sizes have no room for part j+1
        for s in range(n_max - j, -1, -1):
            states, live[s] = live[s], {}
            for mask, w in states.items():
                t, m = s, 0
                while True:
                    if t > limit:
                        total[t] += w
                    else:
                        layer, key = live[t], mask & keep
                        layer[key] = layer.get(key, 0) + w
                    t += j
                    m += 1
                    mask |= mask << j  # bits above k never reach bit k
                    if t > n_max or mask & kbit:
                        break
                    w //= j * m
    return [total[n] // (fact[n_max] // fact[n]) for n in range(n_max + 1)]


def fixing_count_table(n_max: int, cap: int) -> list[list[int]]:
    """counts[n][k] = number of permutations of Sym_n fixing some k-subset.

    Covers every n <= n_max and k <= min(cap, n); counts[n][0] is n!.
    One run of :func:`survival_counts` per k fills column k.
    """
    if n_max < 1 or cap < 1:
        raise ValueError("need n_max >= 1 and cap >= 1")
    counts = [[factorial(n)] + [0] * min(cap, n) for n in range(n_max + 1)]
    for k in range(1, min(cap, n_max) + 1):
        alive = survival_counts(n_max, k)
        for n in range(k, n_max + 1):
            counts[n][k] = counts[n][0] - alive[n]
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
    from fractions import Fraction

    survival = Fraction(survival_counts(n, k)[n], factorial(n))
    return FiniteResult(n, k, 1 - survival, survival)


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
