"""Exact k-subset fixing probabilities for finite symmetric groups.

A permutation of degree n fixes some k-subset exactly when its cycle
type, read as a partition of n, has a subpartition of size k (the fixed
subset is a union of cycles). The probability of cycle type t is 1/z(t),
with z(t) = prod_j j^{m_j} m_j! the order of its centralizer, so the
fixing probability is a sum of exact unit fractions over the partitions
of n, with denominator dividing n!.

Partitions are never built. For one k, :func:`survival_counts` folds
the cycle lengths j = 1..n_max into sums of n_max!/z, integers, in the
limiting programme's two phases. The lengths j <= k/2 go into states
(size, achievable-sum mask), whose mask keeps only the sums that can
still grow to exactly k. The live states are then gathered into one
size -> weight map per mask: a length k/2 < j < k goes, with any number
of copies, into the maps whose bit k - j is clear, and the maps merge
as the bits they differ in are read for the last time. One map is left
after length k - 1; a k-cycle never fits, and the longer cycles, which
lie in no k-subset, fold into that one list over sizes. One run serves
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

    Cycle lengths j = 1..n_max are folded in increasing order into
    partial cycle types weighted by n_max!/z; the m-th copy of j divides
    the weight by j*m, which is always exact. An achievable-sum mask
    keeps, after length j, only the sums below k - j, the ones later
    lengths read. The loop splits at h = k//2, in two phases:

    - Lengths j <= h fold into states (size, mask), by the rule of
      :func:`ksetfix.partitions.part_ladder`, inline here as calls cost
      more at about 1.8 parts per state. A state is dropped once bit k
      is set. A state with no room for length j+1 is final and goes
      into its size's total.
    - The live states are then gathered into one sparse size -> weight
      map per mask. A length h < j < k adds only sums above k - j, so it
      never changes a trimmed mask, and it is allowed, with any number
      of copies, exactly when bit k - j is clear: the rule of
      :func:`ksetfix.partitions.free_large_parts`, inline here too. It
      goes into those maps, and the maps whose masks differ only in bit
      k - j merge. Sizes with no room for length j+1 settle here too,
      and the copies of j that reach them are added once per size, from
      the folded weight summed over the maps. Every mask holds bit 0,
      so after length k - 1 one map is left, and a k-cycle never fits.
      It joins the totals, and the lengths above k fold into that one
      list over sizes.

    alive[n] is total[n] scaled from n_max! down to n!.
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
    for j in range(1, k // 2 + 1):
        keep = (1 << (k - j)) - 1
        div = [j * m for m in range(n_max // j + 1)]
        top = n_max - j  # sizes from top on have no room for length j+1
        for mask, w in live[top].items():
            total[top] += w
            if not mask << j & kbit:
                total[n_max] += w // j
        live[top] = {}
        for s in range(top - 1, -1, -1):
            states, layer = live[s], {}
            live[s] = layer
            for mask, w in states.items():
                key = mask & keep
                layer[key] = layer.get(key, 0) + w
                t, m = s + j, 1
                mask |= mask << j  # bits above k never reach bit k
                while t <= n_max and not mask & kbit:
                    w //= div[m]
                    if t >= top:
                        total[t] += w
                    else:
                        layer_t, key = live[t], mask & keep
                        layer_t[key] = layer_t.get(key, 0) + w
                    t += j
                    m += 1
                    mask |= mask << j
    groups: dict[int, dict[int, int]] = {}  # mask -> {size: weight}
    for s in range(n_max + 1):
        states, live[s] = live[s], {}
        for mask, w in states.items():
            if mask in groups:
                groups[mask][s] = w
            else:
                groups[mask] = {s: w}
    for j in range(k // 2 + 1, k):
        bit = 1 << (k - j)
        div = [j * m for m in range(n_max // j + 1)]
        top = n_max - j  # sizes from top on have no room for length j+1
        merged = {mask ^ bit: sizes for mask, sizes in groups.items() if mask & bit}
        # the copies of j that end from top on are final: they are added
        # to the totals once per size, from the folded weight summed here
        final = [0] * (n_max + 1)
        while groups:  # popped, so each map is freed once it is merged
            mask, sizes = groups.popitem()
            if mask & bit:
                continue
            # fold j in place, or into the map whose mask has bit k - j set
            into = merged.setdefault(mask, sizes)
            for s, w in list(sizes.items()):
                if s >= top:  # no room for length j+1
                    total[s] += w
                    del sizes[s]
                elif into is not sizes:
                    into[s] = into.get(s, 0) + w
                final[s] += w
                t, m = s + j, 1
                while t < top:
                    w //= div[m]
                    into[t] = into.get(t, 0) + w
                    t += j
                    m += 1
        for s, w in enumerate(final):
            if w:
                t, m = s + j, 1
                while t <= n_max:
                    w //= div[m]
                    if t >= top:
                        total[t] += w
                    t += j
                    m += 1
        groups = merged
    for sizes in groups.values():
        for s, w in sizes.items():
            total[s] += w
    for j in range(k + 1, n_max + 1):
        for s in range(n_max - j, -1, -1):
            w = total[s]
            if w:
                t, m = s + j, 1
                while t <= n_max:
                    w //= j * m
                    total[t] += w
                    t += j
                    m += 1
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
    if digits < 0:
        raise ValueError("digits must be >= 0")
    table = fixing_count_table(n_max, min(n_max // 2, k_max))
    for n in range(2, n_max + 1):
        counts = table[n]
        for k in range(1, min(n // 2, k_max) + 1):
            num = counts[0] - counts[k] if survival else counts[k]
            yield n, k, format_scaled(round_div(num * 10**digits, counts[0]), digits)
