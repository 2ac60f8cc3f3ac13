"""Integer partitions as multiplicity vectors, with subpartition-size tests.

A partition is stored as a tuple ``ms`` of non-negative counts where
``ms[j-1]`` is the number of parts of size ``j`` (so ``(3,)`` is the
partition 1+1+1 and ``(1, 0, 1)`` is 1+3). Trailing zeros are permitted
and carry no meaning. A *subpartition* is a sub-multiset of the parts;
its size is the sum of the chosen parts. A partition is *k-free* when no
subpartition has size exactly k.

The k-free decision is layered: a cheap prefix-sum criterion certifies
that every size up to some threshold is achievable, a divisibility
criterion certifies k-freeness outright for some inputs, and a bounded
knapsack over a bit vector settles the rest. No command calls these
tests at run time: the row table, the finite engine and the Monte Carlo
samplers carry achievable-sum masks of their own. ``is_k_free`` is the
public API, and the oracle the tests hold those masks to.
"""

from __future__ import annotations

from typing import Sequence

Multiplicities = Sequence[int]


def universality_index(ms: Multiplicities) -> int:
    """Largest s such that subpartitions of every size <= s exist.

    The partition has subpartitions of all sizes up to s exactly when
    sum_{j<=u} j*m_j >= u for every u <= s. Scanning prefix sums, the
    first position u where the sum falls short bounds s at u-1 (and the
    shortfall forces the running sum to equal u-1 there); if no prefix
    fails, every size up to the full partition size is achievable and
    that size is returned. The empty partition gives 0.
    """
    total = 0
    for j, m in enumerate(ms, start=1):
        total += j * m
        if total < j:
            return j - 1
    return total


def divisibility_free(k: int, ms: Multiplicities) -> bool:
    """Sufficient (not necessary) test that ms is k-free.

    True iff some d in {2..k//2} does not divide k while every part size
    present is a multiple of d: all subpartition sizes are then multiples
    of d, so none can equal k. A False result decides nothing.
    """
    for d in range(2, k // 2 + 1):
        if k % d and all(j % d == 0 or m == 0 for j, m in enumerate(ms, start=1)):
            return True
    return False


def achievable_sizes_mask(ms: Multiplicities, cap: int) -> int:
    """Bit vector of achievable subpartition sizes, truncated to {0..cap}.

    Bit s is set iff some sub-multiset of the parts sums to s. Bounded
    knapsack: fold in one part of size j at a time, up to min(m_j, cap//j)
    copies, stopping early once extra copies stop changing the vector.
    Truncation at cap is sound for membership queries <= cap because any
    sub-multiset total <= cap has all its running sums <= cap.
    """
    full = (1 << (cap + 1)) - 1
    bits = 1
    for j, m in enumerate(ms, start=1):
        if m == 0 or j > cap:
            continue
        for _ in range(min(m, cap // j)):
            new = bits | (bits << j) & full
            if new == bits:
                break
            bits = new
    return bits


def is_k_free(k: int, ms: Multiplicities) -> bool:
    """True iff no subpartition of ms has size exactly k.

    Layered test, equivalent to the knapsack alone: a partition that is
    universal past k certainly has a size-k subpartition; one passing the
    divisibility criterion certainly has none; otherwise ask the bit
    vector.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if universality_index(ms) >= k:
        return False
    if divisibility_free(k, ms):
        return True
    return not achievable_sizes_mask(ms, k) >> k & 1

