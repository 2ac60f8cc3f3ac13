"""Integer partitions as multiplicity vectors, with subpartition-size tests.

A partition is stored as a tuple ``ms`` of non-negative counts where
``ms[j-1]`` is the number of parts of size ``j`` (so ``(3,)`` is the
partition 1+1+1 and ``(1, 0, 1)`` is 1+3). Trailing zeros are permitted
and carry no meaning. A *subpartition* is a sub-multiset of the parts;
its size is the sum of the chosen parts. A partition is *k-free* when no
subpartition has size exactly k.

The k-free decision is one bounded knapsack over a bit vector of
achievable sizes, :func:`is_k_free`. No command calls it at run time:
the engines carry achievable-sum masks of their own, and ``is_k_free``
is the public API and their test oracle, as :func:`universality_index`
is the oracle of the first stage of the row table's pruning tallies.
:func:`part_ladder` and :func:`free_large_parts` are run-time code: the
limiting programme and the row table grow and trim their masks by them,
and the finite programme spells out the same two rules inline.
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
    """True iff no subpartition of ms has size exactly k: bit k of the knapsack."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return not achievable_sizes_mask(ms, k) >> k & 1


def part_ladder(reach: int, j: int, k: int) -> list[int]:
    """Entry m: the sums ``reach`` with m parts j added, below bit k - j.

    ``reach`` is the achievable-sum mask of a prefix of parts below j,
    and m runs up to (k-1)//j. The list ends before the first m whose
    sums hold k, so a ``reach`` that already holds k gives ``[]``.

    Trimming: later parts j' > j test bits k - i*j' (i >= 1), and the
    limiting closed form for j' > k/2 reads bits k - j', all below k - j,
    so prefixes that differ only in higher bits can share a state. The
    test for k here reads bits k - i*j <= k - j of ``reach``, so a mask
    trimmed after part j - 1 gives the same list.

    Large parts: for k/2 < j < k, m_j is 0 or 1, and 1 is allowed
    exactly when bit k - j of the mask left by the parts up to k/2 is
    clear, whatever the other large parts are: each adds only sums above
    k/2 > k - j. The engines settle them by :func:`free_large_parts`:
    the limiting programme and the row table call it, and the finite
    programme, where any number of j-cycles is allowed under the same
    condition, tests bit k - j of each mask group inline.
    """
    kbit = 1 << k
    keep = (1 << (k - j)) - 1
    ladder = []
    for _ in range((k - 1) // j + 1):
        if reach & kbit:
            break
        ladder.append(reach & keep)
        reach |= reach << j
    return ladder


def free_large_parts(reach: int, k: int) -> int:
    """Bits j - 1 of the k/2 < j < k that part_ladder's rule frees after ``reach``."""
    return sum(1 << (j - 1) for j in range(k // 2 + 1, k) if not reach >> (k - j) & 1)
