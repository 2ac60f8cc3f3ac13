"""Enumeration of all k-free rows in decreasing lexicographic order.

A *row* for parameter k is a multiplicity tuple (m_1, ..., m_{k-1}) that
is k-free, with m_j < k/j at every position. Cycles of length exactly k
can never occur in a k-free partition, so position k is omitted from the
representation and rows have length k-1 (k=1 has the single empty row).

The walk is depth-first with in-place backtracking: extend the current
partial row one position at a time, choosing at each new position the
largest multiplicity that keeps the partial row k-free (0 always works,
since prefixes of k-free rows are k-free); emit when complete; then strip
trailing zeros and decrement the last nonzero entry, which again yields a
k-free partial row without retesting.

Each candidate multiplicity tried during an extension is classified by
the three-stage test of :mod:`ksetfix.partitions` and counted in
:class:`TableStats`: rejected as reaching size k with everything below
achievable (universality), accepted by the divisibility criterion, or
settled by the knapsack bit vector. The stage outcomes are computed
incrementally from per-prefix state (running size, compatible divisors,
achievability ladders) but agree with the plain module-level functions.

Called without a consumer, :func:`enumerate_rows` visits no row: a
dynamic programme over row prefixes, keyed by what the walk's tests read,
gives the same counters in time that grows with the number of keys, not
of rows. The limiting commands check their row count and print the
pruning counters from it. The walk itself serves the row stream of
``limit --emit-rows`` and the tests, as the row-by-row oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

RowSink = Callable[[tuple[int, ...]], None]


@dataclass
class TableStats:
    """Row and pruning counters for one enumeration run.

    partials_considered always equals pruned_universal +
    pruned_divisibility + full_tests; the split depends on the descent
    order and is diagnostic rather than contractual.
    """

    rows_emitted: int = 0
    partials_considered: int = 0
    pruned_universal: int = 0
    pruned_divisibility: int = 0
    full_tests: int = 0


def position_bound(k: int, j: int) -> int:
    """Largest admissible multiplicity at position j: the largest m < k/j."""
    return (k - 1) // j


def _divisor_masks(k: int) -> tuple[int, list[int]]:
    """The divisors that certify k-freeness, as bit masks.

    Bit d-2 stands for a d in 2..k//2 that does not divide k. Returns the
    mask of all such d and, for every part size j < k, the mask of those
    dividing j; a prefix passes the divisibility test while the AND of
    its parts' masks is nonzero.
    """
    usable = 0
    div_of = [0] * k
    for d in range(2, k // 2 + 1):
        if k % d:
            bit = 1 << (d - 2)
            usable |= bit
            for j in range(d, k, d):
                div_of[j] |= bit
    return usable, div_of


def enumerate_rows(k: int, consumer: RowSink | None = None) -> TableStats:
    """Deliver every k-free row exactly once, in decreasing lexicographic order.

    The first row is (k-1, 0, ..., 0) and the last is all zeros. Without
    a consumer no row is visited: :func:`_count_rows` returns the same
    counters.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if consumer is None:
        return _count_rows(k)
    stats = TableStats()
    if k == 1:
        consumer(())
        stats.rows_emitted = 1
        return stats

    length = k - 1
    kbit = 1 << k
    full = (1 << (k + 1)) - 1
    bounds = [position_bound(k, j) for j in range(1, k)]
    usable_d, div_of = _divisor_masks(k)

    ms: list[int] = []
    # per-depth prefix state, index = prefix length
    ladders: list[list[int]] = [[1]]  # ladders[i][m]: achievability of ms[:i-1]+(m,)
    compat = [usable_d]  # usable divisors still dividing every part size present
    alive = [True]  # no prefix position u has running size < u
    size = [0]

    def push_level(j: int, ub: int) -> list[int]:
        base = ladders[j - 1][ms[j - 2]] if j > 1 else 1
        ladder = [base]
        for _ in range(ub):
            prev = ladder[-1]
            ladder.append(prev | (prev << j) & full)
        ladders.append(ladder)
        return ladder

    def descend(j: int, hi: int, lo: int, ladder: list[int]) -> bool:
        """Try m = hi..lo at position j; push the first k-free one."""
        pre_alive = alive[j - 1]
        pre_size = size[j - 1]
        pre_compat = compat[j - 1]
        for m in range(hi, lo - 1, -1):
            stats.partials_considered += 1
            sz = pre_size + j * m
            if pre_alive and sz >= k:
                # sizes 0..sz all achievable, k among them: not k-free
                stats.pruned_universal += 1
                continue
            c = pre_compat & div_of[j] if m else pre_compat
            if c:
                stats.pruned_divisibility += 1
            else:
                stats.full_tests += 1
                if ladder[m] & kbit:
                    continue
            ms.append(m)
            compat.append(c)
            alive.append(pre_alive and sz >= j)
            size.append(sz)
            return True
        return False

    while True:
        depth = len(ms)
        if depth < length:
            j = depth + 1
            ub = bounds[depth]
            if not descend(j, ub, 0, push_level(j, ub)):
                raise AssertionError("m=0 must keep a k-free prefix k-free")
            continue
        consumer(tuple(ms))
        stats.rows_emitted += 1
        # backtrack: strip trailing zeros, decrement the last nonzero
        while ms and ms[-1] == 0:
            ms.pop()
            ladders.pop()
            compat.pop()
            alive.pop()
            size.pop()
        if not ms:
            return stats
        j = len(ms)
        m = ms[-1] - 1
        ms[-1] = m
        sz = size[j - 1] + j * m
        size[j] = sz
        alive[j] = alive[j - 1] and sz >= j
        compat[j] = compat[j - 1] & div_of[j] if m else compat[j - 1]


def _count_rows(k: int) -> TableStats:
    """The walk's counters, from a dynamic programme over row prefixes.

    The walk calls ``descend`` once on every k-free prefix, and what
    ``descend`` counts and accepts depends only on the prefix's key: its
    achievable sums, the usable divisors dividing all its parts, and its
    running size while it is alive (-1 after). So the programme keeps the
    number of prefixes per key and replays ``descend`` once per key,
    weighting each counter with that number. After position j, the full
    tests of later positions j' read only bits k - i*j' (i >= 1) of the
    achievable sums, all below k - j, so the higher bits are dropped and
    more prefixes share a key.
    """
    stats = TableStats()
    kbit = 1 << k
    full = (1 << (k + 1)) - 1
    usable_d, div_of = _divisor_masks(k)
    # (achievable sums, usable divisors of every part, size or -1) -> prefixes
    states = {(1, usable_d, 0): 1}
    for j in range(1, k):
        ub = position_bound(k, j)
        keep = (1 << (k - j)) - 1
        div = div_of[j]
        nxt: dict[tuple[int, int, int], int] = {}
        for (reach, compat, size), count in states.items():
            ladder = [reach]
            for _ in range(ub):
                prev = ladder[-1]
                ladder.append(prev | (prev << j) & full)
            for top in range(ub, -1, -1):
                stats.partials_considered += count
                if size >= 0 and size + j * top >= k:
                    stats.pruned_universal += count
                    continue
                if compat & div if top else compat:
                    stats.pruned_divisibility += count
                    break
                stats.full_tests += count
                if not ladder[top] & kbit:
                    break
            # the walk goes on from top, top-1, ..., 0 without retesting
            for m in range(top, -1, -1):
                sz = size + j * m
                key = (
                    ladder[m] & keep,
                    compat & div if m else compat,
                    sz if size >= 0 and sz >= j else -1,
                )
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    stats.rows_emitted = sum(states.values())
    return stats


def rows_count(k: int) -> int:
    """Number of k-free rows."""
    return enumerate_rows(k).rows_emitted

