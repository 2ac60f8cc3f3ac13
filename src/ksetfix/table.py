"""Enumeration of all k-free rows in decreasing lexicographic order.

A *row* for parameter k is a multiplicity tuple (m_1, ..., m_{k-1}) that
is k-free, with m_j < k/j at every position. Cycles of length exactly k
can never occur in a k-free partition, so position k is omitted from the
representation and rows have length k-1 (k=1 has the single empty row).

One step, :func:`_descend`, classifies the multiplicities of a position
after a row prefix. It reads only the prefix's key: its achievable sums,
the usable divisors dividing all its parts, and its running size. It
tries the largest admissible multiplicity first and goes down until one
keeps the prefix k-free (0 always does, since prefixes of k-free rows
are k-free); that one and every smaller one are the prefix's children,
k-free without a retest. Each try is classified by a three-stage test,
and the step returns how many tries ended in each stage: rejected as
reaching size k with everything below achievable (universality),
accepted by the divisibility criterion, or settled by
:func:`~ksetfix.partitions.part_ladder`'s achievable sums. The tests
hold the outcomes to an oracle that runs the three stages on each whole
extended prefix, its divisibility stage from ``tests/reference_data.py``.

:func:`enumerate_rows` counts: a dynamic programme runs the step once
per key, merging the prefixes that share a key and weighting each key's
tallies with their number. That gives the counters of a walk over every
prefix, as one :class:`TableStats`, in time that grows with the number
of keys, not of rows. The limiting commands check their row count and
print the pruning counters from it. :func:`write_rows` writes: it walks
the rows depth-first, branching on :func:`part_ladder` at the positions
j <= k/2 and taking the larger ones in the limiting engine's closed
form, writes them as CSV text, one block of lines per prefix, and
returns their number. The tests parse the text, and walk :func:`_descend`
as the oracle.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, NamedTuple

from .partitions import free_large_parts, part_ladder

Key = tuple[int, int, int]


class TableStats(NamedTuple):
    """Row and pruning counters for one enumeration run.

    :func:`enumerate_rows` builds partials_considered as the sum
    pruned_universal + pruned_divisibility + full_tests. The split
    depends on the descent order; ``limit`` prints it, and the tests
    and the benchmark's expected ``limit`` output pin it.
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


def _descend(
    k: int, j: int, key: Key, div_of: list[int]
) -> tuple[list[tuple[int, Key]], int, int, int]:
    """Classify position j after a prefix with ``key``; return its children.

    A key is (achievable sums trimmed by :func:`part_ladder`, usable
    divisors dividing every part, running size while no position u has a
    running size below u, else -1). The step tries m = floor((k-1)/j)
    down to 0 and returns the list of (m, child key) for the accepted m
    and every smaller m, followed by how many tries universality
    rejected, divisibility accepted and the achievable sums settled.
    """
    reach, compat, size = key
    ub = position_bound(k, j)
    ladder = part_ladder(reach, j, k)  # the m for which k stays unreachable
    div = div_of[j]
    universal = divisible = full = 0
    for top in range(ub, -1, -1):
        if size >= 0 and size + j * top >= k:
            # sizes 0..size+j*top all achievable, k among them: not k-free
            universal += 1
            continue
        if compat & div if top else compat:
            divisible = 1
            break
        full += 1
        if top < len(ladder):
            break
    else:
        raise AssertionError("m=0 must keep a k-free prefix k-free")
    children = []
    for m in range(top, -1, -1):
        sz = size + j * m
        children.append((m, (
            ladder[m],
            compat & div if m else compat,
            sz if size >= 0 and sz >= j else -1,
        )))
    return children, universal, divisible, full


def enumerate_rows(k: int) -> TableStats:
    """Count the k-free rows and their pruning counters, one step per key."""
    if k < 1:
        raise ValueError("k must be >= 1")
    usable_d, div_of = _divisor_masks(k)
    states = {(1, usable_d, 0): 1}
    universal = divisible = full = 0
    for j in range(1, k):
        nxt: dict[Key, int] = {}
        for key, count in states.items():
            children, u, d, f = _descend(k, j, key, div_of)
            universal += u * count
            divisible += d * count
            full += f * count
            for _, child in children:
                nxt[child] = nxt.get(child, 0) + count
        states = nxt
    rows = sum(states.values())
    return TableStats(rows, universal + divisible + full, universal, divisible, full)


def write_rows(k: int, write: Callable[[str], object]) -> int:
    """Pass the k-free rows to ``write`` as CSV text; return how many it wrote.

    The rows come in decreasing lexicographic order, from (k-1, 0, ..., 0)
    to all zeros, one block of lines per prefix of the positions j <= k/2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def walk(j: int, reach: int, prefix: str) -> int:
        if 2 * j > k:  # the closed form in part_ladder's docstring
            free = free_large_parts(reach, k)
            tails = [",".join(tail) for tail in product(
                *[("1", "0") if free >> (i - 1) & 1 else ("0",) for i in range(j, k)])]
            head = prefix if j < k else prefix[:-1]  # j == k: no tail to follow
            write(head + ("\n" + head).join(tails) + "\n")
            return len(tails)
        ladder = part_ladder(reach, j, k)
        return sum(walk(j + 1, ladder[m], f"{prefix}{m},")
                   for m in range(len(ladder) - 1, -1, -1))

    return walk(1, 1, "")
