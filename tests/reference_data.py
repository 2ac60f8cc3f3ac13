"""Frozen reference values and independent oracles used across the suite.

The golden tables in tests/golden/*.csv and the constants here are
regression targets; the oracle functions recompute quantities by routes
deliberately different from the library's (direct enumeration, classical
recurrences, orbit tests on bitsets over all permutations, and the
finite engine's three former routes: one knapsack per partition, one
all-k programme over untrimmed achievable-sum masks, and one loop over
every cycle length for one k).

The slow paths and helpers the package no longer ships live here too:
one walk over every prefix of the row table, which each row-table
oracle steps with its own classification, the divisibility stage of
its pruning oracle, and the paper's row weight, defined once with each
j-cycle weighted by x^j. The row products, summed by exponent mask,
are the one object both engines meet exactly: at x = 1 the limiting
survival, and as a power series in x the finite survival counts. Also
here: the exponential-polynomial algebra (on ``Fraction`` coefficients,
converted to and from the package's integer numerators over one
denominator), centralizer orders, evaluation with every exponent as a
``Fraction``, decimal strings of exact fractions, the Monte Carlo
samplers that build each drawn vector and call ``is_k_free``, the
test that an estimate lies within some standard errors of a target,
and ``run_cli``, the one way the tests run a command in process.
Functions that need ksetfix import it when called, because the
benchmark's tests load this module's constants without the package on
the path.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from functools import lru_cache
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


def divisibility_free(k: int, ms) -> bool:
    """Sufficient (not necessary) test that ms is k-free.

    True iff some d in {2..k//2} does not divide k while every part size
    present is a multiple of d: all subpartition sizes are then multiples
    of d, so none can equal k. A False result decides nothing.
    """
    for d in range(2, k // 2 + 1):
        if k % d and all(j % d == 0 or m == 0 for j, m in enumerate(ms, start=1)):
            return True
    return False


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


def mask_fixing_count_table(n_max: int, cap: int) -> list[list[int]]:
    """counts[n][k] = number of permutations of Sym_n fixing some k-subset.

    Covers every n <= n_max and k <= min(cap, n); counts[n][0] is n!.
    Parts j = 1..cap are folded in bounded-knapsack order (sizes from the
    largest down), dividing the weight n_max!/z by j*m for the m-th copy
    of j, which is always exact.

    The finite engine's former all-k programme: one run serves every
    k <= cap, on untrimmed masks of cap + 1 bits, and a state with no
    room for another part up to cap is settled into per-(s, k) totals.
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
    big = restricted_permutation_counts(n_max, range(cap + 1, n_max + 1))
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


def one_loop_survival_counts(n_max: int, k: int) -> list[int]:
    """alive[n] = number of permutations of Sym_n fixing no k-subset, n <= n_max.

    The finite engine's former one-loop programme. Parts j = 1..n_max
    are folded in increasing order over states (size s, achievable-sum
    mask) weighted by n_max!/z; the m-th copy of j divides the weight by
    j*m, which is always exact. A state is dropped once bit k is set,
    and after part j keeps only the bits below k - j. Every mask holds
    bit 0, the empty sum, until part k: one k-cycle then sets bit k and
    is dropped, and the trim leaves mask 0, so from part k on each size
    has one state and only the weight rule acts. A state with no room
    for part j+1 is final and goes into its size's total, and alive[n]
    is total[n] scaled from n_max! down to n!.
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


def restricted_permutation_counts(n: int, lengths) -> list[int]:
    """c[r] for r = 0..n: permutations of r points with every cycle length in lengths.

    The cycle through one fixed point has some length j and is one of
    (r-1)!/(r-j)! such cycles; the other r - j points are permuted alike.
    """
    fact = [factorial(i) for i in range(n + 1)]
    c = [1]
    for r in range(1, n + 1):
        c.append(sum(fact[r - 1] // fact[r - j] * c[r - j] for j in lengths if j <= r))
    return c


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

    Bitsets over all n! permutations: bit p of ``at[i][v]`` is set when
    permutation p sends i to v, so a subset S is fixed by exactly the
    permutations in the AND over i in S of the OR over v in S of
    ``at[i][v]``. No cycle theory is consulted.
    """
    perms = list(permutations(range(n)))
    nf = len(perms)
    digits = [[bytearray(b"0" * nf) for _ in range(n)] for _ in range(n)]
    for p, perm in enumerate(perms):
        for i, v in enumerate(perm):
            digits[i][v][p] = ord("1")
    at = [[int(row, 2) for row in rows] for rows in digits]
    hits = [0] * (n + 1)
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        fixed = -1
        for i in members:
            image = 0
            for v in members:
                image |= at[i][v]
            fixed &= image
        hits[len(members)] |= fixed
    return {k: Fraction(hits[k].bit_count(), nf) for k in range(1, n + 1)}


def format_probability(value: Fraction, digits: int) -> str:
    """value as a decimal string with ``digits`` places, ties to even."""
    from ksetfix.precision import format_scaled, round_div

    scaled = round_div(value.numerator * 10**digits, value.denominator)
    return format_scaled(scaled, digits)


# --- the row table's depth-first walk, and the CLI run in process ---


def prefix_walk(k: int, step, start, consumer):
    """The row table walked prefix by prefix; returns the walk's TableStats.

    ``step(j, state)`` classifies position j after a k-free prefix in
    ``state`` and returns its children, the accepted (m, child state)
    pairs from the largest m down, and how many tries universality
    rejected, divisibility accepted and a full test settled. The walk
    sums those tallies over every prefix, recurses into the children and
    hands each complete row to ``consumer``, in decreasing lexicographic
    order.
    """
    from ksetfix.table import TableStats

    row: list[int] = []
    rows = universal = divisible = full = 0

    def walk(j: int, state) -> None:
        nonlocal rows, universal, divisible, full
        if j == k:
            consumer(tuple(row))
            rows += 1
            return
        children, u, d, f = step(j, state)
        universal += u
        divisible += d
        full += f
        for m, child in children:
            row.append(m)
            walk(j + 1, child)
            row.pop()

    walk(1, start)
    return TableStats(rows, universal + divisible + full, universal, divisible, full)


def descend_walk(k: int, consumer):
    """``prefix_walk`` stepping with ``table._descend`` on every prefix's key.

    ``enumerate_rows`` runs the same step once per merged prefix key
    instead.
    """
    from ksetfix.table import _descend, _divisor_masks

    usable_d, div_of = _divisor_masks(k)
    return prefix_walk(
        k, lambda j, key: _descend(k, j, key, div_of), (1, usable_d, 0), consumer
    )


def run_cli(*args: str) -> tuple[int, str]:
    """Run one ksetfix command in this process; return its exit code and stdout.

    The code is 0 when the command returns and the ``SystemExit`` code
    when it exits (2 for a usage error). Any other exception propagates,
    so a broken command fails its test with the traceback.
    """
    import io
    from contextlib import redirect_stdout

    from ksetfix.cli import main

    out = io.StringIO()
    try:
        with redirect_stdout(out):
            main.main(list(args))
    except SystemExit as err:
        return err.code, out.getvalue()
    return 0, out.getvalue()


def emitted_rows(k: int):
    """The rows ``enumerate_rows`` writes, parsed back into tuples, and its stats.

    Each CSV line is one row; k = 1's single empty line is the empty row.
    """
    from ksetfix.table import enumerate_rows

    chunks: list[str] = []
    stats = enumerate_rows(k, chunks.append)
    rows = [tuple(map(int, line.split(","))) if line else ()
            for line in "".join(chunks).splitlines()]
    return rows, stats


# --- exponential-polynomial algebra, with coefficients in Q or in Q[x] ---


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

    The evaluation oracle: one ``exp_neg_fraction`` per term, where
    ``limits.evaluate_scaled`` multiplies memoised powers of e^{-1/j},
    combined with the coefficients as Fractions and floored once. Each
    exponential is within 2 ulp, so the result errs by under
    2 * sum|c| + 1 ulp.
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


def add_product(out, a, b):
    """out += a * b for weights, returning out.

    A weight is an exponential polynomial with coefficients polynomial in
    x, {exponent mask: {power of x: coefficient}}, bit j - 1 standing for
    e^{-x^j/j}. Multiplying exponentials unions their exponent sets, which
    is exact only when those of the operands' terms are disjoint.
    """
    for ma, pa in a.items():
        for mb, pb in b.items():
            if ma & mb:
                raise ValueError("operand exponent sets must be disjoint")
            poly = out.setdefault(ma | mb, {})
            for ea, ca in pa.items():
                for eb, cb in pb.items():
                    poly[ea + eb] = poly.get(ea + eb, 0) + ca * cb
    return out


def at_x_one(weight):
    """The ExpPoly a weight takes at x = 1, where e^{-x^j/j} becomes e^{-1/j}."""
    return poly_from_fractions({mask: sum(p.values()) for mask, p in weight.items()})


def poly_mul(a, b):
    """a * b, by ``add_product``; the operands' exponent sets must be disjoint."""
    a, b = ({mask: {0: c} for mask, c in poly_fractions(p).items()} for p in (a, b))
    return at_x_one(add_product({}, a, b))


def k4_closed_form():
    """(3/2)(1 - e^{-1/3}) e^{-7/4} + (11/3) e^{-25/12}: the limiting survival at k = 4."""
    e74 = poly_from_fractions({0b1011: 1})
    e2512 = poly_from_fractions({0b1111: 1})
    return poly_add(
        poly_scaled(poly_mul(poly_sub(poly_one(), exp_inv(3)), e74), Fraction(3, 2)),
        poly_scaled(e2512, Fraction(11, 3)),
    )


def coefficient_sum(poly) -> Fraction:
    """Value with every exponential replaced by 1 (a pure rational)."""
    return sum(poly_fractions(poly).values(), Fraction(0))


# --- one row weight, and the row sum both engines are held to ---


def row_weight(k: int, j: int, m: int) -> dict[int, dict[int, Fraction]]:
    """The weight of multiplicity m at position j of a k-free row.

    With x^j per j-cycle, it is e^{-x^j/j} x^{jm}/(j^m m!) below the cap
    floor(k/j), and at the cap 1 - e^{-x^j/j} sum_{i<floor(k/j)}
    (x^j/j)^i/i!, which charges the row with every tail multiplicity at
    once. Position k carries e^{-x^k/k}. At x = 1: the paper's weights.
    """
    if not (1 <= j <= k and 0 <= m <= k // j):
        raise ValueError("need 1 <= j <= k and 0 <= m <= floor(k/j)")
    cap = k // j
    if m < cap:
        return {1 << (j - 1): {j * m: Fraction(1, j**m * factorial(m))}}
    tail = {j * i: Fraction(-1, j**i * factorial(i)) for i in range(cap)}
    return {0: {0: Fraction(1)}, 1 << (j - 1): tail}


def weight_sum(k: int, rows):
    """The product of each row's weights, position k's included, summed by mask."""
    total: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        if len(row) != k - 1:
            raise ValueError("row must have length k-1")
        product = {0: {0: 1}}
        for j, m in enumerate(row, start=1):
            product = add_product({}, product, row_weight(k, j, m))
        add_product(total, product, row_weight(k, k, 0))
    return total


@lru_cache(maxsize=None)
def row_sum(k: int):
    """``weight_sum`` of the rows ``enumerate_rows`` writes; cached, so read only."""
    return weight_sum(k, emitted_rows(k)[0])


def row_factor(k: int, j: int, m: int):
    """``row_weight`` at x = 1: the paper's weight x_j of multiplicity m at j."""
    return at_x_one(row_weight(k, j, m))


def row_contribution(k: int, row):
    """A row's weight at x = 1; summed over the k-free rows, the limiting survival."""
    return at_x_one(weight_sum(k, [row]))


def capped_tail_weight(k: int, j: int) -> Fraction:
    """sum_{0 <= i < floor(k/j)} 1/(j^i i!), the weight subtracted by a capped factor."""
    return -sum(row_weight(k, j, k // j)[1 << (j - 1)].values())


def row_series(k: int, n_max: int) -> list[Fraction]:
    """[x^0..x^n_max] of p_k(x), ``row_sum(k)`` expanded as a power series.

    Cycles longer than k are free, so by the exponential formula
    sum_n alive(n, k) x^n/n! = p_k(x)/(1 - x): the coefficient of x^n is
    alive(n, k)/n! - alive(n-1, k)/(n-1)!.
    """

    @lru_cache(maxsize=None)
    def exp_series(mask: int) -> list[Fraction]:
        # prod_{j in mask} e^{-x^j/j}: the top bit's series times the rest's
        if not mask:
            return [Fraction(1)] + [Fraction(0)] * n_max
        j = mask.bit_length()
        rest = exp_series(mask ^ 1 << (j - 1))
        step = [Fraction((-1) ** t, j**t * factorial(t)) for t in range(n_max // j + 1)]
        return [
            sum(c * rest[i - j * t] for t, c in enumerate(step[: i // j + 1]))
            for i in range(n_max + 1)
        ]

    total = [Fraction(0)] * (n_max + 1)
    for mask, poly in row_sum(k).items():
        for e, c in poly.items():
            for i, term in enumerate(exp_series(mask)[: n_max + 1 - e]):
                total[e + i] += c * term
    return total


# --- Monte Carlo samplers that test each drawn vector with is_k_free ---


def within(est, target: float, sigmas: float) -> bool:
    """True iff the McEstimate ``est`` is within ``sigmas`` standard errors of target."""
    slack = sigmas * est.std_error
    return target - slack <= est.estimate <= target + slack


def reference_sample_limit_survival(k: int, samples: int, seed: int):
    """The limiting sampler with one is_k_free call per drawn count vector.

    Same stream as ``montecarlo.sample_limit_survival`` (one uniform per
    position j = 1..k, inverted through the Poisson(1/j) CDF), but it
    builds each multiplicity tuple and asks ``is_k_free``.
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


def reference_finite_cycle_types(n: int, samples: int, seed: int) -> Iterator[list[int]]:
    """The cycle types ``montecarlo.sample_finite_fix`` draws, in order.

    Same stream (one uniform per cycle: with r points left, the cycle
    through the smallest one has length 1 + floor(u * r)); each type is
    a multiplicity vector of length n, entry j - 1 counting the j-cycles.
    """
    import random

    uniform = random.Random(seed).random
    for _ in range(samples):
        ms = [0] * n
        r = n
        while r:
            length = 1 + int(uniform() * r)
            ms[length - 1] += 1
            r -= length
        yield ms


def reference_sample_finite_fix(n: int, k: int, samples: int, seed: int):
    """The finite sampler with one is_k_free call per drawn cycle type.

    It asks ``is_k_free`` on the cycles up to length k of each type
    that ``reference_finite_cycle_types`` draws.
    """
    from ksetfix.montecarlo import McEstimate, _binomial_stderr
    from ksetfix.partitions import is_k_free

    fixes = sum(
        not is_k_free(k, ms[:k]) for ms in reference_finite_cycle_types(n, samples, seed)
    )
    return McEstimate(fixes / samples, _binomial_stderr(fixes, samples), samples, seed)
