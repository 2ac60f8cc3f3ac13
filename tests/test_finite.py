"""Finite engine: count table, exact probabilities, exceptional pairs.

The count table has two oracles: the partition stream tested first,
with one knapsack per partition, and the former all-k programme over
untrimmed achievable-sum masks, ``mask_fixing_count_table``. The
survival counts have a third, the former one loop over every cycle
length, ``one_loop_survival_counts``, and also meet the paper's row sum
exactly: ``row_series`` expands ``row_sum(k)``, the rows' weights with
x^j per j-cycle summed by exponent mask, as a power series in x.
test_limits holds the limiting engine to the same ``row_sum(k)`` at
x = 1.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

import pytest

from ksetfix.finite import (
    exceptions,
    finite_fix_probability,
    finite_table,
    fixing_count_table,
    fixing_counts,
    survival_counts,
)
from ksetfix.limits import evaluate, limiting_survival

from reference_data import (
    LIMIT_TABLE_8DP,
    format_probability,
    load_golden_finite,
    mask_fixing_count_table,
    one_loop_survival_counts,
    orbit_failures,
    partition_count_recurrence,
    partition_fixing_counts,
    partitions_of,
    restricted_permutation_counts,
    row_series,
)

oracle_counts = lru_cache(maxsize=None)(partition_fixing_counts)


def test_partition_counts_match_recurrence():
    pcount = partition_count_recurrence(45)
    for n in (1, 2, 4, 7, 10, 20, 30, 40, 45):
        assert sum(1 for _ in partitions_of(n)) == pcount[n], n
    assert pcount[4] == 5
    assert pcount[10] == 42
    assert pcount[40] == 37338


def test_partitions_of_complete_and_distinct():
    pcount = partition_count_recurrence(12)
    for n in range(1, 13):
        got = list(partitions_of(n))
        assert len(set(got)) == len(got) == pcount[n], n
        assert all(sum(j * m for j, m in enumerate(ms, start=1)) == n for ms in got), n


def test_partitions_descending_lex_on_part_lists():
    def as_parts(ms):
        out = []
        for j in range(len(ms), 0, -1):
            out.extend([j] * ms[j - 1])
        return out

    for n in (5, 8, 11):
        seen = [as_parts(ms) for ms in partitions_of(n)]
        assert seen == sorted(seen, reverse=True)
        assert seen[0] == [n]
        assert seen[-1] == [1] * n


def check_table_against_oracle(n_max, cap):
    table = fixing_count_table(n_max, cap)
    assert len(table) == n_max + 1
    assert table[0] == [1]
    for n in range(1, n_max + 1):
        assert table[n] == oracle_counts(n, min(cap, n)), (n_max, cap, n)


@pytest.mark.parametrize("n_max", range(1, 25))
def test_count_table_matches_partition_oracle_every_cap(n_max):
    for cap in range(1, n_max + 1):
        check_table_against_oracle(n_max, cap)


@pytest.mark.parametrize(
    "n_max,cap", [(40, 20), pytest.param(50, 25, marks=pytest.mark.longrun)]
)
def test_count_table_matches_partition_oracle(n_max, cap):
    check_table_against_oracle(n_max, cap)


@pytest.mark.parametrize(
    "n_max,cap",
    [
        (50, 25),
        (120, 8),  # most cycle lengths exceed k
        pytest.param(70, 35, marks=pytest.mark.longrun),
        pytest.param(250, 10, marks=pytest.mark.longrun),
    ],
)
def test_count_table_matches_mask_oracle(n_max, cap):
    assert fixing_count_table(n_max, cap) == mask_fixing_count_table(n_max, cap)


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(
            [(n_max, k) for n_max in range(1, 31) for k in range(1, n_max + 1)],
            id="n_max<=30",
        ),
        pytest.param([(50, k) for k in range(1, 26)], id="n_max=50"),
        pytest.param(
            [(70, k) for k in range(1, 36)] + [(120, 8), (250, 10), (400, 20)],
            id="long",
            marks=pytest.mark.longrun,
        ),
    ],
)
def test_survival_counts_match_one_loop(cases):
    # the two-phase engine against the former one loop over every length
    for n_max, k in cases:
        assert survival_counts(n_max, k) == one_loop_survival_counts(n_max, k), (n_max, k)


@pytest.mark.parametrize(
    "k,n_max",
    # the engine scales its weights by n_max!, so each n_max is its own run
    [(k, 20) for k in range(1, 8)]
    + [(k, 30) for k in range(1, 13)]
    + [pytest.param(k, 30, marks=pytest.mark.longrun) for k in range(13, 17)],
)
def test_survival_counts_match_row_series(k, n_max):
    # the paper's row sum with x^j per j-cycle against the finite engine,
    # coefficient by coefficient: [x^n] p_k = alive(n)/n! - alive(n-1)/(n-1)!;
    # test_limits takes the same row_sum(k) at x = 1 against the limiting DP
    alive = survival_counts(n_max, k)
    want = [Fraction(1)] + [
        Fraction(alive[n], factorial(n)) - Fraction(alive[n - 1], factorial(n - 1))
        for n in range(1, n_max + 1)
    ]
    assert row_series(k, n_max) == want


def test_survival_counts_k1_are_derangements():
    # k = 1 has no length up to k/2 or between k/2 and k, so every length
    # from 2 to n goes through the list over sizes; D(n) = (n-1)(D(n-1) + D(n-2))
    derangements = [1, 0]
    for n in range(2, 301):
        derangements.append((n - 1) * (derangements[-1] + derangements[-2]))
    assert survival_counts(300, 1) == derangements


def test_simple_exact_values():
    assert finite_fix_probability(2, 1).fix_probability == Fraction(1, 2)
    assert finite_fix_probability(4, 2).fix_probability == Fraction(5, 12)
    r = finite_fix_probability(6, 3)
    assert format_probability(r.fix_probability, 5) == "0.36250"
    assert r.fix_probability + r.survival == 1


def test_validation():
    with pytest.raises(ValueError):
        finite_fix_probability(4, 5)
    with pytest.raises(ValueError):
        finite_fix_probability(4, 0)
    with pytest.raises(ValueError):
        exceptions(3)
    with pytest.raises(ValueError):
        fixing_count_table(0, 1)
    with pytest.raises(ValueError):
        fixing_count_table(5, 0)
    # a negative digits is rejected by name; 0 gives whole numbers
    with pytest.raises(ValueError, match="digits"):
        list(finite_table(4, 2, -1))
    assert list(finite_table(4, 2, 0)) == [
        (2, 1, "0"), (3, 1, "1"), (4, 1, "1"), (4, 2, "0")
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_matches_orbit_enumeration_of_all_permutations(n):
    # every k, against the literal image test over all n! permutations
    assert orbit_failures(n) == []


def test_fix_whole_set_is_certain():
    for n in (3, 6, 9):
        assert finite_fix_probability(n, n).fix_probability == 1


@pytest.mark.parametrize("n", range(2, 21))
def test_complement_symmetry(n):
    # a permutation fixes a k-set iff it fixes the complementary set
    counts = fixing_counts(n, n - 1) if n > 1 else None
    for k in range(1, n):
        assert counts[k] == counts[n - k], (n, k)


def test_denominator_divides_factorial():
    for n, k in ((7, 3), (12, 6), (15, 4)):
        r = finite_fix_probability(n, k)
        assert factorial(n) % r.fix_probability.denominator == 0


def test_exceptions_lists():
    assert exceptions(29) == set()
    assert exceptions(36) == {(30, 9), (36, 11)}


def test_golden_spot_cells():
    golden = load_golden_finite("fix")
    for n, k in ((12, 6), (20, 10), (5, 2)):
        got = format_probability(finite_fix_probability(n, k).fix_probability, 5)
        assert got == golden[(n, k)], (n, k)
    survival_golden = load_golden_finite("survival")
    got = format_probability(finite_fix_probability(3, 1).survival, 5)
    assert got == survival_golden[(3, 1)] == "0.33333"


def test_finite_table_rows_and_rounding():
    rows = list(finite_table(5, 2, 5))
    assert rows == [
        (2, 1, "0.50000"),
        (3, 1, "0.66667"),
        (4, 1, "0.62500"),
        (4, 2, "0.41667"),
        (5, 1, "0.63333"),
        (5, 2, "0.55000"),
    ]
    assert list(finite_table(2, 1, 5)) == [(2, 1, "0.50000")]


def test_finite_table_survival_variant():
    rows = dict(
        ((n, k), v) for n, k, v in finite_table(4, 2, 5, survival=True)
    )
    assert rows[(3, 1)] == "0.33333"
    assert rows[(4, 2)] == "0.58333"


def test_columns_settle_to_limiting_values():
    # for k <= 6 the finite probabilities have converged to the limiting
    # ones at 5 places by n = 40 and stay there through n = 45
    from reference_data import load_golden_limit_5dp

    limit_5dp = load_golden_limit_5dp()
    for n in range(40, 46):
        counts = fixing_counts(n, 6)
        for k in range(1, 7):
            got = format_probability(Fraction(counts[k], counts[0]), 5)
            assert got == limit_5dp[k], (n, k)


def exp_neg_harmonic(k: int) -> tuple[Fraction, Fraction]:
    """e^{-H_k} as an exact Fraction, and an allowance for its error.

    H_k is exact; one division to 60 significant digits moves the
    argument by under 2e-59 (H_k < 3 here), and decimal's exp is
    correctly rounded, so for e^{-H_k} < 1 the error is below 1e-58.
    The allowance 1e-50 covers that with room to spare.
    """
    h = sum(Fraction(1, j) for j in range(1, k + 1))
    with localcontext() as ctx:
        ctx.prec = 60
        approx = (-Decimal(h.numerator) / h.denominator).exp()
    return Fraction(approx), Fraction(1, 10**50)


def cauchy_gap_bound(n: int, k: int) -> Fraction:
    """An upper bound on |i(n,k) - i(inf,k)| from Cauchy's formula.

    The counts C_1..C_k of short cycles of a uniform permutation of n
    points take the value c with probability w(c) q(n - s), where
    w(c) = prod_j (1/j)^{c_j}/c_j!, s = sum_j j c_j and q(r) is the share
    of permutations of r points with every cycle longer than k; in the
    limit the probability is w(c) e^{-H_k}. k-freeness depends on c only,
    and the w(c) with sum s add up to a_s = [x^s] exp(sum_{j<=k} x^j/j),
    whose total over all s is e^{H_k}. Hence

        |i(n,k) - i(inf,k)| <= sum_{s<=n} a_s |q(n-s) - e^{-H_k}|
                               + 1 - e^{-H_k} sum_{s<=n} a_s,

    taken here at the worst end of the interval that holds e^{-H_k}.
    Everything is summed in integers over n! times a denominator of that
    interval, and one Fraction is built at the end.
    """
    fact = [factorial(i) for i in range(n + 1)]
    A = restricted_permutation_counts(n, range(1, k + 1))  # s! a_s
    Q = restricted_permutation_counts(n, range(k + 1, n + 1))  # r! q(r)
    e, allowance = exp_neg_harmonic(k)
    lo, hi = e - allowance, e + allowance
    d = lcm(lo.denominator, hi.denominator)
    lo_d, hi_d = int(lo * d), int(hi * d)
    # for x = lo d or hi d, a_s |q(n-s) - x/d| is
    # A[s] C(n, s) |Q[n-s] d - x (n-s)!| / (n! d)
    near = sum(
        A[s]
        * comb(n, s)
        * max(abs(Q[n - s] * d - x * fact[n - s]) for x in (lo_d, hi_d))
        for s in range(n + 1)
    )
    mass = sum(A[s] * (fact[n] // fact[s]) for s in range(n + 1))  # n! sum a_s
    return Fraction(near + fact[n] * d - lo_d * mass, fact[n] * d)


# n -> (largest k, and the bound every k must get under, if any); under
# it the finite engine recomputes the reference i(inf,k) to 8 places.
# n = 400 covers the paper's whole range k <= 30 (about 70 s)
CAUCHY_CASES = {
    50: (10, None),
    70: (10, None),
    150: (12, Fraction(13, 10**12)),
    250: (15, Fraction(1, 10**17)),
    400: (30, Fraction(1, 10**12)),
}


@pytest.mark.parametrize(
    "n", [50, 70, 150, 250, pytest.param(400, marks=pytest.mark.longrun)]
)
def test_finite_within_cauchy_bound_of_limit(n):
    # ties the exact finite engine to the certified limiting evaluation
    # without sampling; the 40-place value is within 10**-40 of i(inf,k)
    k_max, tight = CAUCHY_CASES[n]
    for k in range(1, k_max + 1):
        finite = finite_fix_probability(n, k).fix_probability
        limit = evaluate(limiting_survival(k), 40).complement()
        gap = abs(finite - Fraction(limit.scaled, 10**40))
        bound = cauchy_gap_bound(n, k)
        assert gap <= bound + Fraction(1, 10**40), (n, k, float(gap), float(bound))
        if tight is not None:
            assert bound < tight, k
            assert format_probability(finite, 8) == LIMIT_TABLE_8DP[k][0], k
    # at n = 70 the bound ties the engines to 8 places or better for k <= 7
    if n == 70:
        assert cauchy_gap_bound(n, 7) < Fraction(1, 10**7)


def test_format_probability_half_even():
    assert format_probability(Fraction(1, 2), 5) == "0.50000"
    assert format_probability(Fraction(5, 12), 5) == "0.41667"
    assert format_probability(Fraction(1, 8), 2) == "0.12"  # 0.125 ties to even
    assert format_probability(Fraction(3, 8), 2) == "0.38"
