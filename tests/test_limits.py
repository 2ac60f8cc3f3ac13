"""Probability engine: row weights, accumulation, evaluation, ratio."""

from fractions import Fraction

import pytest

from ksetfix import limits
from ksetfix.exppoly import ExpPoly
from ksetfix.limits import (
    decay_exponent,
    efg_ratio,
    evaluate,
    limiting_fix_probability,
    limiting_survival,
)
from ksetfix.precision import round_scaled
from ksetfix.table import enumerate_rows

from reference_data import (
    DECAY_EXPONENT_10DP,
    K4_ROW_VALUES_6DP,
    LIMIT_TABLE_8DP,
    RATIO_K2_10DP,
    RATIO_K4_10DP,
    at_x_one,
    capped_tail_weight,
    coefficient_sum,
    descend_walk,
    emitted_rows,
    fraction_evaluate_scaled,
    k4_closed_form,
    poly_one,
    poly_sub,
    row_contribution,
    row_factor,
    row_sum,
    row_weight,
)

E1, E2, E3, E4 = 1, 2, 4, 8  # bitmasks of e^{-1/1} .. e^{-1/4}


def test_row_factor_uncapped_single_terms():
    assert row_factor(4, 1, 0) == ExpPoly({E1: 1})
    assert row_factor(4, 2, 1) == ExpPoly({E2: 1}, 2)
    assert row_factor(4, 1, 3) == ExpPoly({E1: 1}, 6)


def test_row_factor_capped_binomials():
    assert row_factor(4, 3, 1) == ExpPoly({0: 1, E3: -1})  # 1 - e^{-1/3}
    assert row_factor(4, 2, 2) == ExpPoly({0: 2, E2: -3}, 2)
    assert capped_tail_weight(4, 2) == Fraction(3, 2)


def test_row_weight_by_hand():
    # 1 - e^{-x^2/2} (1 + x^2/2) at the cap; e^{-x} x^3/3! below it
    assert row_weight(4, 2, 2) == {0: {0: 1}, E2: {0: -1, 2: Fraction(-1, 2)}}
    assert row_weight(4, 1, 3) == {E1: {3: Fraction(1, 6)}}


def test_row_factor_range_checks():
    with pytest.raises(ValueError):
        row_factor(4, 2, 3)
    with pytest.raises(ValueError):
        row_factor(4, 5, 0)
    with pytest.raises(ValueError):
        row_factor(4, 0, 0)


def test_row_contribution_k4_capped_row():
    poly = row_contribution(4, (0, 1, 1))
    # (1/2) e^{-7/4} (1 - e^{-1/3}) expanded over {1,2,4} and {1,2,3,4}
    assert poly == ExpPoly({E1 | E2 | E4: 1, E1 | E2 | E3 | E4: -1}, 2)
    assert evaluate(poly, 6).value == "0.024630"


def test_row_contribution_k4_plain_row():
    poly = row_contribution(4, (3, 0, 0))
    assert poly == ExpPoly({E1 | E2 | E3 | E4: 1}, 6)
    assert evaluate(poly, 6).value == "0.020752"


def test_row_contribution_k1_empty_row():
    assert row_contribution(1, ()) == ExpPoly({E1: 1})
    assert evaluate(row_contribution(1, ()), 8).value == "0.36787944"


def test_row_contribution_rejects_wrong_length():
    with pytest.raises(ValueError):
        row_contribution(4, (0, 0))


def test_k4_all_row_values_six_places():
    rows, _ = emitted_rows(4)
    got = [evaluate(row_contribution(4, r), 6).value for r in rows]
    assert got == K4_ROW_VALUES_6DP


def test_k4_survival_equals_closed_form():
    closed = k4_closed_form()
    assert limiting_survival(4) == closed
    assert evaluate(closed, 6).value == "0.530442"


@pytest.mark.parametrize("k", [
    *range(1, 15),
    *(pytest.param(k, marks=pytest.mark.longrun) for k in (15, 16)),
])
def test_grouped_accumulation_matches_row_by_row(k, survival):
    # the DP accumulates the rows grouped by achievable-sum mask; the
    # oracle is the product of row weights over the written rows, summed
    # by exponent mask and taken at x = 1 (test_finite expands the same
    # row_sum(k) against the finite engine)
    assert survival.poly(k) == at_x_one(row_sum(k))


@pytest.mark.parametrize("k", range(1, 31))
def test_limit_fix_probability_eight_places(k, survival):
    fix = evaluate(poly_sub(poly_one(), survival.poly(k)), 8)
    assert fix.value == LIMIT_TABLE_8DP[k][0]


@pytest.mark.parametrize("k", range(1, 21))
def test_dp_row_count_matches_walk(k, survival):
    walked = []
    descend_walk(k, walked.append)
    assert survival.rows(k) == len(walked) == LIMIT_TABLE_8DP[k][1]


def test_checked_survival_walks_and_rejects_a_wrong_count(monkeypatch, survival):
    chunks = []
    poly, stats = limits.limiting_survival_checked(7, chunks.append)
    rows = "".join(chunks).splitlines()
    assert poly == survival.poly(7)
    assert stats == enumerate_rows(7, lambda text: None)
    assert len(rows) == stats.rows_emitted == survival.rows(7)
    assert limits.limiting_survival_checked(7) == (poly, stats)
    monkeypatch.setattr(
        limits, "limiting_survival_with_stats", lambda k: (poly, len(rows) + 1)
    )
    with pytest.raises(AssertionError, match="table counted"):
        limits.limiting_survival_checked(7, lambda text: None)
    with pytest.raises(AssertionError, match="table counted"):
        limits.limiting_survival_checked(7)


@pytest.mark.parametrize("k", range(1, 23))
def test_complement_equals_evaluated_complement(k, survival):
    # 1 - S evaluated term by term is the oracle for the complement
    poly = survival.poly(k)
    for digits in (1, 8, 50):
        surv = evaluate(poly, digits)
        assert surv.complement() == evaluate(poly_sub(poly_one(), poly), digits)


@pytest.mark.parametrize("k", [
    *range(1, 23),
    *(pytest.param(k, marks=pytest.mark.longrun) for k in range(23, 31)),
])
def test_evaluate_scaled_equals_fraction_exponent_oracle(k, survival):
    # the memoised products of e^{-1/j} against one exp_neg_fraction per
    # reduced Fraction exponent: within the sum of both documented budgets
    # (mass/10 + 1 ulp for the products, 2 * mass + 1 for the oracle), and
    # equal once rounded to 8 places and to the guard-free prec - 12
    poly = survival.poly(k)
    mass = Fraction(sum(map(abs, poly.terms.values())), poly.den)
    for prec in (21, 30, 70):
        got = limits.evaluate_scaled(poly, prec)
        want = fraction_evaluate_scaled(poly, prec)
        assert abs(got - want) < mass / 10 + 1 + 2 * mass + 1
        for digits in (8, prec - 12):
            assert round_scaled(got, prec, digits) == round_scaled(want, prec, digits)


def test_limiting_fix_probability_entry_point():
    assert limiting_fix_probability(2, 8).value == "0.55373968"


def test_survival_k2_value():
    # exactly two rows, each contributing e^{-3/2}
    assert limiting_survival(2) == ExpPoly({E1 | E2: 2})
    assert evaluate(limiting_survival(2), 8).value == "0.44626032"


@pytest.mark.parametrize("k", range(1, 10))
def test_coefficient_sum_identity_per_row(k):
    # with every exponential replaced by 1, a row's weight reduces to a
    # rational product over its positions
    rows, _ = emitted_rows(k)
    for row in rows:
        expected = Fraction(1)
        for j, m in enumerate(row, start=1):
            if m == k // j:
                expected *= 1 - capped_tail_weight(k, j)
            else:
                expected *= Fraction(1, j**m)
                for i in range(2, m + 1):
                    expected /= i
        assert coefficient_sum(row_contribution(k, row)) == expected, row


def test_decay_exponent_values():
    assert decay_exponent(4).value == "0.0861"
    assert decay_exponent(10).value == DECAY_EXPONENT_10DP


def test_efg_ratio_frozen_values():
    assert efg_ratio(2, 10).value == RATIO_K2_10DP
    assert efg_ratio(4, 10).value == RATIO_K4_10DP


def test_efg_ratio_cross_check_against_floats(survival):
    import math

    d = 1 - (1 + math.log(math.log(2))) / math.log(2)
    for k in (2, 3, 5, 8):
        surv = evaluate(survival.poly(k), 15)
        fix = 1 - Fraction(surv.scaled, 10**surv.digits)
        want = float(fix) * k**d * math.log(k) ** 1.5
        ratio = efg_ratio(k, 12)
        got = float(Fraction(ratio.scaled, 10**ratio.digits))
        assert abs(got - want) < 1e-9, k


def test_efg_ratio_rejects_small_k():
    with pytest.raises(ValueError):
        efg_ratio(1, 8)
