"""Fixed-point kernels against known constants, floats and a decimal oracle."""

import math
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ksetfix.exppoly import ExpPoly
from ksetfix.limits import decay_exponent, efg_ratio, evaluate, limiting_survival
from ksetfix.precision import (
    exp_neg_fraction,
    format_scaled,
    round_div,
    round_scaled,
)

from reference_data import (
    E_MINUS_1_30DP,
    LN_2_30DP,
    exp_inv,
    exponent_fraction,
    poly_from_fractions,
    poly_one,
    poly_sub,
)


def as_scaled(decimal_string, digits):
    sign, _, rest = decimal_string.partition(".")
    return int(sign) * 10**digits + int(rest[:digits].ljust(digits, "0"))


def test_exp_neg_one_thirty_places():
    want = as_scaled(E_MINUS_1_30DP, 30)
    got = exp_neg_fraction(1, 1, 30)
    assert abs(got - want) <= 2


def test_exp_neg_zero_is_exact_one():
    assert exp_neg_fraction(0, 1, 25) == 10**25


@pytest.mark.parametrize("num,den", [(1, 2), (1, 3), (7, 4), (25, 12), (9, 2)])
def test_exp_neg_cross_check_against_floats(num, den):
    got = exp_neg_fraction(num, den, 20)
    want = math.exp(-num / den)
    assert abs(got / 10**20 - want) < 5e-13


def test_round_scaled_half_to_even():
    assert round_scaled(12345, 4, 2) == 123  # 1.2345 -> 1.23
    assert round_scaled(1250, 3, 1) == 12  # 1.250 -> 1.2 (even)
    assert round_scaled(1350, 3, 1) == 14  # 1.350 -> 1.4 (even)
    assert round_scaled(1349, 3, 1) == 13
    assert round_scaled(-1250, 3, 1) == -12
    assert round_div(10, 4) == 2  # 2.5 -> 2 (even)
    assert round_div(14, 4) == 4  # 3.5 -> 4 (even)
    assert round_div(-14, 4) == -4
    assert round_div(7, 3) == 2
    with pytest.raises(ValueError):
        round_div(1, 0)


def test_format_scaled():
    assert format_scaled(46955773, 8) == "0.46955773"
    assert format_scaled(-5, 3) == "-0.005"
    assert format_scaled(123456, 2) == "1234.56"


def test_evaluate_zero_polynomial_twenty_places():
    out = evaluate(ExpPoly(), 20)
    assert out.value == "0.00000000000000000000"
    assert out.scaled == 0


def test_evaluate_e_inverse_eight_places():
    out = evaluate(exp_inv(1), 8)
    assert out.value == "0.36787944"


def test_evaluate_monotone_refinement():
    # the D-place value must be the D-place rounding of the (D+10)-place
    # value to within one final ulp
    poly = ExpPoly({0b1011: 3, 0b0100: -1, 0: 1})
    for digits in (6, 10, 15):
        coarse = evaluate(poly, digits)
        fine = evaluate(poly, digits + 10)
        assert abs(coarse.scaled - round(fine.scaled / 10**10)) <= 1


def test_evaluate_rejects_bad_digits():
    with pytest.raises(ValueError):
        evaluate(poly_one(), 0)


# The decimal oracle: stdlib decimal at ORACLE_PREC significant digits,
# whose exp and ln are correctly rounded, so its own error is some 30
# places below the 50-place results it checks.
DIGITS = 50
ORACLE_PREC = 80


def oracle(fn):
    with localcontext() as ctx:
        ctx.prec = ORACLE_PREC
        return fn()


def oracle_exp_neg(q: Fraction) -> Decimal:
    return oracle(lambda: (-Decimal(q.numerator) / q.denominator).exp())


def oracle_poly(poly: ExpPoly) -> Decimal:
    return oracle(lambda: sum(
        Decimal(c) / poly.den * oracle_exp_neg(exponent_fraction(mask))
        for mask, c in poly.terms.items()
    ))


def oracle_delta() -> Decimal:
    return oracle(lambda: 1 - (1 + Decimal(2).ln().ln()) / Decimal(2).ln())


def oracle_ratio(k: int, poly: ExpPoly) -> Decimal:
    def ratio():
        lnk = Decimal(k).ln()
        growth = (oracle_delta() * lnk).exp() * lnk ** Decimal("1.5")
        return (1 - oracle_poly(poly)) * growth

    return oracle(ratio)


def test_oracle_ln2_thirty_places():
    # the oracle's own ln 2, which its delta is built on, against the constant
    got = oracle(lambda: Decimal(2).ln())
    assert oracle(lambda: abs(got - Decimal(LN_2_30DP))) < Decimal(10) ** -30


@pytest.mark.parametrize("k", [2, 3, 5, 10, 16, 22, 30])
def test_efg_ratio_against_decimal_oracle(k, survival):
    got = Decimal(efg_ratio(k, DIGITS).value)
    want = oracle_ratio(k, survival.poly(k))
    assert oracle(lambda: abs(got - want)) < Decimal(10) ** -DIGITS


def test_decay_exponent_against_decimal_oracle():
    want = oracle_delta()
    for digits in range(1, DIGITS + 1):
        got = Decimal(decay_exponent(digits).value)
        assert oracle(lambda: abs(got - want)) < Decimal(10) ** -digits


def scaled_error(got: int, want: Decimal) -> Decimal:
    return oracle(lambda: abs(got - want.scaleb(DIGITS)))


@given(st.integers(1, 10**4).flatmap(
    lambda den: st.tuples(st.integers(0, 6 * den), st.just(den))
))
def test_exp_neg_fraction_within_two_ulp_of_decimal_oracle(num_den):
    # the documented bound: 2 ulp at the requested scale, over the
    # 0 <= num/den <= 6 range that harmonic exponents stay in
    num, den = num_den
    got = exp_neg_fraction(num, den, DIGITS)
    assert scaled_error(got, oracle_exp_neg(Fraction(num, den))) <= 2


exp_polys = st.dictionaries(
    st.integers(0, 2**16 - 1),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    max_size=12,
).map(poly_from_fractions)


@settings(max_examples=60, deadline=None)
@given(exp_polys, st.integers(1, DIGITS))
def test_evaluate_certificate_against_decimal_oracle(poly, digits):
    # the certificate: the printed value is within 10**-digits of the truth
    got = Decimal(evaluate(poly, digits).value)
    assert oracle(lambda: abs(got - oracle_poly(poly))) < Decimal(10) ** -digits


@pytest.mark.parametrize("k", [4, 10, 16, 22, 30])
def test_evaluate_survival_polynomials_against_decimal_oracle(k, survival):
    poly = survival.poly(k)
    for p in (poly, poly_sub(poly_one(), poly)):
        got = Decimal(evaluate(p, DIGITS).value)
        assert oracle(lambda: abs(got - oracle_poly(p))) < Decimal(10) ** -DIGITS


def test_results_ignore_the_callers_decimal_context():
    # every decimal operation runs in an explicit context of its own, so a
    # coarse, floor-rounding thread context changes no digit
    def results():
        return (
            exp_neg_fraction(7, 4, 60),
            evaluate(limiting_survival(22), 50),
            decay_exponent(50),
            efg_ratio(10, 50),
        )

    want = results()
    with localcontext() as ctx:
        ctx.prec = 5
        ctx.rounding = ROUND_FLOOR
        assert results() == want
