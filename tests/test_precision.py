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
    exp_small,
    format_scaled,
    ln_int,
    ln_scaled,
    pow_three_halves,
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


def test_ln2_thirty_places():
    want = as_scaled(LN_2_30DP, 30)
    assert abs(ln_int(2, 30) - want) <= 2


@pytest.mark.parametrize("n", [2, 3, 7, 10, 30, 70])
def test_ln_int_cross_check_against_floats(n):
    assert abs(ln_int(n, 20) / 10**20 - math.log(n)) < 5e-13


def test_ln_scaled_handles_arguments_below_one():
    # ln(ln 2) is about -0.3665
    l2 = ln_int(2, 25)
    got = ln_scaled(l2, 25)
    want = math.log(math.log(2))
    assert got < 0
    assert abs(got / 10**25 - want) < 1e-12


def test_ln_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_scaled(0, 10)


def test_exp_small_cross_check():
    for x in (0.0, 0.059, 0.5, 1.0, 1.999):
        scaled = int(x * 10**20)
        got = exp_small(scaled, 20)
        assert abs(got / 10**20 - math.exp(scaled / 10**20)) < 5e-13
    with pytest.raises(ValueError):
        exp_small(3 * 10**20, 20)


def test_pow_three_halves_cross_check():
    for x in (0.25, 0.693147, 1.0, 3.4012):
        scaled = int(x * 10**20)
        got = pow_three_halves(scaled, 20)
        assert abs(got / 10**20 - (scaled / 10**20) ** 1.5) < 5e-12


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


@given(st.integers(1, 10**70))
def test_ln_scaled_within_two_ulp_of_decimal_oracle(x_scaled):
    # arguments from 10**-50 to 10**20, both signs of the logarithm
    got = ln_scaled(x_scaled, DIGITS)
    want = oracle(lambda: Decimal(x_scaled).scaleb(-DIGITS).ln())
    assert scaled_error(got, want) <= 2


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
            ln_int(30, 60),
            evaluate(limiting_survival(22), 50),
            decay_exponent(50),
            efg_ratio(10, 50),
        )

    want = results()
    with localcontext() as ctx:
        ctx.prec = 5
        ctx.rounding = ROUND_FLOOR
        assert results() == want
