"""Exactness of ExpPoly and of the polynomial algebra the test oracles use."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from ksetfix.exppoly import ExpPoly

from reference_data import (
    coefficient_sum,
    exp_inv,
    exponent_fraction,
    poly_add,
    poly_fractions,
    poly_from_fractions,
    poly_mul,
    poly_one,
    poly_scaled,
    poly_sub,
)

coeffs = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12
)


def poly_on(bits):
    """Strategy: polynomials whose exponent sets live inside the given bits."""
    masks = st.integers(min_value=0, max_value=(1 << len(bits)) - 1).map(
        lambda packed: sum(
            1 << b for i, b in enumerate(bits) if packed >> i & 1
        )
    )
    return st.dictionaries(masks, coeffs, max_size=4).map(poly_from_fractions)


def test_construction_drops_zero_coefficients():
    p = ExpPoly({3: 0, 1: 1}, 2)
    assert p.terms == {1: 1}
    assert p.den == 2
    assert len(p) == 1
    assert bool(ExpPoly()) is False


def test_construction_reduces_to_lowest_terms():
    p = ExpPoly({1: 2, 2: 4}, 6)
    assert p == ExpPoly({1: 1, 2: 2}, 3)
    assert hash(p) == hash(ExpPoly({1: 1, 2: 2}, 3))
    assert (p.terms, p.den) == ({1: 1, 2: 2}, 3)
    assert ExpPoly({1: 2}, 3) != ExpPoly({1: 2}, 1)
    assert ExpPoly().den == 1
    assert ExpPoly({5: 0}, 4).den == 1


def test_construction_rejects_bad_denominator_and_mask():
    with pytest.raises(ValueError):
        ExpPoly({1: 1}, 0)
    with pytest.raises(ValueError):
        ExpPoly({1: 1}, -2)
    with pytest.raises(ValueError):
        ExpPoly({-1: 1})


@pytest.mark.parametrize("mapping", [
    {},
    {0: Fraction(1)},
    {1: Fraction(1, 2), 6: Fraction(-5, 3)},
    {0: Fraction(7, 4), 0b1011: Fraction(-1, 6), 0b10000: Fraction(10)},
])
def test_fraction_round_trip(mapping):
    poly = poly_from_fractions(mapping)
    assert poly_fractions(poly) == mapping
    assert poly.den == lcm(*(c.denominator for c in mapping.values()))


def test_one_and_exp_inv():
    assert poly_one() == ExpPoly({0: 1})
    assert exp_inv(3) == ExpPoly({4: 1})
    assert exp_inv(1, Fraction(2, 3)) == ExpPoly({1: 2}, 3)
    with pytest.raises(ValueError):
        exp_inv(0)


def test_addition_cancels_exactly():
    a = ExpPoly({1: 1, 2: 15}, 3)
    b = ExpPoly({1: -1}, 3)
    assert poly_add(a, b) == ExpPoly({2: 5})
    assert poly_sub(a, a) == ExpPoly()


def test_product_unions_disjoint_exponents():
    a = ExpPoly({1: 1}, 2)  # (1/2) e^{-1}
    b = ExpPoly({0: 1, 4: -1})  # 1 - e^{-1/3}
    assert poly_mul(a, b) == ExpPoly({1: 1, 5: -1}, 2)


def test_product_rejects_overlapping_exponents():
    a = ExpPoly({1: 1})
    with pytest.raises(ValueError):
        poly_mul(a, a)


def test_scalar_multiplication():
    a = ExpPoly({3: 1}, 2)
    assert poly_scaled(a, 4) == ExpPoly({3: 2})
    assert poly_scaled(a, Fraction(1, 2)) == ExpPoly({3: 1}, 4)
    assert poly_scaled(a, 0) == ExpPoly()


def test_coefficient_sums():
    a = ExpPoly({0: 3, 5: -1}, 2)
    assert coefficient_sum(a) == 1
    assert Fraction(sum(map(abs, a.terms.values())), a.den) == 2


def test_repr_and_hash():
    p = poly_from_fractions({0b101: Fraction(-1, 2), 0: 3})
    assert repr(p) == "ExpPoly((6 + -1 e^-(1/1+1/3))/2)"
    assert repr(ExpPoly({0: 3, 0b10: -1})) == "ExpPoly(3 + -1 e^-(1/2))"
    assert repr(ExpPoly()) == "ExpPoly(0)"
    assert hash(p) == hash(ExpPoly({0: 6, 0b101: -1}, 2))


def test_exponent_fraction():
    # bits 0,1,3 stand for 1/1 + 1/2 + 1/4
    assert exponent_fraction(0b1011) == Fraction(7, 4)
    assert exponent_fraction(0) == 0


@given(poly_on([0, 1]), poly_on([0, 1]), poly_on([0, 1]))
def test_addition_associative(a, b, c):
    assert poly_add(poly_add(a, b), c) == poly_add(a, poly_add(b, c))


@given(poly_on([0, 1]), poly_on([2, 3]), poly_on([2, 3]))
def test_product_distributes(a, b, c):
    assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))


@given(poly_on([0, 2]), poly_on([1, 3]))
def test_product_commutes_and_sums_coefficients(a, b):
    assert poly_mul(a, b) == poly_mul(b, a)
    assert coefficient_sum(poly_mul(a, b)) == coefficient_sum(a) * coefficient_sum(b)
