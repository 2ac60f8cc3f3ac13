"""Exact linear combinations of exponentials of negative harmonic sums.

An :class:`ExpPoly` represents sum_S c_S * exp(-sum_{j in S} 1/j) where S
ranges over finite sets of positive integers and every c_S is rational.
Exponent sets are bitmasks with bit j-1 standing for j. Stored
coefficients are never zero, making equality structural. The limiting
dynamic programme builds its polynomial in one step from integer
numerators, so the only arithmetic kept here is termwise addition;
:func:`ksetfix.limits.evaluate` turns a polynomial into decimals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Rational = int | Fraction


class ExpPoly:
    """Immutable-by-convention map from exponent bitmask to coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Rational] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for mask, c in terms.items():
                if mask < 0:
                    raise ValueError("exponent mask must be non-negative")
                c = Fraction(c)
                if c:
                    clean[mask] = c
        self.terms = clean

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = dict(self.terms)
        for mask, c in other.terms.items():
            v = out.get(mask, 0) + c
            if v:
                out[mask] = v
            else:
                out.pop(mask, None)
        return ExpPoly(out)

    def abs_coefficient_sum(self) -> Fraction:
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def __repr__(self) -> str:
        if not self.terms:
            return "ExpPoly(0)"
        bits = []
        for mask in sorted(self.terms):
            js = [str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1]
            expo = "" if not js else " e^-(" + "+".join(f"1/{j}" for j in js) + ")"
            bits.append(f"{self.terms[mask]}{expo}")
        return "ExpPoly(" + " + ".join(bits) + ")"
