"""Exact linear combinations of exponentials of negative harmonic sums.

An :class:`ExpPoly` represents (1/den) * sum_S c_S * exp(-sum_{j in S} 1/j)
where S ranges over finite sets of positive integers, every numerator c_S
is an integer and den >= 1 is one shared denominator. Exponent sets are
bitmasks with bit j-1 standing for j. Stored numerators are never zero
and have no factor common to all of them and den, making equality
structural. This is the form in which the limiting dynamic programme
produces its polynomial, so no arithmetic is kept here;
:func:`ksetfix.limits.evaluate` turns a polynomial into decimals.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping


class ExpPoly:
    """Immutable-by-convention map from exponent bitmask to integer numerator."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: Mapping[int, int] | None = None, den: int = 1):
        if den < 1:
            raise ValueError("denominator must be >= 1")
        clean: dict[int, int] = {}
        if terms:
            for mask, c in terms.items():
                if mask < 0:
                    raise ValueError("exponent mask must be non-negative")
                if c:
                    clean[mask] = c
        g = gcd(den, *clean.values())
        if g > 1:
            clean = {mask: c // g for mask, c in clean.items()}
        self.terms = clean
        self.den = den // g

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "ExpPoly(0)"
        bits = []
        for mask in sorted(self.terms):
            js = [str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1]
            expo = "" if not js else " e^-(" + "+".join(f"1/{j}" for j in js) + ")"
            bits.append(f"{self.terms[mask]}{expo}")
        body = " + ".join(bits)
        return f"ExpPoly({body})" if self.den == 1 else f"ExpPoly(({body})/{self.den})"
