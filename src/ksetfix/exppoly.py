"""Exact linear combinations of exponentials of negative harmonic sums.

An :class:`ExpPoly` represents sum_S c_S * exp(-sum_{j in S} 1/j) where S
ranges over finite sets of positive integers and every c_S is rational.
Exponent sets are bitmasks with bit j-1 standing for j. Addition is
termwise; multiplication distributes and unions exponent sets, which is
exact only when the operand sets are disjoint term by term (each 1/j may
appear once in an exponent), so products assert disjointness. Stored
coefficients are never zero, making equality structural.
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

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @classmethod
    def one(cls) -> "ExpPoly":
        return cls({0: Fraction(1)})

    @classmethod
    def exp_inv(cls, j: int, coeff: Rational = 1) -> "ExpPoly":
        """The single term coeff * e^{-1/j}."""
        if j < 1:
            raise ValueError("j must be >= 1")
        return cls({1 << (j - 1): coeff})

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

    def __neg__(self) -> "ExpPoly":
        return ExpPoly({mask: -c for mask, c in self.terms.items()})

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma & mb:
                    raise ValueError(
                        "product would repeat an exponent 1/j; operand "
                        "exponent sets must be disjoint"
                    )
                mask = ma | mb
                v = out.get(mask, 0) + ca * cb
                if v:
                    out[mask] = v
                else:
                    out.pop(mask, None)
        return ExpPoly(out)

    __rmul__ = __mul__

    def scaled(self, factor: Rational) -> "ExpPoly":
        factor = Fraction(factor)
        if not factor:
            return ExpPoly()
        return ExpPoly({mask: c * factor for mask, c in self.terms.items()})

    def coefficient_sum(self) -> Fraction:
        """Value with every exponential replaced by 1 (a pure rational)."""
        return sum(self.terms.values(), Fraction(0))

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
