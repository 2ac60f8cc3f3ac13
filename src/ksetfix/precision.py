"""Fixed-point integer arithmetic with audited error bounds.

The seeds e^{-num/den} come from the stdlib :mod:`decimal` module, whose
``exp`` is correctly rounded, evaluated in an explicit context of
:func:`_context`, so the caller's thread context never touches a result.
That context carries 2 significant digits beyond the requested scale, so
the decimal roundings cost a few hundredths of an ulp (unit in the last
place) and the exact conversion of :func:`_scaled` half an ulp more: a
seed is within 2 ulp of the true value. Callers that combine seeds budget
guard digits of their own; see :func:`ksetfix.limits.evaluate`.

Integers are rounded to nearest only by :func:`round_div`, the single
place of half-to-even rounding, which the printed limiting and finite
values both go through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # only the seeds need decimal: _context imports it
    from decimal import Context, Decimal


def _context(digits: int) -> Context:
    """A half-even context of ``digits`` significant digits, exponents unbounded."""
    from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context

    return Context(
        prec=digits, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, traps=[]
    )


def _scaled(value: Decimal, prec: int) -> int:
    """value * 10**prec rounded half to even to an integer, exactly."""
    num, den = value.as_integer_ratio()
    return round_div(num * 10**prec, den)


def exp_neg_fraction(num: int, den: int, prec: int) -> int:
    """e^{-num/den} * 10**prec rounded, within 2 ulp; num >= 0, den >= 1.

    With p = prec + 2 significant digits the quotient -num/den is off by
    a relative 10**(1-p)/2, which moves e^{-q} by at most q*e^{-q} <= 1/e
    times that: under 0.02 ulp. The correctly rounded exp of a value at
    most 1 adds under 0.01 ulp, and the final rounding half an ulp.
    """
    if num < 0 or den < 1:
        raise ValueError("need num >= 0 and den >= 1")
    ctx = _context(prec + 2)
    return _scaled(ctx.exp(ctx.divide(-num, den)), prec)


def round_div(value: int, unit: int) -> int:
    """value / unit rounded half to even, for a unit >= 1."""
    if unit < 1:
        raise ValueError("the unit must be positive")
    if value < 0:
        return -round_div(-value, unit)
    q, r = divmod(value, unit)
    if 2 * r > unit or (2 * r == unit and q % 2):
        q += 1
    return q


def round_scaled(value: int, from_prec: int, to_digits: int) -> int:
    """Rescale value from 10**from_prec to 10**to_digits, half to even."""
    if to_digits > from_prec:
        raise ValueError("cannot round to more digits than computed")
    return round_div(value, 10 ** (from_prec - to_digits))


def format_scaled(scaled: int, digits: int) -> str:
    """Decimal string of scaled/10**digits with exactly ``digits`` places."""
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"
