"""Fixed-point integer arithmetic with audited error bounds.

Every routine here returns a plain integer scaled by a power of ten and
comes with a worst-case error bound in units of the last place (ulp) of
the *requested* scale. The exponentials and logarithms come from the
stdlib :mod:`decimal` module, whose ``exp`` and ``ln`` are correctly
rounded, evaluated in an explicit context of their own, so the caller's
thread context never touches a result. The context carries enough
significant digits to hold the result to 2 decimal places beyond the
requested scale, so each decimal rounding costs at most a few hundredths
of an ulp; the exact conversion to the scaled integer rounds once more,
by at most half an ulp. Every public routine thus returns a value within
2 ulp of the true one. Callers that combine several routines budget a
few more guard digits of their own; see :func:`ksetfix.limits.evaluate`.

Integers are rounded to nearest only by :func:`round_div`, the single
place of half-to-even rounding, which the printed limiting and finite
values both go through.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from math import isqrt


def _context(digits: int) -> Context:
    """A half-even context of ``digits`` significant digits, exponents unbounded."""
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


def exp_small(x_scaled: int, prec: int) -> int:
    """e^{x/10**prec} * 10**prec for 0 <= x/10**prec <= 2, within 2 ulp.

    The argument is exact; the correctly rounded exp of a value below 10
    with prec + 3 significant digits is off by under 0.01 ulp, and the
    final rounding adds half an ulp.
    """
    if not 0 <= x_scaled <= 2 * 10**prec:
        raise ValueError("argument out of the supported [0, 2] range")
    return _scaled(_context(prec + 3).exp(Decimal(f"{x_scaled}e-{prec}")), prec)


def ln_scaled(x_scaled: int, prec: int) -> int:
    """ln(x/10**prec) * 10**prec, within 2 ulp; x_scaled > 0.

    The argument is exact. |ln x| < 3 * (digits of x_scaled + prec), so
    with that bound's digit count on top of prec + 2 significant digits
    the correctly rounded ln is off by under 0.01 ulp, and the final
    rounding adds half an ulp.
    """
    if x_scaled <= 0:
        raise ValueError("logarithm argument must be positive")
    whole = len(str(3 * (len(str(x_scaled)) + prec)))
    ctx = _context(prec + 2 + whole)
    return _scaled(ctx.ln(Decimal(f"{x_scaled}e-{prec}")), prec)


def ln_int(n: int, prec: int) -> int:
    """ln(n) * 10**prec for an integer n >= 1, within 2 ulp."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ln_scaled(n * 10**prec, prec)


def pow_three_halves(x_scaled: int, prec: int) -> int:
    """(x/10**prec)^{3/2} * 10**prec, within a few ulp times (x/10**prec); x >= 0.

    isqrt(x^3 / 10**prec) is the floor square root of an exactly computed
    integer, so its own contribution is under 2 ulp; an e-ulp error on x
    enters as 1.5*sqrt(x)*e.
    """
    if x_scaled < 0:
        raise ValueError("x must be >= 0")
    return isqrt(x_scaled**3 // 10**prec)


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
