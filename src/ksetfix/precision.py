"""Fixed-point integer arithmetic with audited error bounds.

Every routine here computes on plain integers scaled by a power of ten
and comes with a worst-case error bound in units of the last place (ulp)
of the *requested* scale. Internally each routine works with GUARD extra
decimal digits; the coarse internal error bounds (series truncation plus
one ulp per floor division, at most a few thousand ulp in the worst case,
checked against ``_INTERNAL_BUDGET``) shrink by 10**GUARD on the way
out, so every public routine returns a value within 2 ulp of the true
one. Callers that combine several routines budget a few more guard
digits of their own; see :func:`ksetfix.limits.evaluate`.

Nothing here rounds to nearest except :func:`round_scaled`, which is the
single place where half-to-even output rounding happens.
"""

from __future__ import annotations

from math import isqrt

GUARD = 10
_INTERNAL_BUDGET = 10 ** (GUARD - 2)  # checked ceiling on internal ulp error


def _exp_series(num: int, den: int, scale: int) -> int:
    """scale * e^{num/den} for num, den > 0, shortfall in [0, ~40*terms] ulp.

    Plain Taylor sum with one floor division per term; each step's unit
    error is amplified by the remaining factors (num/den)/i, which for
    num/den <= 6 total below a factor 40.
    """
    term = scale
    total = scale
    i = 1
    while term:
        term = term * num // (den * i)
        total += term
        i += 1
    if not 40 * i < _INTERNAL_BUDGET:
        raise AssertionError("exp series error exceeds the internal budget")
    return total


def exp_neg_fraction(num: int, den: int, prec: int) -> int:
    """floor-ish of e^{-num/den} * 10**prec, within 2 ulp; num >= 0, den >= 1.

    Computed as the reciprocal of the positive series so that no
    cancellation occurs; the reciprocal keeps the relative error, which
    only shrinks under e^{-2q}.
    """
    if num < 0 or den < 1:
        raise ValueError("need num >= 0 and den >= 1")
    if num == 0:
        return 10**prec
    s = 10 ** (prec + GUARD)
    pos = _exp_series(num, den, s)
    return s * s // pos // 10**GUARD


def exp_small(x_scaled: int, prec: int) -> int:
    """e^{x/10**prec} * 10**prec for 0 <= x/10**prec <= 2, within 2 ulp."""
    s = 10 ** (prec + GUARD)
    x = x_scaled * 10**GUARD
    if not 0 <= x <= 2 * s:
        raise ValueError("argument out of the supported [0, 2] range")
    return _exp_series(x, s, s) // 10**GUARD


def _ln2(scale: int) -> int:
    # 2*atanh(1/3), exact rational terms; shortfall <= terms+2 ulp
    total = 0
    i = 0
    p = 3
    while True:
        t = scale // (p * (2 * i + 1))
        if not t:
            break
        total += t
        i += 1
        p *= 9
    if not 2 * i < _INTERNAL_BUDGET:
        raise AssertionError("ln 2 series error exceeds the internal budget")
    return 2 * total


def _atanh_twice(z: int, scale: int) -> int:
    # 2*atanh(z/scale) for 0 <= z <= scale/3 + 1
    zz = z * z // scale
    total = z
    term = z
    i = 1
    while term:
        term = term * zz // scale
        i += 2
        total += term // i
    if not 2 * i < _INTERNAL_BUDGET:
        raise AssertionError("atanh series error exceeds the internal budget")
    return 2 * total


def ln_scaled(x_scaled: int, prec: int) -> int:
    """ln(x/10**prec) * 10**prec, within 2 ulp; x_scaled > 0.

    Range-reduces by powers of two into [1, 2), each halving costing at
    most one internal ulp, then sums the atanh series of (y-1)/(y+1).
    """
    if x_scaled <= 0:
        raise ValueError("logarithm argument must be positive")
    s = 10 ** (prec + GUARD)
    y = x_scaled * 10**GUARD
    m = 0
    while y < s:
        y <<= 1
        m -= 1
    halvings = 0
    while y >= 2 * s:
        y >>= 1
        m += 1
        halvings += 1
    if not halvings < 2100:  # error halvings ulp, far under budget
        raise AssertionError("ln range reduction exceeds the internal budget")
    core = _atanh_twice((y - s) * s // (y + s), s)
    val = core + m * _ln2(s)
    g = 10**GUARD
    return val // g if val >= 0 else -(-val // g)


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


def round_scaled(value: int, from_prec: int, to_digits: int) -> int:
    """Rescale value from 10**from_prec to 10**to_digits, half to even."""
    if to_digits > from_prec:
        raise ValueError("cannot round to more digits than computed")
    if value < 0:
        return -round_scaled(-value, from_prec, to_digits)
    unit = 10 ** (from_prec - to_digits)
    q, r = divmod(value, unit)
    if 2 * r > unit or (2 * r == unit and q % 2):
        q += 1
    return q


def format_scaled(scaled: int, digits: int) -> str:
    """Decimal string of scaled/10**digits with exactly ``digits`` places."""
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"
