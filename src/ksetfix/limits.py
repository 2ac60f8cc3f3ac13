"""Limiting fix probabilities via exact exponential polynomials.

As the degree grows, the number of j-cycles of a uniform random
permutation tends to an independent Poisson count with mean 1/j, so the
limiting probability that no k-subset is fixed equals the probability
that the random partition with Poisson(1/j) parts of size j is k-free.
Summing over the k-free rows (m_1, ..., m_{k-1}), each row contributes
the product of per-position weights

    x_j(r) = e^{-1/j} / (j^{m_j} m_j!)                   if m_j < floor(k/j)
    x_j(r) = 1 - e^{-1/j} * sum_{i<floor(k/j)} 1/(j^i i!)   if m_j = floor(k/j)

(the capped case charges the row with every tail multiplicity at once),
times e^{-1/k} for the omitted k-cycle position. The total is kept as an
exact :class:`~ksetfix.exppoly.ExpPoly` and evaluated once at the end to
any requested number of decimal places.

Rows are never built. Whether a row prefix extends to a k-free row
depends only on its achievable-sum mask A (the sizes of its
sub-multisets, truncated below k - j after position j), so the sum is a
dynamic programme over the positions j <= k/2 with states (A, E) ->
integer numerator, where E is the exponent mask collected so far. Every
numerator shares the denominator prod_{j <= k/2} j^{b_j} b_j! with b_j =
floor((k-1)/j), so an uncapped multiplicity m adds bit j to E and
multiplies by the integer j^{b_j} b_j! / (j^m m!), and the capped one
splits the state into the two terms of its binomial weight. A row count
per A rides along. The polynomial keeps the numerators over that one
denominator.

Positions k/2 < j < k are settled in closed form, by the rule in the
docstring of :func:`~ksetfix.partitions.part_ladder`: m_j = 1, the
capped case with weight 1 - e^{-1/j}, is allowed exactly when bit k-j
of A is clear. An allowed position contributes e^{-1/j} + (1 - e^{-1/j})
= 1 and doubles the row count; a forbidden one contributes e^{-1/j}.
This reproduces the row-by-row sum exactly.

The limiting CLI commands check this count, through
:func:`limiting_survival_checked`, against the independent one of
:func:`ksetfix.table.enumerate_rows`, a dynamic programme over row
prefixes that also gives the pruning counters. Only ``limit
--emit-rows`` writes the rows, by :func:`ksetfix.table.write_rows`,
which walks them split at k/2 as here.

The comparison with the order k^-delta (ln k)^-3/2 of i(k) takes the
fix probability from :func:`evaluate` and the growth factor from the
correctly rounded ``ln``, ``exp`` and ``sqrt`` of the stdlib
:mod:`decimal` module, every operation in one explicit context, so the
caller's thread context changes no digit; see :func:`efg_ratio`.
"""

from __future__ import annotations

from decimal import Context, Decimal
from math import factorial
from typing import NamedTuple

from .exppoly import ExpPoly
from .partitions import free_large_parts, part_ladder
from .precision import (
    _context,
    _scaled,
    exp_neg_fraction,
    format_scaled,
    round_scaled,
)
from .table import TableStats, enumerate_rows

# extra decimal digits carried by evaluate() beyond the requested ones,
# on top of the digits of the coefficient mass; evaluate_scaled errs by
# under 0.1 ulp per unit of mass plus one final floor, which these cover
# many times over
_EVAL_GUARD = 12

# extra digits carried by decay_exponent() and efg_ratio() beyond the
# requested ones; efg_ratio's growth factor, below 10**3 for k < 10**9,
# spends 3 of them
_RATIO_GUARD = 5


class HighPrecisionDecimal(NamedTuple):
    """A decimal with certified absolute error below 10**-digits."""

    digits: int
    scaled: int  # the value times 10**digits, rounded half to even

    @property
    def value(self) -> str:
        return format_scaled(self.scaled, self.digits)

    def __str__(self) -> str:
        return self.value

    def complement(self) -> HighPrecisionDecimal:
        """1 - value to the same places, with the same certificate.

        The value is x rounded half to even at scale 10**digits, which is
        even, so rounding 1 - x the same way gives this same string.
        """
        return HighPrecisionDecimal(self.digits, 10**self.digits - self.scaled)


def limiting_survival(k: int) -> ExpPoly:
    """Exact limiting probability that no k-subset is fixed, as an ExpPoly."""
    return limiting_survival_with_stats(k)[0]


def limiting_survival_with_stats(k: int) -> tuple[ExpPoly, int]:
    """Like :func:`limiting_survival`, also returning the number of k-free rows.

    Its states hold sums trimmed by :func:`~ksetfix.partitions.part_ladder`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    common = 1
    # achievable-sum mask -> {exponent mask: numerator over common}
    states: dict[int, dict[int, int]] = {1: {0: 1}}
    rows: dict[int, int] = {1: 1}  # achievable-sum mask -> row prefixes
    for j in range(1, k // 2 + 1):
        b = (k - 1) // j
        w = j**b * factorial(b)
        common *= w
        ebit = 1 << (j - 1)
        scale = [w // (j**m * factorial(m)) for m in range(b + 1)]
        capped = k % j != 0  # then m = b reaches floor(k/j)
        tail = sum(scale[:b])  # w * sum_{i<floor(k/j)} 1/(j^i i!)
        nxt: dict[int, dict[int, int]] = {}
        nxt_rows: dict[int, int] = {}
        for reach, nums in states.items():
            count = rows[reach]
            for m, key in enumerate(part_ladder(reach, j, k)):
                out = nxt.setdefault(key, {})
                nxt_rows[key] = nxt_rows.get(key, 0) + count
                if capped and m == b:
                    for e, v in nums.items():
                        out[e] = out.get(e, 0) + v * w
                        out[e | ebit] = out.get(e | ebit, 0) - v * tail
                else:
                    c = scale[m]
                    for e, v in nums.items():
                        out[e | ebit] = out.get(e | ebit, 0) + v * c
        states, rows = nxt, nxt_rows
    return _expand_groups(k, states, rows, common)


def _expand_groups(
    k: int, states: dict[int, dict[int, int]], rows: dict[int, int], common: int
) -> tuple[ExpPoly, int]:
    """Settle the positions k/2 < j <= k of every achievable-sum group at once."""
    total: dict[int, int] = {}
    row_count = 0
    large = (1 << k) - (1 << (k // 2))  # bits j - 1 for k/2 < j <= k
    for reach, nums in states.items():
        # e^{-1/k}, and e^{-1/j} for each large j that is not free
        free = free_large_parts(reach, k)
        forced = large & ~free
        row_count += rows[reach] << free.bit_count()
        for e, v in nums.items():
            total[e | forced] = total.get(e | forced, 0) + v
    return ExpPoly(total, common), row_count


def limiting_survival_checked(k: int) -> tuple[ExpPoly, TableStats]:
    """The survival polynomial, and the table counters that check it.

    The counters come from :func:`~ksetfix.table.enumerate_rows`, which
    counts the k-free rows without visiting them. A row count that
    differs from the survival programme's is an internal invariant
    violation.
    """
    survival, rows = limiting_survival_with_stats(k)
    stats = enumerate_rows(k)
    if stats.rows_emitted != rows:
        raise AssertionError(
            f"the table counted {stats.rows_emitted} rows, the DP {rows}"
        )
    return survival, stats


def evaluate_scaled(poly: ExpPoly, prec: int) -> int:
    """poly evaluated at scale 10**prec; error under (sum|c|/den / 10 + 1) ulp.

    With w the largest j in any term, the w seeds y_j = e^{-1/j} come
    from :func:`~ksetfix.precision.exp_neg_fraction` at the working scale
    S = 10**(prec + g), g = len(str(3w)) + 1. A term's exponential is a
    memoised integer product: the value for a mask is y_top times the
    value for the mask without its top bit, floored at scale S.

    Audit, in units of 1/S: a seed is off by at most 2. A product of a
    seed off by a and a prefix off by b (both values at most S) is off by
    at most |a| + |b| + |ab|/S plus the floor's 1, so a term with p bits
    is off by under 3p + 1 units (the cross terms stay far below one unit
    for S > 6w^2). The integer numerators c combine these exactly, and
    one floor division by den * 10**g ends it, so the result errs by
    under (3w + 1) * sum|c|/den / 10**g + 1 ulp. As 10**g >= 10 * (3w + 1),
    that is under 0.1 ulp per unit of coefficient mass plus one floor,
    inside the budget of one ulp per unit plus one that :func:`evaluate`
    checks.
    """
    w = max(poly.terms, default=0).bit_length()
    g = len(str(3 * w)) + 1
    one = 10 ** (prec + g)
    seeds = [exp_neg_fraction(1, j, prec + g) for j in range(1, w + 1)]
    memo = {0: one}

    def exp_of(mask: int) -> int:
        value = memo.get(mask)
        if value is None:
            top = mask.bit_length() - 1
            value = seeds[top] * exp_of(mask ^ (1 << top)) // one
            memo[mask] = value
        return value

    total = sum(c * exp_of(mask) for mask, c in poly.terms.items())
    return total // (poly.den * 10**g)


def evaluate(poly: ExpPoly, digits: int) -> HighPrecisionDecimal:
    """Evaluate an ExpPoly to ``digits`` decimal places, certified.

    The working precision carries the digits of the coefficient mass
    sum|c|/den on top of :data:`_EVAL_GUARD`, and the error budget of
    mass + 1 ulp, which covers the error of :func:`evaluate_scaled`, is
    checked to stay below half an output ulp; the check raises, also
    under ``python -O``. The half-even output rounding then keeps the
    printed string within 10**-digits of the true value.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    mass = sum(map(abs, poly.terms.values())) // poly.den + 1
    prec = digits + _EVAL_GUARD + len(str(mass))
    if not 2 * (mass + 1) < 10 ** (prec - digits):
        raise AssertionError("evaluation error budget exceeds half an output ulp")
    return HighPrecisionDecimal(
        digits, round_scaled(evaluate_scaled(poly, prec), prec, digits)
    )


def limiting_fix_probability(k: int, digits: int) -> HighPrecisionDecimal:
    """i(k) = 1 - survival, to ``digits`` places."""
    return evaluate(limiting_survival(k), digits).complement()


def _delta(ctx: Context) -> Decimal:
    """The decay exponent 1 - (1 + ln ln 2)/ln 2, every operation in ctx."""
    ln2 = ctx.ln(2)
    return ctx.subtract(1, ctx.divide(ctx.add(1, ctx.ln(ln2)), ln2))


def decay_exponent(digits: int) -> HighPrecisionDecimal:
    """The comparison-curve exponent (about 0.08607) to ``digits`` places.

    This is the exponent delta = 1 - (1 + ln ln 2)/ln 2 of Eberhard, Ford
    and Green, "Permutations fixing a k-set" (IMRN 2016), who show that
    i(k) is of order k^-delta (ln k)^-3/2.

    Audit: in a context of digits + 5 significant digits, each of the
    five correctly rounded operations errs by a relative half unit in the
    last place, 5 * 10**-(digits+5). Through ln ln 2 and the quotient
    they leave delta off by under five such units, under 10**-(digits+3),
    and the exact conversion then rounds half to even once.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return HighPrecisionDecimal(
        digits, _scaled(_delta(_context(digits + _RATIO_GUARD)), digits)
    )


def efg_ratio(k: int, digits: int) -> HighPrecisionDecimal:
    """i(k) / (k^-d (ln k)^-3/2) with d the decay exponent, to ``digits`` places.

    The comparison curve is the order of i(k) found by Eberhard, Ford and
    Green, "Permutations fixing a k-set" (IMRN 2016). The ratio is the
    fix probability from :func:`limiting_fix_probability` at digits + G
    places, G = :data:`_RATIO_GUARD`, times the growth factor k^d
    (ln k)^3/2 from the correctly rounded ``ln``, ``exp`` and ``sqrt`` of
    one decimal context of digits + G + 4 significant digits.

    Audit: the fix probability errs by under 10**-(digits+G), and for
    k < 10**9 the growth factor is below 10**3, so that error reaches
    the ratio as under 10**-(digits+2). Each of the twelve correctly
    rounded decimal operations costs a relative half unit in the last
    place, 5 * 10**-(digits+G+4); the cancellation in d (about elevenfold)
    and the exponent d ln k < 1.8 add them up to a relative error of the
    ratio under 10**-(digits+G+1), under 10**-(digits+3) absolute as the
    ratio is below 10**3. The exact conversion of the product then rounds
    half to even once, so the printed value is within 10**-digits of the
    true ratio.
    """
    if k < 2:
        raise ValueError("the ratio needs k >= 2 (positive ln k)")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    fix = limiting_fix_probability(k, digits + _RATIO_GUARD)
    ctx = _context(digits + _RATIO_GUARD + 4)
    lnk = ctx.ln(k)
    growth = ctx.multiply(
        ctx.exp(ctx.multiply(_delta(ctx), lnk)),
        ctx.multiply(lnk, ctx.sqrt(lnk)),
    )
    value = ctx.multiply(ctx.scaleb(fix.scaled, -fix.digits), growth)
    return HighPrecisionDecimal(digits, _scaled(value, digits))
