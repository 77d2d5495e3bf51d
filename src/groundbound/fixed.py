"""Fixed-point integer bounds: the one precision policy of every integer
certificate.

A real x is carried as two integers lo <= 2^FIXED_BITS x <= hi.  Sums of
lower (upper) bounds stay lower (upper) bounds, so a certificate built
from them is a chain of integer inequalities.  Both the pair search
(`pairs`) and the least-N solver (`bounds`) read their signs this way,
through one rule, `_fixed_sign`: GREATER when lo > 0, LESS when hi < 0,
and only when the bounds straddle 0 a certified comparison that the
caller hands in and that is built only then.

Bounds come from two sources.  `_fixed` rounds one `balls.eval_ball`
enclosure outward to multiples of 2^-FIXED_BITS, by shifting the
endpoints' mantissas.  `_ln_prime_table` gives
ln p for every prime p <= LN_TABLE_LIMIT without interval arithmetic,
from integer atanh series; `_fixed_ln` sums it along a factorisation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .balls import DEFAULT_CAP_BITS, GREATER, LESS, Const, Expr, Ln, eval_ball
from .cyclo import _factorize, _smallest_prime_factors

# fixed-point bounds are integers in units of 2^-FIXED_BITS
FIXED_BITS = 64
# extra bits the integer ln p table carries before rounding to FIXED_BITS
LN_GUARD_BITS = 16
# the integer ln p table covers the primes up to here
LN_TABLE_LIMIT = 4096


def _fixed(expr: Expr, cap_bits: int = DEFAULT_CAP_BITS, accept=None) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^FIXED_BITS * expr <= hi, from one enclosure
    (`balls.eval_ball` from 64 bits, never above `cap_bits`, raised until
    `accept(ball)` when given)."""
    ball = eval_ball(expr, cap_bits=cap_bits, accept=accept)
    return _scaled(ball.lower, False), _scaled(ball.upper, True)


def _fixed_sign(lo: int, hi: int, fallback) -> str:
    """Certified sign of x from lo <= 2^FIXED_BITS x <= hi: GREATER when
    lo > 0, LESS when hi < 0, else `fallback()`, a certified comparison
    of x with 0 that is called (and so built) only when the bounds
    straddle 0."""
    if lo > 0:
        return GREATER
    if hi < 0:
        return LESS
    return fallback()


def _scaled(x, up: bool) -> int:
    """floor (ceil when `up`) of 2^FIXED_BITS x for an mpf
    x = (-1)^sign man 2^exp, exact: a shift of the signed mantissa."""
    sign, man, exp, _ = x._mpf_
    man, exp = int(-man if sign else man), exp + FIXED_BITS
    if exp >= 0:
        return man << exp
    return -(-man >> -exp) if up else man >> -exp


def _fixed_atanh_inverse(n: int, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^bits atanh(1/n) <= hi, for n >= 3.

    atanh(1/n) = sum_j 1 / ((2j + 1) n^(2j + 1)).  The terms with
    n^(2j + 1) <= 2^bits are summed, each floored for lo and ceiled for
    hi; the rest, for j >= J, is at most
    x^(2J + 1) / ((2J + 1) (1 - x^2)) at x = 1/n, added to hi rounded up.
    """
    one = 1 << bits
    lo = hi = 0
    j, power = 0, n  # power = n^(2j + 1)
    while power <= one:
        lo += one // ((2 * j + 1) * power)
        hi -= -one // ((2 * j + 1) * power)
        j, power = j + 1, power * n * n
    hi -= -(one * n * n) // ((2 * j + 1) * power * (n * n - 1))
    return lo, hi


@cache
def _ln_prime_table() -> dict[int, tuple[int, int]]:
    """{p: (lo, hi)} with lo <= 2^FIXED_BITS ln p <= hi for the primes
    p <= LN_TABLE_LIMIT, in integer arithmetic only.

    ln p = ln(p - 1) + ln(p / (p - 1)) = ln(p - 1) + 2 atanh(1/(2p - 1)),
    since (1 + y) / (1 - y) = p / (p - 1) at y = 1/(2p - 1); for p = 2 this
    is ln 2 = 2 atanh(1/3).  ln(p - 1) is the sum of the bounds of the
    smaller primes along the factorisation of p - 1.  Bounds are carried
    in units of 2^-(FIXED_BITS + LN_GUARD_BITS) and sums of lower (upper)
    bounds stay lower (upper) bounds; at the end lo is rounded down and hi
    up to units of 2^-FIXED_BITS, so every enclosure still holds.
    """
    bits = FIXED_BITS + LN_GUARD_BITS
    spf = _smallest_prime_factors(LN_TABLE_LIMIT)
    fine: dict[int, tuple[int, int]] = {}
    for p in range(2, LN_TABLE_LIMIT + 1):
        if spf[p] != p:
            continue
        lo, hi = _fixed_atanh_inverse(2 * p - 1, bits)
        lo, hi = 2 * lo, 2 * hi
        x = p - 1
        while x > 1:
            q = spf[x]
            lo, hi = lo + fine[q][0], hi + fine[q][1]
            x //= q
        fine[p] = lo, hi
    return {p: (lo >> LN_GUARD_BITS, -(-hi >> LN_GUARD_BITS)) for p, (lo, hi) in fine.items()}


@cache
def _fixed_ln_prime(p: int) -> tuple[int, int]:
    """Fixed-point bounds of ln p: the integer table for p <= LN_TABLE_LIMIT,
    one interval enclosure above it."""
    if p <= LN_TABLE_LIMIT:
        return _ln_prime_table()[p]
    return _fixed(Ln(Const(Fraction(p))))


def _fixed_ln(n: int) -> tuple[int, int]:
    """Fixed-point bounds of ln n for n >= 1, summed along its factorisation."""
    lo = hi = 0
    for p, v in _factorize(n):
        a, b = _fixed_ln_prime(p)
        lo, hi = lo + v * a, hi + v * b
    return lo, hi
