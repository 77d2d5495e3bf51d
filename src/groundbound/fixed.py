"""Fixed-point integer bounds: the one precision policy of every integer
certificate.

A real x is carried as two integers lo <= 2^bits x <= hi, at bits =
FIXED_BITS unless a caller asks for more.  Sums of lower (upper) bounds
stay lower (upper) bounds, so a certificate built from them is a chain of
integer inequalities.  Both the pair search (`pairs`) and the least-N
solver (`bounds`) read their signs this way, through one rule,
`_fixed_sign`: GREATER when lo > 0, LESS when hi < 0, else the caller's
fallback, built only then: a certified comparison in the solver, the
same kernels at the next precision of `balls.precisions` in `pairs`.

Every logarithm on a decision path comes from integers:

- `_ln_prime_table`: ln p at 64 bits for every prime p <= LN_TABLE_LIMIT,
  from integer atanh series; `_fixed_ln` sums ln p along a factorisation.
- `_ln_fine` / `_fixed_ln_ratio`: ln(a/b) for any positive rational, by a
  power-of-2 reduction and one atanh series with a proven error bound.
- `_fixed_neg_ln_sin`: -ln sin(pi/x) for x >= 3, as
  ln x - ln pi - ln(sin t / t) with an alternating series for sin t / t.

Kernels work in units of 2^-(bits + LN_GUARD_BITS) and round outward to
units of 2^-bits once, at the end.  The one interval enclosure left in
the kit is pi's (`_pi_fine`, once per precision); `_fixed` rounds any
other `balls.eval_ball` enclosure outward to fixed point (`balls.scaled`)
for the callers that still need one (an irrational leaf of the solver's
data).
"""

from __future__ import annotations

from functools import cache

from .balls import DEFAULT_CAP_BITS, GREATER, LESS, PI, Expr, eval_ball, scaled
from .cyclo import _factorize, _smallest_prime_factors

# fixed-point bounds are integers in units of 2^-FIXED_BITS
FIXED_BITS = 64
# extra bits the integer log kernels carry before rounding to FIXED_BITS
LN_GUARD_BITS = 16
# the integer ln p table covers the primes up to here
LN_TABLE_LIMIT = 4096
# working precision of the integer log kernels at FIXED_BITS
FINE_BITS = FIXED_BITS + LN_GUARD_BITS


def _fixed(expr: Expr, cap_bits: int = DEFAULT_CAP_BITS, accept=None,
           bits: int = FIXED_BITS) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^bits * expr <= hi, from one enclosure
    (`balls.eval_ball` from 64 bits, never above `cap_bits`, raised until
    `accept(ball)` when given)."""
    ball = eval_ball(expr, cap_bits=cap_bits, accept=accept)
    return scaled(ball.lower, False, bits), scaled(ball.upper, True, bits)


def _fixed_sign(lo: int, hi: int, fallback) -> str:
    """Certified sign of x from lo <= 2^bits x <= hi: GREATER when
    lo > 0, LESS when hi < 0, else `fallback()`, called (and so built)
    only when the bounds straddle 0: a certified comparison of x with 0,
    or None to ask for more bits."""
    if lo > 0:
        return GREATER
    if hi < 0:
        return LESS
    return fallback()


def _to_fixed(lo: int, hi: int) -> tuple[int, int]:
    """Bounds in units of 2^-(bits + LN_GUARD_BITS) rounded outward to
    units of 2^-bits."""
    return lo >> LN_GUARD_BITS, -(-hi >> LN_GUARD_BITS)


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
    in units of 2^-FINE_BITS and sums of lower (upper)
    bounds stay lower (upper) bounds; at the end lo is rounded down and hi
    up to units of 2^-FIXED_BITS, so every enclosure still holds.
    """
    spf = _smallest_prime_factors(LN_TABLE_LIMIT)
    fine: dict[int, tuple[int, int]] = {}
    for p in range(2, LN_TABLE_LIMIT + 1):
        if spf[p] != p:
            continue
        lo, hi = _fixed_atanh_inverse(2 * p - 1, FINE_BITS)
        lo, hi = 2 * lo, 2 * hi
        x = p - 1
        while x > 1:
            q = spf[x]
            lo, hi = lo + fine[q][0], hi + fine[q][1]
            x //= q
        fine[p] = lo, hi
    return {p: _to_fixed(lo, hi) for p, (lo, hi) in fine.items()}


@cache
def _fixed_ln_prime(p: int, bits: int) -> tuple[int, int]:
    """Bounds of 2^bits ln p: the integer table at FIXED_BITS for
    p <= LN_TABLE_LIMIT, the rational kernel `_fixed_ln_ratio` otherwise."""
    if bits == FIXED_BITS and p <= LN_TABLE_LIMIT:
        return _ln_prime_table()[p]
    return _fixed_ln_ratio(p, 1, bits)


def _fixed_ln(n: int, bits: int = FIXED_BITS) -> tuple[int, int]:
    """Bounds of 2^bits ln n for n >= 1, summed along its factorisation."""
    lo = hi = 0
    for p, v in _factorize(n):
        a, b = _fixed_ln_prime(p, bits)
        lo, hi = lo + v * a, hi + v * b
    return lo, hi


@cache
def _ln2_fine(bits: int) -> tuple[int, int]:
    """Bounds of 2^W ln 2 = 2^W 2 atanh(1/3), W = bits + LN_GUARD_BITS."""
    lo, hi = _fixed_atanh_inverse(3, bits + LN_GUARD_BITS)
    return 2 * lo, 2 * hi


def _atanh_fine(p: int, q: int, bits: int = FIXED_BITS) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^W atanh(p/q) <= hi, W = bits + LN_GUARD_BITS,
    for q > 0 and |p| / q = t <= 1/5.

    atanh is odd, so take p >= 0.  With x = 2^W t, the
    integers T = floor(x), T2 = floor(T^2 / 2^W), P_0 = T and
    P_(i+1) = floor(P_i T2 / 2^W) are lower bounds of 2^W t, 2^W t^2 and
    2^W t^(2i+1), so lo = sum_(i < J) floor(P_i / (2i+1)), summed until
    P_J = 0, is a lower bound of 2^W atanh(t).

    Upper bound.  T2 > (x - 1)^2 / 2^W - 1 >= 2^W t^2 - 2t - 1, so
    d = 2^W t^2 - T2 < 1.4.  The errors E_i = 2^W t^(2i+1) - P_i satisfy
    E_0 < 1 and E_(i+1) < d t + E_i t^2 + 1 < 1.28 + 0.04 E_i, so E_i < 2
    for every i.  Each of the J summed terms is then short by less than
    E_i / (2i+1) + 1 < 3.  The tail sum_(i >= J) t^(2i+1) / (2i+1) is at
    most 2^-W (P_J + E_J) / ((2J+1)(1 - t^2)) < 2^-W 2 (25/24) / (2J+1),
    under one unit when J >= 1; when J = 0, x < 1 and 2^W atanh(t) <=
    x / (1 - t^2) < 2.  So hi = lo + 3J + 2.
    """
    if p < 0:
        lo, hi = _atanh_fine(-p, q, bits)
        return -hi, -lo
    w = bits + LN_GUARD_BITS
    t = (p << w) // q
    t2 = t * t >> w
    lo, power, j = 0, t, 1  # power = P_i, j = 2i + 1
    while power:
        lo += power // j
        power = power * t2 >> w
        j += 2
    return lo, lo + 3 * (j // 2) + 2


def _ln_fine(a: int, b: int, bits: int = FIXED_BITS) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^W ln(a/b) <= hi, W = bits + LN_GUARD_BITS, for
    integers a, b > 0.

    With e = bitlen(a) - bitlen(b), r = a / (b 2^e) lies in (1/2, 2); one
    doubling or halving (e adjusted) brings it into [2/3, 3/2].  Then
    ln(a/b) = e ln 2 + ln r and ln r = 2 atanh(y), y = (r - 1)/(r + 1),
    |y| <= 1/5 (`_atanh_fine`).  e ln 2 takes the lower (upper) bound of
    ln 2 for the lower (upper) bound when e >= 0, and the other one when
    e < 0; all of it exact integer arithmetic.
    """
    e = a.bit_length() - b.bit_length()
    num, den = (a, b << e) if e >= 0 else (a << -e, b)
    if 3 * num < 2 * den:
        num, e = 2 * num, e - 1
    elif 2 * num > 3 * den:
        den, e = 2 * den, e + 1
    lo, hi = _atanh_fine(num - den, num + den, bits)
    l2_lo, l2_hi = _ln2_fine(bits)
    if e < 0:
        l2_lo, l2_hi = l2_hi, l2_lo
    return 2 * lo + e * l2_lo, 2 * hi + e * l2_hi


def _fixed_ln_ratio(a: int, b: int, bits: int = FIXED_BITS) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^bits ln(a/b) <= hi, for integers a, b > 0."""
    return _to_fixed(*_ln_fine(a, b, bits))


@cache
def _pi_fine(bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^W pi <= hi, W = bits + LN_GUARD_BITS, from one
    enclosure of pi that `balls.eval_ball` computes at bits + 16 = W
    working bits; at FIXED_BITS it is the one `_fixed(PI)` rounds, so
    rounding these bounds to FIXED_BITS gives `_fixed(PI)`."""
    w = bits + LN_GUARD_BITS
    ball = eval_ball(PI, bits)
    return scaled(ball.lower, False, w), scaled(ball.upper, True, w)


@cache
def _ln_pi_fine(bits: int) -> tuple[int, int]:
    """Bounds of 2^W ln pi, W = bits + LN_GUARD_BITS: ln is increasing, so
    the kernel's lower bound at the lower bound of pi and its upper bound
    at the upper one."""
    pi_lo, pi_hi = _pi_fine(bits)
    one = 1 << (bits + LN_GUARD_BITS)
    return _ln_fine(pi_lo, one, bits)[0], _ln_fine(pi_hi, one, bits)[1]


def _sinc_fine(x: int, bits: int = FIXED_BITS) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^W sin(t) / t <= hi at t = pi/x, x >= 3, with
    W = bits + LN_GUARD_BITS.

    With pi_lo <= 2^W pi <= pi_hi (`_pi_fine`), the
    integers u_lo = floor(pi_lo^2 / (x^2 2^W)) and
    u_hi = ceil(pi_hi^2 / (x^2 2^W)) bound 2^W t^2; let v = u_hi / 2^W,
    at most 1.1 since t <= pi/3.

    sin t / t decreases on (0, pi): its derivative is
    (t cos t - sin t) / t^2, negative because tan t > t on (0, pi/2) and
    cos t <= 0 on [pi/2, pi).  So sin t / t >= sinc(v), writing sinc(v)
    for sin(sqrt v) / sqrt v = sum_j (-1)^j A_j / 2^W with
    A_j = 2^W v^j / (2j+1)!.  As a function of u = t^2, sin t / t has
    derivative sum_(j >= 1) (-1)^j j u^(j-1) / (2j+1)!, an alternating
    series of decreasing terms for u < 10, so of size at most 1/6; hence
    sin t / t <= sinc(v) + (u_hi - u_lo) / (6 2^W).

    The terms A_j decrease (A_(j+1) / A_j = v / ((2j+2)(2j+3)) < 1), so
    partial sums ending on an odd (even) index are lower (upper) bounds
    of sinc(v).  The integers a_0 = 2^W and
    a_j = floor(a_(j-1) u_hi / (2^W 2j (2j+1))) are computed until the
    first a_m = 0; then A_j - a_j = E_j with E_0 = 0 and
    E_j < E_(j-1) v / 6 + 1, so 0 <= E_j < 2.  With s the alternating sum
    of the a_j over j < m, and n_odd, n_even the numbers of odd and even
    j < m, every A_j with j >= m is below 2, so

        s - 2 n_odd - 2  <=  2^W sinc(v)  <=  s + 2 n_even + 2.
    """
    w = bits + LN_GUARD_BITS
    one = 1 << w
    pi_lo, pi_hi = _pi_fine(bits)
    d = x * x << w
    u_lo, u_hi = pi_lo * pi_lo // d, -(-pi_hi * pi_hi // d)
    s = n_odd = 0
    a, j = one, 0
    while a:
        if j & 1:
            s, n_odd = s - a, n_odd + 1
        else:
            s += a
        j += 1
        a = a * u_hi // (one * (2 * j) * (2 * j + 1))
    return s - 2 * n_odd - 2, s + 2 * (j - n_odd) + 2 - (-(u_hi - u_lo) // 6)


@cache
def _fixed_neg_ln_sin(x: int, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^bits (-ln sin(pi/x)) <= hi, for x >= 3.

    -ln sin(pi/x) = ln x - ln pi - ln(sin t / t) at t = pi/x.  The bounds
    of sin t / t (`_sinc_fine`) are positive (sin t / t > 0.8 for
    t <= pi/3), and `_ln_fine` at the upper (lower) one gives the lower
    (upper) bound of -ln(sin t / t).  The sum of the three logarithms is
    rounded outward to `bits` once.
    """
    one = 1 << (bits + LN_GUARD_BITS)
    sinc_lo, sinc_hi = _sinc_fine(x, bits)
    ln_x_lo, ln_x_hi = _ln_fine(x, 1, bits)
    ln_pi_lo, ln_pi_hi = _ln_pi_fine(bits)
    return _to_fixed(ln_x_lo - ln_pi_hi - _ln_fine(sinc_hi, one, bits)[1],
                     ln_x_hi - ln_pi_lo - _ln_fine(sinc_lo, one, bits)[0])
