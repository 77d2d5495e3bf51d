"""Fixed-point integer bounds: the one precision policy of every integer
certificate, and the integer kernels under the interval evaluator.

A real x is carried as two integers lo <= 2^bits x <= hi.  Sums of lower
(upper) bounds stay lower (upper) bounds, so a certificate built from them
is a chain of integer inequalities.  Both the pair search (`pairs`) and the
least-N solver (`bounds`) read their signs this way, through one rule,
`_fixed_sign`: GREATER when lo > 0, LESS when hi < 0, else None; both
rerun their bounds at bits = FIXED_BITS, 128, ... up to the cap
(`balls.settle`) until the rule gives a sign.

Every value comes from integers; no module here imports `balls`:

- `_ln_fine` / `_fixed_ln_ratio`: ln(a/b 2^shift) for any positive
  rational, by a power-of-2 reduction and one atanh series with a proven
  error bound; `_fixed_ln` is its one cached form for ln of an integer.
- `_inverse_series`: atanh(1/n) for ln 2, and atan(1/n) for pi by
  Machin's formula (`_pi_fine`).
- `_fixed_neg_ln_sin`: -ln sin(pi/x) for x >= 3, as
  ln x - ln pi - ln(sin t / t) with an alternating series for sin t / t.
- `_exp_fine` and `_trig_fine`: exp and sin / cos of a dyadic number,
  reduced by ln 2 and by pi/2, for the interval evaluator of `balls`.

Kernels work in units of 2^-(bits + LN_GUARD_BITS) and round outward to
units of 2^-bits once, at the end.
"""

from __future__ import annotations

from functools import cache

# outcomes of a certified comparison (`balls.certify_compare`)
LESS = "LESS"
GREATER = "GREATER"
EQUAL = "EQUAL"
UNDECIDED = "UNDECIDED"

# fixed-point bounds are integers in units of 2^-FIXED_BITS
FIXED_BITS = 64
# extra bits the integer log kernels carry before rounding to `bits`
LN_GUARD_BITS = 16


def _fixed_sign(lo: int, hi: int) -> str | None:
    """Certified sign of x from lo <= 2^bits x <= hi: GREATER when
    lo > 0, LESS when hi < 0, None (ask for more bits) when the bounds
    straddle 0."""
    if lo > 0:
        return GREATER
    if hi < 0:
        return LESS
    return None


def _to_fixed(lo: int, hi: int) -> tuple[int, int]:
    """Bounds in units of 2^-(bits + LN_GUARD_BITS) rounded outward to
    units of 2^-bits."""
    return lo >> LN_GUARD_BITS, -(-hi >> LN_GUARD_BITS)


def _inverse_series(n: int, w: int, alternating: bool) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^w f(1/n) <= hi for f = atanh, n >= 3, or, when
    `alternating`, f = atan, n >= 2.

    f(1/n) = sum_j s_j / ((2j + 1) n^(2j + 1)), s_j = 1 for atanh and
    (-1)^j for atan.  The terms with n^(2j + 1) <= 2^w are summed, each
    floored where it adds to lo or subtracts from hi and ceiled otherwise.
    A floor (ceiling) of a floor (ceiling) divided by a positive integer is
    the floor (ceiling) of the whole quotient, so the terms are carried
    down from floor and ceil of 2^w / n^(2j + 1), one small division each.
    The rest, for j >= J: for atanh, at most x^(2J + 1) / ((2J + 1)
    (1 - x^2)) at x = 1/n, added to hi rounded up; for atan, alternating
    with decreasing terms, it has the sign of its first term and is
    smaller than it, below one unit since n^(2J + 1) > 2^w, so lo - 1 and
    hi + 1 hold.
    """
    one, nn = 1 << w, n * n
    lo = hi = 0
    j, power = 0, n  # power = n^(2j + 1)
    down, up = one // n, -(-one // n)  # floor and ceil of 2^w / power
    while power <= one:
        if alternating and j & 1:
            lo, hi = lo + (-up // (2 * j + 1)), hi - down // (2 * j + 1)
        else:
            lo, hi = lo + down // (2 * j + 1), hi - (-up // (2 * j + 1))
        j, power = j + 1, power * nn
        down, up = down // nn, -(-up // nn)
    if alternating:
        return lo - 1, hi + 1
    return lo, hi - (-(one * nn) // ((2 * j + 1) * power * (nn - 1)))


@cache
def _ln2_fine(bits: int) -> tuple[int, int]:
    """Bounds of 2^W ln 2 = 2^W 2 atanh(1/3), W = bits + LN_GUARD_BITS."""
    lo, hi = _inverse_series(3, bits + LN_GUARD_BITS, False)
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


def _ln_fine(a: int, b: int, bits: int = FIXED_BITS, shift: int = 0) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^W ln(a/b 2^shift) <= hi, W = bits +
    LN_GUARD_BITS, for integers a, b > 0.

    With e = bitlen(a) - bitlen(b), r = a / (b 2^e) lies in (1/2, 2); one
    doubling or halving (e adjusted) brings it into [2/3, 3/2].  Then
    ln(a/b 2^shift) = (e + shift) ln 2 + ln r and ln r = 2 atanh(y),
    y = (r - 1)/(r + 1), |y| <= 1/5 (`_atanh_fine`).  The multiple of ln 2
    takes the lower (upper) bound of ln 2 for the lower (upper) bound when
    it is nonnegative, and the other one when it is negative; all of it
    exact integer arithmetic, and no integer is shifted by `shift`.
    """
    e = a.bit_length() - b.bit_length()
    num, den = (a, b << e) if e >= 0 else (a << -e, b)
    if 3 * num < 2 * den:
        num, e = 2 * num, e - 1
    elif 2 * num > 3 * den:
        den, e = 2 * den, e + 1
    lo, hi = _atanh_fine(num - den, num + den, bits)
    l2_lo, l2_hi = _ln2_fine(bits)
    e += shift
    if e < 0:
        l2_lo, l2_hi = l2_hi, l2_lo
    return 2 * lo + e * l2_lo, 2 * hi + e * l2_hi


def _fixed_ln_ratio(a: int, b: int, bits: int = FIXED_BITS) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^bits ln(a/b) <= hi, for integers a, b > 0."""
    return _to_fixed(*_ln_fine(a, b, bits))


@cache
def _fixed_ln(n: int, bits: int) -> tuple[int, int]:
    """Bounds of 2^bits ln n for an integer n >= 1: the one kernel for ln
    of an integer, memoized (`bits` has no default, so one value is one
    cache entry)."""
    return _fixed_ln_ratio(n, 1, bits)


@cache
def _machin(w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^w pi <= hi, at most three units apart.

    Machin's formula pi = 16 atan(1/5) - 4 atan(1/239), on the bounds of
    `_inverse_series` at w + g bits: each is at most J + 2 < w + g units
    wide (J terms, J < w + g), so the combination is below 20 (w + g)
    units wide, under 2^g for g = bitlen(w) + 6, and rounding outward by
    g bits leaves at most three units at w.
    """
    g = w.bit_length() + 6
    a_lo, a_hi = _inverse_series(5, w + g, True)
    b_lo, b_hi = _inverse_series(239, w + g, True)
    return (16 * a_lo - 4 * b_hi) >> g, -(-(16 * a_hi - 4 * b_lo) >> g)


@cache
def _pi_fine(bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^W pi <= hi, W = bits + LN_GUARD_BITS: Machin's
    formula (`_machin`) at W rounded up to a multiple of 256 bits, so that
    nearby precisions share one series, rounded outward to W (at most
    four units wide)."""
    w = bits + LN_GUARD_BITS
    top = -(-w // 256) * 256
    lo, hi = _machin(top)
    return lo >> (top - w), -(-hi >> (top - w))


@cache
def _ln_pi_fine(bits: int) -> tuple[int, int]:
    """Bounds of 2^W ln pi, W = bits + LN_GUARD_BITS: ln is increasing, so
    the kernel's lower bound at the lower bound of pi and its upper bound
    at the upper one."""
    pi_lo, pi_hi = _pi_fine(bits)
    one = 1 << (bits + LN_GUARD_BITS)
    return _ln_fine(pi_lo, one, bits)[0], _ln_fine(pi_hi, one, bits)[1]


def _series_fine(u_lo: int, u_hi: int, w: int, odd: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^w f(u / 2^w) <= hi for every u_lo <= u <= u_hi,
    where f(v) = sum_j (-1)^j v^j / (2j + odd)!: sin t / t at odd = 1 and
    cos t at odd = 0, for v = t^2.  Needs 0 <= u_lo <= u_hi and
    v = u_hi / 2^w at most 1.1 (odd = 1) or 1 (odd = 0).

    f decreases in v on [0, 1.1]: as a function of v its derivative is
    sum_(j >= 1) (-1)^j j v^(j-1) / (2j + odd)!, an alternating series of
    decreasing terms for v < 6, so negative and of size at most its first
    term, 1/6 (odd = 1) or 1/2 (odd = 0).  Hence f(v_lo) <= f(v) + D
    (u_hi - u_lo) / 2^w with D that size, and f(v) >= f(v_hi) at
    v_hi = u_hi / 2^w.

    The terms A_j = 2^w v^j / (2j + odd)! at v = v_hi decrease, so
    partial sums ending on an odd (even) index are lower (upper) bounds
    of 2^w f(v).  The integers a_0 = 2^w and
    a_j = floor(a_(j-1) u_hi / (2^w (2j - 1 + odd)(2j + odd))) are
    computed until the first a_m = 0; then A_j - a_j = E_j with E_0 = 0
    and E_j < E_(j-1) v / 2 + 1, so 0 <= E_j < 2.  With s the alternating
    sum of the a_j over j < m, and n_odd, n_even the numbers of odd and
    even j < m, every A_j with j >= m is below 2, so

        s - 2 n_odd - 2  <=  2^w f(v_hi)  <=  s + 2 n_even + 2.
    """
    one = 1 << w
    s = n_odd = 0
    a, j = one, 0
    while a:
        if j & 1:
            s, n_odd = s - a, n_odd + 1
        else:
            s += a
        j += 1
        a = (a * u_hi >> w) // ((2 * j - 1 + odd) * (2 * j + odd))
    return s - 2 * n_odd - 2, s + 2 * (j - n_odd) + 2 - (-(u_hi - u_lo) // (6 if odd else 2))


def _sinc_fine(x: int, bits: int = FIXED_BITS) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^W sin(t) / t <= hi at t = pi/x, x >= 3, with
    W = bits + LN_GUARD_BITS.

    With pi_lo <= 2^W pi <= pi_hi (`_pi_fine`), the integers
    u_lo = floor(pi_lo^2 / (x^2 2^W)) and u_hi = ceil(pi_hi^2 / (x^2 2^W))
    bound 2^W t^2, with u_hi / 2^W at most 1.1 since t <= pi/3; the
    series kernel `_series_fine` bounds sin t / t over them.
    """
    w = bits + LN_GUARD_BITS
    pi_lo, pi_hi = _pi_fine(bits)
    d = x * x << w
    return _series_fine(pi_lo * pi_lo // d, -(-pi_hi * pi_hi // d), w, 1)


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


# -- kernels of the interval evaluator ------------------------------------
#
# Each takes an exact dyadic argument v = m 2^e and returns bounds with
# about W = bits + LN_GUARD_BITS significant bits.


def _shifted(m: int, s: int) -> tuple[int, int]:
    """(floor, ceil) of m 2^s."""
    if s >= 0:
        return m << s, m << s
    return m >> -s, -(-m >> -s)


def _exp_small(x: int, w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^w exp(t) <= hi at t = x / 2^w, |t| <= 1/2.

    For t >= 0 the terms A_j = 2^w t^j / j! are bounded below by a_0 = 2^w
    and a_j = floor(a_(j-1) x / (j 2^w)), summed until the first a_m = 0:
    lo = sum a_j.  The errors E_j = A_j - a_j have E_0 = 0 and
    E_j < E_(j-1) t / j + 1 <= E_(j-1) / 2 + 1, so E_j < 2; the rest
    sum_(j >= m) A_j is at most 2 A_m (A_(j+1) <= A_j / 2) and
    A_m = E_m < 2, so hi = lo + 2m + 4.  For t < 0, exp(t) = 1 / exp(-t):
    the bounds at -t are inverted and rounded outward.
    """
    if x < 0:
        lo, hi = _exp_small(-x, w)
        return (1 << 2 * w) // hi, -(-(1 << 2 * w) // lo)
    s, a, j = 0, 1 << w, 0
    while a:
        s += a
        j += 1
        a = (a * x >> w) // j
    return s, s + 2 * j + 4


def _exp_fine(m: int, e: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, k) with lo 2^(k-W) <= exp(m 2^e) <= hi 2^(k-W),
    W = bits + LN_GUARD_BITS.

    With |v| < 2^p, p = max(bitlen(m) + e, 0), k is the integer nearest
    v / ln 2 (|k| < 2^(p+1)) and r = v - k ln 2, so exp(v) = 2^k exp(r).
    At W2 = W + g, the bounds V of 2^W2 v and L of 2^W2 ln 2 bound 2^W2 r
    by V_lo - k L_hi and V_hi - k L_lo (the roles of L_lo and L_hi swapped
    when k < 0).  L comes from `_ln2_fine` at B < W2 + 256 bits (the next
    multiple of 256 above W2 - 16, plus 16), rounded outward to W2: the
    atanh series has fewer than B / 3 terms, each widening it by at most
    two units, so L is fewer than W2 + 256 units wide, and the bounds of
    2^W2 r are fewer than |k| (W2 + 256) + 1 units apart.
    g = p + 4 + bitlen(W + p + 300) makes W2 + 256 < 2^(g - p - 4), hence
    that width at most 2^(g - 3), and |r| below ln 2 / 2 plus that, under
    1/2.  Rounded outward by g bits they bound 2^W r within two units, and
    `_exp_small` at the lower (upper) one gives the lower (upper) bound:
    exp is increasing.
    """
    w = bits + LN_GUARD_BITS
    if m == 0:
        return 1 << w, 1 << w, 0
    p = max(m.bit_length() + e, 0)
    g = p + 4 + (w + p + 300).bit_length()
    v_lo, v_hi = _shifted(m, e + w + g)
    # ln 2 at the next multiple of 256 bits, so that nearby precisions
    # share one series, rounded outward to W2
    top = -(-(bits + g) // 256) * 256
    l_lo, l_hi = _ln2_fine(top)
    l_lo, l_hi = l_lo >> (top - bits - g), -(-l_hi >> (top - bits - g))
    k = (2 * v_lo + l_lo) // (2 * l_lo)
    if k < 0:
        l_lo, l_hi = l_hi, l_lo
    r_lo, r_hi = v_lo - k * l_hi, v_hi - k * l_lo
    return _exp_small(r_lo >> g, w)[0], _exp_small(-(-r_hi >> g), w)[1], k


def _sin_small(x: int, w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^w sin(t) <= hi at t = x / 2^w, |t| <= 1:
    sin t = t (sin t / t), with 2^w t^2 between floor and ceil of
    x^2 / 2^w (`_series_fine`), and sin odd."""
    if x < 0:
        lo, hi = _sin_small(-x, w)
        return -hi, -lo
    c_lo, c_hi = _series_fine(x * x >> w, -(-x * x >> w), w, 1)
    return x * c_lo >> w, -(-x * c_hi >> w)


def _trig_fine(m: int, e: int, bits: int, quarter: int) -> tuple[int, int, int]:
    """(lo, hi, w) with lo <= 2^w sin(v + quarter pi/2) <= hi at
    v = m 2^e: sin v at quarter = 0, cos v at quarter = 1.

    With |v| < 2^p, p = max(bitlen(m) + e, 0), k is the integer nearest
    v / (pi/2) (|k| < 2^(p+1)) and r = v - k pi/2, so the value is
    sin r, cos r, -sin r or -cos r as (k + quarter) mod 4 is 0, 1, 2, 3.
    At W2 = W + g (W = bits + LN_GUARD_BITS), 2^(W2+1) pi/2 is bounded by
    the bounds P of 2^W2 pi (`_pi_fine`), so 2^(W2+1) r lies between
    V_lo - k P_hi and V_hi - k P_lo (P_lo and P_hi swapped when k < 0),
    within |k| (P_hi - P_lo) + 1 < 2^(p+4) units; |r| <= pi/4 plus that,
    below 4/5.  sin r may be small: with |r| < 2^-z, its bounds are
    kept to W + z bits, and g = p + 4 + z makes their width a few units
    there; z starts from |v| < 2^-z (r = v when k = 0), is read off the
    bounds of r when k != 0, and the pass is repeated while it grows.
    sin is increasing on |r| <= 4/5 and cos decreasing in |r|, so the
    series kernels at the ends of r give the bounds.
    """
    w = bits + LN_GUARD_BITS
    if m == 0:
        return (0, 0, w) if quarter == 0 else (1 << w, 1 << w, w)
    p = max(m.bit_length() + e, 0)
    z = max(-(m.bit_length() + e), 0)  # |v| < 2^-z
    while True:
        g = p + 4 + z
        v_lo, v_hi = _shifted(m, e + w + g + 1)
        p_lo, p_hi = _pi_fine(bits + g)
        k = (2 * v_lo + p_lo) // (2 * p_lo)
        if k < 0:
            p_lo, p_hi = p_hi, p_lo
        r_lo, r_hi = v_lo - k * p_hi, v_hi - k * p_lo
        q = (k + quarter) & 3
        if q & 1 or k == 0:
            break
        lead = w + g + 1 - max(-r_lo, r_hi).bit_length()  # |r| < 2^-lead
        if lead <= z or z > 8 * w:
            break
        z = lead + 2
    shift = g + 1 - (0 if q & 1 else z)
    r_lo, r_hi = r_lo >> shift, -(-r_hi >> shift)
    w_out = w + (0 if q & 1 else z)
    if q & 1:
        far = max(-r_lo, r_hi)
        near = 0 if r_lo <= 0 <= r_hi else -r_hi if r_hi < 0 else r_lo
        lo = _series_fine(far * far >> w_out, -(-far * far >> w_out), w_out, 0)[0]
        hi = _series_fine(near * near >> w_out, -(-near * near >> w_out), w_out, 0)[1]
    else:
        lo, hi = _sin_small(r_lo, w_out)[0], _sin_small(r_hi, w_out)[1]
    return (lo, hi, w_out) if q < 2 else (-hi, -lo, w_out)
