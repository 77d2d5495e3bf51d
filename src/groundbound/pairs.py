"""Global pair search (Method B) and Method-A refinement.

For a pair (k, s) the key coefficient is

    c(k, s) = ln 2 - ln gamma(k)/phi(k) - ln gamma(s)/phi(s),

an exact rational combination of logarithms of primes, derived once
from the integers gamma and phi (`_coefficient_terms`), so its sign (and
in particular exact vanishing, which happens for (4, 4)) is decidable
without numerics.  Pairs with c <= 0 are *exceptional* and are handled
by Method A over F_{k,s}; non-exceptional pairs survive only when

    (ln C - ln sin(pi/k) - ln sin(pi/s)) / c(k, s) > phi([k,s]) / (2 rho)

with C = 7 for the path family and C = 8 for the star family.

The search sieves phi, smallest prime factors and the prime behind each
g(x) = ln gamma(x)/phi(x) up to TAIL_START = 4096 in plain Python, and
scans k up to min(k_max, 4096).  The sieve and the bounds built on it
form one table per limit (`scan_table`), built on first use and shared
by the searches of both families.  There is no float pre-filter: every
discard is an integer inequality between fixed-point bounds (see
`ScanTable`), built from the integer log kernels of `fixed`, the
fixed-point kit shared with the least-N solver: ln p for the primes
p <= 4096 (`fixed._fixed_ln`), pi by Machin's formula and ln pi
(`fixed._pi_fine`, `fixed._ln_pi_fine`), with no interval evaluation.  A k is
dropped when phi(k) c_low(k) exceeds 4 rhs_max(k); for the other k only s
with phi(s / gcd(k, s)) below the divisor bound T_k are enumerated; a pair
is dropped when deg * c_lo > rhs_hi.  Every remaining pair outside the
complete list `exceptional_pairs` has c(k, s) > 0 and gets one
certificate, `pair_floor`, for any k: integer bounds of rhs (-ln sin from
`fixed._fixed_neg_ln_sin`) and of c(k, s) (`_fixed_coefficient`) decide
survival and the floor of rhs / (deg c) together.  `coefficient_sign`
and `pair_floor` rerun their integer bounds along the one precision
schedule of the integer certificates, `balls.settle` (64 bits first, as
in the least-N solver), until they settle, and raise UndecidableError at
the cap; there is no interval-expression path, and `reproduce-all` never
needs more than 64 bits.  Any bound above 120 is refined through the
least-N solver.  Pairs with k > 4096 are ruled out by
`tail_certificate`, two certified comparisons per family: the
Rosser-Schoenfeld lower bound for phi (1962, Thm 15, with the constant
2.51) exceeds the survival budget on [4096, 8192] with some slack, and a
growth bound keeps that slack on every later dyadic block.  So k_max
only caps the scan: every k_max >= 4096 gives the same result.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate
from math import gcd, log

from . import balls
from .balls import Ball, Const, Expr, Ln, certified_floor, eval_ball, floor_of, settle
from .bounds import BoundProblem, method_a_problem, solve
from .cyclo import _smallest_prime_factors, euler_phi, gamma_norm_constant
from .errors import ExceptionalPair, InvalidInput, UndecidableError
from .fields import RealCyclotomicField, norm_4sin2_closed_form
from .fixed import (
    FIXED_BITS, _fixed_ln, _fixed_neg_ln_sin, _fixed_sign, _ln_pi_fine, _pi_fine, _to_fixed,
)
from .frozen import Frozen, set_field
from .graphs import Family, FamilyTable, Variant, family_bound, variant_width

REFINE_THRESHOLD = 120
# the sieve limit: the sieve and the pair scan cover k up to here, and
# tail_certificate covers every larger k
TAIL_START = 4096
# Rosser-Schoenfeld, "Approximate formulas for some functions of prime
# numbers", Illinois J. Math. 6 (1962), Thm 15: for n >= 3,
#     phi(n) > n / (e^gamma ln ln n + 2.50637 / ln ln n)
# except n = 223092870; the constant 2.51 covers every n >= 3.
RS_CONSTANT = Fraction(251, 100)
# rational upper bound for e^gamma = 1.7810724179901979..., certified from
# gamma < H_10 - ln 10 - 1/20 + 1/1200 (Euler-Maclaurin) by
# tests/test_pairs.py::test_exp_gamma_upper_is_certified; a larger e^gamma
# only weakens the lower bound for phi
EXP_GAMMA_UPPER = Fraction(17811, 10000)


class PairKind(enum.Enum):
    GAMMA5 = "gamma5"  # constant ln 7, pairs k >= s >= 3
    GAMMA4 = "gamma4"  # constant ln 8, r in {3,4,5}, k >= 7

    @property
    def log_constant(self) -> int:
        return 7 if self is PairKind.GAMMA5 else 8

    @property
    def variant(self) -> Variant:
        # the variant value: u^2 for the path family, u-tilde for the star family
        return Variant.U_SQUARED if self is PairKind.GAMMA5 else Variant.U_TILDE


class PairReport(Frozen):
    __slots__ = ("kind", "k", "s", "coefficient", "field_degree", "bound_kf", "bound_k",
                 "refined_kf", "final_bound", "published_bound_kf", "published_bound_k",
                 "published_final")

    def __init__(self, kind: PairKind, k: int, s: int, coefficient: float, field_degree: int,
                 bound_kf: int, bound_k: int, refined_kf: int | None, final_bound: int,
                 published_bound_kf: int | None = None, published_bound_k: int | None = None,
                 published_final: int | None = None):
        set_field(self, "kind", kind)
        set_field(self, "k", k)
        set_field(self, "s", s)
        set_field(self, "coefficient", coefficient)
        set_field(self, "field_degree", field_degree)
        set_field(self, "bound_kf", bound_kf)
        set_field(self, "bound_k", bound_k)
        set_field(self, "refined_kf", refined_kf)
        set_field(self, "final_bound", final_bound)
        set_field(self, "published_bound_kf", published_bound_kf)
        set_field(self, "published_bound_k", published_bound_k)
        set_field(self, "published_final", published_final)

    @property
    def intermediates_match(self) -> bool | None:
        if self.published_bound_kf is None:
            return None
        return (self.bound_kf, self.bound_k) == (self.published_bound_kf, self.published_bound_k)


# intermediates printed for two pairs; (kf, k, refined, final)
PUBLISHED_PAIR_DATA = {
    (PairKind.GAMMA5, 23, 3): (281, 3091, 8, 88),
    (PairKind.GAMMA5, 31, 3): (11, 165, 8, 120),
}

PUBLISHED_EXCEPTIONAL_GAMMA5 = tuple(
    [(k, 3) for k in (3, 4, 5, 7, 8, 9, 11, 13, 17, 19)]
    + [(4, 4), (5, 4), (5, 5), (7, 5)]
)


# -- exact coefficient ------------------------------------------------------


def _coefficient_terms(k: int, s: int) -> tuple:
    """c(k, s) as the terms (num, den, p) of sum (num / den) ln p, den > 0,
    from the integers gamma and phi: c = q_2 ln 2 - ln gamma(k)/phi(k) -
    ln gamma(s)/phi(s), where a gamma equal to 2 moves its term into q_2,
    equal gammas share one term and a zero term is dropped.  The primes
    are distinct, and their logarithms are linearly independent over Q,
    so c = 0 exactly when no term is left: for 3 <= s <= k only at (4, 4)."""
    gk, gs = gamma_norm_constant(k), gamma_norm_constant(s)
    pk, ps = euler_phi(k), euler_phi(s)
    den = pk * ps
    q2 = den - (ps if gk == 2 else 0) - (pk if gs == 2 else 0)
    terms = [(q2, den, 2)] if q2 else []
    if gk == gs > 2:
        terms.append((-(pk + ps), den, gk))
    else:
        terms += [(-1, phi, g) for g, phi in ((gk, pk), (gs, ps)) if g > 2]
    return tuple(terms)


def _fixed_term(num: int, den: int, p: int, bits: int = FIXED_BITS) -> tuple[int, int]:
    """Bounds of 2^bits (num / den) ln p, den > 0: the bounds of ln p
    times num, floored (ceiled) over den.  floor(num L / den) depends only
    on the value num / den, so any representation gives the same bounds."""
    a, b = (num * x for x in _fixed_ln(p, bits))
    if num < 0:
        a, b = b, a
    return a // den, -(-b // den)


def _fixed_coefficient(k: int, s: int, bits: int = FIXED_BITS) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^bits c(k, s) <= hi: the sum of the
    outward-rounded bounds of the terms (`_coefficient_terms`)."""
    lo = hi = 0
    for term in _coefficient_terms(k, s):
        a, b = _fixed_term(*term, bits)
        lo, hi = lo + a, hi + b
    return lo, hi


def coefficient_sign(k: int, s: int) -> str:
    """Certified sign of c(k, s): EQUAL exactly when no term is left
    (`_coefficient_terms`), else read off the integer bounds of
    `_fixed_coefficient` by `fixed._fixed_sign`, at more bits while they
    straddle zero (`balls.settle`)."""
    if not _coefficient_terms(k, s):
        return balls.EQUAL
    return settle(lambda bits: _fixed_sign(*_fixed_coefficient(k, s, bits)),
                  f"coefficient sign of ({k}, {s}) undecided")


def is_exceptional(k: int, s: int) -> bool:
    return coefficient_sign(k, s) != balls.GREATER


def _exceptional_pair(k: int, s: int) -> ExceptionalPair:
    return ExceptionalPair(f"({k}, {s}) is an exceptional pair: Method B does not apply; "
                           "Method A (pairs.exceptional_bound) bounds it")


def _require_method_b(k: int, s: int) -> None:
    if is_exceptional(k, s):
        raise _exceptional_pair(k, s)


def pair_field_degree(k: int, s: int) -> int:
    g = gcd(k, s)
    rho = 2 if g in (1, 2) else 1
    # phi(lcm) = phi(k) phi(s) / phi(gcd); avoids factoring the lcm
    phi_lcm = euler_phi(k) * euler_phi(s) // euler_phi(g)
    return phi_lcm // (2 * rho)


def survives(k: int, s: int, kind: PairKind) -> bool:
    """Certified check of the survival inequality for a non-exceptional pair."""
    _require_method_b(k, s)
    return pair_floor(k, s, kind) >= 1


# -- exceptional pairs -------------------------------------------------------

_EXCEPTIONAL_SCAN_LIMIT = 64  # prime powers >= 64 have g <= 2 ln 64/64 < ln 2 - g(3)


def exceptional_pairs(kind: PairKind) -> list[tuple[int, int]]:
    """All pairs with certified coefficient <= 0, in (s, k) order.

    Completeness: c(k, s) <= 0 needs g(k) + g(s) >= ln 2 with
    g(x) = ln gamma(x)/phi(x); since g(x) <= 2 ln x / x < ln 2 - g(3)
    for x >= 64, both members lie below 64 and the scan is exhaustive.
    """
    found = _all_exceptional_pairs()
    if kind is PairKind.GAMMA5:
        return list(found)
    return [(k, r) for k, r in found if r in (3, 4, 5) and k >= 7]


@cache
def _all_exceptional_pairs() -> tuple:
    pps = [x for x in range(3, _EXCEPTIONAL_SCAN_LIMIT) if gamma_norm_constant(x) != 1]
    found = [(k, s) for s in pps for k in pps if k >= s and is_exceptional(k, s)]
    found.sort(key=lambda p: (p[1], p[0]))
    return tuple(found)


# -- certified floors and per-pair bounds ------------------------------------


def certified_floor_ratio(num: Expr, den: Expr) -> int:
    """floor(num/den), certified (see `balls.certified_floor`)."""
    return certified_floor(num / den)


def _fixed_rhs(k: int, s: int, kind: PairKind, bits: int = FIXED_BITS) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^bits * rhs(k, s) <= hi."""
    c_lo, c_hi = _fixed_ln(kind.log_constant, bits)
    (k_lo, k_hi), (s_lo, s_hi) = _fixed_neg_ln_sin(k, bits), _fixed_neg_ln_sin(s, bits)
    return c_lo + k_lo + s_lo, c_hi + k_hi + s_hi


def pair_floor(k: int, s: int, kind: PairKind) -> int:
    """floor(rhs(k, s) / (deg c(k, s))) for a pair with c(k, s) > 0,
    certified; the pair survives iff it is at least 1.

    At `bits` bits the integer bounds r_lo <= 2^bits rhs <= r_hi
    (`_fixed_rhs`, from the kernel `fixed._fixed_neg_ln_sin`) and
    c_lo <= 2^bits c <= c_hi (`_fixed_coefficient`) put the ratio in
    [r_lo / (deg c_hi), r_hi / (deg c_lo)] when c_lo > 0.  So
    r_hi < deg c_lo proves ratio < 1 (floor 0), and r_lo > deg c_hi proves
    ratio > 1, with floor r_lo // (deg c_hi) when that equals
    r_hi // (deg c_lo).  A c(k, s) proven not positive (no term left, or
    c_hi < 0) raises ExceptionalPair at once; bounds that leave the pair
    open, c_lo <= 0 included, are recomputed at the next precision
    (`balls.settle`), and a ratio of exactly 1 raises UndecidableError at the
    cap.  64 bits settle every pair of `reproduce-all`.
    """
    deg = pair_field_degree(k, s)

    def attempt(bits: int) -> int | None:
        c_lo, c_hi = _fixed_coefficient(k, s, bits)
        if c_hi < 0 or not _coefficient_terms(k, s):
            raise _exceptional_pair(k, s)
        if c_lo <= 0:
            return None
        r_lo, r_hi = _fixed_rhs(k, s, kind, bits)
        if r_hi < deg * c_lo:
            return 0
        floor_kf = r_lo // (deg * c_hi)
        if r_lo > deg * c_hi and floor_kf == r_hi // (deg * c_lo):
            return floor_kf
        return None

    return settle(attempt, f"Method-B ratio of ({k}, {s}) undecided")


def pair_report(k: int, s: int, kind: PairKind, refine_above: int = REFINE_THRESHOLD) -> PairReport:
    """Method-B bounds for a non-exceptional pair, refined when poor."""
    if k < s and kind is PairKind.GAMMA5:
        k, s = s, k
    if kind is PairKind.GAMMA4 and (s not in (3, 4, 5) or k < 7):
        raise InvalidInput("star-family pairs need r in {3, 4, 5} and k >= 7")
    _require_method_b(k, s)
    return _report(k, s, kind, pair_floor(k, s, kind), refine_above)


def _report(k: int, s: int, kind: PairKind, bound_kf: int,
            refine_above: int = REFINE_THRESHOLD) -> PairReport:
    deg = pair_field_degree(k, s)
    bound_k = bound_kf * deg
    refined = None
    final = bound_k
    if bound_k > refine_above:
        refined = refine(k, s, kind)
        final = min(bound_k, refined * deg)
    published = PUBLISHED_PAIR_DATA.get((kind, k, s))
    return PairReport(
        kind=kind, k=k, s=s,
        coefficient=_coefficient_float(k, s),
        field_degree=deg, bound_kf=bound_kf, bound_k=bound_k,
        refined_kf=refined, final_bound=final,
        published_bound_kf=published[0] if published else None,
        published_bound_k=published[1] if published else None,
        published_final=published[3] if published else None,
    )


def _coefficient_float(k: int, s: int) -> float:
    out = log(2)
    for x in (k, s):
        g = gamma_norm_constant(x)
        if g != 1:
            out -= log(g) / euler_phi(x)
    return out


def refinement_problem(k: int, s: int, kind: PairKind) -> BoundProblem:
    """Method-A data over F = F_{k,s}: the u-interval has squared length
    Delta = 16 sin^2(pi/k) sin^2(pi/s), and `graphs.variant_width` gives
    (W, r) for the kind's variant, W = (Delta / 4)^2 for both kinds.

    N(W) = N(Delta / 4)^2 comes from the closed form for N(4 sin^2); the
    conjugate product in `field_norm` is far too slow at these degrees.
    """
    F = RealCyclotomicField([x for x in (k, s) if x > 2])
    width_sq, radius = variant_width(16 * F.sin2(k) * F.sin2(s), kind.variant)
    norm_quarter = (
        norm_4sin2_closed_form(F, k) * norm_4sin2_closed_form(F, s) / Fraction(4) ** F.degree
    )
    return method_a_problem(F, width_sq, norm_quarter**2, radius)


def refine(k: int, s: int, kind: PairKind) -> int:
    """Least-N bound for [K : F_{k,s}] via Method A."""
    return solve(refinement_problem(k, s, kind)).least_n


def exceptional_bound(k: int, s: int, kind: PairKind) -> tuple[int, int]:
    """(least_n, degree bound) for an exceptional pair via Method A."""
    deg = pair_field_degree(k, s)
    n = refine(k, s, kind)
    return n, n * deg


# -- sieve and fixed-point bounds for the scan ------------------------------


def sieve_tables(limit: int) -> tuple[list[int], list[int], list[int]]:
    """(phi, spf, gamma) for 0..limit: Euler totients, smallest prime
    factors (spf[x] for x >= 2) and gamma(x) = p when x = p^t >= 2, else 1,
    so that g(x) = ln gamma(x) / phi(x)."""
    spf = _smallest_prime_factors(limit)
    phi = list(range(limit + 1))
    gamma = [1] * (limit + 1)
    for x in range(2, limit + 1):
        p = spf[x]
        y = x // p
        phi[x] = phi[y] * (p if y % p == 0 else p - 1)
        if y == 1 or gamma[y] == p:
            gamma[x] = p
    return phi, spf, gamma


def _divisors(k: int, spf: list[int]) -> list[int]:
    divisors = [1]
    while k > 1:
        p, e = spf[k], 0
        while k % p == 0:
            k //= p
            e += 1
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return divisors


class ScanTable:
    """Integer bounds, in units of 2^-FIXED_BITS, behind every discard of
    the pair scan up to `limit`; no entry depends on the family, so both
    families read one table (`scan_table`).

    For 3 <= x <= limit, with g(x) = ln gamma(x) / phi(x):

        2^64 ln x <= ln_hi[x],
        2^64 g(x) <= g_hi[x],
        2^64 (-ln sin(pi/x)) <= sin_hi[x],

    the last from the Taylor bound sin y >= y - y^3/6 = y (1 - t) at
    y = pi/x, t = pi^2 / (6 x^2) < 1, and -ln(1 - t) = sum t^n / n
    <= t + t^2 / (2 (1 - t)):

        -ln sin(pi/x) <= ln x - ln pi + t + t^2 / (2 (1 - t)).

    (With the cruder t / (1 - t) the bound at x = 3 is 0.034 too high,
    more than the slack of the pairs (113, 3) and (282, 3).)  ln x is the
    sum of the prime logarithms along the factorisation of x; every added
    term is rounded up and every subtracted one down, so with
    ln_c_hi = ln_hi[C],

        2^64 c(k, s) >= c_lo(k, s) = ln2_lo - g_hi[k] - g_hi[s],
        2^64 rhs(k, s) <= rhs_hi(k, s) = ln_c_hi + sin_hi[k] + sin_hi[s].

    `g_hi_max[x]` and `sin_hi_max[x]` are the maxima over 3..x, so over
    the s of the family's range for k (3 <= s <= top = k, resp.
    s in {3, 4, 5}, top = 5), c_lo(k, s) >= c_low(k) = ln2_lo - g_hi[k] -
    g_hi_max[top] and rhs_hi(k, s) <= rhs_max(k) = ln_c_hi + sin_hi[k] +
    sin_hi_max[top].  Let m = s / gcd(k, s), so that lcm(k, s) = k m.
    Since phi(k m) >= phi(k) phi(m) and rho <= 2, deg >= phi(k) phi(m) / 4,
    and a pair with c > 0 survives only if deg c < rhs, so only if

        phi(m) < T_k = 4 rhs_max(k) / (c_low(k) phi(k))   when c_low(k) > 0.

    Hence k carries no survivor when phi(k) c_low(k) > 4 rhs_max(k), and
    for the other k only the s with phi(m) < ceil(T_k) need a look: the
    s = d m with d | k, gcd(k/d, m) = 1 (then d = gcd(k, s)), m taken
    from the prefix of `phi_order` (1..limit sorted by phi, `phi_sorted`
    its phi values) below the bound.  `search` runs these tests.
    """

    def __init__(self, limit: int):
        self.limit = limit
        phi, spf, gamma = sieve_tables(limit)
        self.phi, self.spf = phi, spf
        self.ln2_lo = _fixed_ln(2, FIXED_BITS)[0]
        pi_hi = _to_fixed(*_pi_fine(FIXED_BITS))[1]
        ln_pi_lo = _to_fixed(*_ln_pi_fine(FIXED_BITS))[0]
        ln_hi = self.ln_hi = [0] * (limit + 1)
        g_hi = self.g_hi = [0] * (limit + 1)
        for x in range(2, limit + 1):
            p = spf[x]
            ln_hi[x] = ln_hi[x // p] + _fixed_ln(p, FIXED_BITS)[1]
            if gamma[x] != 1:
                g_hi[x] = -(-_fixed_ln(gamma[x], FIXED_BITS)[1] // phi[x])
        # With a = pi_hi^2 >= 2^128 pi^2 and d = 6 x^2 2^128, t <= a/d, and
        # t + t^2 / (2 (1 - t)) = a (2d - a) / (2d (d - a)) grows with t;
        # rounded up.  Cancelling 2^64, 2^64 times it is the same rational
        # a (2^129 D - a) / (D (2^193 D - 2^65 a)) at D = 6 x^2, whose
        # integers are 64 bits shorter; a, a^2 and their shifts are made once.
        a = pi_hi * pi_hi
        c1, c2, c3 = a << 2 * FIXED_BITS + 1, a * a, a << FIXED_BITS + 1
        self.sin_hi = sin_hi = [0, 0] + [
            h - ln_pi_lo - ((c2 - c1 * d) // (d * ((d << 3 * FIXED_BITS + 1) - c3)))
            for h, d in zip(ln_hi[2:], [6 * x * x for x in range(2, limit + 1)])]
        self.g_hi_max = g_hi[:3] + list(accumulate(g_hi[3:], max))
        self.sin_hi_max = sin_hi[:3] + list(accumulate(sin_hi[3:], max))
        self.phi_order = sorted(range(1, limit + 1), key=phi.__getitem__)
        self.phi_sorted = [phi[m] for m in self.phi_order]


@lru_cache(maxsize=4)
def scan_table(limit: int) -> ScanTable:
    """The scan table up to `limit`, built on first use and shared by the
    searches of both families, which only read it."""
    return ScanTable(limit)


# -- the tail k > TAIL_START -------------------------------------------------


class TailCertificate(Frozen):
    """No pair with k > start survives; every block's slack is at least
    `min_slack` (see `tail_certificate`)."""

    __slots__ = ("start", "min_slack")

    def __init__(self, start: int, min_slack: int):
        set_field(self, "start", start)
        set_field(self, "min_slack", min_slack)


def _tail_terms(kind: PairKind, a: int) -> tuple[Expr, Expr]:
    """(h(a), a c_low(a) - A - 2B): block slack and growth margin, see `tail_certificate`."""
    ka, ln_a, ln_2a = Const(Fraction(a)), Ln(Const(Fraction(a))), Ln(Const(Fraction(2 * a)))
    rho1 = 2 if kind is PairKind.GAMMA5 else 1
    lhs = ka * (Ln(Const(Fraction(2))) - Ln(Const(Fraction(3))) / 2 - 2 * ln_a / ka)
    rho = Ln(Const(Fraction(kind.log_constant))) + ln_a
    rho += ln_a if rho1 == 2 else Ln(Const(Fraction(5, 2)))
    d, v = EXP_GAMMA_UPPER * Ln(ln_2a) + RS_CONSTANT / Ln(ln_a), EXP_GAMMA_UPPER / ln_2a
    return lhs - 4 * rho * d, lhs - 4 * (rho * v + rho1 * d) - 8 * rho1 * v


def tail_certificate(kind: PairKind, start: int = TAIL_START) -> TailCertificate:
    """Certify that no pair with k > start survives.

    A pair (k, s) of either family with c(k, s) > 0 survives only if
    phi([k,s]) / (2 rho) < rhs(k, s) / c(k, s), so, as phi(k) divides
    phi([k,s]) and rho <= 2, only if phi(k) < 4 rhs_max(k) / c_low(k):
    sin(pi/x) >= 2/x and s <= k (path) or s <= 5 (star) give
    rhs <= rhs_max(k) = ln 7 + 2 ln(k/2), resp. ln 8 + ln(k/2) + ln(5/2),
    and g(s) <= ln 3/2, g(k) <= 2 ln k / k give c(k, s) >= c_low(k) =
    ln 2 - ln 3/2 - 2 ln k / k.  Rosser-Schoenfeld gives
    phi(k) > k / (e^gamma ln ln k + 2.51 / ln ln k) for k >= 3.  So, with
    each monotone piece at its worst end, no k in [a, 2a] survives (and
    no pair there is exceptional, as c >= c_low(a) > 0) when

        h(a) = a c_low(a) - 4 rhs_max(2a) D(a) > 0,
        D(a) = E ln ln 2a + 2.51 / ln ln a,   E >= e^gamma.

    The blocks a = start 2^j cover every k > start.  With a0 = start,
    t = ln(a / a0) >= 0 and c0 = c_low(a0), for every a >= a0:
      - c_low(a) >= c0, because ln a / a decreases for a > e;
      - 2.51 / ln ln a <= 2.51 / ln ln a0;
      - ln ln 2a <= ln ln 2a0 + t / ln 2a0 (tangent line; ln is concave);
      - rhs_max(2a) = rho0 + rho1 t, rho0 = rhs_max(2 a0), rho1 = 2 (path)
        or 1 (star);
      - so with D0 = D(a0) and v = E / ln 2a0, D(a) <= D0 + v t and
        4 rhs_max(2a) D(a) <= 4 rho0 D0 + A t + B t^2, where
        A = 4 (rho0 v + rho1 D0) > 0 and B = 4 rho1 v > 0;
      - a c0 = a0 c0 e^t >= a0 c0 (1 + t + t^2 / 2) when c0 >= 0.
    Hence h(a) >= h(a0) + (a0 c0 - A) t + (a0 c0 / 2 - B) t^2.  A positive
    growth margin a0 c0 - A - 2B makes c0, a0 c0 - A (> 2B) and
    a0 c0 / 2 - B (> A / 2) positive, so every block has slack >= h(a0).
    The two comparisons h(a0) > 0 and a0 c0 - A - 2B > 0 are one enclosure
    each (`_tail_terms`); `min_slack` is the floor of the lower end of
    h(a0)'s.  One not certified below the cap raises UndecidableError.
    """
    if start < 3:
        raise ValueError("the tail needs start >= 3")
    enclosures = []
    for name, term in zip((f"block [{start}, {2 * start}]", "growth margin"),
                          _tail_terms(kind, start)):
        try:
            enclosures.append(eval_ball(term, accept=Ball.certainly_positive))
        except UndecidableError:
            raise UndecidableError(f"{kind.value} tail {name} not certified") from None
    return TailCertificate(start=start, min_slack=floor_of(enclosures[0]))


# -- the search ----------------------------------------------------------------


class SearchResult(Frozen):
    __slots__ = ("kind", "k_max", "survivors", "exceptional", "candidate_k_count",
                 "checked_pairs", "tail")

    def __init__(self, kind: PairKind, k_max: int, survivors: tuple, exceptional: tuple,
                 candidate_k_count: int, checked_pairs: int, tail: TailCertificate | None):
        set_field(self, "kind", kind)
        set_field(self, "k_max", k_max)
        set_field(self, "survivors", survivors)  # PairReport, sorted by (k, s)
        set_field(self, "exceptional", exceptional)
        set_field(self, "candidate_k_count", candidate_k_count)
        set_field(self, "checked_pairs", checked_pairs)
        set_field(self, "tail", tail)  # covers k > TAIL_START

    @property
    def k_scope(self) -> str:  # the k whose survivors are listed
        return "all k" if self.tail is not None else f"k <= {self.k_max}"


def check_k_max(k_max: int) -> None:
    """Raise InvalidInput unless the search range covers the known argmax k = 31."""
    if k_max < 31:
        raise InvalidInput("k_max must cover the known argmax (>= 31)")


def search(kind: PairKind, k_max: int = 10**7) -> SearchResult:
    """All non-exceptional pairs passing the survival inequality.

    Pairs with k <= min(k_max, TAIL_START) are scanned without floats,
    on the shared `scan_table`: a k is skipped when phi(k) c_low(k) >
    4 rhs_max(k), an s when phi(s / gcd(k, s)) >= ceil(T_k), and a pair
    is dropped when deg * c_lo > rhs_hi, each an inequality between
    integers (see `ScanTable`).  Every other pair outside the complete
    list `exceptional_pairs` has c(k, s) > 0 and gets its one certificate
    from `pair_floor`, which also gives the survivor's bound_kf.  Once the
    scan reaches TAIL_START, `tail_certificate` covers every larger k.
    Results are deterministic.
    """
    check_k_max(k_max)
    table = scan_table(min(k_max, TAIL_START))
    phi, g_hi, sin_hi = table.phi, table.g_hi, table.sin_hi
    ln_c_hi = table.ln_hi[kind.log_constant]
    star = kind is PairKind.GAMMA4
    exceptional = set(exceptional_pairs(kind))
    survivors = []
    candidates = checked = 0
    for k in range(7 if star else 3, table.limit + 1):
        top = 5 if star else k
        phi_k = phi[k]
        c_k = table.ln2_lo - g_hi[k]  # c_lo(k, s) = c_k - g_hi[s]
        rhs_k = ln_c_hi + sin_hi[k]  # rhs_hi(k, s) = rhs_k + sin_hi[s]
        c_low = c_k - table.g_hi_max[top]
        rhs_max = rhs_k + table.sin_hi_max[top]
        if phi_k * c_low > 4 * rhs_max:
            continue
        candidates += 1
        if c_low <= 0:
            s_values = range(3, top + 1)
        else:
            bound = -(-4 * rhs_max // (c_low * phi_k))  # ceil(T_k)
            if star:
                s_values = [s for s in (3, 4, 5) if phi[s // gcd(k, s)] < bound]
            else:
                small_phi = table.phi_order[:bisect_left(table.phi_sorted, bound)]
                s_values = sorted(d * m for d in _divisors(k, table.spf) for m in small_phi
                                  if m <= k // d and d * m >= 3 and gcd(k // d, m) == 1)
        for s in s_values:
            checked += 1
            if (k, s) in exceptional:
                continue
            c_lo = c_k - g_hi[s]
            g = gcd(k, s)
            deg = phi_k * phi[s] // phi[g] // (4 if g <= 2 else 2)  # pair_field_degree
            if deg * c_lo > rhs_k + sin_hi[s]:
                continue
            bound_kf = pair_floor(k, s, kind)
            if bound_kf >= 1:
                survivors.append(_report(k, s, kind, bound_kf))
    return SearchResult(
        kind=kind, k_max=k_max, survivors=tuple(survivors),
        exceptional=tuple(sorted(exceptional, key=lambda p: (p[1], p[0]))),
        candidate_k_count=candidates, checked_pairs=checked,
        tail=tail_certificate(kind) if k_max >= TAIL_START else None,
    )


# -- global bounds -------------------------------------------------------------


class GlobalBound(Frozen):
    __slots__ = ("kind", "maximum", "argmax", "search_result", "exceptional_bounds",
                 "method_a_small_k_table")

    def __init__(self, kind: PairKind, maximum: int, argmax: tuple,
                 search_result: SearchResult | None, exceptional_bounds: tuple,
                 method_a_small_k_table: FamilyTable | None = None):
        set_field(self, "kind", kind)
        set_field(self, "maximum", maximum)
        set_field(self, "argmax", argmax)
        set_field(self, "search_result", search_result)
        set_field(self, "exceptional_bounds", exceptional_bounds)
        # GAMMA4: the Method-A family table over 2 <= k <= min(k_max, 6)
        set_field(self, "method_a_small_k_table", method_a_small_k_table)

    @property
    def method_a_small_k_max(self) -> int | None:
        table = self.method_a_small_k_table
        return None if table is None else table.maximum


def global_bound(kind: PairKind, k_max: int = 10**7) -> GlobalBound:
    """Family maximum over exceptional pairs (Method A) and surviving
    non-exceptional pairs (Method B, refined when above 120)."""
    if kind is PairKind.GAMMA4 and k_max < 7:
        table = family_bound(Family.G4, range(2, k_max + 1))
        case = table.argmax
        return GlobalBound(kind=kind, maximum=table.maximum,
                           argmax=(case.k, case.s, case.r), search_result=None,
                           exceptional_bounds=(), method_a_small_k_table=table)
    best = 0
    arg = None
    exc_rows = []
    for k, s in exceptional_pairs(kind):
        n, bound = exceptional_bound(k, s, kind)
        exc_rows.append((k, s, n, bound))
        if bound > best:
            best, arg = bound, (k, s)
    table = None
    if kind is PairKind.GAMMA4:
        table = family_bound(Family.G4, range(2, 7))
        if table.maximum > best:
            case = table.argmax
            best, arg = table.maximum, (case.k, case.s, case.r)
    result = search(kind, k_max=k_max)
    for report in result.survivors:
        if report.final_bound > best:
            best, arg = report.final_bound, (report.k, report.s)
    return GlobalBound(kind=kind, maximum=best, argmax=arg, search_result=result,
                       exceptional_bounds=tuple(exc_rows),
                       method_a_small_k_table=table)
