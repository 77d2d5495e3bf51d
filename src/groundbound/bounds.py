"""Least-N solver for the degree-bound inequality.

Given positive data (M, B, R, S) with R < 1, find the least natural N with

    N ln(1/R) - M ln(2N + 2) - ln B >= ln S,

then [K:F] <= N and [K:Q] <= N*M (or N*M/m when m > 1 exceptional
embeddings were used).  S is replaced by 1 when S <= 1, which keeps the
conclusion valid and the logarithm nonnegative.

The left side minus ln S, f(N) = N ln(1/R) - M ln(2N + 2) - ln B - ln S,
is convex in N (its second derivative is M/(N + 1)^2 > 0) and f(1) < 0
unless N = 1, so the certified predicate f(n) >= 0 is monotone in n and
the least N is found by one doubling and bisection on it.  Every sign is
certified by the one rule of `fixed._fixed_sign`: read off integer bounds
of 2^64 f in the fixed-point kit of `fixed` (ln R, ln B and ln S from the
integer log kernels, with one enclosure per irrational leaf, and the
integer ln table), and only where those bounds straddle 0 certified by
adaptive interval arithmetic on the full tree.

`method_a_problem` is the one place that derives (M, B, R, S): every
edge-graph case and every pair refinement supplies the squared width W of
its admissible interval and the radius r of its exceptional interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import balls
from .balls import (
    AlgConst, Ball, Const, Div, E, Expr, Ln, Mul, Pow, Sqrt, _fixed, as_expr, certify_compare,
)
from .cyclo import CycloElement
from .errors import DomainError, HypothesisViolated, InvalidInput, UndecidableError
from .fields import RealCyclotomicField, field_discriminant
from .fixed import FINE_BITS, FIXED_BITS, _fixed_ln, _fixed_sign, _ln_fine, _to_fixed

SOLVE_LIMIT = 1_000_000
ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


@dataclass(frozen=True)
class BoundProblem:
    """The quadruple (M, B, R, S) plus the exceptional-interval count m."""

    m_field_degree: int
    b_disc_root: Expr
    r_ratio: Expr
    s_factor: Expr
    exceptional_count: int = 1

    def __post_init__(self):
        if self.m_field_degree < 1:
            raise InvalidInput("M must be >= 1")
        if self.exceptional_count < 1:
            raise InvalidInput("m must be >= 1")


@dataclass(frozen=True)
class BoundResult:
    least_n: int
    degree_bound: int
    problem: BoundProblem


def method_a_problem(
    field: RealCyclotomicField,
    width_sq: CycloElement | Fraction,
    width_sq_norm: Fraction,
    radius: int,
    m: int = 1,
) -> BoundProblem:
    """(M, B, R, S) of Method A for an admissible interval of squared width W.

    `width_sq` is W in F at the identity embedding: the interval where the
    variant value must lie has length sqrt(sigma(W)) at the embedding
    sigma, and `width_sq_norm` is N(W), the product of those sigma(W).
    `radius` is the radius r of the exceptional interval.  Then

        M = [F:Q],   B = sqrt(|disc F|),
        R^2 = prod_sigma sqrt(sigma(W)) / 4,  i.e.  R = (N(W) / 16^M)^(1/4),
        S = (2 r e / sqrt(W))^m.

    R is built as two square roots of a rational, which `exact_value`
    reduces when N(W) / 16^M is a rational fourth power.
    """
    M = field.degree
    s_one = Const(Fraction(2 * radius)) * E / Sqrt(as_expr(width_sq))
    return BoundProblem(
        m_field_degree=M,
        b_disc_root=Sqrt(Const(Fraction(field_discriminant(field)))),
        r_ratio=Sqrt(Sqrt(Const(Fraction(width_sq_norm) / 16**M))),
        s_factor=s_one if m == 1 else Pow(s_one, Fraction(m)),
        exceptional_count=m,
    )


def solve(problem: BoundProblem, precision_cap: int = balls.DEFAULT_CAP_BITS) -> BoundResult:
    """Least N satisfying the inequality, with N-1 certified to fail.

    f(N) = N ln(1/R) - M ln(2N + 2) - ln B - ln S has f''(N) = M/(N+1)^2 > 0,
    so f is convex.  Once f(1) < 0 is certified, f(n) >= 0 at some n > 1
    gives f > 0 beyond n, so "f(n) >= 0 is certified" is monotone in n.
    N is found by doubling n from 1 and then bisecting, with f(low) < 0 and
    f(high) >= 0 certified at every step; the doubling stops at SOLVE_LIMIT.

    ln R, ln B and ln S are bounded by integers in units of 2^-64
    (`_fixed_ln_of`: the integer log kernels of `fixed` along the product
    tree of each datum, one enclosure per irrational leaf); with
    ln(2n + 2) from the integer atanh table (`fixed._fixed_ln`) they bound
    2^64 f(n) between two integers.  `fixed._fixed_sign` reads R < 1, the
    clamp of S and the sign of each probed f(n) off those bounds, and only
    a sign whose bounds straddle 0 falls back to `certify_compare` on the
    full expression tree.  `precision_cap` bounds every enclosure and every
    fallback; UNDECIDED raises UndecidableError.  Evaluation starts at
    `balls.DEFAULT_START_BITS`, so a smaller `precision_cap` could decide
    nothing and is rejected.  R, B or S certified <= 0, or R not certified
    < 1, raises HypothesisViolated.
    """
    if precision_cap < balls.DEFAULT_START_BITS:
        raise InvalidInput(
            f"precision cap {precision_cap} is below {balls.DEFAULT_START_BITS} bits"
        )
    ln_inv_r = -Ln(problem.r_ratio)
    ln_r_lo, ln_r_hi = _fixed_ln_of("R", problem.r_ratio, precision_cap)
    sign_r = _fixed_sign(ln_r_lo, ln_r_hi, lambda: certify_compare(
        problem.r_ratio, ONE, cap_bits=precision_cap))
    if sign_r != balls.LESS:
        raise HypothesisViolated(f"R must be certified < 1 (got {sign_r})")
    r_lo, r_hi = -ln_r_hi, -ln_r_lo
    if r_lo <= 0:
        # a positive lower bound for ln(1/R) makes the bounds of f grow with n
        r_lo, r_hi = _fixed(ln_inv_r, precision_cap, Ball.certainly_positive)

    b_lo, b_hi = _fixed_ln_of("B", problem.b_disc_root, precision_cap)
    # S <= 1 would make ln S negative; the theorem's proof assumes S > 1,
    # so clamp conservatively (but never on an undecided comparison).
    s_lo, s_hi = _fixed_ln_of("S", problem.s_factor, precision_cap)
    s_cmp = _fixed_sign(s_lo, s_hi, lambda: certify_compare(
        problem.s_factor, ONE, cap_bits=precision_cap))
    if s_cmp == balls.UNDECIDED:
        raise UndecidableError("S vs 1 undecided below the precision cap")
    if s_cmp != balls.GREATER:
        s_lo = s_hi = 0
    ln_s = Ln(problem.s_factor) if s_cmp == balls.GREATER else ZERO
    ln_b = Ln(problem.b_disc_root)
    m_deg = problem.m_field_degree

    def lhs(n: int) -> Expr:
        return (
            Const(Fraction(n)) * ln_inv_r
            - Const(Fraction(m_deg)) * Ln(Const(Fraction(2 * n + 2)))
            - ln_b
            - ln_s
        )

    def reaches(n: int) -> bool:
        """Certified f(n) >= 0: the sign of lo <= 2^64 f(n) <= hi, or when
        these straddle 0, GREATER or (on the exact path) EQUAL of the tree."""
        l_lo, l_hi = _fixed_ln(2 * n + 2, FIXED_BITS)
        lo = n * r_lo - m_deg * l_hi - b_hi - s_hi
        hi = n * r_hi - m_deg * l_lo - b_lo - s_lo
        sign = _fixed_sign(lo, hi, lambda: certify_compare(
            lhs(n), ZERO, cap_bits=precision_cap))
        if sign == balls.UNDECIDED:
            raise UndecidableError(
                f"inequality at N={n} undecided below {precision_cap} bits"
            )
        return sign != balls.LESS

    # double high from 1 until f(high) >= 0 is certified; each high that
    # fails becomes low, and convexity gives f < 0 on all of 1..low
    low = high = 1
    while not reaches(high):
        if high >= SOLVE_LIMIT:
            raise UndecidableError(f"no solution found below N = {SOLVE_LIMIT}")
        low, high = high, min(2 * high, SOLVE_LIMIT)
    while high - low > 1:  # f(low) < 0 <= f(high) is certified
        mid = (low + high) // 2
        if reaches(mid):
            high = mid
        else:
            low = mid
    bound = high * m_deg // problem.exceptional_count
    return BoundResult(least_n=high, degree_bound=bound, problem=problem)


class _NotProduct(Exception):
    """Internal: the datum is not a product tree over positive leaves."""


def _fixed_ln_of(name: str, x: Expr, cap_bits: int) -> tuple[int, int]:
    """Fixed-point bounds of ln x for the datum `name`.

    A product tree over positive leaves (`_ln_product`) is read off the
    integer log kernels; any other datum gets one enclosure of ln x,
    and HypothesisViolated when x is certified <= 0."""
    try:
        return _to_fixed(*_ln_product(x, cap_bits))
    except _NotProduct:
        pass
    try:
        return _fixed(Ln(x), cap_bits)
    except (DomainError, UndecidableError):
        sign = certify_compare(x, ZERO, cap_bits=cap_bits)
        if sign in (balls.LESS, balls.EQUAL):
            relation = "< 0" if sign == balls.LESS else "= 0"
            raise HypothesisViolated(
                f"{name} must be > 0, but {name} {relation} is certified") from None
        raise


def _ln_product(x: Expr, cap_bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^FINE_BITS ln x <= hi, for x built from positive
    leaves by Mul, Div, Sqrt and rational Pow; _NotProduct otherwise.

    ln of a product is the sum of the logarithms, so lower (upper) bounds
    add up, a quotient subtracts the upper (lower) bound of the divisor,
    and ln(a^q) = q ln a multiplies the bounds by q (swapped when q < 0),
    rounded outward.  A rational leaf q > 0 takes `fixed._ln_fine`, e takes
    ln e = 1 exactly, and an irrational `AlgConst` leaf takes one enclosure
    of its logarithm; a leaf that is not certified positive, or any other
    node, raises _NotProduct.
    """
    t = type(x)
    if t is Mul or t is Div:
        left_lo, left_hi = _ln_product(x.left, cap_bits)
        right_lo, right_hi = _ln_product(x.right, cap_bits)
        if t is Mul:
            return left_lo + right_lo, left_hi + right_hi
        return left_lo - right_hi, left_hi - right_lo
    if t is Sqrt or t is Pow:
        lo, hi = _ln_product(x.arg, cap_bits)
        q = x.exponent if t is Pow else Fraction(1, 2)
        lo, hi = q.numerator * lo, q.numerator * hi
        if q < 0:
            lo, hi = hi, lo
        return lo // q.denominator, -(-hi // q.denominator)
    if x is E:
        return 1 << FINE_BITS, 1 << FINE_BITS
    if t is AlgConst and not x.value.is_rational():
        try:
            return _fixed(Ln(x), cap_bits, bits=FINE_BITS)
        except (DomainError, UndecidableError):
            raise _NotProduct from None
    if t is AlgConst or t is Const:
        q = x.value.as_rational() if t is AlgConst else x.value
        if q > 0:
            return _ln_fine(q.numerator, q.denominator)
    raise _NotProduct
