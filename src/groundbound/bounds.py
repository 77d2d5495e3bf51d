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
settled the way the pair certificate of `pairs` settles its own: integer
bounds of 2^bits f at bits = 64, 128, ... up to the cap (`balls.settle`),
read by the one rule of `fixed._fixed_sign`.  ln R, ln B and ln S are one
`balls.eval_ball` enclosure of ln x each, per precision, and ln(2n + 2)
comes from `fixed._fixed_ln`.  `certify_compare` only finds an exact
R = 1 or S = 1, which no bounds settle, and names a datum certified <= 0.

`method_a_problem` is the one place that derives (M, B, R, S): every
edge-graph case and every pair refinement supplies the squared width W of
its admissible interval and the radius r of its exceptional interval.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial

from . import balls
from .balls import (
    Const, E, Expr, Ln, Pow, Sqrt, as_expr, certify_compare, eval_ball, scaled, settle,
)
from .cyclo import CycloElement
from .errors import DomainError, HypothesisViolated, InvalidInput, UndecidableError
from .fields import RealCyclotomicField, field_discriminant
from .fixed import _fixed_ln, _fixed_sign
from .frozen import Frozen, set_field

SOLVE_LIMIT = 1_000_000


class BoundProblem(Frozen):
    """The quadruple (M, B, R, S) plus the exceptional-interval count m."""

    __slots__ = ("m_field_degree", "b_disc_root", "r_ratio", "s_factor", "exceptional_count")

    def __init__(self, m_field_degree: int, b_disc_root: Expr, r_ratio: Expr,
                 s_factor: Expr, exceptional_count: int = 1):
        if m_field_degree < 1:
            raise InvalidInput("M must be >= 1")
        if exceptional_count < 1:
            raise InvalidInput("m must be >= 1")
        set_field(self, "m_field_degree", m_field_degree)
        set_field(self, "b_disc_root", b_disc_root)
        set_field(self, "r_ratio", r_ratio)
        set_field(self, "s_factor", s_factor)
        set_field(self, "exceptional_count", exceptional_count)


class BoundResult(Frozen):
    __slots__ = ("least_n", "degree_bound", "problem")

    def __init__(self, least_n: int, degree_bound: int, problem: BoundProblem):
        set_field(self, "least_n", least_n)
        set_field(self, "degree_bound", degree_bound)
        set_field(self, "problem", problem)


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

    Each sign is settled along `balls.settle`: at bits = 64, 128, ... up
    to `precision_cap`, the bounds of 2^bits ln R, ln B and ln S (one
    enclosure each, `_fixed_ln_of`, once per datum and precision) and of
    ln(2n + 2) (`fixed._fixed_ln`) bound 2^bits f(n) between two
    integers, and `fixed._fixed_sign` reads R < 1, the clamp of S and each
    f(n) off them.  Bounds of ln R or ln S that never settle go to
    `certify_compare` against 1, whose exact path finds R = 1 or S = 1;
    a probe that never settles raises UndecidableError naming N.  A cap
    below `balls.DEFAULT_START_BITS` could decide nothing and is
    rejected.  R, B or S certified <= 0, or R not certified < 1, raises
    HypothesisViolated.
    """
    if precision_cap < balls.DEFAULT_START_BITS:
        raise InvalidInput(
            f"precision cap {precision_cap} is below {balls.DEFAULT_START_BITS} bits"
        )

    data = (("R", problem.r_ratio), ("B", problem.b_disc_root), ("S", problem.s_factor))
    ln_r, ln_b, ln_s = (cache(partial(_fixed_ln_of, name, x, cap_bits=precision_cap))
                        for name, x in data)

    def against_one(x: Expr, ln_x) -> str:
        """Ordering of x and 1 by the sign of ln x; bounds that never settle
        (x = 1 exactly, say) go to `certify_compare` and its exact path."""
        try:
            return settle(lambda bits: _fixed_sign(*ln_x(bits)), "", precision_cap)
        except UndecidableError:
            return certify_compare(x, 1, cap_bits=precision_cap)

    sign_r = against_one(problem.r_ratio, ln_r)
    if sign_r != balls.LESS:
        raise HypothesisViolated(f"R must be certified < 1 (got {sign_r})")
    # S <= 1 would make ln S negative; the theorem's proof assumes S > 1,
    # so clamp conservatively (but never on an undecided comparison).
    sign_s = against_one(problem.s_factor, ln_s)
    if sign_s == balls.UNDECIDED:
        raise UndecidableError("S vs 1 undecided below the precision cap")
    if sign_s != balls.GREATER:
        ln_s = lambda bits: (0, 0)
    m_deg = problem.m_field_degree

    def reaches(n: int) -> bool:
        """Certified f(n) >= 0: the sign of lo <= 2^bits f(n) <= hi at the
        first precision where these do not straddle 0."""
        def attempt(bits: int) -> str | None:
            (r_lo, r_hi), (b_lo, b_hi), (s_lo, s_hi) = ln_r(bits), ln_b(bits), ln_s(bits)
            l_lo, l_hi = _fixed_ln(2 * n + 2, bits)
            return _fixed_sign(-n * r_hi - m_deg * l_hi - b_hi - s_hi,
                               -n * r_lo - m_deg * l_lo - b_lo - s_lo)

        return settle(attempt, f"inequality at N={n} undecided below {precision_cap} bits",
                      precision_cap) == balls.GREATER

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


def _fixed_ln_of(name: str, x: Expr, bits: int, cap_bits: int) -> tuple[int, int]:
    """Bounds of 2^bits ln x for the datum `name`: one enclosure of ln x
    from `bits` up, and HypothesisViolated when x is certified <= 0."""
    try:
        return scaled(eval_ball(Ln(x), bits, cap_bits), bits)
    except (DomainError, UndecidableError):
        sign = certify_compare(x, 0, cap_bits=cap_bits)
        if sign in (balls.LESS, balls.EQUAL):
            relation = "< 0" if sign == balls.LESS else "= 0"
            raise HypothesisViolated(
                f"{name} must be > 0, but {name} {relation} is certified") from None
        raise
