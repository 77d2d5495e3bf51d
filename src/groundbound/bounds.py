"""Least-N solver for the degree-bound inequality.

Given positive data (M, B, R, S) with R < 1, find the least natural N with

    N ln(1/R) - M ln(2N + 2) - ln B >= ln S,

then [K:F] <= N and [K:Q] <= N*M (or N*M/m when m > 1 exceptional
embeddings were used).  All comparisons are certified with adaptive
interval arithmetic; S is replaced by 1 when S <= 1, which keeps the
conclusion valid and the logarithm nonnegative.

The left side minus ln S, f(N) = N ln(1/R) - M ln(2N + 2) - ln B - ln S,
is convex in N (its second derivative is M/(N + 1)^2 > 0), so the N >= 1
with f(N) < 0 form an interval that starts at 1 when it is not empty.
The solver therefore certifies only f(1), f(N - 1) and f(N) around a
floating-point proposal for N, not every N below the answer.

`method_a_problem` is the one place that derives (M, B, R, S): every
edge-graph case and every pair refinement supplies the squared width W of
its admissible interval and the radius r of its exceptional interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log

from . import balls
from .balls import Const, E, Expr, Ln, Pow, Sqrt, as_expr, certify_compare
from .cyclo import CycloElement
from .errors import HypothesisViolated, InvalidInput, UndecidableError
from .fields import RealCyclotomicField, field_discriminant

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
    so f is convex and {N >= 1 : f(N) < 0} is an interval.  If f(1) >= 0 is
    certified, the answer is N = 1.  Otherwise that interval contains 1, and
    a certified f(N - 1) < 0 puts all of 1..N-1 inside it (f < 0 at both
    ends of [1, N - 1] gives f < 0 in between), so with f(N) >= 0 certified,
    N is the least solution.  N is proposed by floating-point doubling and
    bisection; where a certified sign disagrees with the proposal, N moves
    one step in the certified direction and the new sign is certified.
    Every comparison is certified; UNDECIDED raises UndecidableError.
    Evaluation starts at `balls.DEFAULT_START_BITS`, so a smaller
    `precision_cap` could decide nothing and is rejected.
    """
    if precision_cap < balls.DEFAULT_START_BITS:
        raise InvalidInput(
            f"precision cap {precision_cap} is below {balls.DEFAULT_START_BITS} bits"
        )
    sign_r = certify_compare(problem.r_ratio, ONE, cap_bits=precision_cap)
    if sign_r != balls.LESS:
        raise HypothesisViolated(f"R must be certified < 1 (got {sign_r})")

    ln_inv_r = -Ln(problem.r_ratio)
    ln_b = Ln(problem.b_disc_root)
    # S <= 1 would make ln S negative; the theorem's proof assumes S > 1,
    # so clamp conservatively (but never on an undecided comparison).
    s_cmp = certify_compare(problem.s_factor, ONE, cap_bits=precision_cap)
    if s_cmp == balls.UNDECIDED:
        raise UndecidableError("S vs 1 undecided below the precision cap")
    ln_s = Ln(problem.s_factor) if s_cmp == balls.GREATER else ZERO
    m_deg = problem.m_field_degree

    def reaches(n: int) -> bool:
        """Certified f(n) >= 0 (GREATER, or EQUAL on the exact path)."""
        lhs = (
            Const(Fraction(n)) * ln_inv_r
            - Const(Fraction(m_deg)) * Ln(Const(Fraction(2 * n + 2)))
            - ln_b
            - ln_s
        )
        sign = certify_compare(lhs, ZERO, cap_bits=precision_cap)
        if sign == balls.UNDECIDED:
            raise UndecidableError(
                f"inequality at N={n} undecided below {precision_cap} bits"
            )
        return sign != balls.LESS

    def result(n: int) -> BoundResult:
        bound = n * m_deg // problem.exceptional_count
        return BoundResult(least_n=n, degree_bound=bound, problem=problem)

    if reaches(1):
        return result(1)
    n = _propose(_approx(ln_inv_r, precision_cap), m_deg, _approx(ln_b + ln_s, precision_cap))
    low = 1  # the largest n with f(n) < 0 certified so far
    while n <= SOLVE_LIMIT and not reaches(n):
        low, n = n, n + 1
    # f(n) >= 0 is certified here, unless n = SOLVE_LIMIT + 1
    while low < n - 1 and reaches(n - 1):
        n -= 1
    if n > SOLVE_LIMIT:
        raise UndecidableError(f"no solution found below N = {SOLVE_LIMIT}")
    return result(n)


def _approx(expr: Expr, cap_bits: int) -> float:
    """Floating-point value of `expr`, the midpoint of its first enclosure
    from 64 bits up (never above `cap_bits`)."""
    return float(balls.eval_ball(expr, cap_bits=cap_bits).center)


def _propose(ln_inv_r: float, m_deg: int, ln_bs: float) -> int:
    """Least N >= 2 with N ln(1/R) - M ln(2N + 2) - ln(BS) >= 0 in floats,
    capped at SOLVE_LIMIT + 1."""

    def f(n):
        return n * ln_inv_r - m_deg * log(2 * n + 2) - ln_bs

    lo, hi = 1, 2
    while hi <= SOLVE_LIMIT and f(hi) < 0:
        lo, hi = hi, 2 * hi
    if f(hi) < 0:
        return SOLVE_LIMIT + 1
    while hi - lo > 1:  # f(lo) < 0 <= f(hi)
        mid = (lo + hi) // 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return min(hi, SOLVE_LIMIT + 1)
