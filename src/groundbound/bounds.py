"""Least-N solver for the degree-bound inequality.

Given positive data (M, B, R, S) with R < 1, find the least natural N with

    N ln(1/R) - M ln(2N + 2) - ln B >= ln S,

then [K:F] <= N and [K:Q] <= N*M (or N*M/m when m > 1 exceptional
embeddings were used).  S is replaced by 1 when S <= 1, which keeps the
conclusion valid and the logarithm nonnegative.

The left side minus ln S, f(N) = N ln(1/R) - M ln(2N + 2) - ln B - ln S,
is convex in N (its second derivative is M/(N + 1)^2 > 0), so the N >= 1
with f(N) < 0 form an interval that starts at 1 when it is not empty.
The solver therefore certifies only f(1), f(N - 1) and f(N), not every N
below the answer.  Every sign is certified, and it is read off integer
bounds of 2^64 f in the fixed-point kit of `fixed` (one enclosure each of
ln R, ln B and ln S, and the integer ln table); only a sign whose bounds
straddle 0 is certified by adaptive interval arithmetic on the full tree.

`method_a_problem` is the one place that derives (M, B, R, S): every
edge-graph case and every pair refinement supplies the squared width W of
its admissible interval and the radius r of its exceptional interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import balls
from .balls import Ball, Const, E, Expr, Ln, Pow, Sqrt, as_expr, certify_compare
from .cyclo import CycloElement
from .errors import DomainError, HypothesisViolated, InvalidInput, UndecidableError
from .fields import RealCyclotomicField, field_discriminant
from .fixed import _fixed, _fixed_ln

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
    N is the least solution.

    ln R, ln B and ln S are each enclosed once and rounded outward to
    integers in units of 2^-64 (`fixed._fixed`); with ln(2n + 2) from the
    integer atanh table (`fixed._fixed_ln`) they bound 2^64 f(n) between
    two integers.  Those bounds decide R < 1, the clamp of S and the signs
    of f(1), f(N - 1) and f(N), and N is proposed by doubling and bisection
    on them; where a certified sign disagrees with the proposal, N moves
    one step in the certified direction and the new sign is certified.
    Only a sign whose integer bounds straddle 0 falls back to
    `certify_compare` on the full expression tree.  `precision_cap` bounds
    every enclosure and every fallback; UNDECIDED raises UndecidableError.
    Evaluation starts at `balls.DEFAULT_START_BITS`, so a smaller
    `precision_cap` could decide nothing and is rejected.  R, B or S
    certified <= 0, or R not certified < 1, raises HypothesisViolated.
    """
    if precision_cap < balls.DEFAULT_START_BITS:
        raise InvalidInput(
            f"precision cap {precision_cap} is below {balls.DEFAULT_START_BITS} bits"
        )
    ln_inv_r = -Ln(problem.r_ratio)
    ln_r_lo, ln_r_hi = _fixed_ln_of("R", problem.r_ratio, precision_cap)
    r_lo, r_hi = -ln_r_hi, -ln_r_lo
    if r_lo <= 0:
        sign_r = balls.GREATER if r_hi < 0 else certify_compare(
            problem.r_ratio, ONE, cap_bits=precision_cap)
        if sign_r != balls.LESS:
            raise HypothesisViolated(f"R must be certified < 1 (got {sign_r})")
        # a positive lower bound for ln(1/R) makes the proposal grow with n
        r_lo, r_hi = _fixed(ln_inv_r, precision_cap, Ball.certainly_positive)

    b_lo, b_hi = _fixed_ln_of("B", problem.b_disc_root, precision_cap)
    # S <= 1 would make ln S negative; the theorem's proof assumes S > 1,
    # so clamp conservatively (but never on an undecided comparison).
    s_lo, s_hi = _fixed_ln_of("S", problem.s_factor, precision_cap)
    if s_lo > 0:
        s_cmp = balls.GREATER
    elif s_hi < 0:
        s_cmp = balls.LESS
    else:
        s_cmp = certify_compare(problem.s_factor, ONE, cap_bits=precision_cap)
    if s_cmp == balls.UNDECIDED:
        raise UndecidableError("S vs 1 undecided below the precision cap")
    if s_cmp != balls.GREATER:
        s_lo = s_hi = 0
    ln_s = Ln(problem.s_factor) if s_cmp == balls.GREATER else ZERO
    ln_b = Ln(problem.b_disc_root)
    m_deg = problem.m_field_degree

    def f_bounds(n: int) -> tuple[int, int]:
        """(lo, hi) with lo <= 2^64 f(n) <= hi."""
        l_lo, l_hi = _fixed_ln(2 * n + 2)
        return (n * r_lo - m_deg * l_hi - b_hi - s_hi,
                n * r_hi - m_deg * l_lo - b_lo - s_lo)

    def reaches(n: int) -> bool:
        """Certified f(n) >= 0: from the integer bounds when they do not
        straddle 0, else GREATER, or EQUAL on the exact path, of the tree."""
        lo, hi = f_bounds(n)
        if lo >= 0:
            return True
        if hi < 0:
            return False
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
    n = _integer_proposal(f_bounds)
    low = 1  # the largest n with f(n) < 0 certified so far
    while n <= SOLVE_LIMIT and not reaches(n):
        low, n = n, n + 1
    # f(n) >= 0 is certified here, unless n = SOLVE_LIMIT + 1
    while low < n - 1 and reaches(n - 1):
        n -= 1
    if n > SOLVE_LIMIT:
        raise UndecidableError(f"no solution found below N = {SOLVE_LIMIT}")
    return result(n)


def _fixed_ln_of(name: str, x: Expr, cap_bits: int) -> tuple[int, int]:
    """Fixed-point bounds of ln x for the datum `name`; HypothesisViolated
    when x is certified <= 0."""
    try:
        return _fixed(Ln(x), cap_bits)
    except (DomainError, UndecidableError):
        sign = certify_compare(x, ZERO, cap_bits=cap_bits)
        if sign in (balls.LESS, balls.EQUAL):
            relation = "< 0" if sign == balls.LESS else "= 0"
            raise HypothesisViolated(
                f"{name} must be > 0, but {name} {relation} is certified") from None
        raise


def _integer_proposal(f_bounds) -> int:
    """Least N >= 2 whose integer bounds (lo, hi) = f_bounds(N) have a
    nonnegative midpoint, by doubling and bisection, capped at
    SOLVE_LIMIT + 1."""

    def below(n):
        lo, hi = f_bounds(n)
        return lo + hi < 0

    lo, hi = 1, 2
    while hi <= SOLVE_LIMIT and below(hi):
        lo, hi = hi, 2 * hi
    if below(hi):
        return SOLVE_LIMIT + 1
    while hi - lo > 1:  # below(lo) and not below(hi)
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return min(hi, SOLVE_LIMIT + 1)
