"""Combinatorial-polytope and Fuchsian-group bounds.

Everything in the dimension elimination is exact rational arithmetic
(the n = 10 case is a tie, 180 vs 180, and must not depend on rounding).
The Takeuchi degree bound uses the quoted decimal constants exactly and
certified rounding for the final floor.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .balls import PI, Const, Ln, Pow, as_expr, certified_floor, pi_multiple
from .errors import GroundboundError, InadmissibleQuery, InadmissibleSignature
from .frozen import Frozen, set_field

TAKEUCHI_A = Fraction("29.099")
TAKEUCHI_B = Fraction("8.3185")


def face_average_bound(i: int, k: int, m: int) -> Fraction:
    """Upper bound for the average number of i-faces in k-faces of a
    simple m-polytope:

        C(m-i, k-i) * (C([m/2], i) + C(m-[m/2], i))
        -------------------------------------------
              C([m/2], k) + C(m-[m/2], k)
    """
    if not (0 <= i <= k and 2 <= k and 2 * k - 1 <= m):
        raise InadmissibleQuery(f"(i, k, m) = ({i}, {k}, {m})")
    h = m // 2
    num = comb(m - i, k - i) * (comb(h, i) + comb(m - h, i))
    den = comb(h, k) + comb(m - h, k)
    return Fraction(num, den)


def narrow_face_vertex_bound(n: int) -> Fraction:
    """Vertex-average bound 4 + 4/(n-2) (n even) or 4 + 4/(n-3) (n odd)
    for 2-faces of a narrow face of an n-dimensional chamber."""
    if n < 4:
        raise InadmissibleQuery(f"n = {n} < 4")
    return Fraction(4) + (Fraction(4, n - 2) if n % 2 == 0 else Fraction(4, n - 3))


class ExistenceCheck(Frozen):
    __slots__ = ("n", "lhs", "rhs", "holds")

    def __init__(self, n: int, lhs: Fraction, rhs: Fraction, holds: bool):
        set_field(self, "n", n)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "holds", holds)


def counting_chain(n: int) -> dict:
    """Verbose breakdown of the non-right-angle counting argument.

    vertex_factor * alpha_0 >= A >= (5 - bound) * alpha_2 together with
    alpha_0 * edges = alpha_2 * bound assemble into the final inequality
    bound * (edges + vertex_factor_term) > 5 * edges.
    """
    if n < 4:
        raise InadmissibleQuery(f"n = {n} < 4")
    bound = narrow_face_vertex_bound(n)
    edges = Fraction((n - 1) * (n - 2), 2)
    vertex_factor = Fraction((n - 1) // 2)
    half = Fraction(n - 2, 2) if n % 2 == 0 else Fraction(n - 1, 2)
    check = existence_inequality(n)
    return {
        "vertex_average_bound": bound,
        "edges_per_vertex_pairs": edges,
        "angles_per_vertex_cap": vertex_factor,
        "assembled_half_term": half,
        "lhs": check.lhs,
        "rhs": check.rhs,
        "holds": check.holds,
    }


def existence_inequality(n: int) -> ExistenceCheck:
    """The counting inequality whose failure eliminates dimension n:

        (4 + 4/(n-2)) ((n-1)(n-2)/2 + (n-2)/2) > 5 (n-1)(n-2)/2   (n even)
        (4 + 4/(n-3)) ((n-1)(n-2)/2 + (n-1)/2) > 5 (n-1)(n-2)/2   (n odd)

    holds=True means existence is not yet contradicted.
    """
    if n < 4:
        raise InadmissibleQuery(f"n = {n} < 4")
    edges = Fraction((n - 1) * (n - 2), 2)
    half = Fraction(n - 2, 2) if n % 2 == 0 else Fraction(n - 1, 2)
    lhs = narrow_face_vertex_bound(n) * (edges + half)
    rhs = 5 * edges
    return ExistenceCheck(n=n, lhs=lhs, rhs=rhs, holds=lhs > rhs)


# The first four n >= 4 of each parity: degree + 1 sample points for the
# cubic identities certified below.
_PARITY_POINTS = (4, 6, 8, 10, 5, 7, 9, 11)


def _existence_margin(n: int) -> Fraction:
    """lhs - rhs of the existence inequality in closed form:
    (n-1)(10-n)/2 for even n, (n-1)(n-2)(11-n)/(2(n-3)) for odd n."""
    if n % 2 == 0:
        return Fraction((n - 1) * (10 - n), 2)
    return Fraction((n - 1) * (n - 2) * (11 - n), 2 * (n - 3))


def max_admissible_dimension() -> int:
    """Largest n for which the existence inequality still holds.

    On each parity class, with c = n - 2 (n even) or n - 3 (n odd), both
    c * (lhs - rhs) and c * `_existence_margin(n)` are polynomials of degree
    <= 3 in n (c times the vertex bound is linear, the edge terms are
    quadratic), and c > 0 for n >= 4.  So once lhs - rhs equals the closed
    form at the four `_PARITY_POINTS` of its class, it equals it for every
    n >= 4 of that class.  The closed form's sign is that of its linear
    factor, 10 - n or 11 - n: the inequality fails at every n >= 10, and
    only n = 4..10 need a scan.
    """
    for n in _PARITY_POINTS:
        check = existence_inequality(n)
        if check.lhs - check.rhs != _existence_margin(n):
            raise GroundboundError(f"existence margin closed form fails at n = {n}")
    return max(n for n in range(4, 11) if existence_inequality(n).holds)


def narrow_face_identity() -> bool:
    """Whether narrow_face_vertex_bound(n) == face_average_bound(0, 2, n - 1)
    for every n >= 4.

    With m = n - 1 and h = m // 2, linear in n on each parity class,
    face_average_bound(0, 2, m) = m(m-1) / (C(h, 2) + C(m-h, 2)) is a
    quotient of quadratics whose denominator is positive for n >= 4, and
    c * narrow_face_vertex_bound(n), c = n - 2 (n even) or n - 3 (n odd),
    is linear.  Clearing both denominators turns the identity into a cubic
    in n per parity class, which vanishes identically once it vanishes at
    the four `_PARITY_POINTS` of the class.
    """
    return all(narrow_face_vertex_bound(n) == face_average_bound(0, 2, n - 1)
               for n in _PARITY_POINTS)


def takeuchi_c(g: int, t: int):
    """C(g, t) = 2^(2g+t-2) * (2g+t-2)^(2/3) as a certified expression."""
    w = 2 * g + t - 2
    if w < 1:
        raise InadmissibleSignature(f"2g + t - 2 = {w} < 1")
    return Const(Fraction(2**w)) * Pow(Const(Fraction(w)), Fraction(2, 3))


def takeuchi_bound(g: int, t: int) -> int:
    """Degree bound n0 = floor((b + ln C(g,t)) / ln(a / (2 pi)^(4/3)))."""
    if g < 0 or t < 1:
        raise InadmissibleSignature(f"(g, t) = ({g}, {t})")
    num = Const(TAKEUCHI_B) + Ln(takeuchi_c(g, t))
    den = Ln(Const(TAKEUCHI_A) / Pow(Const(2) * PI, Fraction(4, 3)))
    return certified_floor(num / den)


def fuchsian_t_bound(area_bound) -> int:
    """Largest t with 2 pi (t - 2 - t/2) <= area_bound.

    Accepts an expression (e.g. 128*pi/3); exact rational multiples of pi
    are resolved exactly, including ties such as area = 2 pi.
    """
    area = as_expr(area_bound)
    # 2 pi (t/2 - 2) <= area  <=>  pi (t - 4) <= area
    over_pi = pi_multiple(area)
    if over_pi is not None:
        q = over_pi + 4
        return int(q.numerator // q.denominator)
    return certified_floor(area / PI + Const(Fraction(4)))
