"""Real algebraic numbers as minimal polynomial + isolating interval.

The interval has rational endpoints and contains exactly one real root of
the (squarefree) integer polynomial; refinement is sign-preserving
bisection with exact integer evaluation, so the identified root never
changes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import polyint as P


def _homogeneous_value(poly, m: int, d: int) -> int:
    """d^n poly(m / d) for poly of degree n, by homogeneous Horner."""
    acc, scale = poly[-1], 1
    for c in reversed(poly[:-1]):
        scale *= d
        acc = acc * m + c * scale
    return acc


class AlgebraicReal:
    """A real root of an integer polynomial, isolated by a rational interval."""

    __slots__ = ("minpoly", "_lo", "_hi")

    def __init__(self, minpoly, interval, validate: bool = True):
        minpoly = P.trim(int(c) for c in minpoly)
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo > hi:
            raise ValueError("empty isolating interval")
        if validate:
            if P.degree(minpoly) < 1:
                raise ValueError("constant polynomial has no roots")
            if not P.is_squarefree(minpoly):
                raise ValueError("minimal polynomial must be squarefree")
            if lo != hi and P.peval(minpoly, lo) == 0:
                raise ValueError("left endpoint is a root; pass a point interval")
            if lo != hi and P.count_real_roots(minpoly, lo, hi) != 1:
                raise ValueError("interval does not isolate exactly one root")
            if lo == hi and P.peval(minpoly, lo) != 0:
                raise ValueError("degenerate interval is not a root")
        self.minpoly = minpoly
        self._lo = lo
        self._hi = hi

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "AlgebraicReal":
        q = Fraction(q)
        return cls((-q.numerator, q.denominator), (q, q), validate=False)

    @classmethod
    def roots_of(cls, poly) -> list["AlgebraicReal"]:
        """All real roots of a squarefree integer polynomial, ascending."""
        return [cls(poly, iv, validate=False) for iv in P.isolate_real_roots(poly)]

    # -- interval access -------------------------------------------------

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return (self._lo, self._hi)

    def refine(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Shrink the isolating interval below `width`; returns it.

        Bisection in integers: the endpoints are numerators a, b over one
        denominator d, the midpoint is (a + b) / 2d, and the sign of
        minpoly(m/d) is that of sum c_i m^i d^(n - i) (as d > 0).  Each
        step keeps the same half as bisection on Fractions would.
        """
        lo, hi = self._lo, self._hi
        if lo == hi:
            return lo, hi
        slo = P.peval(self.minpoly, lo)
        if slo == 0:
            # endpoint root of another factor cannot occur (squarefree,
            # isolated); an exact hit means lo is the root itself
            self._lo = self._hi = lo
            return lo, lo
        if hi - lo <= width:
            return lo, hi
        sign_lo = slo > 0
        d = lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        while (b - a) * width.denominator > width.numerator * d:
            m, d = a + b, 2 * d
            v = _homogeneous_value(self.minpoly, m, d)
            if v == 0:
                a = b = m
                break
            if (v > 0) == sign_lo:
                a, b = m, 2 * b
            else:
                a, b = 2 * a, m
        self._lo, self._hi = Fraction(a, d), Fraction(b, d)
        return self._lo, self._hi

    def refine_bits(self, bits: int) -> tuple[Fraction, Fraction]:
        return self.refine(Fraction(1, 2**bits))

    # -- predicates -------------------------------------------------------

    def is_integer_monic(self) -> bool:
        """True when the defining polynomial is monic (algebraic integer)."""
        return self.minpoly[-1] == 1

    def degree(self) -> int:
        return P.degree(self.minpoly)

    def compare_rational(self, q) -> int:
        """-1, 0, +1 against an exact rational."""
        q = Fraction(q)
        if P.peval(self.minpoly, q) == 0 and self._lo <= q <= self._hi:
            return 0
        lo, hi = self._lo, self._hi
        while lo < q < hi:
            lo, hi = self.refine((hi - lo) / 4)
        if hi <= q:
            return -1
        if lo >= q:
            return 1
        return 0  # degenerate: root equals q

    def __repr__(self):
        return f"AlgebraicReal(minpoly={self.minpoly}, interval=({self._lo}, {self._hi}))"

    def approx(self) -> float:
        lo, hi = self.refine(Fraction(1, 2**60))
        return float((lo + hi) / 2)
