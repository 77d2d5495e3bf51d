"""Exact views of a `balls.Ball` for the tests: its ends [lo 2^e, hi 2^e]
and its midpoint as Fractions."""

from fractions import Fraction


def ends(ball) -> tuple[Fraction, Fraction]:
    scale = Fraction(2) ** ball.exponent
    return ball.lo * scale, ball.hi * scale


def midpoint(ball) -> Fraction:
    lo, hi = ends(ball)
    return (lo + hi) / 2


def encloses(ball, q) -> bool:
    lo, hi = ends(ball)
    return lo <= Fraction(q) <= hi
