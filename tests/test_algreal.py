from fractions import Fraction

import pytest

from groundbound.algreal import AlgebraicReal


def test_rational_construction():
    x = AlgebraicReal.from_rational(Fraction(7, 3))
    assert x.compare_rational(Fraction(7, 3)) == 0
    assert x.compare_rational(2) == 1
    assert x.degree() == 1


def test_sqrt2_refinement_preserves_root():
    x = AlgebraicReal((-2, 0, 1), (1, 2))
    lo0, hi0 = x.interval
    lo, hi = x.refine(Fraction(1, 2**50))
    assert lo0 <= lo <= hi <= hi0
    assert hi - lo <= Fraction(1, 2**50)
    assert lo * lo <= 2 <= hi * hi
    assert x.compare_rational(Fraction(3, 2)) == -1
    assert x.compare_rational(1) == 1


def test_roots_of_orders_roots():
    roots = AlgebraicReal.roots_of((-2, 0, 1))
    assert len(roots) == 2
    assert roots[0].compare_rational(0) == -1
    assert roots[1].compare_rational(0) == 1


def test_bad_intervals_rejected():
    with pytest.raises(ValueError):
        AlgebraicReal((-2, 0, 1), (-2, 2))  # two roots
    with pytest.raises(ValueError):
        AlgebraicReal((-4, 0, 1), (2, 3))  # left endpoint is the root
    with pytest.raises(ValueError):
        AlgebraicReal((1, 2, 1), (0, 1))  # (x+1)^2 not squarefree


def test_monic_detection():
    assert AlgebraicReal((-1, -2, 1), (2, 3)).is_integer_monic()  # 1 + sqrt2
    assert not AlgebraicReal((-1, 0, 2), (0, 1)).is_integer_monic()


def _fraction_bisection(poly, lo, hi, width):
    """The bisection `refine` ran on Fractions, kept as its oracle."""
    from groundbound import polyint as P

    sign_lo = P.peval(poly, lo) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = P.peval(poly, mid)
        if v == 0:
            return mid, mid
        if (v > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_integer_bisection_matches_fraction_bisection():
    import time

    width = Fraction(1, 2**4104)
    expected = _fraction_bisection((-2, 0, 1), Fraction(1), Fraction(2), width)
    seconds = []
    for _ in range(3):
        x = AlgebraicReal((-2, 0, 1), (1, 2))  # fresh sqrt(2)
        start = time.perf_counter()
        assert x.refine_bits(4104) == expected
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.2, seconds
    for poly, interval, bits in (((1, -3, 0, 1), (Fraction(1, 3), Fraction(7, 5)), 300),
                                 ((-3, 0, 0, 0, 4), (Fraction(-3, 2), Fraction(-1, 3)), 200),
                                 ((-1, 4), (0, 1), 50)):  # an exact rational hit
        x = AlgebraicReal(poly, interval)
        lo, hi = map(Fraction, interval)
        assert x.refine_bits(bits) == _fraction_bisection(poly, lo, hi, Fraction(1, 2**bits))
