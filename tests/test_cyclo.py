import math
import random
from fractions import Fraction

import pytest
import mpmath
from hypothesis import given, settings, strategies as st

from groundbound.cyclo import (
    CycloElement,
    euler_phi,
    field_degree,
    gamma_norm_constant,
    sin2_pi_over,
)


def cos2_pi_over(l: int, n: int) -> CycloElement:
    """cos^2(pi/l) = (1 + cos(2pi/l))/2 in Q(cos 2pi/n); requires l | n."""
    return (CycloElement.cos2pi(1, l, n) + 1) / 2


def test_invariant_constants():
    assert euler_phi(9) == 6 and gamma_norm_constant(9) == 3
    assert euler_phi(12) == 4 and gamma_norm_constant(12) == 1
    assert euler_phi(31) == 30 and gamma_norm_constant(31) == 31


def test_generator_values():
    assert CycloElement.generator(3) == -1
    assert CycloElement.generator(4) == 0
    assert CycloElement.generator(6) == 1
    beta5 = CycloElement.generator(5)
    assert (beta5 * beta5 + beta5 - 1).is_zero()  # psi_5 relation


def test_trig_identities():
    for l in (5, 7, 8, 9, 12):
        s, c = sin2_pi_over(l, l), cos2_pi_over(l, l)
        assert (s + c) == 1


def test_conjugation_multiplicativity():
    x = sin2_pi_over(7, 7)
    y = cos2_pi_over(7, 7)
    for a in (2, 3):
        assert (x * y).conjugate(a) == x.conjugate(a) * y.conjugate(a)


def test_embedding_round_trip():
    x = sin2_pi_over(5, 5)
    big = x.to_modulus(15)
    assert big.n == 15
    assert (big - x).is_zero()  # mixed-modulus equality via embedding


def test_inverse():
    x = 1 + CycloElement.generator(7)
    assert (x * x.inverse()) == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycloElement.generator(5).__truediv__(0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([5, 7, 8, 9, 11, 12, 15, 16, 30, 60]),
    data=st.data(),
)
def test_arithmetic_matches_float(n, data):
    d = field_degree(n)
    coeffs_a = data.draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
    coeffs_b = data.draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
    a = CycloElement(n, [Fraction(c) for c in coeffs_a])
    b = CycloElement(n, [Fraction(c) for c in coeffs_b])
    beta = 2 * math.cos(2 * math.pi / n)

    def value(x):
        return sum(float(c) * beta**i for i, c in enumerate(x.coeffs))

    assert math.isclose(value(a * b), value(a) * value(b), rel_tol=1e-9, abs_tol=1e-7)
    assert math.isclose(value(a + b), value(a) + value(b), rel_tol=1e-9, abs_tol=1e-7)


def test_norm_of_rational_in_bigger_field():
    x = CycloElement.rational(7, Fraction(7, 3))
    assert x.is_rational() and x.as_rational() == Fraction(7, 3)


def test_hash_agrees_with_equality():
    a = CycloElement.cos2pi(1, 5)
    b = a.to_modulus(10)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({a, a.to_modulus(60), CycloElement.cos2pi(1, 5, 15)}) == 1
    assert CycloElement.rational(5, 3) == 3
    assert hash(CycloElement.rational(5, 3)) == hash(3)
    assert hash(CycloElement.rational(12, Fraction(-2, 7))) == hash(Fraction(-2, 7))
    assert {CycloElement.generator(6): "one"}[1] == "one"


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.integers(1, 4), st.data())
def test_hash_is_independent_of_modulus(n, factor, data):
    d = field_degree(n)
    coeffs = data.draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                                min_size=d, max_size=d))
    x = CycloElement(n, coeffs)
    y = x.to_modulus(n * factor)
    assert x == y and hash(x) == hash(y)


def _value_at(x: CycloElement, beta) -> mpmath.mpf:
    return sum(mpmath.mpf(c.numerator) / c.denominator * beta**i
               for i, c in enumerate(x.coeffs))


def test_galois_action_and_embedding_match_high_precision_values():
    # conjugate(a) is x evaluated at 2cos(2pi a/n); to_modulus(m) is x
    # evaluated at D_{m/n}(2cos(2pi/m)) = 2cos(2pi/n).  Checked at 400 bits:
    # the power-basis coordinates of a conjugate of cos(2pi/61) cancel far
    # beyond double precision.
    rng = random.Random(20240611)
    cases = []
    for n in (5, 7, 9, 15, 16, 21, 30):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(field_degree(n))]
        cases.append((CycloElement(n, coeffs), True))
    cases += [(CycloElement.cos2pi(1, n), False) for n in (61, 101)]
    with mpmath.workprec(400):
        tol = mpmath.mpf(2) ** -300

        def beta(a, n):
            return 2 * mpmath.cos(2 * mpmath.pi * a / n)

        for x, embed in cases:
            n = x.n
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    got = _value_at(x.conjugate(a), beta(1, n))
                    assert abs(got - _value_at(x, beta(a, n))) < tol, (n, a)
            if embed:
                y = x.to_modulus(3 * n)
                assert y.n == 3 * n
                assert abs(_value_at(y, beta(1, 3 * n)) - _value_at(x, beta(1, n))) < tol, n
