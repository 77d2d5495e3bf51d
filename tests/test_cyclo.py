import math
import random
from fractions import Fraction

import pytest
import mpmath
from hypothesis import given, settings, strategies as st

from groundbound import polyint as P
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


# -- the Fraction-coordinate oracle -----------------------------------------
# The arithmetic that `CycloElement` ran before it held integer numerators
# over one denominator: a tuple of reduced Fraction coordinates, reduced
# modulo psi_n by Euclidean division over Q and conjugated by a Fraction
# Horner substitution, on the Q polynomial helpers below.  Every operation
# of the integer layout is checked against it, coordinate for coordinate.


class FractionCyclo:
    """An element of Q(cos 2pi/n) on Fraction coordinates."""

    def __init__(self, n: int, coeffs):
        d = field_degree(n)
        c = [Fraction(x) for x in coeffs]
        if len(c) > d:
            c = list(_old_reduce(tuple(c), n))
        c += [Fraction(0)] * (d - len(c))
        self.n, self.coeffs = n, tuple(c)

    @classmethod
    def rational(cls, n: int, value) -> "FractionCyclo":
        return cls(n, (Fraction(value),))

    def _pair(self, other):
        if isinstance(other, FractionCyclo):
            if other.n == self.n:
                return self, other
            if self.n % other.n == 0:
                return self, other.to_modulus(self.n)
            if other.n % self.n == 0:
                return self.to_modulus(other.n), other
            m = self.n * other.n // math.gcd(self.n, other.n)
            return self.to_modulus(m), other.to_modulus(m)
        return self, FractionCyclo.rational(self.n, other)

    def __add__(self, other):
        a, b = self._pair(other)
        return FractionCyclo(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCyclo(self.n, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, FractionCyclo) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        prod = P.pmul(P.trim(a.coeffs), P.trim(b.coeffs))
        return FractionCyclo(a.n, _old_reduce(prod, a.n))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return FractionCyclo(self.n, [a / Fraction(other) for a in self.coeffs])
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = FractionCyclo.rational(self.n, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self) -> "FractionCyclo":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        r0, r1 = P.cos_minpoly(self.n), P.trim(self.coeffs)
        t0, t1 = (), (Fraction(1),)
        while r1:
            q, r = _qdivmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _qsub(t0, P.pmul(q, t1))
        assert P.degree(r0) == 0
        return FractionCyclo(self.n, _old_reduce(P.trim(c / r0[0] for c in t0), self.n))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return all(c == 0 for c in self.coeffs[1:]) and self.coeffs[0] == other
        m = self.n * other.n // math.gcd(self.n, other.n)
        return self.to_modulus(m).coeffs == other.to_modulus(m).coeffs

    def __hash__(self):
        traces = _old_power_traces(self.n)
        return hash(sum(c * t for c, t in zip(self.coeffs, traces)) / len(traces))

    def conjugate(self, a: int) -> "FractionCyclo":
        return _old_dickson_substitute(self.coeffs, a % self.n, self.n)

    def to_modulus(self, m: int) -> "FractionCyclo":
        if m == self.n:
            return self
        return _old_dickson_substitute(self.coeffs, m // self.n, m)


def _qadd(p, q):
    n = max(len(p), len(q))
    return P.trim((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def _qsub(p, q):
    return _qadd(p, tuple(-c for c in q))


def _qdivmod(p, q):
    """Euclidean division over Q, on Fraction coefficients."""
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(rem) >= len(q):
        factor = rem[-1] / q[-1]
        shift = len(rem) - len(q)
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem = list(P.trim(rem))
    return P.trim(quo), tuple(rem)


def _old_reduce(coeffs, n: int):
    coeffs = P.trim(coeffs)
    if len(coeffs) <= field_degree(n):
        return coeffs
    return _qdivmod(tuple(coeffs), P.cos_minpoly(n))[1]


def _old_dickson_substitute(coeffs, j: int, m: int) -> FractionCyclo:
    image = _old_reduce(P.dickson(j), m)
    out = ()
    for c in reversed(P.trim(coeffs)):
        out = _qadd(_old_reduce(P.pmul(out, image), m), (c,))
    return FractionCyclo(m, out)


def _old_power_traces(n: int) -> tuple:
    a = P.cos_minpoly(n)
    d = len(a) - 1
    sums = [d]
    for i in range(1, d):
        sums.append(-i * a[d - i] - sum(a[d - j] * sums[i - j] for j in range(1, i)))
    return tuple(sums)


ORACLE_MODULI = (1, 2, 5, 7, 8, 9, 12, 15, 16, 21, 30)


def _seeded_elements(rng: random.Random, n: int) -> list:
    """Zero, one rational, one element with a zero top coordinate, and
    three of random Fraction coordinates, in Q(cos 2pi/n)."""
    d = field_degree(n)

    def coordinate():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    coords = [[0] * d, [coordinate()] + [0] * (d - 1), [coordinate() for _ in range(d - 1)]]
    coords += [[coordinate() for _ in range(d)] for _ in range(3)]
    return [c for c in coords if len(c) == d]


def _check_layout(x: CycloElement) -> None:
    assert type(x.den) is int and x.den > 0
    assert len(x.num) == field_degree(x.n) and all(type(v) is int for v in x.num)
    assert math.gcd(x.den, *x.num) == 1


def _agrees(got: CycloElement, want: FractionCyclo) -> bool:
    _check_layout(got)
    return got.n == want.n and got.coeffs == want.coeffs


def test_integer_layout_matches_the_fraction_oracle():
    rng = random.Random(20261020)
    elements = [(n, c) for n in ORACLE_MODULI for c in _seeded_elements(rng, n)]
    rationals = [0, 1, -3, Fraction(5, 6), Fraction(-7, 4)]
    checked = 0
    for n, c in elements:
        x, x_old = CycloElement(n, c), FractionCyclo(n, c)
        assert _agrees(x, x_old) and _agrees(-x, -x_old)
        for r in rationals:
            assert _agrees(x + r, x_old + r) and _agrees(r + x, r + x_old)
            assert _agrees(x - r, x_old - r) and _agrees(r - x, r - x_old)
            assert _agrees(x * r, x_old * r) and _agrees(r * x, r * x_old)
            if r:
                assert _agrees(x / r, x_old / r)
            if not x_old.is_zero():
                assert _agrees(r / x, r / x_old)
        if not x_old.is_zero():
            assert _agrees(x.inverse(), x_old.inverse())
            for e in (-2, -1):
                assert _agrees(x**e, x_old**e)
        for e in (0, 1, 2, 3, 5):
            assert _agrees(x**e, x_old**e)
        for a in range(1, max(n, 2)):
            if math.gcd(a, n) == 1:
                assert _agrees(x.conjugate(a), x_old.conjugate(a))
        for m in (n, 2 * n, 3 * n, 4 * n):
            assert _agrees(x.to_modulus(m), x_old.to_modulus(m))
        checked += 1
    # binary operations on pairs of seeded elements, mixed moduli included
    # (those of a common modulus up to 60, where the oracle is quick)
    pairs = [(p, q) for p in elements for q in elements if math.lcm(p[0], q[0]) <= 60]
    for (n, c), (m, e) in rng.sample(pairs, 400):
        x, x_old = CycloElement(n, c), FractionCyclo(n, c)
        y, y_old = CycloElement(m, e), FractionCyclo(m, e)
        assert _agrees(x + y, x_old + y_old) and _agrees(x - y, x_old - y_old)
        assert _agrees(x * y, x_old * y_old)
        if not y_old.is_zero():
            assert _agrees(x / y, x_old / y_old)
        assert (x == y) == (x_old == y_old)
        checked += 1
    assert checked == len(elements) + 400


def test_equality_and_hash_across_moduli_match_the_oracle():
    rng = random.Random(7)
    for n in ORACLE_MODULI:
        for c in _seeded_elements(rng, n):
            x, x_old = CycloElement(n, c), FractionCyclo(n, c)
            assert hash(x) == hash(x_old)
            for m in (2 * n, 3 * n, 5 * n):
                y = x.to_modulus(m)
                assert x == y and y == x and hash(y) == hash(x)
                assert (y + 1 == x) is False and y + 1 != x
            if x_old.coeffs[1:] == (0,) * (len(c) - 1):
                assert x == x_old.coeffs[0] and hash(x) == hash(x_old.coeffs[0])


def test_pickle_round_trip_keeps_the_layout():
    import copy
    import pickle

    rng = random.Random(11)
    for n in ORACLE_MODULI:
        for c in _seeded_elements(rng, n):
            x = CycloElement(n, c)
            for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
                _check_layout(y)
                assert (y.n, y.num, y.den) == (x.n, x.num, x.den) and y == x
                assert hash(y) == hash(x)


def test_layout_is_normalised_and_immutable():
    x = CycloElement(7, [Fraction(2, 6), Fraction(4, 6), Fraction(-8, 6)])
    assert (x.num, x.den) == ((1, 2, -4), 3)
    assert CycloElement.from_numerators(7, [-2, -4, 8], -6) == x
    assert (CycloElement.from_numerators(7, [0, 0, 0], -5).num,
            CycloElement.from_numerators(7, [0, 0, 0], -5).den) == ((0, 0, 0), 1)
    assert x.coeffs == (Fraction(1, 3), Fraction(2, 3), Fraction(-4, 3))
    with pytest.raises(AttributeError):
        x.den = 1
    with pytest.raises(AttributeError):
        x.coeffs = ()
