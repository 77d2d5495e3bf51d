"""Exact arithmetic in maximal real cyclotomic fields Q(cos 2pi/n).

A `CycloElement` is x = (sum_i num[i] b^i) / den in the power basis of
b = 2*cos(2*pi/n), whose minimal polynomial psi_n = `cos_minpoly(n)` is
monic with integer coefficients, of degree d = phi(n)/2 for n >= 3: one
tuple `num` of d integers over one integer den > 0 with
gcd(den, *num) = 1 (the layout of FLINT's fmpq_poly), so every element has
exactly one representation.  b is an algebraic integer, so sums, products,
rational scaling, the reduction modulo psi_n, Galois conjugation and the
embedding into a larger modulus (a Dickson substitution b -> D_j(b) by
Horner's rule) all stay in integers, and so does `inverse`, which divides
the product of the other conjugates by the norm.  `coeffs` is the
read-only view of the coordinates num[i] / den as reduced Fractions, for
callers that evaluate or print them one by one.

All values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import InvalidModulus
from . import polyint as P
from .polyint import _factorize


def _smallest_prime_factors(limit: int) -> list[int]:
    """spf[x] for 2 <= x <= limit (spf[0] = 0, spf[1] = 1)."""
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise InvalidModulus(f"modulus {n} < 1")
    result = n
    for p, _ in _factorize(n):
        result -= result // p
    return result


@lru_cache(maxsize=None)
def gamma_norm_constant(n: int) -> int:
    """p if n = p^t > 2 for a prime p, else 1 (n >= 3).

    Equals the norm of 4*sin^2(pi/n) from Q(cos 2pi/n) down to Q.
    """
    if n < 3:
        raise InvalidModulus(f"modulus {n} < 3")
    factors = _factorize(n)
    return factors[0][0] if len(factors) == 1 else 1


def field_degree(n: int) -> int:
    """[Q(cos 2pi/n) : Q] = phi(n)/2 for n >= 3, 1 for n in {1, 2}."""
    return 1 if n <= 2 else euler_phi(n) // 2


class CycloElement:
    """An element (sum_i num[i] b^i) / den of Q(cos 2pi/n), b = 2cos(2pi/n),
    exact: `num` has field_degree(n) integers, den > 0 and
    gcd(den, *num) = 1."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs):
        """The element with rational power-basis coordinates `coeffs`
        (anything `Fraction` takes), reduced modulo psi_n when there are
        more than field_degree(n) of them."""
        c = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in coeffs]
        den = lcm(*(x.denominator for x in c))
        _set(self, n, [x.numerator * (den // x.denominator) for x in c], den)

    def __setattr__(self, *args):
        raise AttributeError("CycloElement is immutable")

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates num[i] / den, as reduced Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, n: int, value) -> "CycloElement":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _element(n, [value.numerator], value.denominator)

    @classmethod
    def from_numerators(cls, n: int, num, den: int) -> "CycloElement":
        """(sum_i num[i] b^i) / den for integers num[i] and den != 0."""
        return _element(n, list(num), den)

    @classmethod
    def generator(cls, n: int) -> "CycloElement":
        """2*cos(2*pi/n)."""
        return _element(n, [0, 1], 1)

    @classmethod
    def cos2pi(cls, num: int, den: int, n: int | None = None) -> "CycloElement":
        """cos(2*pi*num/den) as an element of Q(cos 2pi/n), n a multiple of den."""
        num %= den
        g = gcd(num, den) if num else den
        num, den = num // g, den // g
        if n is None:
            n = den
        if n % den:
            raise InvalidModulus(f"{den} does not divide {n}")
        return _element(n, list(_dickson_image(num * (n // den), n)), 2)

    def __getstate__(self):
        return (self.n, self.num, self.den)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    # -- ring operations ----------------------------------------------

    def _pair(self, other):
        """Coerce to a common modulus; None signals an unsupported operand."""
        if isinstance(other, CycloElement):
            if other.n == self.n:
                return self, other
            if self.n % other.n == 0:
                return self, other.to_modulus(self.n)
            if other.n % self.n == 0:
                return self.to_modulus(other.n), other
            m = self.n * other.n // gcd(self.n, other.n)
            return self.to_modulus(m), other.to_modulus(m)
        if isinstance(other, (int, Fraction)):
            return self, CycloElement.rational(self.n, other)
        return None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # x + p/q = (q num + p den) / (q den), p den on the constant term
            p, q = other.numerator, other.denominator
            num = [q * x for x in self.num]
            num[0] += p * self.den
            return _element(self.n, num, q * self.den)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.den == b.den:
            return _element(a.n, [x + y for x, y in zip(a.num, b.num)], a.den)
        g = gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        return _element(a.n, [x * fa + y * fb for x, y in zip(a.num, b.num)], a.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.n, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycloElement) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _element(self.n, [other.numerator * x for x in self.num],
                            other.denominator * self.den)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return _element(a.n, list(P.pmul(P.trim(a.num), P.trim(b.num))), a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return _element(self.n, [other.denominator * x for x in self.num],
                            other.numerator * self.den)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = CycloElement.rational(self.n, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self) -> "CycloElement":
        """Multiplicative inverse from the norm: y = den x is an algebraic
        integer, p = prod sigma_a(y) over 2 <= a < n/2 with gcd(a, n) = 1 is
        the product of its other conjugates, y p = N(y) is a nonzero
        integer, and x^-1 = den p / N(y)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        y = _element(self.n, list(self.num), 1)
        p = _element(self.n, [1], 1)
        for a in range(2, (self.n + 1) // 2):
            if gcd(a, self.n) == 1:
                p = p * y.conjugate(a)
        norm = y * p
        assert norm.is_rational(), "the product of all conjugates is rational"
        return _element(self.n, [self.den * c for c in p.num], norm.num[0])

    # -- predicates & conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other * self.den
        if isinstance(other, CycloElement):
            a, b = self._pair(other)
            return a.num == b.num and a.den == b.den
        return NotImplemented

    def __hash__(self):
        # Tr(x) / [K : Q] does not depend on the modulus that holds x, and it
        # is x itself for a rational x, so equal elements hash alike
        traces = _power_traces(self.n)
        return hash(Fraction(sum(x * t for x, t in zip(self.num, traces)),
                             self.den * len(traces)))

    def __repr__(self):
        return f"CycloElement(n={self.n}, coeffs={self.coeffs})"

    # -- Galois action --------------------------------------------------

    def conjugate(self, a: int) -> "CycloElement":
        """Apply the automorphism 2cos(2pi/n) -> 2cos(2pi a/n), gcd(a, n) = 1."""
        if gcd(a, self.n) != 1:
            raise InvalidModulus(f"{a} not coprime to {self.n}")
        a %= self.n
        # 2cos(2pi a/n) = 2cos(2pi (n - a)/n): the lower Dickson degree
        return _dickson_substitute(self, min(a, self.n - a), self.n)

    def to_modulus(self, m: int) -> "CycloElement":
        """Embed into Q(cos 2pi/m) for n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise InvalidModulus(f"{self.n} does not divide {m}")
        # 2cos(2pi/n) = D_{m/n}(2cos(2pi/m))
        return _dickson_substitute(self, m // self.n, m)


def _set(x: CycloElement, n: int, num: list, den: int) -> None:
    """Store (sum_i num[i] b^i) / den in x: num reduced modulo psi_n and
    padded to field_degree(n) integers, then divided with den by their
    gcd, signed so that den > 0."""
    if n < 1:
        raise InvalidModulus(f"modulus {n} < 1")
    if len(num) != field_degree(n):
        num = _reduce(num, n)
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num, den = [v // g for v in num], den // g
    object.__setattr__(x, "n", n)
    object.__setattr__(x, "num", tuple(num))
    object.__setattr__(x, "den", den)


def _element(n: int, num: list, den: int) -> CycloElement:
    """(sum_i num[i] b^i) / den for integers num[i] and den != 0."""
    x = object.__new__(CycloElement)
    _set(x, n, num, den)
    return x


@lru_cache(maxsize=None)
def _psi_terms(n: int) -> tuple:
    """(d, ((j, a_j), ...)): the degree of psi_n = x^d + sum_(j < d) a_j x^j
    and its nonzero lower coefficients."""
    psi = P.cos_minpoly(n)
    d = len(psi) - 1
    return d, tuple((j, a) for j, a in enumerate(psi[:d]) if a)


def _reduce(num, n: int) -> list:
    """num modulo the monic integer psi_n, in integers and padded to d
    coordinates: each top coordinate c of degree t >= d is removed by
    subtracting c b^(t-d) psi_n(b)."""
    d, terms = _psi_terms(n)
    num = list(num)
    for top in range(len(num) - 1, d - 1, -1):
        c = num[top]
        if c:
            base = top - d
            for j, a in terms:
                num[base + j] -= c * a
    del num[d:]
    return num + [0] * (d - len(num))


@lru_cache(maxsize=None)
def _dickson_image(j: int, m: int) -> tuple:
    """D_j(b) modulo psi_m, b = 2cos(2pi/m): integer coordinates, trimmed."""
    return P.trim(_reduce(P.dickson(j), m))


def _dickson_substitute(x: CycloElement, j: int, m: int) -> CycloElement:
    """x(D_j(b)) in Q(cos 2pi/m), b = 2cos(2pi/m): Horner's rule on the
    integer numerators of x modulo psi_m, over x's denominator."""
    image = _dickson_image(j, m)
    out = ()
    for c in reversed(P.trim(x.num)):
        out = _reduce(P.pmul(P.trim(out), image), m)
        out[0] += c
    return _element(m, out, x.den)


# -- trigonometric constructors ---------------------------------------


@lru_cache(maxsize=None)
def _power_traces(n: int) -> tuple:
    """Tr(b^i) from Q(cos 2pi/n) to Q for 0 <= i < [Q(cos 2pi/n) : Q]: the
    power sums of the roots of b's minimal polynomial, by Newton's identities."""
    a = P.cos_minpoly(n)  # monic; a[j] is the coefficient of x^j
    d = len(a) - 1
    sums = [d]
    for i in range(1, d):
        sums.append(-i * a[d - i] - sum(a[d - j] * sums[i - j] for j in range(1, i)))
    return tuple(sums)


@lru_cache(maxsize=None)
def sin2_pi_over(l: int, n: int) -> CycloElement:
    """sin^2(pi/l) = (1 - cos(2pi/l))/2 in Q(cos 2pi/n); requires l | n."""
    return (1 - CycloElement.cos2pi(1, l, n)) / 2
