"""Exact arithmetic in maximal real cyclotomic fields Q(cos 2pi/n).

A `CycloElement` stores rational coordinates in the power basis of
b = 2*cos(2*pi/n), whose minimal polynomial `cos_minpoly(n)` has degree
phi(n)/2 for n >= 3.  Addition, multiplication, Galois conjugation and
embedding into a larger modulus are all exact.

All values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import InvalidModulus
from . import polyint as P


def _factorize(n: int) -> tuple:
    """((p, v), ...) with n = prod p^v, primes increasing, by trial division."""
    out = []
    x, p = n, 2
    while p * p <= x:
        if x % p == 0:
            v = 0
            while x % p == 0:
                x //= p
                v += 1
            out.append((p, v))
        p += 1
    if x > 1:
        out.append((x, 1))
    return tuple(out)


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
    """An element of Q(cos 2pi/n), exact."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise InvalidModulus(f"modulus {n} < 1")
        d = field_degree(n)
        c = [Fraction(x) for x in coeffs]
        if len(c) > d:
            c = list(_reduce(tuple(c), n))
        c += [Fraction(0)] * (d - len(c))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *args):
        raise AttributeError("CycloElement is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, n: int, value) -> "CycloElement":
        return cls(n, (Fraction(value),))

    @classmethod
    def generator(cls, n: int) -> "CycloElement":
        """2*cos(2*pi/n)."""
        return cls(n, (0, 1) if field_degree(n) > 1 else (P.peval(P.cos_minpoly(n), 0) * -1,))

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
        m = num * (n // den)
        return cls(n, P.dickson(m)) / 2

    def __getstate__(self):
        return (self.n, self.coeffs)

    def __setstate__(self, state):
        object.__setattr__(self, "n", state[0])
        object.__setattr__(self, "coeffs", state[1])

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
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycloElement(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.n, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycloElement) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        prod = P.pmul(P.trim(a.coeffs), P.trim(b.coeffs))
        return CycloElement(a.n, _reduce(prod, a.n))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return CycloElement(self.n, [a / Fraction(other) for a in self.coeffs])
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
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        a = P.cos_minpoly(self.n)
        b = P.trim(self.coeffs)
        # extended gcd over Q: s*a + t*b = g (constant)
        r0, r1 = a, b
        t0, t1 = (), (Fraction(1),)
        while r1:
            q, r = P.pdivmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, P.psub(t0, P.pmul(q, t1))
        assert P.degree(r0) == 0, "minimal polynomial must be irreducible"
        inv = P.pscale(t0, 1 / Fraction(r0[0]))
        return CycloElement(self.n, _reduce(inv, self.n))

    # -- predicates & conversions ---------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, CycloElement):
            if self.n == other.n:
                return self.coeffs == other.coeffs
            m = self.n * other.n // gcd(self.n, other.n)
            return self.to_modulus(m).coeffs == other.to_modulus(m).coeffs
        return NotImplemented

    def __hash__(self):
        # Tr(x) / [K : Q] does not depend on the modulus that holds x, and it
        # is x itself for a rational x, so equal elements hash alike
        traces = _power_traces(self.n)
        return hash(sum(c * t for c, t in zip(self.coeffs, traces)) / len(traces))

    def __repr__(self):
        return f"CycloElement(n={self.n}, coeffs={self.coeffs})"

    # -- Galois action --------------------------------------------------

    def conjugate(self, a: int) -> "CycloElement":
        """Apply the automorphism 2cos(2pi/n) -> 2cos(2pi a/n), gcd(a, n) = 1."""
        if gcd(a, self.n) != 1:
            raise InvalidModulus(f"{a} not coprime to {self.n}")
        return _dickson_substitute(self.coeffs, a % self.n, self.n)

    def to_modulus(self, m: int) -> "CycloElement":
        """Embed into Q(cos 2pi/m) for n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise InvalidModulus(f"{self.n} does not divide {m}")
        # 2cos(2pi/n) = D_{m/n}(2cos(2pi/m))
        return _dickson_substitute(self.coeffs, m // self.n, m)


@lru_cache(maxsize=None)
def _reduce_cached(coeffs: tuple, n: int) -> tuple:
    rem = P.pdivmod(coeffs, P.cos_minpoly(n))[1]
    return rem


def _reduce(coeffs, n: int):
    coeffs = P.trim(coeffs)
    if len(coeffs) <= field_degree(n):
        return coeffs
    return _reduce_cached(tuple(coeffs), n)


def _dickson_substitute(coeffs, j: int, m: int) -> CycloElement:
    """x(D_j(b)) in Q(cos 2pi/m), b = 2cos(2pi/m), for x with power-basis
    coordinates `coeffs`: Horner's rule modulo b's minimal polynomial."""
    image = _reduce(P.dickson(j), m)
    out = ()
    for c in reversed(P.trim(coeffs)):
        out = P.padd(_reduce(P.pmul(out, image), m), (c,))
    return CycloElement(m, out)


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


def sin2_pi_over(l: int, n: int) -> CycloElement:
    """sin^2(pi/l) = (1 - cos(2pi/l))/2 in Q(cos 2pi/n); requires l | n."""
    return (1 - CycloElement.cos2pi(1, l, n)) / 2
