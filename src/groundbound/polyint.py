"""Dense polynomial arithmetic over Z.

Polynomials are tuples of integer coefficients, constant term first,
trailing zeros stripped; the zero polynomial is the empty tuple.  Nothing
here divides except exactly: the cyclotomic polynomial Phi_n is the
Moebius product of the binomials x^e - 1, the minimal polynomial psi_n of
2cos(2pi/n) is read off Phi_n as a sum of Dickson polynomials, and the
Dickson polynomials come from their integer three-term recurrence.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice


Poly = tuple  # coefficient tuple, low degree first


def trim(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: Poly) -> int:
    """Degree, with deg(0) = -1."""
    return len(p) - 1


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def peval(p: Poly, x):
    """Horner evaluation; exact for Fraction/int x."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


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


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """Integer coefficients of the n-th cyclotomic polynomial,
    Phi_n = prod_(e | n) (x^e - 1)^mu(n/e): the binomials with mu = 1
    multiplied in first, then each with mu = -1 divided out exactly,
    q_i = q_(i-e) - p_i for q (x^e - 1) = p."""
    if n < 1:
        raise ValueError("n must be positive")
    signed = [1]  # mu(s) s for the squarefree divisors s of n
    for p, _ in _factorize(n):
        signed += [-s * p for s in signed]
    out = [1]
    for s in sorted(signed, reverse=True):
        e = n // abs(s)
        if s > 0:
            out = [0] * e + out
            for i in range(len(out) - e):
                out[i] -= out[i + e]
        else:
            for i in range(len(out) - e):
                out[i] = (out[i - e] if i >= e else 0) - out[i]
            del out[len(out) - e:]
    return tuple(out)


def _dicksons():
    """D_0, D_1, D_2, ...: D_0 = 2, D_1 = x, D_(k+1) = x D_k - D_(k-1)."""
    a, b = (2,), (0, 1)
    while True:
        yield a
        out = [0, *b]
        for i, c in enumerate(a):
            out[i] -= c
        a, b = b, tuple(out)


@lru_cache(maxsize=None)
def cos_minpoly(n: int) -> Poly:
    """Minimal polynomial of 2*cos(2*pi/n) over Q, monic with integer
    coefficients, of degree phi(n)/2 for n >= 3.

    Phi_n = sum_i c_i z^i of degree 2d is palindromic, so
    z^-d Phi_n(z) = c_d + sum_(j >= 1) c_(d+j) (z^j + z^-j) and
    psi_n = c_d + sum_(j >= 1) c_(d+j) D_j, since D_j(z + 1/z) = z^j + z^-j.
    """
    if n == 1:
        return (-2, 1)  # 2cos(0) = 2
    if n == 2:
        return (2, 1)  # 2cos(pi) = -2
    phi_n = cyclotomic(n)
    d = degree(phi_n) // 2
    out = [phi_n[d]] + [0] * d
    for c, dj in zip(phi_n[d + 1:], islice(_dicksons(), 1, None)):
        for i, x in enumerate(dj):
            out[i] += c * x
    return tuple(out)


@lru_cache(maxsize=None)
def dickson(m: int) -> Poly:
    """Dickson polynomial D_m with D_m(2cos t) = 2cos(m t)."""
    return next(islice(_dicksons(), m, None))
