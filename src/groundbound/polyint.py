"""Dense polynomial arithmetic over Z and Q.

Polynomials are tuples of coefficients, constant term first, trailing
zeros stripped; the zero polynomial is the empty tuple.  Everything here
is exact: integer coefficients stay integers, rational coefficients are
`fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


Poly = tuple  # coefficient tuple, low degree first


def trim(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: Poly) -> int:
    """Degree, with deg(0) = -1."""
    return len(p) - 1


def padd(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def pneg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def psub(p: Poly, q: Poly) -> Poly:
    return padd(p, pneg(q))


def pscale(p: Poly, a) -> Poly:
    if a == 0:
        return ()
    return trim(a * c for c in p)


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


def pdivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Euclidean division; exact over Q.  Coefficients become Fractions,
    except that a monic q divides without any, so integer inputs give
    integer quotient and remainder."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    monic = q[-1] == 1
    rem = list(p) if monic else [Fraction(c) for c in p]
    quo = [0 if monic else Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq, lc = degree(q), Fraction(q[-1])
    while len(rem) - 1 >= dq and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        factor = rem[-1] if monic else rem[-1] / lc
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
    return trim(quo), trim(rem)


def peval(p: Poly, x):
    """Horner evaluation; exact for Fraction/int x."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """Integer coefficients of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    p = trim([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = pdivmod(p, cyclotomic(d))
            assert not r
            p = q
    return tuple(int(c) for c in p)


@lru_cache(maxsize=None)
def cos_minpoly(n: int) -> Poly:
    """Minimal polynomial of 2*cos(2*pi/n) over Q, monic with integer
    coefficients, of degree phi(n)/2 for n >= 3.

    Uses the palindromic factorization Phi_n(x) = x^d * psi_n(x + 1/x).
    """
    if n == 1:
        return (-2, 1)  # 2cos(0) = 2
    if n == 2:
        return (2, 1)  # 2cos(pi) = -2
    phi_n = cyclotomic(n)
    d = degree(phi_n) // 2
    rem = list(phi_n) + [0] * 2  # room for safety
    out = [0] * (d + 1)
    # Phi_n = sum_j a_j * x^(d-j) * (x^2+1)^j; peel off from the top.
    for j in range(d, -1, -1):
        a = rem[d + j]
        out[j] = a
        if a:
            term = pmul(trim([0] * (d - j) + [1]), pbinom_x2plus1(j))
            for i, c in enumerate(term):
                rem[i] -= a * c
    assert not any(rem), f"cos_minpoly extraction failed for n={n}"
    return trim(out)


@lru_cache(maxsize=None)
def pbinom_x2plus1(j: int) -> Poly:
    """(x^2 + 1)^j as an integer polynomial."""
    out = (1,)
    for _ in range(j):
        out = pmul(out, (1, 0, 1))
    return out


@lru_cache(maxsize=None)
def dickson(m: int) -> Poly:
    """Dickson polynomial D_m with D_m(2cos t) = 2cos(m t)."""
    if m == 0:
        return (2,)
    if m == 1:
        return (0, 1)
    a, b = (2,), (0, 1)
    for _ in range(m - 1):
        a, b = b, psub(pmul((0, 1), b), a)
    return b
