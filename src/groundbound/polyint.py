"""Dense polynomial arithmetic over Z.

Polynomials are tuples of integer coefficients, constant term first,
trailing zeros stripped; the zero polynomial is the empty tuple.  Nothing
here divides except exactly: the cyclotomic polynomial Phi_n is the
Moebius product of the binomials x^e - 1, the minimal polynomial psi_n of
2cos(2pi/n) is read off Phi_n as a sum of Dickson polynomials, and the
Dickson polynomials come from their integer three-term recurrence.  The
resultant with a monic polynomial is one fraction-free determinant.
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


def resultant(f: Poly, g: Poly) -> int:
    """Res(f, g) = prod g(r) over the roots r of a monic f, in integers.

    With d = deg f, m = deg g >= 1 and c the leading coefficient of g, the
    monic g~(y) = c^(m-1) g(y/c) has the roots c s of g, and
    f_c(y) = c^d f(y/c) is integral, so
    Res(f, g) = (-1)^(dm) c^d prod_s f(s) = (-1)^(dm) c^(d(1-m)) det M,
    M the multiplication by f_c(y) on Z[y]/(g~) (its columns f_c y^j,
    j < m), f_c evaluated by Horner's rule modulo g~ and det M by
    fraction-free (Bareiss) elimination.  m = 0 gives c^d, g = 0 gives 0.
    """
    if not g:
        return 0
    d, m, c = degree(f), degree(g), g[-1]
    if m == 0:
        return c**d
    # v y modulo g~ = y^m + sum_(i < m) g_i c^(m-1-i) y^i, for v = (v_0, .., v_(m-1))
    low0, low = -c ** (m - 1) * g[0], [x * c ** (m - 1 - i) for i, x in enumerate(g[1:m], 1)]
    r, scale = [0] * m, 1
    for a in reversed(f):  # Horner's rule on f_c = sum f_i c^(d-i) y^i
        top = r[-1]
        r = [top * low0 + a * scale] + [x - top * t for x, t in zip(r, low)]
        scale *= c
    columns = [r]
    for _ in range(m - 1):
        top = r[-1]
        r = [top * low0] + [x - top * t for x, t in zip(r, low)]
        columns.append(r)
    return (-1) ** (d * m) * _bareiss(columns) // c ** (d * (m - 1))


def _bareiss(rows) -> int:
    """The determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination: every division is exact."""
    rows = [list(row) for row in rows]
    size, sign, prev = len(rows), 1, 1
    for k in range(size - 1):
        if not rows[k][k]:
            pivot = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pivot_row, p = rows[k], rows[k][k]
        for row in rows[k + 1:]:
            x = row[k]
            row[k + 1:] = [(p * y - x * z) // prev for y, z in zip(row[k + 1:], pivot_row[k + 1:])]
        prev = p
    return sign * rows[-1][-1]


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
