from fractions import Fraction
from functools import lru_cache
from math import comb

from groundbound import polyint as P


def test_cyclotomic_small():
    assert P.cyclotomic(1) == (-1, 1)
    assert P.cyclotomic(2) == (1, 1)
    assert P.cyclotomic(3) == (1, 1, 1)
    assert P.cyclotomic(4) == (1, 0, 1)
    assert P.cyclotomic(12) == (1, 0, -1, 0, 1)
    assert P.cyclotomic(105)[7] == -2  # first coefficient outside {0, +-1}


def test_cos_minpoly_degree_and_value():
    from groundbound.cyclo import euler_phi

    for n in (3, 4, 5, 7, 8, 9, 12, 15, 31, 60):
        psi = P.cos_minpoly(n)
        assert P.degree(psi) == euler_phi(n) // 2
        assert psi[-1] == 1  # monic
    # psi_5(y) = y^2 + y - 1 has root 2cos(72 deg) = (sqrt5 - 1)/2
    assert P.cos_minpoly(5) == (-1, 1, 1)
    assert P.cos_minpoly(12) == (-3, 0, 1)


def test_cos_minpoly_at_two_is_gamma():
    from groundbound.cyclo import gamma_norm_constant

    for l in range(3, 121):
        assert P.peval(P.cos_minpoly(l), 2) == gamma_norm_constant(l)


def test_dickson_identity():
    import math

    for m in range(7):
        x = 2 * math.cos(0.7)
        assert abs(P.peval(P.dickson(m), x) - 2 * math.cos(m * 0.7)) < 1e-12


# -- the constructions these replaced, as oracles ------------------------------
# Phi_n by dividing x^n - 1 by Phi_d for every proper divisor d of n, psi_n by
# peeling Phi_n = sum_j a_j x^(d-j) (x^2 + 1)^j from the top (the palindromic
# factorization Phi_n(x) = x^d psi_n(x + 1/x)), and D_m by the recurrence
# D_(k+1) = x D_k - D_(k-1) on whole polynomials.


def _divide_exactly(p, q):
    """The quotient of p by the monic integer q, which divides it."""
    rem, top = list(p), len(q) - 1
    quo = [0] * (len(p) - top)
    for shift in range(len(quo) - 1, -1, -1):
        c = quo[shift] = rem[shift + top]
        if c:
            for i, a in enumerate(q):
                rem[shift + i] -= c * a
    assert not any(rem)
    return tuple(quo)


@lru_cache(maxsize=None)
def _old_cyclotomic(n):
    p = (-1,) + (0,) * (n - 1) + (1,)  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            p = _divide_exactly(p, _old_cyclotomic(d))
    return p


@lru_cache(maxsize=None)
def _binomials(j):
    """The coefficients of (x^2 + 1)^j, one per even power."""
    return tuple(comb(j, k) for k in range(j + 1))


def _old_cos_minpoly(n):
    if n <= 2:
        return ((-2, 1), (2, 1))[n - 1]
    rem = list(_old_cyclotomic(n))
    d = (len(rem) - 1) // 2
    out = [0] * (d + 1)
    for j in range(d, -1, -1):
        a = out[j] = rem[d + j]
        if a:  # subtract a x^(d-j) (x^2 + 1)^j
            span = slice(d - j, d + j + 1, 2)
            rem[span] = [r - a * b for r, b in zip(rem[span], _binomials(j))]
    assert not any(rem)
    return tuple(out)


def _old_dickson(m):
    a, b = (2,), (0, 1)
    if m == 0:
        return a
    for _ in range(m - 1):
        xb = (0,) + b
        a, b = b, P.trim(c - (a[i] if i < len(a) else 0) for i, c in enumerate(xb))
    return b


def test_cyclotomic_and_cos_minpoly_match_the_old_constructions():
    # Phi_n as the Moebius product of the binomials x^e - 1 and psi_n as a
    # sum of Dickson polynomials equal the constructions they replaced
    for n in range(1, 700):
        assert P.cyclotomic(n) == _old_cyclotomic(n), n
        assert P.cos_minpoly(n) == _old_cos_minpoly(n), n


def test_dickson_matches_the_old_recurrence():
    for m in range(60):
        assert P.dickson(m) == _old_dickson(m), m


def test_exact_layer_constructs_no_fraction():
    # Phi_n, psi_n and the inverse in Q(cos 2pi/n) run on integers alone:
    # not one `Fraction` is built, the caches of the constructions cleared
    from groundbound import cyclo

    x = cyclo.CycloElement.from_numerators(45, [3, -1, 0, 2, 5, 0, 0, 1, 0, 0, 0, 7], 4)
    calls = []
    real = Fraction.__dict__["__new__"]

    def spy(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    for cached in (P.cyclotomic, P.cos_minpoly, P.dickson, cyclo._psi_terms, cyclo._dickson_image):
        cached.cache_clear()
    Fraction.__new__ = staticmethod(spy)
    try:
        for n in (105, 180, 231):
            P.cos_minpoly(n)
        inverse = x.inverse()
    finally:
        Fraction.__new__ = real
    assert calls == []
    assert x * inverse == 1
