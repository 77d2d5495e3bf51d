from fractions import Fraction

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


def test_divmod_and_gcd():
    p = P.pmul((1, 1), (2, 0, 1))  # (x+1)(x^2+2)
    q, r = P.pdivmod(p, (1, 1))
    assert r == () and q == (2, 0, 1)


def test_monic_division_stays_integral():
    # a monic divisor needs no Fractions: integer inputs give integer
    # quotient and remainder, equal to the division over Q
    p = P.dickson(40)
    for n in (7, 31, 60):
        psi = P.cos_minpoly(n)
        q, r = P.pdivmod(p, psi)
        assert all(type(c) is int for c in q + r)
        assert P.padd(P.pmul(q, psi), r) == p
        assert P.degree(r) < P.degree(psi)
    q, r = P.pdivmod((1, 0, 3), (1, 2))  # not monic: over Q
    assert q == (Fraction(-3, 4), Fraction(3, 2)) and r == (Fraction(7, 4),)
