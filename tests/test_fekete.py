import random
from fractions import Fraction as F
from math import ceil, lcm

import pytest

from groundbound.balls import (
    DEFAULT_CAP_BITS,
    EQUAL,
    GREATER,
    LESS,
    AlgConst,
    certify_compare,
    certify_sign,
    eval_ball,
)
from groundbound.cyclo import CycloElement
from groundbound.fekete import (
    LLL_DELTA,
    LLL_MARGIN_BITS,
    _coefficients_from_alpha,
    _lll,
    _surd,
    _surd_sign,
    chebyshev_coefficients,
    chebyshev_linear_forms,
    chebyshev_scale,
    certify_sup_norm,
    fekete_bound_expr,
    fekete_bound_power,
    find_small_polynomial,
    integral_basis,
    lagrange_growth_bound,
    within_bound,
)
from groundbound.fields import RealCyclotomicField, field_discriminant

from enclosures import midpoint

Q = RealCyclotomicField.rationals()
F5 = RealCyclotomicField([5])


def _exact_rows(a, b, n):
    """The exact Chebyshev rows: `chebyshev_coefficients` gives integer
    rows R_i whose true values are R_i / s^i, s = 4 lcm(den a, den b)."""
    s = 4 * lcm(a.denominator, b.denominator)
    assert chebyshev_scale(a, b) == s
    rows = chebyshev_coefficients(a, b, n)
    assert all(type(c) is int for row in rows for c in row)
    return [tuple(F(c, s**i) for c in row) for i, row in enumerate(rows)]


def test_chebyshev_rows_match_integral_oracle():
    # row values were cross-checked against numeric quadrature of
    # (1/pi) int P((a+b)/2 + ((b-a)/2) cos z) cos(kz) dz
    rows = _exact_rows(F(0), F(1), 2)
    assert rows[0] == (F(1), F(0), F(0))
    assert rows[1] == (F(1, 2), F(1, 2), F(0))
    assert rows[2] == (F(3, 8), F(1, 2), F(1, 8))


def test_chebyshev_quadrature_oracle():
    import mpmath

    a, b = F(1, 3), F(5, 4)
    rows = _exact_rows(a, b, 3)
    mpmath.mp.dps = 30
    for i in range(4):
        for k in range(4):
            f = lambda z: ((float(a + b) / 2 + float(b - a) / 2 * mpmath.cos(z)) ** i
                           * mpmath.cos(k * z))
            integral = mpmath.quad(f, [0, mpmath.pi]) / mpmath.pi
            if k >= 1:
                integral *= 2
            assert abs(float(rows[i][k]) - float(integral)) < 1e-12, (i, k)


def test_diagonal_closed_form():
    # c_{k,k} = 2 ((b-a)/4)^k for k >= 1
    for a, b in [(F(0), F(1)), (F(-2), F(2)), (F(-1, 2), F(3, 2))]:
        rows = _exact_rows(a, b, 4)
        for k in range(1, 5):
            assert rows[k][k] == 2 * ((b - a) / 4) ** k, (a, b, k)
    assert _exact_rows(F(0), F(1), 3)[3][3] == F(1, 32)


def _sup_norm_by_conjugation(coeffs, emb, interval):
    """sum_k |A_k| from coefficients conjugated one by one with
    `Embedding.apply` and Chebyshev values as Fractions."""
    a, b = interval
    n = len(coeffs) - 1
    images = [emb.apply(c) for c in coeffs]
    total = CycloElement.rational(emb.field.n, 0)
    for k in range(n + 1):
        form = CycloElement.rational(emb.field.n, 0)
        for i, row in enumerate(_exact_rows(a, b, n)):
            form = form + images[i] * row[k]
        total = total + (-1 * form if certify_sign(AlgConst(form)) == LESS else form)
    return total


def test_sup_norm_reads_cached_power_basis_images(monkeypatch):
    # the images of the coefficients come from cached images of the power
    # basis, and give the bound that conjugating each coefficient gives
    from groundbound import fekete
    from groundbound.fields import Embedding

    rng = random.Random(1820)
    fields = [F5, RealCyclotomicField([8]), RealCyclotomicField([5, 3])]
    for field in fields:
        for emb in field.embeddings():
            fekete._power_images(emb)
    applied = []
    real_apply = Embedding.apply
    monkeypatch.setattr(Embedding, "apply", lambda self, x: applied.append(x) or real_apply(self, x))
    cases = []
    for field in fields:
        dim = len(CycloElement.rational(field.n, 0).coeffs)
        for emb in field.embeddings():
            for _ in range(6):
                n = rng.randint(0, 5)
                coeffs = [CycloElement(field.n, [F(rng.randint(-9, 9), rng.randint(1, 4))
                                                 for _ in range(dim)]) for _ in range(n + 1)]
                c = F(rng.randint(-6, 6), 4)
                interval = (c, c + F(rng.randint(1, 9), 8))
                cases.append((coeffs, emb, interval, certify_sup_norm(coeffs, emb, interval)))
    assert applied == []
    monkeypatch.setattr(Embedding, "apply", real_apply)
    for coeffs, emb, interval, sup in cases:
        assert sup == _sup_norm_by_conjugation(coeffs, emb, interval)


def test_sup_norm_examples():
    emb = Q.identity_embedding()
    one = CycloElement.rational(1, 1)
    zero = CycloElement.rational(1, 0)
    assert certify_sup_norm([zero, one], emb, (F(-1), F(1))) == 1
    assert certify_sup_norm([-1 * one, zero, 2 * one], emb, (F(-1), F(1))) == 1
    assert certify_sup_norm([zero, zero, one], emb, (F(0), F(1))) == 1
    # grid lower bound never exceeds the certified sup bound
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(0, 6)
        coeffs = [CycloElement.rational(1, rng.randint(-4, 4)) for _ in range(n + 1)]
        a, b = F(-1), F(2)
        sup = certify_sup_norm(coeffs, emb, (a, b)).as_rational()
        grid_max = max(
            abs(sum(c.as_rational() * x**i for i, c in enumerate(coeffs)))
            for x in [a + (b - a) * F(t, 37) for t in range(38)]
        )
        assert sup >= grid_max


def test_integral_bases():
    assert len(integral_basis(Q)) == 1
    basis = integral_basis(F5)
    omega = basis[1]
    assert (omega * omega - omega - 1).is_zero()
    f8 = RealCyclotomicField([8])
    b8 = integral_basis(f8)[1]
    assert (b8 * b8 - 2).is_zero()  # sqrt(2) for disc 8 = 4*2
    f12 = RealCyclotomicField([12])
    b12 = integral_basis(f12)[1]
    assert (b12 * b12 - 3).is_zero()


def test_certificate_worked_examples():
    emb = Q.identity_embedding()
    cert = find_small_polynomial(Q, {emb: (F(-3), F(3))}, 0)
    assert not cert.is_zero() and cert.sup_bounds[0] == 1

    cert = find_small_polynomial(Q, {emb: (F(-1, 2), F(1, 2))}, 2)
    assert not cert.is_zero()
    bound_ball = eval_ball(cert.theoretical_bound, 96)
    assert abs(float(midpoint(bound_ball)) - 2 ** (2 / 3) * 3 / 4) < 1e-9
    for sup in cert.sup_bounds:
        assert certify_compare(AlgConst(sup), cert.theoretical_bound) != GREATER

    embs = F5.embeddings()
    iv5 = {embs[0]: (F(-1, 4), F(1, 4)), embs[1]: (F(-1, 4), F(1, 4))}
    cert5 = find_small_polynomial(F5, iv5, 2)
    assert not cert5.is_zero()
    for sup in cert5.sup_bounds:
        assert certify_compare(AlgConst(sup), cert5.theoretical_bound) != GREATER


def test_determinant_identity_exact():
    # det^2 = disc^(n+1) * 4^(Nn) * (prod (b-a)/4)^(n(n+1))
    for field, ivs in [
        (Q, {Q.identity_embedding(): (F(0), F(1))}),
        (F5, dict(zip(F5.embeddings(), [(F(-1, 2), F(1, 2)), (F(-1, 3), F(2, 3))]))),
    ]:
        for n in range(1, 7):
            forms = chebyshev_linear_forms(field, ivs, n)
            det = forms.exact_determinant()
            det_sq = det * det
            prod = F(1)
            for a, b in ivs.values():
                prod *= (b - a) / 4
            expected = (
                F(field_discriminant(field)) ** (n + 1)
                * F(4) ** (field.degree * n)
                * prod ** (n * (n + 1))
            )
            assert det_sq.is_rational() and det_sq.as_rational() == expected, (field, n)


def test_random_certificates_over_q_and_f5():
    rng = random.Random(2718)
    emb_q = Q.identity_embedding()
    embs5 = F5.embeddings()
    for trial in range(200):
        n = rng.randint(1, 12) if trial % 2 == 0 else rng.randint(1, 6)
        if trial % 2 == 0:
            width = F(rng.randint(1, 30), 10)
            center = F(rng.randint(-20, 20), 10)
            if width / 4 >= 1:
                width = F(39, 10)
            ivs = {emb_q: (center - width / 2, center + width / 2)}
            field = Q
        else:
            w1 = F(rng.randint(1, 25), 10)
            w2_cap = int(16 / float(w1) * 10) - 1
            w2 = F(rng.randint(1, max(1, min(25, w2_cap))), 10)
            c1 = F(rng.randint(-10, 10), 10)
            c2 = F(rng.randint(-10, 10), 10)
            ivs = {
                embs5[0]: (c1 - w1 / 2, c1 + w1 / 2),
                embs5[1]: (c2 - w2 / 2, c2 + w2 / 2),
            }
            field = F5
        prod = F(1)
        for a, b in ivs.values():
            prod *= (b - a) / 4
        assert prod < 1
        cert = find_small_polynomial(field, ivs, n)
        assert not cert.is_zero(), (trial, ivs, n)
        for sup in cert.sup_bounds:
            assert certify_compare(AlgConst(sup), cert.theoretical_bound) != GREATER


# (degree, centre) at width 1/10 where rounding the forms to floats loses the
# short vectors: the degree-12 diagonal is about 1e-19
NARROW_Q_CASES = (
    [(10, F(c, 5)) for c in (8, -8)]
    + [(11, F(c, 5)) for c in (6, -6, 8, -8)]
    + [(12, F(c, 5)) for c in (4, -4, 6, -6, 8, -8)]
)


@pytest.mark.parametrize("n, center", NARROW_Q_CASES,
                         ids=[f"n{n}@{float(c)}" for n, c in NARROW_Q_CASES])
def test_narrow_q_width_certifies(n, center):
    width = F(1, 10)
    cert = find_small_polynomial(Q, {Q.identity_embedding(): (center - width / 2, center + width / 2)}, n)
    assert not cert.is_zero()
    for sup in cert.sup_bounds:
        assert certify_compare(AlgConst(sup), cert.theoretical_bound) != GREATER


def _spy_sup_norm(monkeypatch, reject=0):
    """Count `fekete.certify_sup_norm` calls; the first `reject` of them
    return a bound far above any theoretical bound, rejecting the candidate
    at its first embedding."""
    from groundbound import fekete

    real = fekete.certify_sup_norm
    calls = []

    def spy(coeffs, embedding, interval):
        calls.append(coeffs)
        if len(calls) <= reject:
            return CycloElement.rational(embedding.field.n, 10**9)
        return real(coeffs, embedding, interval)

    monkeypatch.setattr(fekete, "certify_sup_norm", spy)
    return calls


WORKED_EXAMPLES = (
    (Q, {Q.identity_embedding(): (F(-3), F(3))}, 0),
    (Q, {Q.identity_embedding(): (F(-1, 2), F(1, 2))}, 2),
    (F5, dict(zip(F5.embeddings(), [(F(-1, 4), F(1, 4))] * 2)), 2),
) + tuple(
    (Q, {Q.identity_embedding(): (c - F(1, 20), c + F(1, 20))}, n) for n, c in NARROW_Q_CASES
)


def _seeded_sweep(count=24, seed=1717):
    """`count` seeded problems, Q and Q(sqrt5) in turn, with the interval
    distribution of `test_random_certificates_over_q_and_f5`."""
    rng = random.Random(seed)
    embs5 = F5.embeddings()
    for trial in range(count):
        if trial % 2 == 0:
            n, width = rng.randint(1, 12), F(rng.randint(1, 30), 10)
            center = F(rng.randint(-20, 20), 10)
            yield Q, {Q.identity_embedding(): (center - width / 2, center + width / 2)}, n
        else:
            n, w1, w2 = rng.randint(1, 6), F(rng.randint(1, 25), 10), F(rng.randint(1, 6), 10)
            c1, c2 = F(rng.randint(-10, 10), 10), F(rng.randint(-10, 10), 10)
            ivs = {embs5[0]: (c1 - w1 / 2, c1 + w1 / 2), embs5[1]: (c2 - w2 / 2, c2 + w2 / 2)}
            yield F5, ivs, n


PINNED_PROBLEMS = WORKED_EXAMPLES + tuple(_seeded_sweep())

# The certified alpha of each of PINNED_PROBLEMS, recorded from the search on
# Fraction Chebyshev rows; the integer rows must propose the same vectors.
PINNED_ALPHAS = (
    ((1,),),
    ((0,), (0,), (1,)),
    ((0, 0), (0, 0), (1, 0)),
    ((1591704640,), (-9931666384,), (27884797225,), (-46391911634,), (50647677112,),
     (-37913435519,), (19707765285,), (-7024217081,), (1642861184,), (-227684305,),
     (14198775,)),
    ((1591704640,), (9931666384,), (27884797225,), (46391911634,), (50647677112,),
     (37913435519,), (19707765285,), (7024217081,), (1642861184,), (227684305,), (14198775,)),
    ((-370660500,), (3390359700,), (-14094470585,), (35152745166,), (-58443301279,),
     (68008717966,), (-56522681273,), (33551294744,), (-13939599444,), (3860615344,),
     (-641461440,), (48441600,)),
    ((-370660500,), (-3390359700,), (-14094470585,), (-35152745166,), (-58443301279,),
     (-68008717966,), (-56522681273,), (-33551294744,), (-13939599444,), (-3860615344,),
     (-641461440,), (-48441600,)),
    ((-10376302400,), (71063278480,), (-221205986709,), (413115466866,), (-514311765520,),
     (448178669168,), (-278945617954,), (124002812683,), (-38584531540,), (8003414812,),
     (-996002265,), (56337075,)),
    ((10376302400,), (71063278480,), (221205986709,), (413115466866,), (514311765520,),
     (448178669168,), (278945617954,), (124002812683,), (38584531540,), (8003414812,),
     (996002265,), (56337075,)),
    ((15595200,), (-235446480,), (1628893188,), (-6828522055,), (19318890946,), (-38859093917,),
     (56983280422,), (-61379888019,), (48200212072,), (-26910801916,), (10139707760,),
     (-2315035200,), (242208000,)),
    ((15595200,), (235446480,), (1628893188,), (6828522055,), (19318890946,), (38859093917,),
     (56983280422,), (61379888019,), (48200212072,), (26910801916,), (10139707760,),
     (2315035200,), (242208000,)),
    ((2223963000,), (-22195460700,), (101518622010,), (-281388823921,), (526423533504,),
     (-700268814191,), (679179677468,), (-483921174829,), (251394070384,), (-92861689284,),
     (23151845360,), (-3497956800,), (242208000,)),
    ((2223963000,), (22195460700,), (101518622010,), (281388823921,), (526423533504,),
     (700268814191,), (679179677468,), (483921174829,), (251394070384,), (92861689284,),
     (23151845360,), (3497956800,), (242208000,)),
    ((23875569600,), (-179217383920,), (616523847511,), (-1285279820089,), (1808470261076,),
     (-1809358867717,), (1319857816808,), (-707291409744,), (276349634009,), (-76774929557,),
     (14396150524,), (-1635882555,), (85192650,)),
    ((-23875569600,), (-179217383920,), (-616523847511,), (-1285279820089,), (-1808470261076,),
     (-1809358867717,), (-1319857816808,), (-707291409744,), (-276349634009,), (-76774929557,),
     (-14396150524,), (-1635882555,), (-85192650,)),
    ((-1,), (-5,), (-7,), (-3,)),
    ((1, 0), (0, 2)),
    ((0,), (0,), (1,), (1,)),
    ((21, -13), (-105, 65), (210, -130), (-210, 130), (105, -65), (-21, 13)),
    ((0,), (0,), (0,), (0,), (1,), (-4,), (4,)),
    ((0, 0), (3, -2), (-20, 12), (40, -25), (-26, 16)),
    ((72,), (408,), (950,), (1192,), (885,), (400,), (108,), (16,), (1,)),
    ((1, 0), (-1, 1)),
    ((2,), (-9,), (12,), (-6,), (1,)),
    ((-5, 3), (-26, 16), (-34, 21)),
    ((1,), (-9,), (32,), (-60,), (65,), (-41,), (14,), (-2,)),
    ((-212, 131), (-1178, 728), (-2605, 1610), (-2867, 1772), (-1571, 971), (-343, 212)),
    ((0,), (0,), (4,), (-12,), (13,), (-6,), (1,)),
    ((-466, 288), (-3105, 1919), (-7752, 4791), (-8595, 5312), (-3571, 2207)),
    ((2,), (5,), (4,), (1,)),
    ((0, 1), (0, 1)),
    ((-3,), (5,), (-2,)),
    ((5778, -3571), (34812, -21515), (87335, -53976), (116780, -72174), (87780, -54251),
     (35168, -21735), (5867, -3626)),
    ((0,), (2,), (-3,), (1,)),
    ((3, -2), (-6, 4)),
    ((0,), (0,), (0,), (0,), (1,), (8,), (26,), (44,), (41,), (20,), (4,)),
    ((89, -55), (-500, 309), (1118, -691), (-1244, 769), (689, -426), (-152, 94)),
    ((0,), (-1,), (-1,), (2,), (3,), (1,)),
    ((2, -1), (-3, 2)),
)


def test_proposals_are_pinned():
    assert len(PINNED_PROBLEMS) == len(PINNED_ALPHAS)
    for (field, ivs, n), alpha in zip(PINNED_PROBLEMS, PINNED_ALPHAS):
        assert find_small_polynomial(field, ivs, n).alpha == alpha, (field, ivs, n)


def _decisions(field, ivs, n, alpha):
    """(integer, enclosure) accept decisions of each embedding's sup bound
    of the polynomial with coordinates `alpha`."""
    coeffs = _coefficients_from_alpha(field, integral_basis(field), alpha)
    power, bound = fekete_bound_power(field, ivs, n), fekete_bound_expr(field, ivs, n)
    out = []
    for emb in field.embeddings():
        sup = certify_sup_norm(coeffs, emb, ivs[emb])
        out.append((within_bound(sup, *power),
                    certify_compare(AlgConst(sup), bound) != GREATER))
    return out


def test_integer_bound_decision_matches_enclosures():
    # every LLL-reduced vector of the pinned and worked problems, so that
    # both accepted and rejected sup bounds are compared
    seen = set()
    for field, ivs, n in PINNED_PROBLEMS:
        transform = _lll(chebyshev_linear_forms(field, ivs, n).scaled_matrix())
        m = field.degree
        for row in transform:
            alpha = tuple(tuple(row[i:i + m]) for i in range(0, len(row), m))
            for exact, enclosed in _decisions(field, ivs, n, alpha):
                assert exact == enclosed, (field, ivs, n, alpha)
                seen.add(exact)
    assert seen == {True, False}


def test_integer_bound_decision_at_a_tie_and_far_above():
    # Q, n = 0: the constant 1 has sup 1 and the bound is exactly 1
    ivs = {Q.identity_embedding(): (F(-1, 2), F(1, 2))}
    assert fekete_bound_power(Q, ivs, 0) == (2, 1)
    sup = certify_sup_norm([CycloElement.rational(1, 1)], Q.identity_embedding(), ivs[Q.identity_embedding()])
    assert certify_compare(AlgConst(sup), fekete_bound_expr(Q, ivs, 0)) == EQUAL
    assert _decisions(Q, ivs, 0, ((1,),)) == [(True, True)]
    # a large alpha is far above the bound, on both decisions
    assert _decisions(Q, ivs, 2, ((10**6,), (-3,), (10**5,))) == [(False, False)]
    ivs5 = dict(zip(F5.embeddings(), [(F(-1, 4), F(1, 4))] * 2))
    assert _decisions(F5, ivs5, 2, ((0, 0), (7, 10**4), (-10**5, 3))) == [(False, False)] * 2


@pytest.mark.parametrize("n", [5, 8, 10, 12])
def test_surd_sign_matches_certify_sign(n):
    # x + y b with b = 2cos(2pi/n): random pairs, and pairs from the
    # continued fraction of b, where x + y b is close to 0; certify_sign
    # decides on enclosures, _surd_sign in Z[sqrt D]
    rng = random.Random(n)
    pairs = [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(150)]
    pairs += [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    # h1 / k1 runs through the convergents of b, each pair tried on both
    # sides of 0 and one off
    x = midpoint(eval_ball(AlgConst(CycloElement.generator(n)), 256))
    h0, h1, k0, k1 = 0, 1, 1, 0
    for _ in range(25):
        a = x.numerator // x.denominator
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        pairs += [(-h1, k1), (h1, -k1), (-h1 - 1, k1), (1 - h1, k1)]
        if x == a:
            break
        x = 1 / (x - a)
    for x, y in pairs:
        element = CycloElement.from_numerators(n, [x, y], 1)
        expected = {LESS: -1, EQUAL: 0, GREATER: 1}[certify_sign(AlgConst(element))]
        assert _surd_sign(*_surd(element.num, n)) == expected, (n, x, y)


def _fraction_scaled_matrix(forms):
    """`scaled_matrix` by its Fraction formula: round(2^p gamma_j^sigma
    cheb_sigma[i][k]) on the exact rows, with the exact ball centre of an
    irrational gamma_j^sigma."""
    n = forms.degree_n
    rows = [_exact_rows(a, b, n) for _, (a, b) in forms.intervals]
    p = LLL_MARGIN_BITS + (ceil(1 / min(r[n][n] for r in rows)) - 1).bit_length()
    bits = p + LLL_MARGIN_BITS

    def gamma(emb, g):
        v = emb.apply(g)
        if v.is_rational():
            return v.as_rational()
        return midpoint(eval_ball(AlgConst(v), bits, max(bits, DEFAULT_CAP_BITS)))

    gammas = [[gamma(emb, g) * (1 << p) for g in forms.basis] for emb, _ in forms.intervals]
    return [[round(rows[s][i][k] * gammas[s][j]) for i, j in forms.col_indices()]
            for k, s in forms.row_indices()]


def test_scaled_matrix_matches_fraction_formula():
    # the pinned problems, and intervals whose ends have different odd
    # denominators, so that s = 4 lcm(den a, den b) is not a power of 2
    embs5 = F5.embeddings()
    odd = [(Q, {Q.identity_embedding(): (F(1, 3), F(5, 7))}, n) for n in (1, 4, 9)]
    odd += [(F5, {embs5[0]: (F(-2, 9), F(1, 5)), embs5[1]: (F(1, 3), F(11, 7))}, n)
            for n in (1, 3, 5)]
    for field, ivs, n in PINNED_PROBLEMS + tuple(odd):
        forms = chebyshev_linear_forms(field, ivs, n)
        assert forms.scaled_matrix() == _fraction_scaled_matrix(forms), (field, ivs, n)


def test_intervals_must_name_exactly_the_embeddings():
    from groundbound.errors import InvalidInput

    embs5 = F5.embeddings()
    with pytest.raises(InvalidInput):  # Q(sqrt5) with one of its two embeddings
        find_small_polynomial(F5, {embs5[0]: (F(-1, 4), F(1, 4))}, 2)
    with pytest.raises(InvalidInput):  # Q with an extra Q(sqrt5) embedding
        find_small_polynomial(Q, {Q.identity_embedding(): (F(-1, 2), F(1, 2)),
                                  embs5[1]: (F(-1, 4), F(1, 4))}, 2)


def test_first_reduced_vector_certifies(monkeypatch):
    # one certify_sup_norm call per embedding: the first candidate, the first
    # reduced vector, certifies in every worked example and narrow Q case
    for field, ivs, n in WORKED_EXAMPLES:
        calls = _spy_sup_norm(monkeypatch)
        find_small_polynomial(field, ivs, n)
        assert len(calls) == field.degree, (field, ivs, n)


@pytest.mark.parametrize("field, ivs, n", [
    (Q, {Q.identity_embedding(): (F(-1, 2), F(1, 2))}, 3),
    (F5, dict(zip(F5.embeddings(), [(F(-1, 4), F(1, 4))] * 2)), 2),
], ids=["Q-n3", "F5-n2"])
def test_box_certifies_when_every_reduced_vector_is_rejected(monkeypatch, field, ivs, n):
    dim = (n + 1) * field.degree
    calls = _spy_sup_norm(monkeypatch, reject=dim)
    cert = find_small_polynomial(field, ivs, n)
    assert len(calls) > dim and not cert.is_zero()
    monkeypatch.undo()
    for emb, sup in zip(field.embeddings(), cert.sup_bounds):
        assert certify_sup_norm(cert.coefficients, emb, ivs[emb]) == sup
        assert certify_compare(AlgConst(sup), cert.theoretical_bound) != GREATER


@pytest.mark.parametrize("field, ivs, n, candidates", [
    # dim reduced vectors, then the box: of the 5^2 - 1 nonzero combinations
    # of two vectors 16 are primitive, 8 +- pairs less the 2 units
    (Q, {Q.identity_embedding(): (F(-1, 2), F(1, 2))}, 1, 2 + 6),
    # three vectors: 124 nonzero, 98 primitive, 49 pairs less the 3 units
    (Q, {Q.identity_embedding(): (F(-1, 2), F(1, 2))}, 2, 3 + 46),
    (F5, dict(zip(F5.embeddings(), [(F(-1, 4), F(1, 4))] * 2)), 2, 6 + 46),
], ids=["Q-n1", "Q-n2", "F5-n2"])
def test_search_exhausted_after_bounded_candidates(monkeypatch, field, ivs, n, candidates):
    from groundbound.errors import SearchExhausted

    calls = _spy_sup_norm(monkeypatch, reject=10**6)
    with pytest.raises(SearchExhausted):
        find_small_polynomial(field, ivs, n)
    assert len(calls) == candidates


def _exact_gram_schmidt(vectors):
    """mu[i][j] and |b*_i|^2 in exact Fractions."""
    ortho, mu = [], []
    for b in vectors:
        w = [F(x) for x in b]
        row = []
        for o in ortho:
            m = sum(x * y for x, y in zip(b, o)) / sum(y * y for y in o)
            row.append(m)
            w = [x - m * y for x, y in zip(w, o)]
        ortho.append(w)
        mu.append(row)
    return mu, [sum(x * x for x in o) for o in ortho]


def _exact_det(rows):
    m = [[F(x) for x in r] for r in rows]
    det = F(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _basis_lll(matrix):
    """The integral LLL that carries the basis vectors along with the
    transform (Cohen, GTM 138, Alg. 2.6.7): the oracle for the
    transform-only `_lll`.  Returns (reduced_vectors, transform)."""
    num, den = LLL_DELTA.numerator, LLL_DELTA.denominator
    rows, size = len(matrix), len(matrix[0])
    vectors = [[row[c] for row in matrix] + [int(i == c) for i in range(size)]
               for c in range(size)]
    d = [1] * (size + 1)
    lam = [[0] * size for _ in range(size)]

    def redi(k, l):
        lam_k, lam_l, d_l = lam[k], lam[l], d[l + 1]
        q = (2 * lam_k[l] + d_l) // (2 * d_l)
        vectors[k] = [x - q * y for x, y in zip(vectors[k], vectors[l])]
        lam_k[l] -= q * d_l
        lam_k[:l] = [x - q * y for x, y in zip(lam_k, lam_l[:l])]

    d[1] = sum(x * x for x in vectors[0][:rows])
    k, k_max = 1, 0
    while k < size:
        lam_k = lam[k]
        if k > k_max:
            k_max = k
            b_k = vectors[k][:rows]
            for j in range(k + 1):
                lam_j = lam[j]
                u = sum(x * y for x, y in zip(b_k, vectors[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam_k[i] * lam_j[i]) // d[i]
                if j < k:
                    lam_k[j] = u
                else:
                    d[k + 1] = u
        if 2 * abs(lam_k[k - 1]) > d[k]:
            redi(k, k - 1)
        d_prev, d_k, d_next, mu = d[k - 1], d[k], d[k + 1], lam_k[k - 1]
        t = d_prev * d_next + mu * mu
        if den * t < num * d_k * d_k:
            vectors[k], vectors[k - 1] = vectors[k - 1], vectors[k]
            lam_prev = lam[k - 1]
            lam_k[:k - 1], lam_prev[:k - 1] = lam_prev[:k - 1], lam_k[:k - 1]
            b = t // d_k
            for i in range(k + 1, k_max + 1):
                lam_i = lam[i]
                old = lam_i[k]
                lam_i[k] = new = (d_next * lam_i[k - 1] - mu * old) // d_k
                lam_i[k - 1] = (b * old + mu * new) // d_next
            d[k] = b
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                if 2 * abs(lam_k[l]) > d[l + 1]:
                    redi(k, l)
            k += 1
    return [v[:rows] for v in vectors], [v[rows:] for v in vectors]


def _assert_lll_reduced(matrix, label):
    """`_lll` returns the oracle's transform, and the vectors it stands
    for, B T with the columns of `matrix` as B, are LLL-reduced."""
    dim = len(matrix[0])
    transform = _lll(matrix)
    assert transform == _lll(matrix)
    oracle_reduced, oracle_transform = _basis_lll(matrix)
    assert transform == oracle_transform, label
    columns = [[row[c] for row in matrix] for c in range(dim)]
    reduced = [[sum(t * col[r] for t, col in zip(coeffs, columns)) for r in range(len(matrix))]
               for coeffs in transform]
    assert reduced == oracle_reduced, label
    assert abs(_exact_det(transform)) == 1
    mu, norms = _exact_gram_schmidt(reduced)
    for i in range(1, dim):
        assert all(abs(m) <= F(1, 2) for m in mu[i]), (label, i)
        assert norms[i] >= (LLL_DELTA - mu[i][i - 1] ** 2) * norms[i - 1], (label, i)


def test_integral_lll_against_exact_gram_schmidt():
    rng = random.Random(1982)
    for dim in range(2, 15):
        for trial in range(2):
            while True:
                # rows at scales 2^0 .. 2^60 mimic the Chebyshev forms' spread
                scales = [rng.randint(0, 60) if trial else 0 for _ in range(dim)]
                matrix = [[rng.randint(-50, 50) << s for _ in range(dim)] for s in scales]
                if _exact_det(matrix):
                    break
            _assert_lll_reduced(matrix, (dim, trial))
    # the matrices the search reduces: the worked examples, with every narrow
    # Q case up to degree 12
    for field, ivs, n in WORKED_EXAMPLES:
        forms = chebyshev_linear_forms(field, ivs, n)
        matrix = forms.scaled_matrix()
        for s in range(len(forms.intervals)):
            # row (n, sigma), column (n, 0): the smallest diagonal entry keeps
            # LLL_MARGIN_BITS bits
            row = forms.row_indices().index((n, s))
            assert matrix[row][forms.col_indices().index((n, 0))] >= 2**LLL_MARGIN_BITS
        _assert_lll_reduced(matrix, (field.n, n, tuple(ivs.values())))


def _per_product_sup_norm(coeffs, embedding, interval):
    """The sup bound as one CycloElement product and sum per (i, k): the
    oracle for the coordinate-wise `certify_sup_norm`."""
    a, b = F(interval[0]), F(interval[1])
    n = len(coeffs) - 1
    cheb = _exact_rows(a, b, n)
    field_n = embedding.field.n
    images = [embedding.apply(c if isinstance(c, CycloElement) else CycloElement.rational(field_n, c))
              for c in coeffs]
    total = CycloElement.rational(field_n, 0)
    for k in range(n + 1):
        a_k = CycloElement.rational(field_n, 0)
        for i, image in enumerate(images):
            if cheb[i][k]:
                a_k = a_k + image * cheb[i][k]
        total = total + (-a_k if certify_sign(AlgConst(a_k)) == LESS else a_k)
    return total


def _per_product_coefficients(field, basis, alpha):
    out = []
    for row in alpha:
        acc = CycloElement.rational(field.n, 0)
        for j, x in enumerate(row):
            if x:
                acc = acc + basis[j] * x
        out.append(acc)
    return tuple(out)


def test_coordinate_wise_sums_match_per_product_oracle():
    rng = random.Random(4242)
    for trial in range(40):
        field = Q if trial % 2 == 0 else F5
        n = trial // 2 % (13 if field is Q else 7)  # degrees from 0 up
        basis = integral_basis(field)
        alpha = [[rng.randint(-3, 3) for _ in basis] for _ in range(n + 1)]
        alpha[rng.randrange(n + 1)] = [0] * len(basis)
        coeffs = _coefficients_from_alpha(field, basis, alpha)
        oracle = _per_product_coefficients(field, basis, alpha)
        assert [(c.n, c.coeffs) for c in coeffs] == [(c.n, c.coeffs) for c in oracle], alpha
        for emb in field.embeddings():
            centre, width = F(rng.randint(-20, 20), 10), F(rng.randint(1, 30), 10)
            interval = (centre - width / 2, centre + width / 2)
            sup = certify_sup_norm(coeffs, emb, interval)
            expected = _per_product_sup_norm(oracle, emb, interval)
            assert (sup.n, sup.coeffs) == (expected.n, expected.coeffs), (alpha, emb, interval)


def test_empty_interval_is_an_input_error():
    from groundbound.errors import InvalidInput

    q = RealCyclotomicField.rationals()
    emb = q.identity_embedding()
    for a, b in ((F(1), F(0)), (F(0), F(0))):
        with pytest.raises(InvalidInput):
            find_small_polynomial(q, {emb: (a, b)}, 2)
    embs = F5.embeddings()
    with pytest.raises(InvalidInput):
        find_small_polynomial(F5, {embs[0]: (F(0), F(1)), embs[1]: (F(1, 4), F(-1, 4))}, 2)


def test_lagrange_examples():
    g = lagrange_growth_bound(1, -1, 1, 1, 2)
    assert g.factorial_bound == 3  # dominates |T(2)| = 2
    g = lagrange_growth_bound(1, -1, 1, 2, 2)
    assert g.factorial_bound == 18  # dominates |2x^2-1| at 2 = 7
    g = lagrange_growth_bound(F(3, 2), 0, 1, 4, 1)  # x = b endpoint
    assert g.factorial_bound >= F(3, 2)
    assert g.exponential_bound >= g.stirling_bound


def test_lagrange_domination_500_per_configuration():
    rng = random.Random(31415)
    configurations = [
        (F(-1), F(1), F(2)), (F(0), F(1), F(3, 2)), (F(-2), F(1), F(5)),
        (F(-1, 2), F(1, 2), F(1)), (F(1), F(3), F(3)), (F(-3), F(-1), F(0)),
        (F(0), F(4), F(13, 3)), (F(-1), F(2), F(7, 2)), (F(2), F(5, 2), F(4)),
        (F(-5), F(5), F(6)),
    ]
    emb = Q.identity_embedding()
    for a, b, x in configurations:
        cheb = _exact_rows(a, b, 8)
        for _ in range(500):
            n = rng.randint(1, 8)
            coeffs = [F(rng.randint(-9, 9)) for _ in range(n + 1)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = F(1)
            # certified upper bound for the sup: coefficient-sum of the
            # exact Chebyshev expansion (the lemma is monotone in M0)
            m0 = sum(
                abs(sum(coeffs[i] * cheb[i][k] for i in range(n + 1)))
                for k in range(n + 1)
            )
            value = abs(sum(c * x**i for i, c in enumerate(coeffs)))
            gb = lagrange_growth_bound(m0, a, b, n, x)
            assert gb.factorial_bound >= value, (a, b, x, coeffs)
