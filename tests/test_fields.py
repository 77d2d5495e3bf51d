from fractions import Fraction

import pytest

from groundbound.cyclo import CycloElement, field_degree
from groundbound.errors import ElementNotInField, InvalidModulus
from groundbound.fields import (
    RealCyclotomicField,
    compositum_info,
    field_discriminant,
    field_norm,
    invariants,
    norm_4sin2_closed_form,
)


def test_invariants_examples():
    assert invariants(9) == {"phi": 6, "gamma": 3}
    assert invariants(12) == {"phi": 4, "gamma": 1}
    assert invariants(31) == {"phi": 30, "gamma": 31}
    with pytest.raises(InvalidModulus):
        invariants(2)


def test_compositum_examples():
    assert compositum_info(31, 3) == {"lcm": 93, "rho": 2, "degree": 15}
    assert compositum_info(4, 6) == {"lcm": 12, "rho": 2, "degree": 1}
    assert compositum_info(5, 5) == {"lcm": 5, "rho": 1, "degree": 2}


def test_rational_cosine_normalization():
    f = RealCyclotomicField([31, 3])
    assert f.moduli == (31,) and f.degree == 15
    assert RealCyclotomicField([3, 4, 6]).degree == 1


def test_field_norm_examples():
    f5 = RealCyclotomicField([5])
    assert field_norm(f5, 4 * f5.sin2(5)) == 5
    f4 = RealCyclotomicField([4])
    assert f4.degree == 1
    assert field_norm(f4, Fraction(2)) == 2  # 4 sin^2(pi/4) = 2
    assert field_norm(RealCyclotomicField.rationals(), Fraction(7, 3)) == Fraction(7, 3)


def test_field_norm_membership_check():
    f5 = RealCyclotomicField([5])
    alien = CycloElement.generator(5)  # 2cos(2pi/5): in the field
    assert field_norm(f5, alien) == -1  # psi_5(0) * (-1)^2: N(beta) = -(-1) = ...
    f15 = RealCyclotomicField([15])
    not_fixed = CycloElement.generator(15)
    sub = RealCyclotomicField([5])
    with pytest.raises((ElementNotInField, InvalidModulus)):
        field_norm(sub, not_fixed)


def test_resultant_norm_equals_conjugate_product():
    # every full field Q(cos 2pi/n), n < 40, on random elements of
    # beta-degree 0 .. 4 over small denominators, zero included
    import random

    rng = random.Random(4040)
    for n in range(3, 40):
        field = RealCyclotomicField([n])
        d = field_degree(field.n)
        assert field.degree == d
        for trial in range(8):
            m = min(trial % 5, d - 1)
            num = [rng.randint(-9, 9) for _ in range(m + 1)] + [0] * (d - m - 1)
            if trial == 7:
                num = [0] * d
            x = CycloElement.from_numerators(field.n, num, rng.randint(1, 6))
            product = CycloElement.rational(field.n, 1)
            for emb in field.embeddings():
                product = product * emb.apply(x)
            assert field_norm(field, x) == product.as_rational(), (n, num)


def test_norm_closed_form_examples():
    f313 = RealCyclotomicField([31, 3])
    assert norm_4sin2_closed_form(f313, 31) == 31
    assert norm_4sin2_closed_form(f313, 3) == Fraction(3) ** 15
    assert norm_4sin2_closed_form(RealCyclotomicField([5]), 5) == 5


def test_closed_form_equals_product_norm():
    for moduli, l in [((5,), 5), ((7,), 7), ((8,), 8), ((9,), 9),
                      ((7, 5), 7), ((7, 5), 5), ((8, 12), 8), ((8, 12), 12)]:
        f = RealCyclotomicField(moduli)
        x = 4 * f.sin2(l)
        assert field_norm(f, x) == norm_4sin2_closed_form(f, l), (moduli, l)


def test_gamma_identity_to_200():
    # norm of 4 sin^2(pi/l) over the full real cyclotomic field equals
    # gamma(l) exactly; the linear-element fast path keeps this quick
    from groundbound.cyclo import gamma_norm_constant

    for l in range(3, 201):
        f = RealCyclotomicField([l])
        if f.degree == 1:
            value = {3: 3, 4: 2, 6: 1}[l]
            assert value == gamma_norm_constant(l)
            continue
        assert field_norm(f, 4 * f.sin2(l)) == gamma_norm_constant(l), l


def _element_degree(x: CycloElement) -> int:
    """Independent oracle: degree of the minimal polynomial via exact
    linear algebra on the power basis."""
    d = field_degree(x.n)
    rows: list[list[Fraction]] = []
    power = CycloElement.rational(x.n, 1)
    for count in range(1, d + 2):
        rows.append([Fraction(c) for c in power.coeffs])
        if _rank(rows) < count:
            return count - 1
        power = power * x
    return d


def _rank(rows) -> int:
    mat = [row[:] for row in rows]
    rank, cols = 0, len(mat[0]) if mat else 0
    pivot_col = 0
    for row_idx in range(len(mat)):
        while pivot_col < cols:
            pivot = None
            for r in range(rank, len(mat)):
                if mat[r][pivot_col] != 0:
                    pivot = r
                    break
            if pivot is None:
                pivot_col += 1
                continue
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            pv = mat[rank][pivot_col]
            for r in range(rank + 1, len(mat)):
                if mat[r][pivot_col] != 0:
                    factor = mat[r][pivot_col] / pv
                    mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
            rank += 1
            pivot_col += 1
            break
    return rank


def test_compositum_degree_against_primitive_element():
    # cos(2pi/l) + lambda cos(2pi/m) for small generic lambda has minimal
    # polynomial of the compositum degree
    from math import lcm

    pairs = sorted({(l, m) for l in range(3, 41) for m in range(3, l + 1)
                    if lcm(l, m) <= 60})
    for l, m in pairs:
        info = compositum_info(l, m)
        n = info["lcm"]
        cl = CycloElement.cos2pi(1, l, n)
        cm = CycloElement.cos2pi(1, m, n)
        best = 0
        for lam in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            best = max(best, _element_degree(cl + lam * cm))
            if best == info["degree"]:
                break
        assert best == info["degree"], (l, m, best, info)


def test_discriminants():
    assert field_discriminant(RealCyclotomicField.rationals()) == 1
    assert field_discriminant(RealCyclotomicField([5])) == 5
    assert field_discriminant(RealCyclotomicField([31, 3])) == 31**14
    assert field_discriminant(RealCyclotomicField([8])) == 8  # Q(sqrt2)
    assert field_discriminant(RealCyclotomicField([12])) == 12  # Q(sqrt3)
    assert field_discriminant(RealCyclotomicField([7, 5])) == 5**3 * 7**4


def test_disc_prime_closed_form():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        f = RealCyclotomicField([p])
        assert field_discriminant(f) == p ** ((p - 3) // 2), p


def _power_sums(poly, count) -> list[int]:
    """Newton power sums s_0 .. s_(count-1) of the roots of a monic integer
    polynomial (coefficients constant first)."""
    d = len(poly) - 1
    sums = [d]
    for k in range(1, count):
        # s_k + sum_(j=1..min(k-1,d)) c_(d-j) s_(k-j) + [k <= d] k c_(d-k) = 0
        acc = sum(poly[d - j] * sums[k - j] for j in range(1, min(k - 1, d) + 1))
        if k <= d:
            acc += k * poly[d - k]
        sums.append(-acc)
    return sums


def _exact_det(mat) -> Fraction:
    mat = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(len(mat)):
        pivot = next((r for r in range(col, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, len(mat)):
            factor = mat[r][col] / mat[col][col]
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return det


def test_disc_against_trace_form():
    # independent oracle: Z[2cos(2pi/n)] is the ring of integers of
    # Q(cos 2pi/n), so |disc| = |det(Tr(b^(i+j)))| with b = 2cos(2pi/n),
    # and Tr(b^k) is the k-th power sum of the roots of cos_minpoly(n)
    from groundbound.polyint import cos_minpoly

    for n in range(3, 61):
        psi = cos_minpoly(n)
        d = len(psi) - 1
        s = _power_sums(psi, 2 * d - 1)
        gram = [[s[i + j] for j in range(d)] for i in range(d)]
        assert field_discriminant(RealCyclotomicField([n])) == abs(_exact_det(gram)), n


def test_embeddings_canonical():
    f = RealCyclotomicField([5])
    embs = f.embeddings()
    assert [e.representative for e in embs] == [1, 2]
    assert embs[0].is_identity and not embs[1].is_identity
    f313 = RealCyclotomicField([31, 3])
    assert len(f313.embeddings()) == 15
    assert f313.embeddings()[0].representative == 1
