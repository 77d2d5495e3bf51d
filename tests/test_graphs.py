import random
from fractions import Fraction as F

import pytest

from groundbound.balls import AlgConst, Const, E, Sqrt, certify_sign, eval_ball, exact_value
from groundbound.cyclo import CycloElement
from groundbound.errors import (
    GroundboundError, InfeasibleCase, InvalidInput, MissingRange,
)
from groundbound.graphs import (
    EdgeGraphCase,
    Family,
    Feasibility,
    Variant,
    ambient_modulus,
    bound_problem,
    case_bound,
    determinant_closed_form,
    determinant_value,
    discriminant_like,
    enumerate_cases,
    feasibility,
    field_of,
    gram_matrix,
    method_a_width,
    symbolic_determinant,
)

from enclosures import encloses, midpoint


def _upoly_eq(a, b):
    n = max(len(a), len(b))
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        d = x - y
        if hasattr(d, "is_zero"):
            if not d.is_zero():
                return False
        elif d != 0:
            return False
    return True


def test_enumeration_counts_and_order():
    g1 = enumerate_cases(Family.G1)
    assert len(g1) == 9
    assert (g1[0].s, g1[0].k, g1[0].r, g1[0].p) == (3, 3, 3, 3)
    assert (g1[-1].s, g1[-1].k, g1[-1].r, g1[-1].p) == (3, 5, 5, 3)
    assert len(enumerate_cases(Family.G2)) == 8
    g3 = enumerate_cases(Family.G3)
    assert len(g3) == 13
    assert [(c.s, c.k, c.r) for c in g3[:5]] == [
        (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 4, 3), (2, 5, 3)]
    with pytest.raises(MissingRange):
        enumerate_cases(Family.G4)
    assert len(enumerate_cases(Family.G4, range(2, 7))) == 25
    assert len(enumerate_cases(Family.G5, range(3, 6))) == 2 + 3 + 1


def test_determinant_identities():
    cases = (
        enumerate_cases(Family.G1)
        + enumerate_cases(Family.G2)
        + enumerate_cases(Family.G4, range(2, 7))
        + enumerate_cases(Family.G5, range(3, 7))
    )
    for case in cases:
        assert _upoly_eq(symbolic_determinant(case), determinant_closed_form(case)), case.label()


def test_g3_determinant_divergence_structure():
    # the 4-cycle graph matches the printed closed form exactly for s = 2;
    # for s >= 3 its u-coefficient is exactly twice the printed one
    for case in enumerate_cases(Family.G3):
        det = symbolic_determinant(case)
        closed = determinant_closed_form(case)
        if case.s == 2:
            assert _upoly_eq(det, closed), case.label()
        else:
            assert _upoly_eq(det[0::2], closed[0::2]), case.label()
            assert (det[1] - 2 * closed[1]).is_zero(), case.label()


def test_determinant_values():
    assert determinant_value(EdgeGraphCase(Family.G5, s=3, k=3), 3) == -27
    assert determinant_value(EdgeGraphCase(Family.G2, s=3, k=3, p=3), 2) == -16
    case = EdgeGraphCase(Family.G1, s=3, k=3, r=3, p=3)
    cf = determinant_closed_form(case)
    assert cf[0].is_zero() and cf[1] == -8 and cf[2] == -4  # -4((u+1)^2 - 1)


def test_determinant_random_u_agreement():
    rng = random.Random(99)
    cases = enumerate_cases(Family.G2) + enumerate_cases(Family.G5, range(3, 6))
    for case in cases:
        for _ in range(5):
            u = F(rng.randint(-40, 40), rng.randint(1, 9))
            direct = _matrix_det(gram_matrix(case, u).entries)
            closed = determinant_value(case, u)
            closed_el = closed if isinstance(closed, CycloElement) else \
                CycloElement.rational(ambient_modulus(case), closed)
            assert (direct - closed_el).is_zero(), (case.label(), u)


def _matrix_det(entries):
    import itertools

    n = len(entries)
    total = None
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = entries[0][perm[0]]
        for i in range(1, n):
            term = term * entries[i][perm[i]]
        term = term * sign
        total = term if total is None else total + term
    return total


def test_gram_matrix_structure():
    mat = gram_matrix(EdgeGraphCase(Family.G1, s=3, k=3, r=3, p=3), 3)
    assert mat.size == 4
    assert mat.entries[0][1] == 3  # broken edge
    assert mat.entries[0][2] == 1  # 2cos(pi/3)
    assert mat.entries[2][3].is_zero()
    assert mat.minimality(14)
    assert not gram_matrix(EdgeGraphCase(Family.G5, s=3, k=3), 15).minimality(14)


def test_field_of():
    assert field_of(EdgeGraphCase(Family.G1, s=3, k=3, r=3, p=3)).degree == 1
    assert field_of(EdgeGraphCase(Family.G1, s=3, k=3, r=5, p=3)).degree == 2
    assert field_of(EdgeGraphCase(Family.G3, s=2, k=3, r=3)).degree == 1


def test_feasibility_trichotomy():
    forced = [(4, 5, 3), (5, 5, 3), (3, 3, 5)]
    for s, k, r in forced:
        assert feasibility(EdgeGraphCase(Family.G3, s=s, k=k, r=r)) == \
            Feasibility.FORCES_FIELD_EQUALS_F
    for s, k, r in [(2, 3, 3), (3, 3, 3), (4, 4, 3), (3, 3, 4)]:
        assert feasibility(EdgeGraphCase(Family.G3, s=s, k=k, r=r)) == Feasibility.FEASIBLE
    assert feasibility(EdgeGraphCase(Family.G5, s=3, k=3)) == Feasibility.FEASIBLE
    for case in enumerate_cases(Family.G2):
        assert feasibility(case) == Feasibility.FEASIBLE
    for case in enumerate_cases(Family.G4, range(2, 7)):
        assert feasibility(case) == Feasibility.FEASIBLE


def test_forced_cases_bypass_solver():
    row = case_bound(EdgeGraphCase(Family.G3, s=4, k=5, r=3))
    assert row.mechanism == "forced_degree" and row.bound == 2
    with pytest.raises(InfeasibleCase):
        bound_problem(EdgeGraphCase(Family.G3, s=4, k=5, r=3), Variant.U)


def _independent_length(case, a):
    """Float length sqrt(b^2 - 4ac) / a of the u-interval at the embedding
    cos(2pi/x) -> cos(2pi a/x), from the coefficients of the printed
    quadratic -d(u)/4 = a u^2 + b u + c, not from `discriminant_like`;
    None where the interval is empty."""
    import math

    # b carries cos(pi/x), which is not in F: conjugate every cos(pi/x) by
    # one lift of a that is a unit mod 2x for every parameter x
    n = field_of(case).n
    lift = next(a + t * n for t in range(6) if math.gcd(a + t * n, 6) == 1)

    def c(x):  # conjugated cos(pi/x)
        return math.cos(math.pi * lift / x)

    def c2(x):
        return c(x) ** 2

    def s2(x):
        return 1 - c2(x)

    def cos2pi(x):
        return 2 * c2(x) - 1

    f, s, k, r, p = case.family, case.s, case.k, case.r, case.p
    if f == Family.G1:  # (u + center)^2 - (cos 2pi/k + cos 2pi/p)(cos 2pi/r + cos 2pi/s)
        center = 2 * (c(r) * c(p) + c(k) * c(s))
        lead, b, const = 1, 2 * center, center**2 - (cos2pi(k) + cos2pi(p)) * (cos2pi(r) + cos2pi(s))
    elif f == Family.G2:
        lead, b, const = s2(p), 4 * c(s) * c(k), 4 * (c2(s) + c2(k) + c2(p) - 1)
    elif f == Family.G3:
        lead, b, const = s2(r), 2 * c(s) * c(k) * c(r), 4 * c2(r) - 4 * s2(s) * s2(k)
    elif f == Family.G4:
        lead, b, const = 1, 4 * c(s) * c(k), 4 * c2(s) - 4 * s2(k) * s2(r)
    else:
        lead, b, const = 1, 0, -4 * s2(k) * s2(s)
    disc = b * b - 4 * lead * const
    return math.sqrt(disc) / lead if disc > 0 else None


def _width_cases():
    out = [(c, Variant.U) for f in (Family.G1, Family.G2, Family.G3) for c in enumerate_cases(f)]
    out += [(c, Variant.U_SQUARED) for c in enumerate_cases(Family.G3) if c.s == 2]
    out += [(c, Variant.U_TILDE) for c in enumerate_cases(Family.G4, range(2, 7))]
    out += [(c, Variant.U_SQUARED) for c in enumerate_cases(Family.G5, range(3, 8))]
    return out


def test_delta_is_the_squared_u_interval_length():
    # sqrt(sigma(Delta)) is the length of the u-interval wherever sigma(Delta) > 0
    checked = set()
    for case in dict.fromkeys(case for case, _ in _width_cases()):
        delta = discriminant_like(case)
        for emb in field_of(case).embeddings():
            if certify_sign(AlgConst(emb.apply(delta))) != "GREATER":
                continue
            length = _independent_length(case, emb.representative)
            got = eval_ball(Sqrt(AlgConst(emb.apply(delta))), 96)
            assert abs(float(midpoint(got)) - length) < 1e-9, (case.label(), emb)
            checked.add((case.family, emb.is_identity))
    assert len(checked) == 10  # five families, identity and conjugate embeddings


def test_admissible_interval_length_formula():
    # sqrt(sigma(W)) is the interval length at sigma wherever sigma(Delta) > 0
    import math

    checked = set()
    for case, variant in _width_cases():
        width_sq, _ = method_a_width(case, variant)
        d = discriminant_like(case)
        for emb in field_of(case).embeddings():
            if certify_sign(AlgConst(emb.apply(d))) != "GREATER":
                continue
            length = _independent_length(case, emb.representative)
            if variant == Variant.U_TILDE:
                # u-tilde in (4 cos^2(pi/s) sin^2(pi/k), 4 sin^2(pi/r) sin^2(pi/k))
                a = emb.representative
                s2 = {x: math.sin(math.pi * (1 if x in (2, 3, 4, 6) else a) / x) ** 2
                      for x in case.params()}
                length = 4 * s2[case.r] * s2[case.k] - 4 * (1 - s2[case.s]) * s2[case.k]
            elif variant == Variant.U_SQUARED:
                # the u term vanishes, so u lies in (-l/2, l/2) and u^2 in [0, l^2/4)
                length = length**2 / 4
            got = eval_ball(Sqrt(AlgConst(emb.apply(width_sq))), 96)
            assert abs(float(midpoint(got)) - length) < 1e-9, (case.label(), variant, emb)
            checked.add((case.family, variant, emb.is_identity))
    assert len(checked) == 12  # six variants, identity and conjugate embeddings


def test_admissible_interval_examples():
    case = EdgeGraphCase(Family.G5, s=3, k=3)
    assert method_a_width(case, Variant.U_SQUARED) == (F(81, 16), 196)  # u^2 in (0, 9/4)
    # u-tilde in (4 cos^2(pi/3), 4 sin^2(pi/3)) = (1, 3)
    assert method_a_width(EdgeGraphCase(Family.G4, s=3, k=2, r=3), Variant.U_TILDE) == (4, 256)
    with pytest.raises(GroundboundError):
        method_a_width(case, Variant.U)
    with pytest.raises(GroundboundError):
        method_a_width(EdgeGraphCase(Family.G3, s=3, k=3, r=3), Variant.U_SQUARED)
    # forced case: the identity interval is empty, the conjugate one is not
    case = EdgeGraphCase(Family.G3, s=4, k=5, r=3)
    d = discriminant_like(case)
    signs = [certify_sign(AlgConst(emb.apply(d))) for emb in field_of(case).embeddings()]
    assert signs == ["LESS", "GREATER"]


def test_bound_problem_g5_exceptional_example():
    # u^2 in (0, 9/4) over Q with exceptional radius 14^2:
    # R = sqrt((9/4)/4) = 3/4 and S = 2 * 196 * e / (9/4) = 1568 e / 9
    p = bound_problem(EdgeGraphCase(Family.G5, s=3, k=3))
    assert p.m_field_degree == 1 and p.exceptional_count == 1
    assert exact_value(p.r_ratio) == F(3, 4)
    assert encloses(eval_ball(p.s_factor - Const(F(1568, 9)) * E, 64), F(0))
    assert exact_value(p.b_disc_root) == 1


def test_case_parameters_validated():
    with pytest.raises(InvalidInput):
        EdgeGraphCase(Family.G5, s=3)
    with pytest.raises(InvalidInput):
        EdgeGraphCase(Family.G5, s=3, k=3, p=4)
    with pytest.raises(InvalidInput):
        EdgeGraphCase(Family.G2, s=1, k=3, p=3)


def test_bound_problem_g1_values():
    case = EdgeGraphCase(Family.G1, s=3, k=3, r=3, p=3)
    p = bound_problem(case, Variant.U)
    assert p.m_field_degree == 1
    ball = eval_ball(p.r_ratio, 96)
    assert abs(float(midpoint(ball)) - 0.5**0.5) < 1e-12
    case = EdgeGraphCase(Family.G1, s=3, k=3, r=5, p=3)
    p = bound_problem(case, Variant.U)
    assert p.m_field_degree == 2
    assert encloses(eval_ball(p.b_disc_root * p.b_disc_root, 64), F(5))
    ball = eval_ball(p.r_ratio, 96)
    assert abs(float(midpoint(ball)) - 2 ** -1.5) < 1e-12


def test_bound_problem_g3_usq_shape():
    case = EdgeGraphCase(Family.G3, s=2, k=3, r=3)
    p = bound_problem(case, Variant.U_SQUARED)
    # R = N(D)^(1/2) / (N(sin^2(pi/r)) 4^M) = sqrt(6)/3 here
    ball = eval_ball(p.r_ratio, 96)
    assert abs(float(midpoint(ball)) - 6**0.5 / 3) < 1e-12


def test_case_bound_certifies_feasibility_once(monkeypatch):
    import groundbound.graphs as graphs

    real = graphs.feasibility
    calls = []
    monkeypatch.setattr(graphs, "feasibility", lambda case: calls.append(case) or real(case))
    rows = 0
    for family in (Family.G1, Family.G2, Family.G3, Family.G4):
        start = len(calls)
        table = graphs.family_bound(family)
        assert len(calls) - start == len(table.rows), family
        rows += len(table.rows)
    assert rows == 62


def test_case_bound_builds_d_once(monkeypatch):
    # Delta = discriminant_like(case) feeds both the feasibility signs and the
    # Method-A width; the 62 rows of the G1-G4 tables build it at most once each
    import groundbound.graphs as graphs

    real = graphs.discriminant_like
    calls = []
    monkeypatch.setattr(graphs, "discriminant_like", lambda case: calls.append(case) or real(case))
    graphs._field_and_d.cache_clear()
    for family in (Family.G1, Family.G2, Family.G3, Family.G4):
        graphs.family_bound(family)
    assert 0 < len(calls) <= 62


def test_family_tables(g1_table, g2_table, g3_table, g4_table):
    assert g1_table.maximum == 24
    assert (g1_table.argmax.s, g1_table.argmax.k, g1_table.argmax.r, g1_table.argmax.p) == (3, 3, 5, 3)
    assert g2_table.maximum == 39
    assert g3_table.maximum == 53
    assert g4_table.maximum == 31
    assert (g4_table.argmax.k, g4_table.argmax.s, g4_table.argmax.r) == (2, 3, 3)
