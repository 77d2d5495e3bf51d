"""Acceptance suite: one test per criterion, with a printed verdict line.

Criterion 3 targets the published per-case table for the third family
verbatim.  Three of its eighteen values cannot be certified (the solver
provably returns 46, 38 and 28 where the source prints 45, 32 and 22;
margins are far beyond interval error) -- that test fails honestly and
the divergence analysis lives in the repository README.  Everything else
passes at the stated tolerances.
"""

import random
import time
from fractions import Fraction as F

from groundbound.graphs import Family, Variant, family_bound
from groundbound.pairs import PairKind, pair_report, search, _coefficient_float


def _verdict(num: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d}: {status}{' - ' + detail if detail else ''}")


# -- criterion 1: first family per-case table -------------------------------


def test_criterion_01_gamma1_table(g1_table):
    t0 = time.time()
    table = family_bound(Family.G1)
    elapsed = time.time() - t0
    expected_m1 = {
        (3, 3, 3, 3): 22, (3, 3, 4, 3): 15, (3, 3, 5, 3): 24,
        (3, 3, 4, 4): 12, (3, 3, 5, 4): 18, (3, 3, 5, 5): 18,
        (3, 4, 4, 3): 12, (3, 4, 5, 3): 18, (3, 5, 5, 3): 18,
    }
    expected_m2 = {(3, 4, 4, 3): 9, (3, 5, 5, 3): 14}
    got_m1 = {(r.case.s, r.case.k, r.case.r, r.case.p): r.bound
              for r in table.rows if r.m == 1}
    got_m2 = {(r.case.s, r.case.k, r.case.r, r.case.p): r.bound
              for r in table.rows if r.m == 2}
    ok = got_m1 == expected_m1 and got_m2 == expected_m2 and table.maximum == 24
    _verdict(1, ok and elapsed < 1.0, f"family max {table.maximum}, {elapsed:.2f}s")
    assert got_m1 == expected_m1
    assert got_m2 == expected_m2
    assert table.maximum == 24
    assert elapsed < 1.0


# -- criterion 2: second family table ----------------------------------------


def test_criterion_02_gamma2_table(g2_table):
    t0 = time.time()
    table = family_bound(Family.G2)
    elapsed = time.time() - t0
    expected = {
        (3, 3, 3): 39, (3, 4, 3): 21, (3, 5, 3): 34, (4, 4, 3): 14,
        (4, 5, 3): 22, (5, 5, 3): 24, (3, 3, 4): 22, (3, 3, 5): 32,
    }
    got = {(r.case.s, r.case.k, r.case.p): r.bound for r in table.rows}
    ok = got == expected and table.maximum == 39 and elapsed < 1.0
    _verdict(2, ok, "uniform M ln(2N+2) convention reproduces all eight")
    assert got == expected
    assert table.maximum == 39
    assert elapsed < 1.0


# -- criterion 3: third family table (published values) ----------------------


def test_criterion_03_gamma3_table(g3_table):
    t0 = time.time()
    table = family_bound(Family.G3)
    elapsed = time.time() - t0
    expected_basic = {
        (2, 3, 3): 83, (2, 3, 4): 45, (2, 3, 5): 66, (2, 4, 3): 28,
        (2, 5, 3): 48, (3, 3, 3): 37, (3, 4, 3): 18, (3, 5, 3): 24,
        (4, 4, 3): 9, (4, 5, 3): 2, (5, 5, 3): 2, (3, 3, 4): 17, (3, 3, 5): 2,
    }
    expected_improved = {
        (2, 3, 3): 53, (2, 3, 4): 31, (2, 3, 5): 32, (2, 4, 3): 19, (2, 5, 3): 22,
    }
    forced = {(4, 5, 3), (5, 5, 3), (3, 3, 5)}
    basic = {(r.case.s, r.case.k, r.case.r): r for r in table.rows
             if r.variant == Variant.U}
    improved = {(r.case.s, r.case.k, r.case.r): r for r in table.rows
                if r.variant == Variant.U_SQUARED}
    mismatches = []
    for key, want in expected_basic.items():
        got = basic[key].bound
        if got != want:
            mismatches.append(f"basic {key}: computed {got}, published {want}")
    for key, want in expected_improved.items():
        got = improved[key].bound
        if got != want:
            mismatches.append(f"improved {key}: computed {got}, published {want}")
    forced_ok = all(basic[key].mechanism == "forced_degree" for key in forced)
    ok = not mismatches and forced_ok and table.maximum == 53 and elapsed < 2.0
    _verdict(3, ok, f"{len(mismatches)} of 18 values diverge from the published table"
             if mismatches else "")
    assert forced_ok, "the three exact-degree cases must come from the feasibility path"
    assert table.maximum == 53
    assert elapsed < 2.0
    assert not mismatches, (
        "certified least-N values differ from the published table (the "
        "solver output is minimal by certified check at N and N-1; see "
        "README 'Known divergences'): " + "; ".join(mismatches)
    )


# -- criterion 4: star family ------------------------------------------------


def test_criterion_04_gamma4(g4_table, gamma4_global):
    assert g4_table.maximum == 31
    case = g4_table.argmax
    assert (case.k, case.s, case.r) == (2, 3, 3)
    t0 = time.time()
    result = search(PairKind.GAMMA4, k_max=10**7)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    assert gamma4_global.maximum == 120
    assert gamma4_global.argmax == (31, 3)
    _verdict(4, True, f"31 at (k=2, s=r=3); global 120 at (31, 3); search {elapsed:.1f}s")


# -- criterion 5: path family ------------------------------------------------


def test_criterion_05_gamma5(gamma5_search, gamma5_global):
    exceptional = gamma5_search.exceptional
    assert len(exceptional) == 14
    assert set(exceptional) == {
        (3, 3), (4, 3), (5, 3), (7, 3), (8, 3), (9, 3), (11, 3), (13, 3),
        (17, 3), (19, 3), (4, 4), (5, 4), (5, 5), (7, 5)}
    assert abs(_coefficient_float(23, 3) - 0.00131857) < 1e-6
    # the minimum over non-exceptional pairs is attained at (23, 3)
    best = min(
        (_coefficient_float(k, s), (k, s))
        for k in range(3, 200) for s in range(3, k + 1)
        if _coefficient_float(k, s) > 1e-9
    )
    assert best[1] == (23, 3)

    r23 = pair_report(23, 3, PairKind.GAMMA5)
    assert (r23.bound_kf, r23.bound_k) == (281, 3091)
    assert r23.refined_kf == 8 and r23.final_bound == 88

    r31 = pair_report(31, 3, PairKind.GAMMA5)
    assert r31.refined_kf == 8 and r31.final_bound == 120
    # printed intermediates (11, 165) vs formula (9, 135): divergence-flagged
    assert (r31.published_bound_kf, r31.published_bound_k) == (11, 165)
    assert r31.intermediates_match is False

    assert gamma5_global.maximum == 120 and gamma5_global.argmax == (31, 3)
    _verdict(5, True, "(23,3) -> 88, (31,3) -> 120; intermediates divergence-flagged")


# -- criterion 6: the five family maxima --------------------------------------


def test_criterion_06_family_maxima(g1_table, g2_table, g3_table,
                                    gamma4_global, gamma5_global):
    maxima = [g1_table.maximum, g2_table.maximum, g3_table.maximum,
              gamma4_global.maximum, gamma5_global.maximum]
    assert maxima == [24, 39, 53, 120, 120]
    assert max(maxima) == 120
    _verdict(6, True, "maxima {24, 39, 53, 120, 120}; N(14) = 120")


# -- criterion 7: dimension elimination ---------------------------------------


def test_criterion_07_polytope():
    from groundbound.polytopes import (
        existence_inequality, face_average_bound, narrow_face_vertex_bound)

    for n in range(10, 10**4 + 1):
        assert not existence_inequality(n).holds, n
    assert existence_inequality(9).holds
    tie = existence_inequality(10)
    assert tie.lhs == 180 and tie.rhs == 180
    for n in range(4, 201):
        assert narrow_face_vertex_bound(n) == face_average_bound(0, 2, n - 1)
    _verdict(7, True, "fails for 10..10^4, holds at 9; tie 180 vs 180")


# -- criterion 8: Fuchsian numbers ---------------------------------------------


def test_criterion_08_fuchsian():
    from groundbound.balls import PI, Const, Div, Mul
    from groundbound.polytopes import fuchsian_t_bound, takeuchi_bound

    assert takeuchi_bound(0, 4) == 11
    area = Div(Mul(Const(F(128)), PI), Const(F(3)))
    assert fuchsian_t_bound(area) == 46
    assert takeuchi_bound(0, 46) == 44
    _verdict(8, True, "11 / 46 / 44")


# -- criterion 9: cyclotomic oracles --------------------------------------------


def test_criterion_09_cyclotomic_oracles():
    from math import lcm

    from groundbound.cyclo import CycloElement, gamma_norm_constant
    from groundbound.fields import (
        RealCyclotomicField, compositum_info, field_discriminant, field_norm)
    from tests.test_fields import _element_degree

    for l in range(3, 201):
        f = RealCyclotomicField([l])
        if f.degree == 1:
            continue
        assert field_norm(f, 4 * f.sin2(l)) == gamma_norm_constant(l), l

    pairs = sorted({(l, m) for l in range(3, 41) for m in range(3, l + 1)
                    if lcm(l, m) <= 60})
    for l, m in pairs:
        info = compositum_info(l, m)
        n = info["lcm"]
        cl = CycloElement.cos2pi(1, l, n)
        cm = CycloElement.cos2pi(1, m, n)
        best = 0
        for lam in (F(1), F(1, 2), F(1, 3)):
            best = max(best, _element_degree(cl + lam * cm))
            if best == info["degree"]:
                break
        assert best == info["degree"], (l, m)

    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert field_discriminant(RealCyclotomicField([p])) == p ** ((p - 3) // 2)
    _verdict(9, True, "norm, degree and discriminant oracles all exact")


# -- criterion 10: small-polynomial certificates ----------------------------------


def test_criterion_10_fekete_properties():
    from groundbound.balls import AlgConst, GREATER, certify_compare
    from groundbound.fekete import (
        chebyshev_coefficients, chebyshev_linear_forms, chebyshev_scale,
        find_small_polynomial, lagrange_growth_bound)
    from groundbound.fields import RealCyclotomicField, field_discriminant

    Q = RealCyclotomicField.rationals()
    F5 = RealCyclotomicField([5])
    emb_q = Q.identity_embedding()
    embs5 = F5.embeddings()
    rng = random.Random(60901)

    for trial in range(200):
        over_q = trial % 2 == 0
        n = rng.randint(1, 12) if over_q else rng.randint(1, 6)
        if over_q:
            width = F(rng.randint(1, 39), 10)
            center = F(rng.randint(-20, 20), 10)
            ivs = {emb_q: (center - width / 2, center + width / 2)}
            field = Q
        else:
            w1 = F(rng.randint(1, 25), 10)
            cap = max(1, min(25, int(16 / float(w1) * 10) - 1))
            w2 = F(rng.randint(1, cap), 10)
            c1, c2 = F(rng.randint(-10, 10), 10), F(rng.randint(-10, 10), 10)
            ivs = {embs5[0]: (c1 - w1 / 2, c1 + w1 / 2),
                   embs5[1]: (c2 - w2 / 2, c2 + w2 / 2)}
            field = F5
        prod = F(1)
        for a, b in ivs.values():
            prod *= (b - a) / 4
        assert prod < 1
        cert = find_small_polynomial(field, ivs, n)
        assert not cert.is_zero()
        for sup in cert.sup_bounds:
            assert certify_compare(AlgConst(sup), cert.theoretical_bound) != GREATER

    configurations = [
        (F(-1), F(1), F(2)), (F(0), F(1), F(3, 2)), (F(-2), F(1), F(5)),
        (F(-1, 2), F(1, 2), F(1)), (F(1), F(3), F(3)), (F(-3), F(-1), F(0)),
        (F(0), F(4), F(13, 3)), (F(-1), F(2), F(7, 2)), (F(2), F(5, 2), F(4)),
        (F(-5), F(5), F(6)),
    ]
    for a, b, x in configurations:
        # the integer rows over s^i (`chebyshev_scale`) give the exact ones
        s = chebyshev_scale(a, b)
        cheb = [[F(c, s**i) for c in row] for i, row in enumerate(chebyshev_coefficients(a, b, 8))]
        for _ in range(500):
            n = rng.randint(1, 8)
            coeffs = [F(rng.randint(-9, 9)) for _ in range(n + 1)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = F(1)
            m0 = sum(abs(sum(coeffs[i] * cheb[i][k] for i in range(n + 1)))
                     for k in range(n + 1))
            value = abs(sum(c * x**i for i, c in enumerate(coeffs)))
            assert lagrange_growth_bound(m0, a, b, n, x).factorial_bound >= value

    for field, ivs in [
        (Q, {emb_q: (F(0), F(1))}),
        (F5, dict(zip(embs5, [(F(-1, 2), F(1, 2)), (F(-1, 3), F(2, 3))]))),
    ]:
        for n in range(1, 7):
            forms = chebyshev_linear_forms(field, ivs, n)
            det_sq = forms.exact_determinant()
            det_sq = det_sq * det_sq
            prod = F(1)
            for a, b in ivs.values():
                prod *= (b - a) / 4
            expected = (F(field_discriminant(field)) ** (n + 1)
                        * F(4) ** (field.degree * n) * prod ** (n * (n + 1)))
            assert det_sq.as_rational() == expected
    _verdict(10, True, "200 certificates, 5000 growth witnesses, exact determinants")


# -- criterion 11: determinism ------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    import subprocess
    import sys

    outputs = []
    for run in ("1", "2"):
        out = tmp_path / f"rep{run}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "groundbound.cli", "reproduce-all",
             "--kmax", "2000", "--out", str(out)],
            capture_output=True, text=True, timeout=900,
        )
        assert proc.returncode in (0, 1)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _verdict(11, True, "reproduce-all byte-identical across fresh runs")
