import random
from fractions import Fraction as F

import pytest

from groundbound.balls import (
    AlgConst,
    Const,
    E,
    ExpNode,
    Ln,
    Mul,
    PI,
    Pow,
    Sin,
    Sqrt,
    as_expr,
    eval_ball,
    exact_value,
)
from groundbound import balls, bounds, fixed
from groundbound.bounds import BoundProblem, method_a_problem, solve
from groundbound.cyclo import CycloElement
from groundbound.errors import HypothesisViolated, UndecidableError
from groundbound.fields import RealCyclotomicField

from enclosures import encloses, ends


def prob(M, B, R, S, m=1):
    return BoundProblem(M, as_expr(B), as_expr(R), as_expr(S), m)


def test_solve_unit_examples():
    r = solve(prob(1, 1, Const(F(1)) / Sqrt(Const(F(2))), Const(F(16)) * E))
    assert r.least_n == 22 and r.degree_bound == 22
    r = solve(prob(1, 1, Const(F(1, 2)), Const(F(32)) * E))
    assert r.least_n == 12 and r.degree_bound == 12


def test_solve_big_field_example():
    r315 = Sqrt(Const(F(31) * F(3) ** 15)) / Const(F(4) ** 15)
    s315 = Const(F(98)) * E / (Sin(PI / Const(F(31))) * Sin(PI / Const(F(31))) * Const(F(3, 4)))
    r = solve(prob(15, Const(F(31) ** 7), r315, s315))
    assert r.least_n == 8


def test_minimality_certified():
    # N is accepted and N-1 rejected by direct certified evaluation
    from groundbound.balls import GREATER, LESS, Ln, certify_sign

    problem = prob(1, 1, Const(F(1)) / Sqrt(Const(F(2))), Const(F(16)) * E)
    n = solve(problem).least_n

    def lhs(nn):
        return (
            Const(F(nn)) * -Ln(problem.r_ratio)
            - Const(F(problem.m_field_degree)) * Ln(Const(F(2 * nn + 2)))
            - Ln(problem.b_disc_root)
            - Ln(problem.s_factor)
        )

    assert certify_sign(lhs(n)) == GREATER
    assert certify_sign(lhs(n - 1)) == LESS


def test_solve_hypothesis_violated():
    # R^2 = prod (b-a)/4 = 1 for the base interval (-2, 2): the theorem needs R < 1
    for r in (Const(F(1)), Const(F(3, 2))):
        with pytest.raises(HypothesisViolated):
            solve(prob(1, 1, r, Const(F(28)) * E))


def test_nonpositive_data_violate_the_hypotheses():
    # R, B and S must be positive: a datum certified <= 0 (an exact zero
    # such as sin(pi) included) is named, never clamped or left to ln
    good = {"B": Const(F(1)), "R": Const(F(1, 2)), "S": Const(F(2))}
    for name in good:
        for bad in (Const(F(0)), Const(F(-5)), Sin(PI)):
            data = {**good, name: bad}
            with pytest.raises(HypothesisViolated, match=f"{name} must be > 0"):
                solve(prob(1, data["B"], data["R"], data["S"]))


def test_ln_of_data_is_one_enclosure_each(monkeypatch):
    # every datum, a product tree over positive leaves or any other shape,
    # takes exactly one enclosure of its logarithm per call, at the first
    # rung of the schedule and at the next, and the bounds rounded to
    # units of 2^-bits stay within four units
    enclosed = []
    real_eval_ball = bounds.eval_ball

    def spy(expr, *args, **kwargs):
        enclosed.append(expr)
        return real_eval_ball(expr, *args, **kwargs)

    monkeypatch.setattr(bounds, "eval_ball", spy)
    w = AlgConst(CycloElement.cos2pi(1, 5) * 2 + 2)  # phi^2, irrational
    products = [
        Sqrt(Const(F(5))),
        Sqrt(Sqrt(Const(F(7, 10**40)))),
        Const(F(2 * 13)) * E / Sqrt(w),
        Pow(Const(F(2 * 13)) * E / Sqrt(w), F(3)),
        Pow(Const(F(3, 2)) / E, F(-5, 7)),
        AlgConst(CycloElement.rational(5, F(9, 4))),
    ]
    others = [Const(F(2)) + Sqrt(Const(F(3))), PI, Const(F(-2)) * Const(F(-3)), ExpNode(Const(F(1)))]
    for bits in (64, 128):
        scale = 2**bits
        for x in products + others:
            enclosed.clear()
            lo, hi = bounds._fixed_ln_of("S", x, bits, balls.DEFAULT_CAP_BITS)
            assert enclosed == [Ln(x)], x
            ball_lo, ball_hi = ends(eval_ball(Ln(x), 512))
            assert lo <= ball_lo * scale
            assert ball_hi * scale <= hi
            assert hi - lo <= 4, (x, bits)


def test_method_a_problem_quadratic_field():
    # F = Q(sqrt 5), W = 2 + 2cos(2pi/5) = phi^2 with conjugate 1/phi^2, so
    # N(W) = 1, R = (1/16^2)^(1/4) = 1/4 and S = 2 * 14 * e / phi
    field = RealCyclotomicField([5])
    width_sq = CycloElement.cos2pi(1, 5) * 2 + 2
    p = method_a_problem(field, width_sq, F(1), 14)
    assert p.m_field_degree == 2 and p.exceptional_count == 1
    assert exact_value(p.r_ratio) == F(1, 4)
    phi = (Const(F(1)) + Sqrt(Const(F(5)))) / Const(F(2))
    assert encloses(eval_ball(p.s_factor - Const(F(28)) * E / phi, 64), F(0))
    assert encloses(eval_ball(p.b_disc_root * p.b_disc_root, 64), F(5))
    p2 = method_a_problem(field, width_sq, F(1), 14, m=2)
    assert encloses(eval_ball(p2.s_factor - p.s_factor * p.s_factor, 64), F(0))
    assert p2.exceptional_count == 2


def test_s_clamped_to_one():
    # S <= 1 would make ln S negative; the solver replaces it by 1
    r = Const(F(1)) / Sqrt(Const(F(2)))
    clamped = solve(prob(1, 3, r, Const(F(1, 100)))).least_n
    assert clamped == solve(prob(1, 3, r, Const(F(1)))).least_n
    assert clamped < solve(prob(1, 3, r, Const(F(3)))).least_n


def test_monotonicity_random():
    rng = random.Random(20240814)
    for _ in range(12):
        M = rng.choice([1, 2, 3])
        r = F(rng.randint(10, 80), 100)
        s = F(rng.randint(2, 500))
        b = F(rng.randint(1, 40))
        base = solve(prob(M, Const(b), Const(r), Const(s) * E)).least_n
        bigger_s = solve(prob(M, Const(b), Const(r), Const(s * 4) * E)).least_n
        bigger_b = solve(prob(M, Const(b * 9), Const(r), Const(s) * E)).least_n
        r_up = r + (1 - r) / 3
        bigger_r = solve(prob(M, Const(b), Const(r_up), Const(s) * E)).least_n
        assert bigger_s >= base
        assert bigger_b >= base
        assert bigger_r >= base


def test_asymptotic_ratio():
    # for fixed R and huge S, N ~ ln S / ln(1/R) within 10%
    import math

    ln_s = 120
    r = solve(prob(1, 1, Const(F(1, 2)), ExpNode(Const(F(ln_s)))))
    ratio = r.least_n / ln_s
    assert abs(ratio - 1 / math.log(2)) / (1 / math.log(2)) < 0.10


def test_m2_division():
    s1 = Const(F(32)) * E
    r = solve(prob(1, 1, Const(F(1, 2)), Mul(s1, s1), m=2))
    assert r.least_n == 19 and r.degree_bound == 9


def _scan_least_n(problem):
    """Oracle: the least N by a linear certified scan N = 1, 2, ..."""
    ln_s = balls.Ln(problem.s_factor)
    if balls.certify_compare(problem.s_factor, Const(F(1))) != balls.GREATER:
        ln_s = Const(F(0))
    for n in range(1, bounds.SOLVE_LIMIT + 1):
        lhs = (
            Const(F(n)) * -balls.Ln(problem.r_ratio)
            - Const(F(problem.m_field_degree)) * balls.Ln(Const(F(2 * n + 2)))
            - balls.Ln(problem.b_disc_root)
            - ln_s
        )
        sign = balls.certify_sign(lhs)
        assert sign != balls.UNDECIDED
        if sign != balls.LESS:
            return n
    raise AssertionError("no solution below SOLVE_LIMIT")


def _oracle_problems():
    rng = random.Random(20261018)
    out = []
    for M in (1, 2, 5, 15):
        for _ in range(3):
            r = F(rng.randint(2, 95), 100)
            b = rng.choice([F(rng.randint(2, 60)), F(1, rng.randint(2, 60))])
            s = rng.choice([Const(F(rng.randint(2, 400))) * E, Const(F(1, rng.randint(2, 50)))])
            out.append(prob(M, Const(b), Const(r), s))
    out.append(prob(1, Const(F(1, 10**6)), Const(F(1, 50)), Const(F(3))))  # N = 1
    out.append(prob(2, Const(F(5)), Const(F(19, 20)), Const(F(1, 7))))  # S <= 1 clamped
    out.append(prob(1, Const(F(1)), Const(F(9, 10)), Const(F(1))))  # S = 1 exactly
    return out


def test_solve_matches_linear_scan():
    answers = []
    for problem in _oracle_problems():
        answers.append(solve(problem).least_n)
        assert answers[-1] == _scan_least_n(problem)
    assert answers[-3] == 1
    assert max(answers) > 100


def _count_compares(monkeypatch):
    """Spy on `certify_compare` in `bounds`, which the solve calls only for
    an exact R = 1 or S = 1 and to name a datum certified <= 0."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return balls.certify_compare(*args, **kwargs)

    monkeypatch.setattr(bounds, "certify_compare", counting)
    return calls


def _spy_attempts(monkeypatch):
    """The precision of every attempt `bounds` makes along `balls.settle`."""
    attempts = []

    def recording(attempt, undecided, cap_bits):
        def spy(bits):
            attempts.append(bits)
            return attempt(bits)

        return balls.settle(spy, undecided, cap_bits)

    monkeypatch.setattr(bounds, "settle", recording)
    return attempts


def test_reproduce_all_solves_settle_at_64_bits(monkeypatch):
    # the 89 solves of `reproduce-all --kmax 2000` settle every sign on
    # their 64-bit bounds and ask `certify_compare` nothing; of the oracle
    # problems only the exact S = 1 (the last) asks it once, for S vs 1
    from groundbound import graphs, pairs
    from groundbound.reproduce import reproduce_all

    compares = _count_compares(monkeypatch)
    problems = _oracle_problems()
    for problem in problems:
        compares.clear()
        solve(problem)
        assert len(compares) == (1 if problem is problems[-1] else 0)
    assert compares == [(problems[-1].s_factor, 1)]

    solves = []

    def counting_solve(problem, *args, **kwargs):
        solves.append(problem)
        return solve(problem, *args, **kwargs)

    for module in (graphs, pairs):
        monkeypatch.setattr(module, "solve", counting_solve)
    attempts = _spy_attempts(monkeypatch)
    compares.clear()
    reproduce_all(2000)
    assert len(solves) == 89 and compares == []
    assert attempts and set(attempts) == {fixed.FIXED_BITS}


def test_forced_raise_matches_linear_scan(monkeypatch):
    # the 64-bit bounds of ln R, ln B and ln S widened by 2^16 on both
    # sides: no sign of R < 1, of S vs 1 or of f(n) is read off 64 bits,
    # so every one rises to 128 bits, and the least N stays the scan's;
    # with the cap at 64 bits the first probe names its N
    width = 1 << (16 + fixed.FIXED_BITS)
    real = bounds._fixed_ln_of

    def widened(name, x, bits, cap_bits):
        lo, hi = real(name, x, bits, cap_bits)
        pad = width if bits == fixed.FIXED_BITS else 0
        return lo - pad, hi + pad

    monkeypatch.setattr(bounds, "_fixed_ln_of", widened)
    attempts = _spy_attempts(monkeypatch)
    problems = _oracle_problems()
    for problem in problems:
        attempts.clear()
        n = solve(problem).least_n
        assert n == _scan_least_n(problem)
        # R vs 1, S vs 1 and f(1), then f(N) and f(N - 1) unless N = 1,
        # each first at 64 bits and then at 128; only the exact S = 1 (the
        # last problem) walks on to the cap
        assert attempts.count(64) == attempts.count(128) >= (3 if n == 1 else 5)
        assert max(attempts) == (balls.DEFAULT_CAP_BITS if problem is problems[-1] else 128)
        with pytest.raises(UndecidableError, match="^inequality at N=1 undecided below 64 bits$"):
            solve(problem, precision_cap=64)


def test_solve_probes_logarithmically_many_n(monkeypatch):
    # one `_fixed_ln(2n + 2)` per probed n: doubling and bisection probe
    # O(log N) values, where walks of single steps would probe O(N)
    probes = []
    real_fixed_ln = bounds._fixed_ln

    def counting(n, bits):
        probes.append(n)
        return real_fixed_ln(n, bits)

    monkeypatch.setattr(bounds, "_fixed_ln", counting)
    for problem in _oracle_problems():
        probes.clear()
        n = solve(problem).least_n
        assert len(probes) <= 2 * n.bit_length() + 2, (n, len(probes))


def test_solve_limit(monkeypatch):
    problem = prob(1, 1, Const(F(1)) / Sqrt(Const(F(2))), Const(F(16)) * E)
    monkeypatch.setattr(bounds, "SOLVE_LIMIT", 22)
    assert solve(problem).least_n == 22
    monkeypatch.setattr(bounds, "SOLVE_LIMIT", 21)
    with pytest.raises(UndecidableError):
        solve(problem)


# f(5) = 5 ln 2 - ln 12 - ln(8/3) = ln(32/32) = 0 exactly
_TIE = prob(1, 1, Const(F(1, 2)), Const(F(8, 3)))


def test_exact_tie_is_undecidable(monkeypatch):
    # f(5) = 0 exactly: no precision settles it, up to the cap
    attempts = _spy_attempts(monkeypatch)
    with pytest.raises(UndecidableError, match="N=5"):
        solve(_TIE)
    assert attempts[-7:] == list(balls.precisions())
