import random
from fractions import Fraction

import pytest

from groundbound import fixed, pairs
from groundbound.balls import (
    PI, Ball, Const, Expr, Ln, Sin, eval_ball, floor_of, within_one_integer_step,
)
from groundbound.errors import ExceptionalPair, UndecidableError
from groundbound.pairs import (
    PUBLISHED_EXCEPTIONAL_GAMMA5,
    TAIL_START,
    PairKind,
    coefficient_sign,
    exceptional_bound,
    exceptional_pairs,
    is_exceptional,
    pair_field_degree,
    pair_report,
    refine,
    search,
    survives,
    tail_certificate,
    _coefficient_float,
)

from enclosures import ends

G5 = PairKind.GAMMA5
G4 = PairKind.GAMMA4


def test_exceptional_pairs_exact():
    got = exceptional_pairs(G5)
    assert len(got) == 14
    assert set(got) == set(PUBLISHED_EXCEPTIONAL_GAMMA5)
    got4 = exceptional_pairs(G4)
    assert got4 == [(7, 3), (8, 3), (9, 3), (11, 3), (13, 3), (17, 3), (19, 3), (7, 5)]


def test_boundary_pair_is_exact_zero():
    # (4, 4): ln 2 - ln2/2 - ln2/2 vanishes identically
    assert coefficient_sign(4, 4) == "EQUAL"
    assert is_exceptional(4, 4)


def test_non_exceptional_examples():
    assert not is_exceptional(23, 3)
    assert is_exceptional(7, 5)
    assert abs(_coefficient_float(23, 3) - 0.00131857) < 1e-6


def test_minimum_positive_coefficient():
    best, arg = None, None
    for k in range(3, 101):
        for s in range(3, k + 1):
            c = _coefficient_float(k, s)
            if c > 1e-12 and (best is None or c < best):
                best, arg = c, (k, s)
    assert arg == (23, 3)
    assert abs(best - 0.00131857) < 1e-6


def test_field_degree():
    assert pair_field_degree(23, 3) == 11
    assert pair_field_degree(31, 3) == 15
    assert pair_field_degree(6, 3) == 1
    assert pair_field_degree(7, 4) == 3


def test_pair_report_examples():
    r = pair_report(23, 3, G5)
    assert (r.bound_kf, r.bound_k) == (281, 3091)
    assert r.refined_kf == 8 and r.final_bound == 88
    assert r.intermediates_match is True

    r = pair_report(31, 3, G5)
    assert r.refined_kf == 8 and r.final_bound == 120
    assert (r.published_bound_kf, r.published_bound_k) == (11, 165)
    # formula-derived intermediates diverge from the printed ones and are
    # reported as such; the refined bound is the normative value
    assert r.intermediates_match is False
    assert (r.bound_kf, r.bound_k) == (9, 135)


def test_pair_report_normalizes_order():
    r = pair_report(3, 23, G5)
    assert (r.k, r.s) == (23, 3)


def test_pair_report_rejects_exceptional():
    with pytest.raises(ExceptionalPair):
        pair_report(7, 3, G5)


def test_refinements():
    assert refine(31, 3, G5) == 8
    assert refine(23, 3, G5) == 8
    assert refine(31, 3, G4) == 8


def test_exceptional_bounds_small():
    n, bound = exceptional_bound(3, 3, G5)
    assert n == 37 and bound == 37
    n, bound = exceptional_bound(19, 3, G5)
    assert bound == 72


def test_search_structure(gamma5_search):
    result = gamma5_search
    ks = [(r.k, r.s) for r in result.survivors]
    assert ks == sorted(ks)
    assert (23, 3) in ks and (31, 3) in ks and (6, 3) in ks
    assert (390, 3) in ks  # razor-thin survivor: certified interval check
    assert (113, 3) not in ks
    assert max(r.k for r in result.survivors) < 10**7
    for r in result.survivors:
        assert r.final_bound <= 120
    assert max(r.final_bound for r in result.survivors) == 120


def test_search_rejects_tiny_kmax():
    with pytest.raises(ValueError):
        search(G5, k_max=30)


def test_pruning_soundness(gamma5_search):
    # 10^4 randomly sampled pruned pairs: direct evaluation of the survival
    # inequality confirms failure; near-boundary samples and a random
    # subsample get the full certified check
    from math import log, pi, sin

    survivors = {(r.k, r.s) for r in gamma5_search.survivors}
    exceptional = set(gamma5_search.exceptional)
    rng = random.Random(123)
    checked = certified = 0
    while checked < 10**4:
        k = rng.randint(3, 10**7)
        s = rng.randint(3, min(k, 5000))
        if (k, s) in survivors or (k, s) in exceptional:
            continue
        coeff = _coefficient_float(k, s)
        if coeff <= 1e-12:
            continue  # only known exceptional pairs live here
        slack = log(7) - log(sin(pi / k)) - log(sin(pi / s)) - coeff * pair_field_degree(k, s)
        assert slack < 1e-3, (k, s, slack)
        if slack >= -1e-3 or rng.random() < 0.002:
            assert not survives(k, s, G5), (k, s)
            certified += 1
        checked += 1
    assert checked == 10**4 and certified >= 10


def test_tail_certificate():
    for kind in (G5, G4):
        for k_max, blocks in ((10**7, 12), (10**12, 28)):
            cert = tail_certificate(kind, k_max)
            assert (cert.start, cert.k_max, cert.blocks) == (TAIL_START, k_max, blocks)
            assert cert.min_slack > 0


def test_exp_gamma_upper_is_certified():
    # Euler-Maclaurin: H_n = ln n + gamma + 1/(2n) - 1/(12n^2) + eps with
    # 0 < eps < 1/(120n^4), so gamma < H_10 - ln 10 - 1/20 + 1/1200, and
    # e^gamma < EXP_GAMMA_UPPER follows from one certified comparison
    from groundbound.balls import LESS, ExpNode, certify_compare

    h10 = sum(Fraction(1, k) for k in range(1, 11))
    gamma_upper = Const(h10 - Fraction(1, 20) + Fraction(1, 1200)) - Ln(Const(Fraction(10)))
    assert certify_compare(ExpNode(gamma_upper), Const(pairs.EXP_GAMMA_UPPER)) == LESS


def test_tail_certificate_below_crossover_raises():
    # the path-family block [1024, 2048] fails the comparison (float
    # sizing: lhs ~133 against rhs ~311); it must raise, never report void
    with pytest.raises(UndecidableError, match=r"tail block \[1024, 2048\] not certified"):
        tail_certificate(G5, 10**7, start=1024)


def test_tail_block_is_one_enclosure(monkeypatch):
    # the sign and the slack of a block come from the same enclosure
    from groundbound import balls

    calls = []
    real = balls.eval_ball

    def spy(expr, *args, **kwargs):
        calls.append(expr)
        return real(expr, *args, **kwargs)

    monkeypatch.setattr(balls, "eval_ball", spy)
    monkeypatch.setattr(pairs, "eval_ball", spy)
    cert = tail_certificate(G4, 10**7)
    assert len(calls) == cert.blocks == 12


@pytest.mark.parametrize("kind", [G5, G4])
def test_search_sieves_only_to_tail_start(kind, monkeypatch):
    limits = []
    real_sieve = pairs.sieve_tables

    def spy(limit):
        limits.append(limit)
        return real_sieve(limit)

    monkeypatch.setattr(pairs, "sieve_tables", spy)
    pairs.scan_table.cache_clear()  # so that the spy sees the table built
    full = search(kind, k_max=10**7)
    assert limits and max(limits) <= TAIL_START
    scanned = search(kind, k_max=TAIL_START)
    assert full.survivors == scanned.survivors
    assert full.candidate_k_count == scanned.candidate_k_count
    assert full.checked_pairs == scanned.checked_pairs
    assert full.tail.k_max == 10**7 and scanned.tail is None


def test_global_bounds(gamma5_global, gamma4_global):
    assert gamma5_global.maximum == 120 and gamma5_global.argmax == (31, 3)
    assert gamma4_global.maximum == 120 and gamma4_global.argmax == (31, 3)
    assert gamma4_global.method_a_small_k_max == 31
    table = gamma4_global.method_a_small_k_table
    assert {row.case.k for row in table.rows} == set(range(2, 7))
    assert gamma5_global.method_a_small_k_table is None
    assert gamma5_global.method_a_small_k_max is None
    # every exceptional-pair Method A bound stays at or below 120
    for k, s, n, bound in gamma5_global.exceptional_bounds:
        assert bound <= 120, (k, s, bound)


def test_gamma4_restricted_range():
    from groundbound.pairs import global_bound

    gb = global_bound(G4, k_max=6)
    assert gb.maximum == 31 and gb.argmax == (2, 3, 3)
    assert gb.method_a_small_k_max == 31


def test_reproduce_all_sieves_once(monkeypatch):
    # both families' searches read one scan table, sieved once at
    # min(k_max, TAIL_START); the table cache is cleared first, so that
    # the spy sees the one build
    from groundbound import reproduce

    limits = []
    real_sieve = pairs.sieve_tables

    def spy(limit):
        limits.append(limit)
        return real_sieve(limit)

    monkeypatch.setattr(pairs, "sieve_tables", spy)
    for k_max in (2000, 10**7):
        pairs.scan_table.cache_clear()
        limits.clear()
        reproduce.reproduce_all(k_max)
        assert limits == [min(k_max, TAIL_START)], (k_max, limits)


def test_reproduce_all_builds_the_gamma4_table_once(monkeypatch):
    # the "family Gamma4 (2 <= k <= 6)" section is the table the star
    # family's global bound carries
    from groundbound import graphs, reproduce

    families = []
    real = graphs.family_bound

    def spy(family, k_range=None):
        families.append(family)
        return real(family, k_range)

    monkeypatch.setattr(pairs, "family_bound", spy)
    monkeypatch.setattr(reproduce, "family_bound", spy)
    text = reproduce.reproduce_all(2000).render("text")
    assert families.count(graphs.Family.G4) == 1
    assert text.index("family Gamma4 (2 <= k <= 6)") < text.index("pair search (path family")


def test_refinement_matches_g5_case():
    # the closed-form norm (pairs) and the conjugate product (graphs) give the
    # same Method-A problem for the path family's G5 cases
    from groundbound.balls import ball_str
    from groundbound.bounds import solve
    from groundbound.graphs import EdgeGraphCase, Family, Feasibility, bound_problem, feasibility

    compared = 0
    for k in range(3, 11):
        for s in range(3, k + 1):
            case = EdgeGraphCase(Family.G5, s=s, k=k)
            if is_exceptional(k, s) or feasibility(case) != Feasibility.FEASIBLE:
                continue
            ours, theirs = pairs.refinement_problem(k, s, G5), bound_problem(case)
            assert solve(ours).least_n == solve(theirs).least_n, (k, s)
            for attr in ("b_disc_root", "r_ratio", "s_factor"):
                assert ball_str(getattr(ours, attr)) == ball_str(getattr(theirs, attr)), (k, s, attr)
            compared += 1
    assert compared == 26


def _spy_raises(monkeypatch) -> list:
    """The (k, s, bits) of every bound of c(k, s) that `pairs` computes
    above FIXED_BITS.  Each attempt of `coefficient_sign` and `pair_floor`
    starts with one, so the list holds every precision raise."""
    raised = []
    real = pairs._fixed_coefficient

    def spy(k, s, bits=fixed.FIXED_BITS):
        if bits > fixed.FIXED_BITS:
            raised.append((k, s, bits))
        return real(k, s, bits)

    monkeypatch.setattr(pairs, "_fixed_coefficient", spy)
    return raised


def test_no_coefficient_sign_rises_above_64_bits(monkeypatch):
    # the exceptional scan, `survives`, `pair_report` and the star family's
    # repeats of complete-family pairs all ask for the sign of c(k, s); each
    # is read off the 64-bit integer bounds of its terms, and the exact
    # zero at (4, 4) off the empty terms, so no sign (and no pair floor)
    # asks for more bits
    from groundbound.pairs import global_bound

    pairs._all_exceptional_pairs.cache_clear()
    asked = []
    real_sign = pairs.coefficient_sign

    def sign_spy(k, s):
        asked.append((k, s))
        return real_sign(k, s)

    monkeypatch.setattr(pairs, "coefficient_sign", sign_spy)
    raised = _spy_raises(monkeypatch)
    for kind in (G5, G4):
        global_bound(kind, k_max=2000)
    for k, s in ((23, 3), (31, 3), (390, 3)):
        assert survives(k, s, G5)
        pair_report(k, s, G5, refine_above=10**9)
    assert len(set(asked)) > 300 and (4, 4) in asked
    assert real_sign(4, 4) == "EQUAL"
    assert raised == []


def _widened_at_64_bits(real, width):
    """The fixed-point bounds `real` widened by `width` on both sides at
    FIXED_BITS only; `pairs` passes the precision last."""

    def widened(*args):
        lo, hi = real(*args)
        pad = width if args[-1] == fixed.FIXED_BITS else 0
        return lo - pad, hi + pad

    return widened


def test_forced_fallback_gives_the_same_coefficient_signs(monkeypatch):
    # every 64-bit bound of c(k, s) widened by 2^16 on both sides: no sign
    # is read off 64 bits, so every nonzero one rises to 128 bits and
    # settles there, and the signs and exceptional pairs stay the same
    moduli = [(k, s) for k in range(3, 65) for s in range(3, k + 1)]
    expected = {p: coefficient_sign(*p) for p in moduli}
    width = 1 << (16 + fixed.FIXED_BITS)
    monkeypatch.setattr(pairs, "_fixed_coefficient",
                        _widened_at_64_bits(pairs._fixed_coefficient, width))
    raised = _spy_raises(monkeypatch)
    assert {p: coefficient_sign(*p) for p in moduli} == expected
    assert raised == [(k, s, 128) for k, s in moduli if (k, s) != (4, 4)]
    pairs._all_exceptional_pairs.cache_clear()
    try:
        assert set(exceptional_pairs(G5)) == set(PUBLISHED_EXCEPTIONAL_GAMMA5)
        assert exceptional_pairs(G4) == [(7, 3), (8, 3), (9, 3), (11, 3), (13, 3), (17, 3),
                                         (19, 3), (7, 5)]
    finally:
        pairs._all_exceptional_pairs.cache_clear()


# -- the scan: every discard certified -------------------------------------------


class _ScanOracle:
    """The bounds of `pairs.ScanTable`'s docstring for one family, read
    off the shared table: the tests' oracle for the inequalities that
    `search` runs inline.  Table entries are read through."""

    def __init__(self, kind, limit=TAIL_START):
        self.kind = kind
        self.table = pairs.scan_table(limit)
        self.ln_c_hi = self.table.ln_hi[kind.log_constant]
        self.k_values = range(3 if kind is G5 else 7, limit + 1)

    def __getattr__(self, name):
        return getattr(self.table, name)

    def s_top(self, k):
        return k if self.kind is G5 else 5

    def degree(self, k, s):
        from math import gcd

        g = gcd(k, s)
        return self.phi[k] * self.phi[s] // self.phi[g] // (4 if g in (1, 2) else 2)

    def c_lo(self, k, s):
        return self.ln2_lo - self.g_hi[k] - self.g_hi[s]

    def rhs_hi(self, k, s):
        return self.ln_c_hi + self.sin_hi[k] + self.sin_hi[s]

    def discards(self, k, s):
        return self.degree(k, s) * self.c_lo(k, s) > self.rhs_hi(k, s)

    def c_low(self, k):
        return self.ln2_lo - self.g_hi[k] - self.g_hi_max[self.s_top(k)]

    def rhs_max(self, k):
        return self.ln_c_hi + self.sin_hi[k] + self.sin_hi_max[self.s_top(k)]

    def is_candidate(self, k):
        return self.phi[k] * self.c_low(k) <= 4 * self.rhs_max(k)

    def divisor_bound(self, k):
        """ceil(T_k), or None when c_low(k) <= 0 and every s is kept."""
        c_low = self.c_low(k)
        return None if c_low <= 0 else -(-4 * self.rhs_max(k) // (c_low * self.phi[k]))


# The float scan the pair search ran before its discards were certified,
# transcribed from numpy into plain Python: a candidate filter on k and a
# per-pair slack test, each widened by these absolute and relative margins.
FILTER_ABS = 1e-6
FILTER_REL = 1e-9


def _float_scan(kind, limit=TAIL_START):
    """(near, nonpositive): the pairs the float scan sent on to `survives`
    and the pairs whose float coefficient is at most FILTER_ABS."""
    from math import gcd, log, pi, sin

    from groundbound.cyclo import euler_phi, gamma_norm_constant

    phi = [0, 1] + [euler_phi(x) for x in range(2, limit + 1)]
    g = [0.0] * (limit + 1)
    neg_ln_sin = [0.0] * (limit + 1)
    for x in range(3, limit + 1):
        p = gamma_norm_constant(x)
        if p != 1:
            g[x] = log(p) / phi[x]
        neg_ln_sin[x] = -log(sin(pi / x))
    ln2, ln3_half, ln_c = log(2.0), log(3.0) / 2, log(kind.log_constant)
    near, nonpositive = [], []
    for k in range(3 if kind is G5 else 7, limit + 1):
        cmin = ln2 - g[k] - ln3_half
        if kind is G5:
            rhs_max = ln_c + 2.0 * log(k / 2.0)
        else:
            rhs_max = ln_c + log(k / 2.0) + log(5.0 / 2.0)
        budget = 4.0 * rhs_max * (1.0 + FILTER_REL) + FILTER_ABS
        if not (cmin <= FILTER_ABS or phi[k] * cmin < budget):
            continue
        for s in range(3, k + 1) if kind is G5 else (3, 4, 5):
            coeff = ln2 - g[k] - g[s]
            if coeff <= FILTER_ABS:
                nonpositive.append((k, s))
                continue
            d = gcd(k, s)
            deg = phi[k] * phi[s] // phi[d] // (4 if d in (1, 2) else 2)
            rhs = ln_c + neg_ln_sin[k] + neg_ln_sin[s]
            if rhs - coeff * deg > -(FILTER_ABS + FILTER_REL * (abs(rhs) + coeff * deg)):
                near.append((k, s))
    return near, nonpositive


@pytest.mark.parametrize("kind", [G5, G4])
def test_search_matches_the_float_scan_oracle(kind):
    result = search(kind, k_max=TAIL_START)
    near, nonpositive = _float_scan(kind)
    oracle_exceptional = {p for p in nonpositive if is_exceptional(*p)}
    assert oracle_exceptional == set(result.exceptional)
    oracle_checked = set(near) | (set(nonpositive) - oracle_exceptional)
    survivors = {(r.k, r.s) for r in result.survivors}
    # every survivor of the search is certified; every other pair the
    # float scan would have certified must fail
    assert survivors <= oracle_checked
    assert not [p for p in sorted(oracle_checked - survivors) if survives(*p, kind)]
    assert len(survivors) == (416 if kind is G5 else 265)


@pytest.mark.parametrize("kind", [G5, G4])
def test_scan_bounds_enclose(kind):
    # the fixed-point bounds hold against 256-bit references, and the
    # per-k bounds dominate every s of the family's range
    import mpmath

    bounds = _ScanOracle(kind)
    scale = 2**fixed.FIXED_BITS
    with mpmath.mp.workprec(256):
        for p in range(2, TAIL_START + 1):
            if bounds.spf[p] == p:
                lo, hi = fixed._fixed_ln(p, fixed.FIXED_BITS)
                assert lo <= mpmath.log(p) * scale <= hi, p
        assert bounds.ln2_lo <= mpmath.log(2) * scale
        assert bounds.ln_c_hi >= mpmath.log(kind.log_constant) * scale
        for x in range(3, TAIL_START + 1):
            assert bounds.sin_hi[x] >= -mpmath.log(mpmath.sin(mpmath.pi / x)) * scale, x
            p = pairs.gamma_norm_constant(x)
            g = mpmath.log(p) / pairs.euler_phi(x) if p != 1 else 0
            assert bounds.g_hi[x] >= g * scale, x
            assert bounds.degree(x, 3) == pair_field_degree(x, 3)
    g_max = sin_max = 0
    for x in range(3, TAIL_START + 1):
        g_max, sin_max = max(g_max, bounds.g_hi[x]), max(sin_max, bounds.sin_hi[x])
        assert (bounds.g_hi_max[x], bounds.sin_hi_max[x]) == (g_max, sin_max)
    for k in bounds.k_values:
        for s in (3, 4, 5) if kind is G4 else (3, k):
            assert bounds.c_lo(k, s) >= bounds.c_low(k)
            assert bounds.rhs_hi(k, s) <= bounds.rhs_max(k)


def test_every_discard_is_certified(monkeypatch):
    # every pair with 3 <= s <= k <= 4096 that is neither a survivor nor
    # exceptional is excluded by the certified candidate bound on k, by the
    # divisor bound T_k on s, or by deg * c_lo > rhs_hi; every other pair,
    # survivors included, reaches the per-pair certificate `pair_floor`
    # exactly once
    from collections import Counter
    from math import gcd

    certified = Counter()
    real_floor = pairs.pair_floor

    def floor_spy(k, s, kind):
        certified[kind, k, s] += 1
        return real_floor(k, s, kind)

    for kind in (G5, G4):
        exceptional_pairs(kind)  # memoized before the spy goes in
    monkeypatch.setattr(pairs, "pair_floor", floor_spy)
    monkeypatch.setattr(pairs, "_report", lambda k, s, kind, bound_kf: (k, s))
    reasons = {}
    for kind in (G5, G4):
        result = search(kind, k_max=TAIL_START)
        survivors, exceptional = set(result.survivors), set(result.exceptional)
        assert all(certified[kind, k, s] == 1 for k, s in survivors)
        bounds = _ScanOracle(kind)
        phi = bounds.phi
        for k in bounds.k_values:
            s_range = range(3, k + 1) if kind is G5 else (3, 4, 5)
            if not bounds.is_candidate(k):
                reasons["k"] = reasons.get("k", 0) + len(s_range)
                continue
            bound = bounds.divisor_bound(k)
            for s in s_range:
                if (k, s) in survivors or (k, s) in exceptional:
                    continue
                if bound is not None and phi[s // gcd(k, s)] >= bound:
                    reason = "T_k"
                elif bounds.discards(k, s):
                    reason = "integer"
                else:
                    assert certified[kind, k, s] == 1, (kind, k, s)
                    reason = "routed"
                reasons[reason] = reasons.get(reason, 0) + 1
    assert all(reasons.get(r) for r in ("k", "T_k", "integer", "routed")), reasons
    assert set(certified.values()) == {1} and len(certified) <= 683


def test_scan_counts_are_pinned(monkeypatch):
    # the scan's counts at k_max = TAIL_START, so that a change to any
    # bound of the candidate filter, the divisor bound T_k or the per-pair
    # test shows up as a count change
    floors = []
    real_floor = pairs.pair_floor

    def floor_spy(k, s, kind):
        floors.append((kind, k, s))
        return real_floor(k, s, kind)

    monkeypatch.setattr(pairs, "pair_floor", floor_spy)
    counts = {}
    for kind in (G5, G4):
        result = search(kind, k_max=TAIL_START)
        counts[kind] = (result.candidate_k_count, result.checked_pairs, len(result.survivors))
    assert counts == {G5: (708, 10994, 416), G4: (406, 780, 265)}
    assert len(floors) == 682


# -- the per-pair certificate ------------------------------------------------------


def test_ln_prime_table_encloses_the_interval_logarithms():
    # the integer ln kernel holds a 256-bit interval enclosure of ln p for
    # every prime p <= 4096 that the scan table reads, at most 4 units of
    # 2^-64 wide
    spf = pairs._smallest_prime_factors(TAIL_START)
    primes = [p for p in range(2, TAIL_START + 1) if spf[p] == p]
    assert len(primes) == 564
    scale = 2**fixed.FIXED_BITS
    for p in primes:
        lo, hi = fixed._fixed_ln(p, fixed.FIXED_BITS)
        ball_lo, ball_hi = ends(eval_ball(Ln(Const(Fraction(p))), 256))
        assert lo <= ball_lo * scale, p
        assert ball_hi * scale <= hi, p
        assert 0 < hi - lo <= 4, p


# The interval oracle of the per-pair certificate: c(k, s), rhs(k, s) and
# floor(rhs / (deg c)) as expression trees, evaluated by `balls`.


def coefficient_expr(k: int, s: int) -> Expr:
    """c(k, s) as an `Expr`, for the interval fallbacks."""
    terms = [Const(Fraction(num, den)) * Ln(Const(Fraction(p)))
             for num, den, p in pairs._coefficient_terms(k, s)]
    return sum(terms[1:], terms[0]) if terms else Const(Fraction(0))


def rhs_expr(k: int, s: int, kind: PairKind) -> Expr:
    c = Const(Fraction(kind.log_constant))
    return Ln(c) - Ln(Sin(PI / Const(Fraction(k)))) - Ln(Sin(PI / Const(Fraction(s))))


def _settles_ratio(ball: Ball) -> bool:
    """The ball sits inside one integer step and does not start at 1, so
    it gives floor(ratio) and decides ratio > 1."""
    return within_one_integer_step(ball) and ends(ball)[0] != 1


def _ratio_floor(k: int, s: int, kind: PairKind) -> int:
    """floor(rhs / (deg c)) from one enclosure of the ratio."""
    ratio = rhs_expr(k, s, kind) / (Const(Fraction(pair_field_degree(k, s))) * coefficient_expr(k, s))
    try:
        return floor_of(eval_ball(ratio, accept=_settles_ratio))
    except UndecidableError:
        raise UndecidableError(f"Method-B ratio of ({k}, {s}) undecided") from None


def _old_floor(k, s, kind):
    """floor(rhs / (deg c)) and survival from the two evaluations the
    certificate replaces."""
    from groundbound.balls import certify_sign

    deg = Const(Fraction(pair_field_degree(k, s)))
    rhs, coeff = rhs_expr(k, s, kind), coefficient_expr(k, s)
    return (pairs.certified_floor_ratio(rhs, deg * coeff),
            certify_sign(rhs - deg * coeff) == "GREATER")


def test_pair_certificate_matches_the_ratio_ball(gamma5_search, gamma4_search, monkeypatch):
    # 64-bit integers settle every survivor and every sampled pair, k > 4096
    # included; each result equals the floor of the ratio ball and the two
    # interval evaluations it replaced
    checked = 0
    for result in (gamma5_search, gamma4_search):
        for r in result.survivors:
            bound_kf = pairs.pair_floor(r.k, r.s, result.kind)
            assert bound_kf == r.bound_kf >= 1
            assert bound_kf == _ratio_floor(r.k, r.s, result.kind)
            assert (bound_kf, True) == _old_floor(r.k, r.s, result.kind)
            checked += 1
    assert checked == 416 + 265
    rng = random.Random(1212)
    samples = [(rng.randint(7, TAIL_START), 3, G4) for _ in range(100)]
    samples += [(rng.randint(TAIL_START + 1, 10**7), rng.randint(3, 5000), G5) for _ in range(30)]
    samples += [(rng.randint(TAIL_START + 1, 10**7), rng.choice((3, 4, 5)), G4) for _ in range(10)]
    raised = _spy_raises(monkeypatch)
    past_table = 0
    for k, s, kind in samples:
        if is_exceptional(k, s):
            continue
        bound_kf = pairs.pair_floor(k, s, kind)
        past_table += k > TAIL_START
        assert bound_kf == _ratio_floor(k, s, kind), (k, s, kind)
        assert (bound_kf, bound_kf >= 1) == _old_floor(k, s, kind), (k, s, kind)
    assert past_table == 40
    assert raised == []


def test_forced_fallback_gives_the_same_report(monkeypatch):
    # 64-bit -ln sin bounds too wide to settle anything send every pair
    # certificate to 128 bits, which certify the same reports
    pairs_to_check = [(23, 3, G5), (31, 3, G5), (390, 3, G5), (31, 3, G4), (113, 3, G5)]
    expected = [pair_report(k, s, kind) for k, s, kind in pairs_to_check]
    real_sin = pairs._fixed_neg_ln_sin
    monkeypatch.setattr(pairs, "_fixed_neg_ln_sin", _widened_at_64_bits(real_sin, 2**60))
    raised = _spy_raises(monkeypatch)
    assert [pair_report(k, s, kind) for k, s, kind in pairs_to_check] == expected
    assert raised == [(k, s, 128) for k, s, _ in pairs_to_check]
    assert expected[-1].bound_kf == 0  # (113, 3) fails survival
    assert not survives(113, 3, G5)
    # a 64-bit coefficient enclosure that does not exclude zero also rises,
    # once for the sign of c(k, s) and once for the floor
    monkeypatch.undo()
    monkeypatch.setattr(pairs, "_fixed_coefficient",
                        _widened_at_64_bits(pairs._fixed_coefficient, 2**64))
    raised = _spy_raises(monkeypatch)
    assert pair_report(31, 3, G5) == expected[1]
    assert raised == [(31, 3, 128)] * 2


@pytest.mark.parametrize("k, s", [(7, 3), (4, 4)])
def test_pair_floor_names_an_exceptional_pair_at_once(monkeypatch, k, s):
    # c(7, 3) < 0 is proven by its 64-bit bounds and c(4, 4) = 0 exactly:
    # pair_floor raises the ExceptionalPair of `_require_method_b` after one
    # bound of c(k, s), instead of walking the precision schedule
    real, asked = pairs._fixed_coefficient, []

    def spy(k, s, bits):
        asked.append((k, s, bits))
        return real(k, s, bits)

    monkeypatch.setattr(pairs, "_fixed_coefficient", spy)
    with pytest.raises(ExceptionalPair, match=rf"^\({k}, {s}\) is an exceptional pair"):
        pairs.pair_floor(k, s, G5)
    assert asked == [(k, s, fixed.FIXED_BITS)]


def test_bounds_that_never_settle_raise_naming_the_pair(monkeypatch):
    # bounds left open at every precision of the schedule, up to the cap,
    # raise UndecidableError naming the pair, never a sign or a floor
    real_coefficient, real_rhs = pairs._fixed_coefficient, pairs._fixed_rhs
    monkeypatch.setattr(pairs, "_fixed_coefficient", lambda k, s, bits=64: (-1, 1))
    raised = _spy_raises(monkeypatch)
    with pytest.raises(UndecidableError, match=r"^coefficient sign of \(23, 3\) undecided$"):
        coefficient_sign(23, 3)
    with pytest.raises(UndecidableError, match=r"^Method-B ratio of \(23, 3\) undecided$"):
        pairs.pair_floor(23, 3, G5)
    assert [bits for _, _, bits in raised] == [128, 256, 512, 1024, 2048, 4096] * 2
    # the true c(k, s), with rhs bounds a whole unit wide at every precision
    monkeypatch.setattr(pairs, "_fixed_coefficient", real_coefficient)

    def unit_wide(k, s, kind, bits=64):
        lo, hi = real_rhs(k, s, kind, bits)
        return lo - (1 << bits), hi + (1 << bits)

    monkeypatch.setattr(pairs, "_fixed_rhs", unit_wide)
    with pytest.raises(UndecidableError, match=r"^Method-B ratio of \(31, 3\) undecided$"):
        pairs.pair_floor(31, 3, G5)


def test_reproduce_all_never_needs_the_ratio_ball(monkeypatch):
    # at both k_max of the benchmark the 64-bit integer bounds settle
    # every coefficient sign and pair certificate: no precision rises, and
    # `pairs` encloses nothing but the 12 tail blocks per family past
    # k = 4096 (its `certified_floor` serves only `certified_floor_ratio`)
    from groundbound.reproduce import reproduce_all

    enclosed, certified = [], []

    def spy(name, log):
        real = getattr(pairs, name)

        def wrapper(*args, **kwargs):
            log.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pairs, name, wrapper)

    spy("eval_ball", enclosed)
    spy("certified_floor", enclosed)
    spy("pair_floor", certified)
    raised = _spy_raises(monkeypatch)
    for k_max, tail_blocks in ((2000, 0), (10**7, 24)):
        enclosed.clear()
        certified.clear()
        reproduce_all(k_max)
        assert len(certified) > 681 and len(enclosed) == tail_blocks, k_max
        assert raised == [], k_max


def _count_in_fresh_reproduce_all(setup: str, tmp_path, kmax: int = 2000) -> str:
    """Run `setup`, then `reproduce-all --kmax kmax`, in a fresh
    interpreter; return what the `count()` that `setup` defines gives
    after the run (which must exit 1, for the documented divergences)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = setup + f"""
from groundbound.cli import main

status = main(["reproduce-all", "--kmax", "{kmax}", "--out", sys.argv[1]])
print(count())
sys.exit(status)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "report.text")],
                          capture_output=True, text=True, env=env, timeout=900)
    assert proc.returncode == 1, proc.stderr
    return proc.stdout.splitlines()[-1]


# rebinds every module binding of the functions in `targets` (a dict of
# function -> spy factory) across the imported groundbound package
_REBIND = """
import importlib, pkgutil, sys
import groundbound

def rebind(targets):
    for info in pkgutil.walk_packages(groundbound.__path__, "groundbound."):
        importlib.import_module(info.name)
    spies = {id(real): make(real) for real, make in targets.items()}
    for name, module in list(sys.modules.items()):
        if name == "groundbound" or name.startswith("groundbound."):
            for attr, value in list(vars(module).items()):
                if id(value) in spies:
                    setattr(module, attr, spies[id(value)])
"""


@pytest.fixture(scope="module")
def eval_ball_callers(tmp_path_factory):
    """(calls of `eval_ball` from `bounds._fixed_ln_of`, calls from every
    other caller, least-N solves) in a fresh `reproduce-all --kmax 2000`
    with every module binding of `eval_ball` and `solve` spied."""
    setup = _REBIND + """
import sys
from groundbound import balls, bounds

ln_of, others, solves = [], [], []

def spying_eval_ball(real):
    def spy(*args, **kwargs):
        caller = sys._getframe(1).f_code
        (ln_of if caller is bounds._fixed_ln_of.__code__ else others).append(1)
        return real(*args, **kwargs)
    return spy

def spying_solve(real):
    def spy(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)
    return spy

rebind({balls.eval_ball: spying_eval_ball, bounds.solve: spying_solve})

def count():
    return f"{len(ln_of)} {len(others)} {len(solves)}"
"""
    text = _count_in_fresh_reproduce_all(setup, tmp_path_factory.mktemp("eval_ball"))
    return tuple(map(int, text.split()))


def test_eval_ball_budget_of_reproduce_all(eval_ball_callers):
    # beside the data of the least-N solves, a fresh `reproduce-all --kmax
    # 2000` evaluates at most 200 balls: report rendering (each distinct
    # decimal once per render), feasibility signs and two floors; no pair
    # certificate encloses anything.  The floor only shows that the spy
    # reached the calls.
    _, others, _ = eval_ball_callers
    assert 100 < others <= 200, others


def test_solve_data_take_one_enclosure_each(eval_ball_callers):
    # each least-N solve of `reproduce-all --kmax 2000` settles at 64 bits,
    # so it encloses ln R, ln B and ln S once each: 267 for the 89 solves
    ln_of, _, solves = eval_ball_callers
    assert solves == 89 and ln_of == 3 * solves, (ln_of, solves)


def test_fraction_budget_of_reproduce_all(tmp_path):
    # a fresh `reproduce-all --kmax 2000` constructs at most 1500
    # `fractions.Fraction`s, imports included (1447 counted; 2034 while
    # `CycloElement.inverse` and `polyint` ran over Q, 17073 while
    # `CycloElement` held Fraction coordinates): the field arithmetic of the
    # Method A bounds runs on integer numerators over one denominator.  The
    # floor only shows that the spy reached the calls.
    setup = """
import sys
from fractions import Fraction

real, calls = Fraction.__new__, []

def spy(cls, *args, **kwargs):
    calls.append(1)
    return real(cls, *args, **kwargs)

Fraction.__new__ = staticmethod(spy)

def count():
    return len(calls)
"""
    calls = int(_count_in_fresh_reproduce_all(setup, tmp_path))
    assert 1000 < calls <= 1500, calls


def test_one_kernel_cache_entry_per_value(tmp_path):
    # in a fresh `reproduce-all --kmax 10000000` every cached fixed-point
    # kernel holds one entry per distinct value requested of it: no call
    # site leans on a default precision that `functools.cache` would key
    # apart from an explicit one
    setup = _REBIND + """
import inspect
from groundbound import fixed

kernels = (fixed._fixed_ln, fixed._fixed_neg_ln_sin, fixed._ln2_fine)
requested = {kernel: set() for kernel in kernels}

def spying(kernel):
    signature = inspect.signature(kernel)
    def spy(*args, **kwargs):
        requested[kernel].add(tuple(signature.bind(*args, **kwargs).arguments.values()))
        return kernel(*args, **kwargs)
    return spy

rebind({kernel: spying for kernel in kernels})

def count():
    return " ".join(f"{k.cache_info().currsize}/{len(requested[k])}" for k in kernels)
"""
    counts = [tuple(map(int, pair.split("/")))
              for pair in _count_in_fresh_reproduce_all(setup, tmp_path, 10**7).split()]
    assert all(size == distinct for size, distinct in counts), counts
    assert counts[0][0] >= 564, counts  # at least the scan table's primes
