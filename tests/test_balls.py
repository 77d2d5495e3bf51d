import functools
import random
from fractions import Fraction

import mpmath
import pytest

from groundbound import balls
from groundbound.balls import (
    EQUAL,
    GREATER,
    LESS,
    PI,
    UNDECIDED,
    Add,
    Const,
    Div,
    E,
    ExpNode,
    Ln,
    Mul,
    Neg,
    Pow,
    Sin,
    Sqrt,
    Sub,
    certify_compare,
    eval_ball,
    exact_value,
)
from groundbound.balls import AlgConst
from groundbound.cyclo import CycloElement
from groundbound.errors import DomainError, UndecidableError

from enclosures import encloses, ends

# frozen oracle value: ln(4/3) at 60 digits via mpmath
LN_4_3 = Fraction("0.287682072451780927439219005993827431503509710897761056506666")


def _width(ball):
    lo, hi = ends(ball)
    return hi - lo


def test_pi_ball_tight():
    ball = eval_ball(PI, 64)
    assert _width(ball) < Fraction(2, 2**60)
    with mpmath.mp.workprec(200):
        man, exp = (+mpmath.mp.pi).man_exp  # within 2^-200 of pi
    pi_ref = Fraction(man) * Fraction(2) ** exp
    assert encloses(ball, pi_ref)


def test_ln_one_exact_zero():
    ball = eval_ball(Ln(Const(Fraction(1))), 64)
    assert encloses(ball, 0)
    assert exact_value(Ln(Const(Fraction(1)))) == 0


def test_ln2_minus_ln32_128_bits():
    expr = Sub(Ln(Const(Fraction(2))), Ln(Const(Fraction(3, 2))))
    ball = eval_ball(expr, 128)
    assert _width(ball) < Fraction(2, 2**120)
    assert encloses(ball, LN_4_3)


def test_containment_across_precisions():
    for expr in (Mul(Sin(Div(PI, Const(Fraction(3)))), Sin(Div(PI, Const(Fraction(3))))),
                 Sqrt(Const(Fraction(9, 4))),
                 Sub(Ln(Const(Fraction(2))), Ln(Const(Fraction(3, 2))))):
        lo64, hi64 = ends(eval_ball(expr, 64))
        lo256, hi256 = ends(eval_ball(expr, 256))
        assert lo64 <= lo256 and hi256 <= hi64
    # known closed forms are contained
    assert encloses(eval_ball(Sqrt(Const(Fraction(9, 4))), 64), Fraction(3, 2))
    sin2 = Mul(Sin(Div(PI, Const(Fraction(3)))), Sin(Div(PI, Const(Fraction(3)))))
    assert encloses(eval_ball(sin2, 64), Fraction(3, 4))


def test_compare_examples():
    assert certify_compare(Const(Fraction(3, 4)), Const(Fraction(1))) == LESS
    coeff = (
        Ln(Const(Fraction(2)))
        - Div(Ln(Const(Fraction(31))), Const(Fraction(30)))
        - Div(Ln(Const(Fraction(3))), Const(Fraction(2)))
    )
    assert certify_compare(coeff, Const(Fraction(0))) == GREATER
    sin2 = Mul(Sin(Div(PI, Const(Fraction(3)))), Sin(Div(PI, Const(Fraction(3)))))
    assert certify_compare(sin2, Const(Fraction(3, 4))) == EQUAL


def test_monotone_certification():
    # the sign an enclosure certifies does not depend on the precision the
    # evaluation starts at; callers start at 64, 192 and other values
    diff = Sub(Ln(Const(Fraction(2))), Const(Fraction(7, 10)))
    assert certify_compare(diff, 0) == LESS
    for bits in (64, 128, 192, 256, 1024):
        ball = eval_ball(diff, bits, accept=lambda b: b.certainly_positive() or b.certainly_negative())
        assert ball.precision_bits == bits and ball.certainly_negative()


def test_undecided_at_cap():
    # ln(4) and 2 ln(2) denote the same transcendental; intervals never separate
    assert certify_compare(
        Ln(Const(Fraction(4))), Const(Fraction(2)) * Ln(Const(Fraction(2))),
        cap_bits=256,
    ) == UNDECIDED


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_ball(Ln(Const(Fraction(-1))), 64)
    with pytest.raises(DomainError):
        eval_ball(Sqrt(Const(Fraction(-4))), 64)


def test_rational_power():
    ball = eval_ball(Pow(Const(Fraction(8)), Fraction(2, 3)), 64)
    assert encloses(ball, 4)
    assert exact_value(Pow(Const(Fraction(3, 2)), Fraction(2))) == Fraction(9, 4)


def test_exp_identity():
    assert exact_value(ExpNode(Const(Fraction(0)))) == 1
    ball = eval_ball(ExpNode(Const(Fraction(1))) - E, 64)
    assert encloses(ball, 0)


LEAF_MEMOS = (balls._ratio, balls._e, balls._beta, balls._ln_ratio)


def _leafy_expr():
    """Every memoized leaf kind (rationals, e, 2cos(2pi/n), ln q), with
    sin(pi/q) and ln sin(pi/q) evaluated node by node."""
    return (
        E * Ln(Const(Fraction(7, 3)))
        - Sin(Div(PI, Const(Fraction(31))))
        + AlgConst(CycloElement.cos2pi(1, 7))
        + Const(Fraction(-5, 11)) * Ln(Sin(Div(PI, Const(Fraction(9)))))
    )


def test_global_interval_precision_untouched(monkeypatch):
    from mpmath.ctx_iv import MPIntervalContext

    writes = []
    prec = MPIntervalContext.prec

    def recording_setter(ctx, n):
        if ctx is mpmath.iv:
            writes.append(n)
        prec.fset(ctx, n)

    monkeypatch.setattr(MPIntervalContext, "prec", property(prec.fget, recording_setter))
    before = mpmath.iv.prec
    eval_ball(_leafy_expr(), 256)
    assert certify_compare(_leafy_expr(), Const(Fraction(1, 3))) in (LESS, GREATER)
    assert certify_compare(Ln(Const(Fraction(4))), Const(Fraction(2)) * Ln(Const(Fraction(2))),
                           cap_bits=256) == UNDECIDED
    assert writes == []
    assert mpmath.iv.prec == before


def test_endpoints_independent_of_global_interval_precision():
    old = mpmath.iv.prec
    try:
        seen = set()
        for prec in (10, 53, 300, 2000):
            mpmath.iv.prec = prec
            for bits in (64, 192):
                seen.add((bits, ends(eval_ball(_leafy_expr(), bits))))
        assert len(seen) == 2
    finally:
        mpmath.iv.prec = old


def test_memoized_leaves_match_fresh_evaluation():
    expr = _leafy_expr()
    warm = [ends(eval_ball(expr, bits)) for bits in (64, 128, 1024)]
    warm_again = [ends(eval_ball(expr, bits)) for bits in (64, 128, 1024)]
    for memo in LEAF_MEMOS:
        memo.cache_clear()
    cold = [ends(eval_ball(expr, bits)) for bits in (64, 128, 1024)]
    assert warm == warm_again == cold
    assert all(lo < hi for lo, hi in cold)


def test_leaf_caches_are_bounded():
    for memo in LEAF_MEMOS:
        assert memo.cache_info().maxsize == balls.LEAF_CACHE_SIZE


# pi - q with q the 50-digit truncation of pi is about 5.8e-51, so its
# enclosure straddles zero below about 170 bits and sqrt is inconclusive
PI_TRUNCATION = Fraction(314159265358979323846264338327950288419716939937510, 10**50)


def _recording_precisions(monkeypatch):
    """Working precision of every node evaluation (the evaluator recurses
    through its module-level name, so every node is recorded)."""
    asked = []
    original = balls._iv_eval

    def recording(expr, prec):
        asked.append(prec)
        return original(expr, prec)

    monkeypatch.setattr(balls, "_iv_eval", recording)
    return asked


def test_no_evaluation_above_the_compare_cap(monkeypatch):
    asked = _recording_precisions(monkeypatch)
    near_zero = Sqrt(PI - Const(PI_TRUNCATION))
    tie = (Ln(Const(Fraction(4))), Const(Fraction(2)) * Ln(Const(Fraction(2))))
    for cap in (64, 128, 256, 512):
        asked.clear()
        expected = UNDECIDED if cap < 256 else GREATER
        assert certify_compare(near_zero, 0, cap_bits=cap) == expected
        assert certify_compare(*tie, cap_bits=cap) == UNDECIDED
        assert asked and max(asked) <= cap + 16


def test_one_evaluation_settles_a_compare(monkeypatch):
    # sqrt(pi - q) with q = pi to 30 digits is inconclusive at 64 bits; c
    # agrees with it to 35 digits, so the difference straddles zero at 128
    # bits and separates at 256: no evaluation is done twice on the way
    with mpmath.workdps(120):
        q = Fraction(int(mpmath.pi * 10**30), 10**30)
        c = Fraction(mpmath.nstr(mpmath.sqrt(mpmath.pi - mpmath.mpf(q.numerator) / q.denominator), 35))
    calls = []
    original = balls.eval_ball

    def spy(*args, **kwargs):
        ball = original(*args, **kwargs)
        calls.append(ball.precision_bits)
        return ball

    monkeypatch.setattr(balls, "eval_ball", spy)
    assert certify_compare(Sqrt(PI - Const(q)), Const(c)) in (LESS, GREATER)
    assert calls == [256]


def test_eval_ball_accept_and_cap():
    near_zero = PI - Const(PI_TRUNCATION)
    ball = eval_ball(near_zero, 64, accept=lambda b: b.certainly_positive())
    assert ball.certainly_positive() and ball.precision_bits == 256
    # the error names the last reason the walk went on
    with pytest.raises(UndecidableError, match="the enclosure is too wide$"):
        eval_ball(near_zero, 64, cap_bits=128, accept=lambda b: b.certainly_positive())
    with pytest.raises(UndecidableError, match="sqrt argument not certified nonnegative$"):
        eval_ball(Sqrt(near_zero), 64, cap_bits=128)
    with pytest.raises(UndecidableError, match="the start precision is above the cap$"):
        eval_ball(PI, 256, cap_bits=128)


def test_one_precision_schedule(monkeypatch):
    # `precisions` doubles from the start while at most the cap; `settle`
    # is the one walk of it, for `eval_ball` and for the integer
    # certificates of `bounds` and `pairs`
    from groundbound import bounds, pairs

    assert list(balls.precisions()) == [64, 128, 256, 512, 1024, 2048, 4096]
    assert list(balls.precisions(96, 400)) == [96, 192, 384]
    assert list(balls.precisions(256, 128)) == []
    assert pairs.settle is balls.settle and bounds.settle is balls.settle
    walked = []
    real = balls.precisions

    def spy(*args):
        for bits in real(*args):
            walked.append(bits)
            yield bits

    monkeypatch.setattr(balls, "precisions", spy)
    settles = []
    real_settle = balls.settle

    def settle_spy(attempt, undecided, cap_bits=balls.DEFAULT_CAP_BITS,
                   start_bits=balls.DEFAULT_START_BITS):
        settles.append((cap_bits, start_bits))
        return real_settle(attempt, undecided, cap_bits, start_bits)

    monkeypatch.setattr(balls, "settle", settle_spy)
    near_zero = PI - Const(PI_TRUNCATION)
    ball = eval_ball(near_zero, 64, accept=lambda b: b.certainly_positive())
    assert walked == [64, 128, 256] and ball.precision_bits == 256
    walked.clear()
    assert eval_ball(near_zero, 128, 512).precision_bits == 128 and walked == [128]
    assert settles == [(4096, 64), (512, 128)]
    walked.clear()
    assert balls.settle(lambda bits: bits if bits >= 256 else None, "open") == 256
    assert walked == [64, 128, 256]
    with pytest.raises(UndecidableError, match="^open$"):
        balls.settle(lambda bits: None, "open", cap_bits=128)
    assert walked[3:] == [64, 128]


def _power_range(lo: Fraction, hi: Fraction, k: int):
    """The exact range of x^k over [lo, hi]: x^k is monotone on either side
    of 0, and an even power of an interval holding 0 reaches 0."""
    a, b = lo**k, hi**k
    if lo < 0 < hi and k % 2 == 0 and k:
        return Fraction(0), max(a, b)
    return min(a, b), max(a, b)


def test_integer_powers_enclose_the_exact_power():
    # positive, negative and zero-straddling enclosures, k = -5..20 and
    # 2^16: the exact Fraction range lies inside, an even power never has
    # a negative lower end, and a power of a point is at most a few units
    # of its prec-bit mantissa wide
    rng = random.Random(4096)
    intervals = [(3, 5, 0), (-5, -3, 0), (-3, 5, 0), (-5, 3, -1), (0, 7, -2), (-7, 0, 2),
                 (1, 1, -1), (-1, -1, 0), (0, 0, 0)]
    for _ in range(12):
        a, b = sorted(rng.randint(-2**70, 2**70) for _ in range(2))
        intervals.append((a, b, rng.randint(-90, 20)))
        m = rng.randint(2**69, 2**70)
        intervals.append((m, m, rng.randint(-90, 20)))
    for prec in (80, 144):
        for lo, hi, e in intervals:
            x_lo, x_hi = Fraction(lo) * Fraction(2) ** e, Fraction(hi) * Fraction(2) ** e
            for k in [*range(-5, 21), 2**16]:
                if k < 0 and lo <= 0 <= hi:
                    with pytest.raises(balls._Inconclusive):
                        balls._pow_int((lo, hi, e), k, prec)
                    continue
                if k == 2**16 and max(-lo, hi) >= 2**8:
                    continue  # the exact 2^16th powers of small ends are enough
                a, b, f = balls._pow_int((lo, hi, e), k, prec)
                p_lo, p_hi = _power_range(x_lo, x_hi, k)
                assert a * Fraction(2) ** f <= p_lo and p_hi <= b * Fraction(2) ** f, (lo, hi, e, k)
                assert k % 2 or a >= 0, (lo, hi, e, k)
                if lo == hi and lo:
                    assert b - a <= 16 and max(-a, b).bit_length() <= prec, (lo, e, k)


def test_ln_with_a_shift_encloses_the_oracle():
    # ln(num/den 2^shift): a huge shift is added to a multiple of ln 2, and
    # a value within a factor 4 of 1 gets the extra bits ln needs there;
    # the enclosure lies inside the 512-bit oracle and is at most a few
    # units of 2^-prec of |ln| wide
    iv = _oracle_context(512)
    cases = [(3, 7, 10**20), (3, 7, -10**20), (10**30 + 1, 10**30, 10**20),
             (2**64 - 1, 1, -(10**20)), (2**200 + 1, 1, -200), (2**200 - 1, 1, -200),
             (3, 1, -1), (1, 3, 1), (5, 3, 1), (7, 1, -1), (1, 7, 2), (3**40, 2**63, 0),
             (2**80 + 3**20, 2**80, 0), (10**9, 10**9 + 1, 0)]
    for prec in (64, 128):
        for num, den, shift in cases:
            lo, hi, f = balls._ln_bounds(num, den, prec, shift)
            v_lo, v_hi = _iv_ends(iv.log(iv.mpf(num) / iv.mpf(den)) + shift * iv.log(2))
            scale = Fraction(2) ** f
            assert lo * scale <= v_lo and v_hi <= hi * scale, (num, den, shift, prec)
            assert (hi - lo) * scale <= abs(v_lo) * Fraction(2) ** (8 - prec), (num, den, shift, prec)
        assert balls._ln_bounds(5, 5 << 7, prec, 7) == balls.ZERO_IV


def test_exact_algebraic_sign_may_exceed_the_cap():
    # 2cos(2pi/7) > 0 is an exact algebraic sign: it separates at 64 bits
    # even under a 32-bit cap, within the sixteenfold allowance
    beta7 = AlgConst(CycloElement.generator(7))
    assert certify_compare(beta7, 0, cap_bits=32) == GREATER
    assert certify_compare(Ln(Const(Fraction(2))), 0, cap_bits=32) == UNDECIDED


def test_certify_sign_takes_no_exact_difference_with_zero(monkeypatch):
    # the sign of an exact algebraic value is taken of the value itself,
    # not of value - 0 in cyclotomic arithmetic
    subtractions = []
    real_sub = CycloElement.__sub__

    def counting(self, other):
        subtractions.append(other)
        return real_sub(self, other)

    monkeypatch.setattr(CycloElement, "__sub__", counting)
    beta7 = CycloElement.generator(7)
    assert balls.certify_sign(AlgConst(beta7)) == GREATER
    assert balls.certify_sign(AlgConst(-beta7)) == LESS
    assert subtractions == []
    # the same enclosure, hence the same outcome, for a tree that is not exact
    assert balls.certify_sign(Ln(Const(Fraction(2))) - Const(Fraction(2, 3))) == GREATER
    assert certify_compare(AlgConst(beta7), Const(Fraction(1))) == GREATER
    assert len(subtractions) == 1


def test_certified_floor_shared_by_pairs_and_polytopes():
    from groundbound import pairs, polytopes

    assert polytopes.certified_floor is balls.certified_floor
    num, den = Ln(Const(Fraction(100))), Ln(Const(Fraction(3)))
    assert pairs.certified_floor_ratio(num, den) == balls.certified_floor(num / den) == 4
    assert balls.certified_floor(Const(Fraction(-7, 2))) == -4
    # an exact integer is floored on the exact path; an interval cannot
    assert balls.certified_floor(Sqrt(Const(Fraction(16)))) == 4
    with pytest.raises(UndecidableError):
        balls.certified_floor(Ln(Const(Fraction(4))) / Ln(Const(Fraction(2))))


def test_certified_floor_of_a_huge_value_names_its_size():
    # a floor above 2^20 bits is not built: 10^(10^20) and the exact point
    # 2^(10^20) are undecidable with their size named, not a MemoryError
    for base, bits in ((10, "332192809488736234788"), (2, "100000000000000000001")):
        with pytest.raises(UndecidableError, match=f"about {bits} bits"):
            balls.certified_floor(Pow(Const(Fraction(base)), Fraction(10**20)))
    assert balls.certified_floor(Pow(Const(Fraction(10)), Fraction(-10**20))) == 0


def test_const_and_pow_take_an_int_as_a_fraction():
    # an int leaf or exponent is stored as the Fraction `as_expr` would
    # build, so the exact path and the floors see a rational
    assert certify_compare(Const(2), Const(3)) == LESS
    assert balls.certified_floor(Pow(Const(10), 3)) == 1000
    assert Const(2) == Const(Fraction(2)) and hash(Const(2)) == hash(Const(Fraction(2)))
    assert type(Const(2).value) is Fraction and type(Pow(PI, 3).exponent) is Fraction
    for bad in (2.0, "2", None):
        with pytest.raises(TypeError):
            Const(bad)
        with pytest.raises(TypeError):
            Pow(PI, bad)


# -- the mpmath.iv oracle ----------------------------------------------------
#
# The evaluator written on mpmath's interval context (`mpmath.ctx_iv`),
# every node through the ivmpf object layer and every leaf computed afresh.
# `balls._iv_eval` works on integer endpoints and must give the same
# inconclusive/domain outcomes, enclosures that hold the oracle's at twice
# the precision, and widths within twice the oracle's at the same one.

ORACLE_PRECISIONS = (64, 80, 192, 1040, 4112)


@functools.cache
def _oracle_context(prec):
    from mpmath.ctx_iv import MPIntervalContext

    iv = MPIntervalContext()
    iv.prec = prec
    return iv


def _oracle_fraction(q, iv):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def _oracle_cyclo(x, iv):
    beta = 2 * iv.cos(2 * iv.pi / x.n)
    acc = iv.mpf(0)
    for c in reversed(x.coeffs):
        acc = acc * beta + _oracle_fraction(c, iv)
    return acc


def _oracle_eval(expr, iv):
    if isinstance(expr, Const):
        return _oracle_fraction(expr.value, iv)
    if isinstance(expr, AlgConst):
        return _oracle_cyclo(expr.value, iv)
    if expr is PI:
        return +iv.pi
    if expr is E:
        return +iv.e
    if isinstance(expr, Add):
        return _oracle_eval(expr.left, iv) + _oracle_eval(expr.right, iv)
    if isinstance(expr, Sub):
        return _oracle_eval(expr.left, iv) - _oracle_eval(expr.right, iv)
    if isinstance(expr, Mul):
        return _oracle_eval(expr.left, iv) * _oracle_eval(expr.right, iv)
    if isinstance(expr, Div):
        denom = _oracle_eval(expr.right, iv)
        if denom.a <= 0 <= denom.b:
            raise balls._Inconclusive("division by an interval containing zero")
        return _oracle_eval(expr.left, iv) / denom
    if isinstance(expr, Neg):
        return -_oracle_eval(expr.arg, iv)
    if isinstance(expr, Sqrt):
        arg = _oracle_eval(expr.arg, iv)
        if arg.b < 0:
            raise DomainError("sqrt of a certified-negative value")
        if arg.a < 0:
            raise balls._Inconclusive("sqrt argument not certified nonnegative")
        return iv.sqrt(arg)
    if isinstance(expr, Ln):
        if isinstance(expr.arg, Const):
            if expr.arg.value <= 0:
                raise DomainError("ln of a certified-nonpositive value")
            return iv.log(_oracle_fraction(expr.arg.value, iv))
        arg = _oracle_eval(expr.arg, iv)
        if arg.b <= 0:
            raise DomainError("ln of a certified-nonpositive value")
        if arg.a <= 0:
            raise balls._Inconclusive("ln argument not certified positive")
        return iv.log(arg)
    if isinstance(expr, ExpNode):
        return iv.exp(_oracle_eval(expr.arg, iv))
    if isinstance(expr, Sin):
        arg = expr.arg
        if isinstance(arg, Div) and arg.left is PI \
                and isinstance(arg.right, Const) and arg.right.value != 0:
            return iv.sin(+iv.pi / _oracle_fraction(arg.right.value, iv))
        return iv.sin(_oracle_eval(arg, iv))
    if isinstance(expr, Pow):
        arg = _oracle_eval(expr.arg, iv)
        e = expr.exponent
        if e.denominator == 1:
            k = e.numerator
            if k < 0 and arg.a <= 0 <= arg.b:
                raise balls._Inconclusive("negative power of an interval containing zero")
            return arg**k
        if arg.b < 0:
            raise DomainError("rational power of a certified-negative value")
        if arg.a <= 0:
            raise balls._Inconclusive("rational power argument not certified positive")
        return iv.exp(iv.log(arg) * _oracle_fraction(e, iv))
    raise TypeError(f"unknown expression node {expr!r}")


def _outcome(evaluate):
    try:
        return evaluate()
    except balls._Inconclusive:
        return "inconclusive"
    except DomainError:
        return "domain"


# wider than every oracle precision, so both integers are rounded outward
# before the division at all of them
WIDE_RATIONAL = Fraction(3**2700 + 1, 2**4300 + 7)


def _random_tree(rng, depth):
    """A random expression; leaves and operators are drawn so that the
    corpus reaches zero-straddling denominators, negative ln and sqrt
    arguments and every special-cased leaf."""
    leaves = (
        lambda: Const(Fraction(rng.randint(-9, 9), rng.randint(1, 7))),
        lambda: Const(rng.choice((PI_TRUNCATION, WIDE_RATIONAL, -WIDE_RATIONAL))),
        lambda: AlgConst(CycloElement.cos2pi(rng.randint(1, 4), rng.choice((5, 7, 9, 12)))
                         + Fraction(rng.randint(-3, 3), 2)),
        lambda: PI,
        lambda: E,
        lambda: Ln(Const(Fraction(rng.randint(-2, 40), rng.randint(1, 9)))),
        lambda: Sin(Div(PI, Const(Fraction(rng.choice((-7, 0, 3, 5, 31)), rng.randint(1, 3))))),
        lambda: Ln(Sin(Div(PI, Const(Fraction(rng.choice((-7, 0, 1, 3, 31)), rng.randint(1, 3)))))),
    )
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)()
    sub = lambda: _random_tree(rng, depth - 1)  # noqa: E731
    return rng.choice((
        lambda: Add(sub(), sub()),
        lambda: Sub(sub(), sub()),
        lambda: Mul(sub(), sub()),
        lambda: Div(sub(), sub()),
        lambda: Neg(sub()),
        lambda: Sqrt(sub()),
        lambda: Ln(sub()),
        lambda: ExpNode(Div(sub(), Const(Fraction(rng.randint(4, 40))))),
        lambda: Sin(sub()),
        lambda: Pow(sub(), Fraction(rng.randint(0, 5))),
        lambda: Pow(sub(), Fraction(-rng.randint(1, 4))),
        lambda: Pow(sub(), Fraction(rng.choice((1, -1, 5, 7)), rng.randint(2, 6))),
    ))()


def _node_kinds(expr, out):
    """The evaluator paths `expr` takes; ln q is a leaf."""
    if isinstance(expr, Ln) and isinstance(expr.arg, Const):
        out.add("Ln(Const)")
        return out
    kind = type(expr).__name__
    if isinstance(expr, Pow):
        e = expr.exponent
        kind = "Pow rational" if e.denominator != 1 else "Pow k<0" if e < 0 else "Pow k>=0"
    out.add(kind)
    for child in ("left", "right", "arg"):
        if hasattr(expr, child):
            _node_kinds(getattr(expr, child), out)
    return out


def test_tuple_evaluator_matches_the_interval_context_oracle():
    rng = random.Random(20260)
    # ln sin(pi/q) trees that enclose, straddle zero (q = 1) and leave the domain
    ln_sin_leaves = [Ln(Sin(Div(PI, Const(Fraction(q))))) for q in (3, Fraction(31, 2), 1, -7)]
    corpus = [_random_tree(rng, 3) for _ in range(120)] + [_leafy_expr()] + ln_sin_leaves
    kinds = set()
    for expr in corpus:
        _node_kinds(expr, kinds)
    assert kinds >= {
        "Const", "AlgConst", "_PiConst", "_EConst", "Add", "Sub", "Mul",
        "Div", "Neg", "Sqrt", "Ln", "Ln(Const)", "ExpNode", "Sin",
        "Pow k>=0", "Pow k<0", "Pow rational",
    }
    for prec in ORACLE_PRECISIONS:
        iv, iv_fine = _oracle_context(prec), _oracle_context(2 * prec)
        outcomes = set()
        for expr in corpus:
            ours = _outcome(lambda: balls._iv_eval(expr, prec))
            oracle = _outcome(lambda: _oracle_eval(expr, iv))
            kind = ours if isinstance(ours, str) else "enclosure"
            assert kind == (oracle if isinstance(oracle, str) else "enclosure"), (prec, str(expr))
            outcomes.add(kind)
            if kind != "enclosure":
                continue
            lo, hi = ends(balls.Ball(*ours, prec))
            fine_lo, fine_hi = _iv_ends(_oracle_eval(expr, iv_fine))
            assert lo <= fine_lo and fine_hi <= hi, (prec, str(expr))
            oracle_lo, oracle_hi = _iv_ends(oracle)
            assert hi - lo <= 2 * (oracle_hi - oracle_lo), (prec, str(expr))
        assert outcomes == {"enclosure", "inconclusive", "domain"}, prec
        leaf_outcomes = [_outcome(lambda: balls._iv_eval(leaf, prec))
                         for leaf in ln_sin_leaves]
        assert [o if isinstance(o, str) else "enclosure" for o in leaf_outcomes] == [
            "enclosure", "enclosure", "inconclusive", "domain"], prec


def _iv_ends(value):
    """The exact ends of an mpmath interval."""
    out = []
    for sign, man, exp, _ in value._mpi_:
        out.append((-1) ** sign * Fraction(int(man)) * Fraction(2) ** exp)
    return out


def _concrete_node_types():
    out, todo = [], [balls.Expr]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls not in (balls.Expr, balls._Binary, balls._Unary):
            out.append(cls)
    return out


def test_every_node_survives_copy_and_pickle():
    import copy
    import pickle

    from groundbound.balls import AlgConst
    from groundbound.cyclo import CycloElement

    leaf = AlgConst(CycloElement.cos2pi(1, 5) * 2 + 2)
    arg = Const(Fraction(3, 7))
    samples = [Const(Fraction(-5, 3)), leaf, PI, E, Pow(leaf, Fraction(-2, 3))]
    samples += [cls(arg, leaf) for cls in (Add, Sub, Mul, Div)]
    samples += [cls(Mul(arg, PI)) for cls in (Neg, Sqrt, Ln, ExpNode, Sin)]
    assert {type(x) for x in samples} == set(_concrete_node_types())
    nested = Ln(Add(Mul(Const(Fraction(2)), E), Sqrt(Div(leaf, PI))))
    for x in samples + [nested]:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x), x
            assert str(y) == str(x)
    assert pickle.loads(pickle.dumps(PI)) is PI and copy.deepcopy(E) is E


# -- the evaluator's sqrt, rational powers and decimals against mpmath ------


def _mpmath_value(expr, prec):
    """`expr` (Const leaves, Sqrt, Pow, Mul, PI, E) as an mpmath interval
    at `prec` bits."""
    return _oracle_eval(expr, _oracle_context(prec))


def test_sqrt_and_rational_powers_enclose_the_oracle():
    # every enclosure holds mpmath's at twice the working precision and is
    # at most 16 units of its (bits + 16)-bit mantissa wide; an exact
    # square root is exact
    rng = random.Random(1414)
    exponents = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(-7, 3), Fraction(11, 2))
    for bits in (64, 192, 1024):
        prec = bits + 16
        for _ in range(30):
            q = Fraction(rng.randint(1, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** rng.randint(1, 40)))
            for expr in [Sqrt(Const(q))] + [Pow(Const(q), e) for e in exponents]:
                ball = eval_ball(expr, bits)
                lo, hi = ends(ball)
                fine_lo, fine_hi = _iv_ends(_mpmath_value(expr, 2 * prec))
                assert lo <= fine_lo and fine_hi <= hi, (bits, str(expr))
                assert max(-ball.lo, ball.hi).bit_length() <= prec and ball.hi - ball.lo <= 16, \
                    (bits, str(expr))
        for root in (1, 3, 2**39 + 1, 3**24):  # squares of at most 80 bits
            exact = Fraction(root, 2**5)
            assert ends(eval_ball(Sqrt(Const(exact * exact)), bits)) == (exact, exact), root


def test_sin_and_cos_of_an_interval_hold_its_extrema():
    # on [a, b] sin and cos reach +-1 wherever a multiple of pi/2 of the
    # right parity lies inside; the enclosure holds the exact range
    for a8 in range(-80, 80, 3):
        for width8 in (1, 5, 13, 30, 60):
            a, b = Fraction(a8, 8), Fraction(a8 + width8, 8)
            x = (a8, a8 + width8, -3)
            for quarter, f, extremum in ((0, mpmath.sin, Fraction(1, 2)), (1, mpmath.cos, Fraction(0))):
                lo, hi = ends(balls.Ball(*balls._trig(x, 80, quarter), 64))
                with mpmath.workprec(200):
                    ma, mb = mpmath.mpf(a8) / 8, mpmath.mpf(a8 + width8) / 8
                    values = [f(ma), f(mb)]
                    j = int(mpmath.ceil(ma / mpmath.pi - float(extremum)))
                    while (j + extremum) * mpmath.pi <= mb:
                        values.append(mpmath.mpf((-1) ** j))
                        j += 1
                    low, high = min(values), max(values)
                low, high = Fraction(*_ratio_of(low)), Fraction(*_ratio_of(high))
                assert lo <= low and high <= hi, (a, b, quarter)
                assert hi - lo <= high - low + Fraction(1, 2**60), (a, b, quarter)


def _ratio_of(x):
    """(numerator, denominator) of an mpf."""
    man, exp = x.man_exp
    man = -man if x < 0 else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _decimal_cases():
    """Exact and irrational values from about 1e-20 to 1e30, both signs,
    zero, integers, values next to both ends of fixed notation and values
    that round up to the next power of ten."""
    rng = random.Random(1212)
    cases = [Const(Fraction(0)), Const(Fraction(7)), Const(Fraction(-3)),
             Const(Fraction(10**11)), Const(Fraction(10**12)), Const(Fraction(-10**12 + 1))]
    for k in range(-21, 31):
        scale = Const(Fraction(10) ** k)
        cases += [PI * scale, Sqrt(Const(Fraction(2))) * scale, -(E / scale),
                  Const(Fraction(rng.randint(10**20, 10**40), 10**30) * Fraction(10) ** k)]
    for k in (-10002, -10001, -10000, 9999, 10000, 10001):  # both sides of the decimal scale
        cases += [PI * Const(Fraction(10) ** k), -(E / Const(Fraction(10) ** k))]
    for k in (-6, -5, -4, 11, 12):  # both notation boundaries, and the carry into them
        for digits in ("1", "9999999999999", "99999999999949", "123456789012345"):
            value = Fraction(int(digits), 10 ** (len(digits) - 1)) * Fraction(10) ** k
            cases += [Const(value), Const(-value), Const(value) + Const(Fraction(1, 10**40))]
    return cases


def test_ball_str_matches_mpmath_nstr():
    # the correctly rounded 12-digit decimal, in mpmath's layout: fixed
    # notation for decimal exponents -5 < x < 12, else d.ddd...e+x
    for expr in _decimal_cases():
        value = _mpmath_value(expr, 600)
        with mpmath.workprec(600):
            expected = mpmath.nstr(mpmath.mp.make_mpf(value.mid._mpi_[0]), 12, strip_zeros=False)
        assert balls.ball_str(expr) == expected, str(expr)
    assert balls.ball_str(Const(Fraction(0))) == "0.0"
    assert balls.ball_str(Const(Fraction(10**12))) == "1.00000000000e+12"
    assert balls.ball_str(Const(Fraction(-10**11))) == "-100000000000."
    assert balls.ball_str(Const(Fraction(1, 10**5))) == "1.00000000000e-5"
    assert balls.ball_str(Const(Fraction(1, 10**4))) == "0.000100000000000"
    # a value on a rounding tie never settles: the 192-bit midpoint is
    # printed; an exact zero reached through a tree that is not exact
    # never settles either, and prints as the zero it is
    assert balls.ball_str(Const(Fraction(10**13 + 5, 10**13))) in ("1.00000000000", "1.00000000001")
    assert balls.ball_str(Sin(PI)) == "0.0"


def test_ln_of_huge_and_tiny_values():
    # ln(m 2^e) is ln(m 2^-s) + (e + s) ln 2: a binary exponent near
    # +-3.3e20 or 1.4e30 shifts no integer, and 10^(10^20) is left to the
    # enclosures by the exact path
    assert exact_value(Pow(Const(Fraction(10)), Fraction(10**20))) is None
    assert exact_value(Pow(Const(Fraction(10)), Fraction(-3))) == Fraction(1, 1000)
    with mpmath.mp.workprec(300):
        cases = [
            (Pow(Const(Fraction(10)), Fraction(10**20)), 10**20 * mpmath.log(10)),
            (Pow(Const(Fraction(10)), Fraction(-10**20)), -(10**20) * mpmath.log(10)),
            (ExpNode(Const(Fraction(10**30))), mpmath.mpf(10**30)),
        ]
        for x, value in cases:
            ball = eval_ball(Ln(x), 64)
            man, exp = abs(value).man_exp  # the mantissa carries no sign
            ref = Fraction(man) * Fraction(2) ** exp * (1 if value > 0 else -1)
            assert encloses(ball, ref), x
            assert _width(ball) <= abs(ref) / 2**56, x
