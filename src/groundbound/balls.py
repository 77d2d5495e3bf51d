"""Certified real evaluation: expression trees, interval balls, comparisons.

Expressions are immutable trees over exact leaves (rationals, cyclotomic
elements, pi, e) with ln/exp/sqrt/sin and rational-power nodes.
`eval_ball` encloses the exact value between two integer endpoints over
one power of two, [lo 2^e, hi 2^e], rounded outward at every node, with
one kernel per operation: the ring operations and integer powers on
`_add`, `_mul` and `_div`, ln (with a binary shift) by `fixed._ln_fine`,
exp reduced by ln 2, sin and cos reduced by pi/2, pi by Machin's formula,
and sqrt on `math.isqrt`.  `settle` is the one walk of the one precision
schedule, `precisions` (64, 128, ... bits): `eval_ball` rises along it
until its caller accepts the enclosure, never above the caller's cap, and
so do the integer certificates of `bounds` and `pairs`.  `certify_compare`
decides orderings with it (with an exact path for algebraic equalities),
`certified_floor` rounds down with it and `ball_str` prints the correctly
rounded decimal it settles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .cyclo import CycloElement
from .errors import DomainError, UndecidableError
from .fixed import (
    EQUAL, FIXED_BITS, GREATER, LESS, LN_GUARD_BITS, UNDECIDED,
    _exp_fine, _ln_fine, _pi_fine, _shifted, _trig_fine,
)
from .frozen import Frozen, set_field

# the first rung of every schedule is the fixed-point unit of the integer certificates
DEFAULT_START_BITS = FIXED_BITS
DEFAULT_CAP_BITS = 4096
BALL_STR_DIGITS = 12
BALL_STR_BITS = 192
_BALL_STR_SCALE = 10**4  # decimal exponents beyond which `ball_str` prints a scaled value
_EXACT_POWER_BITS = 1 << 20  # the largest power `exact_value` or floor `floor_of` computes


class Ball(Frozen):
    """Interval enclosure [lo 2^exponent, hi 2^exponent] of a real number,
    from an evaluation at `precision_bits`."""

    __slots__ = ("lo", "hi", "exponent", "precision_bits")

    def __init__(self, lo: int, hi: int, exponent: int, precision_bits: int):
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "exponent", exponent)
        set_field(self, "precision_bits", precision_bits)

    def certainly_positive(self) -> bool:
        return self.lo > 0

    def certainly_negative(self) -> bool:
        return self.hi < 0


# -- expression nodes ---------------------------------------------------


class Expr(Frozen):
    """Immutable real-expression tree node."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, exponent):
        return Pow(self, Fraction(exponent))


def _rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {x!r}")


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Fraction | int):
        set_field(self, "value", _rational(value))

    def __str__(self):
        return str(self.value)


class AlgConst(Expr):
    """Exact cyclotomic value at the identity embedding."""

    __slots__ = ("value",)

    def __init__(self, value: CycloElement):
        set_field(self, "value", value)

    def __str__(self):
        if self.value.is_rational():
            return str(self.value.as_rational())
        return f"cyclo(n={self.value.n}, {list(self.value.coeffs)})"


class _PiConst(Expr):
    __slots__ = ()

    def __str__(self):
        return "pi"

    def __reduce__(self):
        return "PI"  # the module-level singleton


class _EConst(Expr):
    __slots__ = ()

    def __str__(self):
        return "e"

    def __reduce__(self):
        return "E"


PI = _PiConst()
E = _EConst()


class _Binary(Expr):
    """left OP right; subclasses set OP."""

    __slots__ = ("left", "right")
    OP = ""

    def __init__(self, left: Expr, right: Expr):
        set_field(self, "left", left)
        set_field(self, "right", right)

    def __str__(self):
        return f"({self.left} {self.OP} {self.right})"


class Add(_Binary):
    __slots__ = ()
    OP = "+"


class Sub(_Binary):
    __slots__ = ()
    OP = "-"


class Mul(_Binary):
    __slots__ = ()
    OP = "*"


class Div(_Binary):
    __slots__ = ()
    OP = "/"


class _Unary(Expr):
    """One-argument node printed through FORMAT; subclasses set FORMAT."""

    __slots__ = ("arg",)
    FORMAT = ""

    def __init__(self, arg: Expr):
        set_field(self, "arg", arg)

    def __str__(self):
        return self.FORMAT.format(self.arg)


class Neg(_Unary):
    __slots__ = ()
    FORMAT = "(-{})"


class Sqrt(_Unary):
    __slots__ = ()
    FORMAT = "sqrt({})"


class Ln(_Unary):
    __slots__ = ()
    FORMAT = "ln({})"


class ExpNode(_Unary):
    __slots__ = ()
    FORMAT = "exp({})"


class Sin(_Unary):
    __slots__ = ()
    FORMAT = "sin({})"


class Pow(Expr):
    """arg ** exponent for an exact rational exponent; arg > 0 unless the
    exponent is a nonnegative integer."""

    __slots__ = ("arg", "exponent")

    def __init__(self, arg: Expr, exponent: Fraction | int):
        set_field(self, "arg", arg)
        set_field(self, "exponent", _rational(exponent))

    def __str__(self):
        return f"({self.arg})^({self.exponent})"


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(x)
    if isinstance(x, CycloElement):
        return AlgConst(x)
    raise TypeError(f"cannot build an expression from {x!r}")


# -- interval evaluation -------------------------------------------------
#
# An enclosure is a triple (lo, hi, e) of integers with lo 2^e <= x <=
# hi 2^e.  Every node works at the working precision `prec` (the ball's
# bits plus 16): its result is rounded outward so that the larger endpoint
# keeps `prec` significant bits (`_round`).  Pure leaves (rationals, e,
# 2cos(2pi/n) and ln q for rational q) are memoized per precision in
# bounded caches; a memoized enclosure is the one a fresh evaluation
# gives.

LEAF_CACHE_SIZE = 2048
ZERO_IV = (0, 0, 0)
ONE_IV = (1, 1, 0)


class _Inconclusive(Exception):
    """Internal: the interval is too wide to evaluate at this precision."""


def _round(lo: int, hi: int, e: int, prec: int):
    """[lo, hi] 2^e rounded outward to `prec` bits of its larger endpoint."""
    n = max(abs(lo), abs(hi)).bit_length() - prec
    if n <= 0:
        return lo, hi, e
    return lo >> n, -(-hi >> n), e + n


def _top(x) -> int:
    """t with |x| < 2^t for every x of the enclosure (None for [0, 0])."""
    lo, hi, e = x
    n = max(-lo, hi).bit_length()
    return n + e if n else None


def _add(x, y, prec: int):
    """x + y.  An operand below the other's rounding unit is first rounded
    outward to that unit, so that no alignment shift exceeds prec bits."""
    tx, ty = _top(x), _top(y)
    if tx is None:
        return _round(*y, prec)
    if ty is None:
        return _round(*x, prec)
    t = max(min(x[2], y[2]), max(tx, ty) - prec - 4)
    a, b = _shifted(x[0], x[2] - t)[0], _shifted(x[1], x[2] - t)[1]
    c, d = _shifted(y[0], y[2] - t)[0], _shifted(y[1], y[2] - t)[1]
    return _round(a + c, b + d, t, prec)


def _neg(x):
    return -x[1], -x[0], x[2]


def _mul(x, y, prec: int):
    (a, b, e), (c, d, f) = x, y
    products = (a * c, a * d, b * c, b * d)
    return _round(min(products), max(products), e + f, prec)


def _div(x, y, prec: int):
    """x / y for y certified nonzero (0 outside [c, d]): the four end
    quotients, each carried to prec + 2 bits and rounded outward."""
    (a, b, e), (c, d, f) = x, y
    if a == b == 0:
        return ZERO_IV
    s = max(prec + 2 + max(-c, d).bit_length() - max(-a, b).bit_length(), 0)
    lows = [(n << s) // m for n in (a, b) for m in (c, d)]
    highs = [-((-n << s) // m) for n in (a, b) for m in (c, d)]
    return _round(min(lows), max(highs), e - f - s, prec)


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def _ratio(num: int, den: int, prec: int):
    """num / den (den > 0), exact when it is dyadic with at most prec bits."""
    return _div((num, num, 0), (den, den, 0), prec)


def _hull(lo: int, e: int, hi: int, f: int, prec: int):
    """[lo 2^e, hi 2^f] as one enclosure."""
    t = min(e, f)
    return _round(lo << (e - t), hi << (f - t), t, prec)


def _ln_bounds(num: int, den: int, prec: int, shift: int = 0):
    """ln(num/den 2^shift) for num, den > 0, from `fixed._ln_fine`.  Only a
    value within a factor 4 of 1, where ln is near 0, has its shift folded
    into num or den (by at most their bit lengths plus 1) and gets as many
    extra bits as |num/den - 1| has leading zeros; ln 1 is exactly 0."""
    bits = prec
    if abs(num.bit_length() - den.bit_length() + shift) <= 1:
        num, den, shift = (num << shift, den, 0) if shift >= 0 else (num, den << -shift, 0)
        diff = num - den
        if diff == 0:
            return ZERO_IV
        bits += max(den.bit_length() - abs(diff).bit_length(), 0)
    lo, hi = _ln_fine(num, den, bits, shift)
    return lo, hi, -(bits + LN_GUARD_BITS)


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def _ln_ratio(num: int, den: int, prec: int):
    if num <= 0:
        raise DomainError("ln of a certified-nonpositive value")
    return _round(*_ln_bounds(num, den, prec), prec)


def _log(x, prec: int):
    """ln is increasing: its lower bound at the lower end, its upper bound
    at the upper end."""
    lo, hi, e = x
    if hi <= 0:
        raise DomainError("ln of a certified-nonpositive value")
    if lo <= 0:
        raise _Inconclusive("ln argument not certified positive")
    low = _ln_bounds(lo, 1, prec, e)
    high = low if lo == hi else _ln_bounds(hi, 1, prec, e)
    return _hull(low[0], low[2], high[1], high[2], prec)


def _exp(x, prec: int):
    """exp is increasing: `fixed._exp_fine` at each end.  An argument
    wider than 4 prec would give ends whose binary exponents differ by
    more than 4 prec / ln 2, a hull that bounds nothing (and whose
    integers need not fit in memory): it is inconclusive."""
    lo, hi, e = x
    if (hi - lo).bit_length() + e > (4 * prec).bit_length():
        raise _Inconclusive("exp argument too wide at this precision")
    w = prec + LN_GUARD_BITS
    a, b, k = _exp_fine(lo, e, prec)
    j = k
    if hi != lo:
        _, b, j = _exp_fine(hi, e, prec)
    return _hull(a, k - w, b, j - w, prec)


def _trig(x, prec: int, quarter: int):
    """sin (quarter = 0) or cos (quarter = 1) of an enclosure: the hull of
    the values at its ends (`fixed._trig_fine`) and of the extrema +-1 at
    every point (J / 2) pi with J of the right parity that the bounds of
    2x / pi cannot rule out."""
    lo, hi, e = x
    lo_end = _trig_fine(lo, e, prec, quarter)
    if lo == hi:
        return _round(lo_end[0], lo_end[1], -lo_end[2], prec)
    hi_end = _trig_fine(hi, e, prec, quarter)
    w = max(lo_end[2], hi_end[2])
    low = min(lo_end[0] << (w - lo_end[2]), hi_end[0] << (w - hi_end[2]))
    high = max(lo_end[1] << (w - lo_end[2]), hi_end[1] << (w - hi_end[2]))
    # the extrema of sin(v + quarter pi/2) lie at 2v / pi = J, J = quarter + 1 mod 2,
    # with the value (-1)^(J // 2)
    p = max(_top(x), 0)
    pi_lo, pi_hi = _pi_fine(p)
    n_lo = _shifted(lo, e + p + LN_GUARD_BITS + 1)[0]
    n_hi = _shifted(hi, e + p + LN_GUARD_BITS + 1)[1]
    # the integers between a lower bound of 2 lo 2^e / pi and an upper
    # bound of 2 hi 2^e / pi
    t_lo = -(-n_lo // (pi_hi if n_lo >= 0 else pi_lo))
    t_hi = n_hi // (pi_lo if n_hi >= 0 else pi_hi)
    j = t_lo + ((t_lo + quarter + 1) & 1)
    if j <= t_hi:
        if j + 2 <= t_hi or (j >> 1) & 1:
            low = -1 << w
        if j + 2 <= t_hi or not (j >> 1) & 1:
            high = 1 << w
    return _round(low, high, -w, prec)


def _sqrt(x, prec: int):
    """sqrt by `math.isqrt` on the ends scaled to an even power of two with
    about 2 prec bits, rounded outward."""
    lo, hi, e = x
    if hi < 0:
        raise DomainError("sqrt of a certified-negative value")
    if lo < 0:
        raise _Inconclusive("sqrt argument not certified nonnegative")
    f = (e + hi.bit_length() - 2 * prec - 4) // 2
    a, b = _shifted(lo, e - 2 * f)[0], _shifted(hi, e - 2 * f)[1]
    r = isqrt(b)
    return _round(isqrt(a), r + (r * r != b), f, prec)


def _pow_int(x, k: int, prec: int):
    """x^k for an integer k: square-and-multiply on `_mul` at
    prec + 8 + bitlen(k) bits, the lower end of every square raised to 0
    (a square is nonnegative); 1 / x^-k when k < 0."""
    if k == 0:
        return ONE_IV
    if k < 0:
        if x[0] <= 0 <= x[1]:
            raise _Inconclusive("negative power of an interval containing zero")
        return _div(ONE_IV, _pow_int(x, -k, prec + 8), prec)
    w = prec + 8 + k.bit_length()
    result = None
    while True:
        if k & 1:
            result = x if result is None else _mul(result, x, w)
        k >>= 1
        if not k:
            return _round(*result, prec)
        lo, hi, e = _mul(x, x, w)
        x = max(lo, 0), hi, e


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def _e(prec: int):
    return _exp(ONE_IV, prec)


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def _beta(n: int, prec: int):
    """2cos(2pi/n), at 2pi/n enclosed from the bounds of pi."""
    pi_lo, pi_hi = _pi_fine(prec)
    angle = (2 * pi_lo // n, -(-2 * pi_hi // n), -(prec + LN_GUARD_BITS))
    lo, hi, e = _trig(angle, prec, 1)
    return lo, hi, e + 1


def _cyclo(x: CycloElement, prec: int):
    """(sum_i num[i] b^i) / den by an integer Horner scheme over the
    enclosure of b = 2cos(2pi/n) in units of 2^-F: each product with b is
    rounded outward to units of 2^-F, and the division by den at the end.
    Every step can double the width (|b| <= 2), so F carries two bits per
    coefficient beyond the precision and the coefficients' size."""
    num, den = x.num, x.den
    if not any(num[1:]):
        return _ratio(num[0], den, prec)
    size = max(abs(c) for c in num).bit_length() - den.bit_length()
    b_lo, b_hi, be = _beta(x.n, prec + 8 + 2 * len(num) + max(size, 0))
    f = -be
    a_lo = a_hi = num[-1] << f
    for c in reversed(num[:-1]):
        products = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
        a_lo = (min(products) >> f) + (c << f)
        a_hi = -(-max(products) >> f) + (c << f)
    return _round(a_lo // den, -(-a_hi // den), be, prec)


def _iv_eval(expr: Expr, prec: int):
    """Enclosure (lo, hi, e) of `expr` at working precision `prec`."""
    t = type(expr)
    if t is Const:
        return _ratio(expr.value.numerator, expr.value.denominator, prec)
    if t is Add:
        return _add(_iv_eval(expr.left, prec), _iv_eval(expr.right, prec), prec)
    if t is Sub:
        return _add(_iv_eval(expr.left, prec), _neg(_iv_eval(expr.right, prec)), prec)
    if t is Mul:
        return _mul(_iv_eval(expr.left, prec), _iv_eval(expr.right, prec), prec)
    if t is Div:
        denom = _iv_eval(expr.right, prec)
        if denom[0] <= 0 <= denom[1]:
            raise _Inconclusive("division by an interval containing zero")
        return _div(_iv_eval(expr.left, prec), denom, prec)
    if t is Ln:
        arg = expr.arg
        if type(arg) is Const:
            q = arg.value
            return _ln_ratio(q.numerator, q.denominator, prec)
        return _log(_iv_eval(arg, prec), prec)
    if t is Sin:
        return _trig(_iv_eval(expr.arg, prec), prec, 0)
    if t is Neg:
        return _neg(_iv_eval(expr.arg, prec))
    if t is Pow:
        arg = _iv_eval(expr.arg, prec)
        e = expr.exponent
        if e.denominator == 1:
            return _pow_int(arg, e.numerator, prec)
        if arg[1] < 0:
            raise DomainError("rational power of a certified-negative value")
        if arg[0] <= 0:
            raise _Inconclusive("rational power argument not certified positive")
        # exp(q ln x): the exponent's absolute error is exp's relative one,
        # so it carries as many more bits as |q ln x| has
        guard = prec + 8 + abs(_top(arg)).bit_length() + e.numerator.bit_length()
        return _exp(_mul(_log(arg, guard), _ratio(e.numerator, e.denominator, guard), guard), prec)
    if t is Sqrt:
        return _sqrt(_iv_eval(expr.arg, prec), prec)
    if t is ExpNode:
        return _exp(_iv_eval(expr.arg, prec), prec)
    if t is AlgConst:
        return _cyclo(expr.value, prec)
    if t is _PiConst:
        pi_lo, pi_hi = _pi_fine(prec)
        return _round(pi_lo, pi_hi, -(prec + LN_GUARD_BITS), prec)
    if t is _EConst:
        return _e(prec)
    raise TypeError(f"unknown expression node {expr!r}")


def _excludes_zero(ball: Ball) -> bool:
    return ball.certainly_positive() or ball.certainly_negative()


def scaled(ball: Ball, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^bits x <= hi for every x of the ball: its
    ends shifted, the lower one rounded down and the upper one up."""
    return _shifted(ball.lo, ball.exponent + bits)[0], _shifted(ball.hi, ball.exponent + bits)[1]


def _floor_bits(ball: Ball) -> int:
    """The bit length of the floor of the ball's lower end, give or take one."""
    return ball.lo.bit_length() + ball.exponent


def floor_of(ball: Ball) -> int:
    """Exact floor of the lower end of the ball; UndecidableError when it
    has more than _EXACT_POWER_BITS bits."""
    bits = _floor_bits(ball)
    if bits > _EXACT_POWER_BITS:
        raise UndecidableError(f"a floor of about {bits} bits is above the "
                               f"{_EXACT_POWER_BITS}-bit limit of exact integers")
    return _shifted(ball.lo, ball.exponent)[0]


def within_one_integer_step(ball: Ball) -> bool:
    return floor_of(ball) == _shifted(ball.hi, ball.exponent)[0]


def precisions(start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS):
    """The one precision schedule: start_bits, doubled while at most
    cap_bits (nothing when start_bits is above the cap)."""
    bits = start_bits
    while bits <= cap_bits:
        yield bits
        bits *= 2


def settle(attempt, undecided: str, cap_bits: int = DEFAULT_CAP_BITS,
           start_bits: int = DEFAULT_START_BITS):
    """The first result of attempt(bits) that is not None, for bits along
    `precisions(start_bits, cap_bits)`; UndecidableError with the message
    `undecided` when none settles.  The one precision walk: of `eval_ball`
    and of the integer certificates (`bounds.solve`, `pairs`)."""
    for bits in precisions(start_bits, cap_bits):
        result = attempt(bits)
        if result is not None:
            return result
    raise UndecidableError(undecided)


def eval_ball(
    expr: Expr,
    precision_bits: int = DEFAULT_START_BITS,
    cap_bits: int = DEFAULT_CAP_BITS,
    accept=None,
) -> Ball:
    """Enclose the exact value of `expr` in a `Ball`.

    One `settle` from `precision_bits`: the working precision rises while
    the evaluation is inconclusive or `accept(ball)` is false.  Raises
    DomainError when a sub-expression is certified outside its domain and
    UndecidableError, naming the last reason, when no evaluation at or
    below the cap gives an acceptable ball (e.g. sqrt of an exact zero
    approached from below).
    """
    expr = as_expr(expr)
    reason = "the start precision is above the cap"

    def attempt(bits: int):
        nonlocal reason
        try:
            ball = Ball(*_iv_eval(expr, bits + 16), bits)
        except _Inconclusive as exc:
            reason = exc
            return None
        if accept is None or accept(ball):
            return ball
        reason = "the enclosure is too wide"
        return None

    try:
        return settle(attempt, "", cap_bits, precision_bits)
    except UndecidableError:
        raise UndecidableError(f"evaluation failed below the precision cap: {reason}") from None


# -- exact simplification ----------------------------------------------


def exact_value(expr: Expr):
    """Fraction/CycloElement value when the tree is exactly algebraic, else None.

    Handles field operations over exact leaves, sin of rational multiples
    of pi, integer powers, sqrt of rational squares, ln(1) and exp(0).
    """
    expr = as_expr(expr)
    try:
        return _exact(expr)
    except _NotExact:
        return None


class _NotExact(Exception):
    pass


def _exact(expr: Expr):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, AlgConst):
        v = expr.value
        return v.as_rational() if v.is_rational() else v
    if isinstance(expr, _PiConst) or isinstance(expr, _EConst):
        raise _NotExact
    if isinstance(expr, Add):
        return _exact(expr.left) + _exact(expr.right)
    if isinstance(expr, Sub):
        return _exact(expr.left) - _exact(expr.right)
    if isinstance(expr, Mul):
        return _exact(expr.left) * _exact(expr.right)
    if isinstance(expr, Div):
        denom = _exact(expr.right)
        if denom == 0:
            raise DomainError("division by exact zero")
        return _exact(expr.left) / denom
    if isinstance(expr, Neg):
        return -_exact(expr.arg)
    if isinstance(expr, Sin):
        coeff = pi_multiple(expr.arg)
        if coeff is None:
            raise _NotExact
        # sin(pi*a/b) = cos(2pi*(b-2a)/(4b))
        num, den = coeff.numerator, coeff.denominator
        value = CycloElement.cos2pi(den - 2 * num, 4 * den)
        return value.as_rational() if value.is_rational() else value
    if isinstance(expr, Pow):
        e = expr.exponent
        base = _exact(expr.arg)
        # a fractional power is not exact, and an exact power above 2^16
        # (10^(10^20)) or above _EXACT_POWER_BITS, the exponent times the bits
        # of the base's largest numerator and its denominator ((10^1000)^60000),
        # need not fit in memory: all go to the enclosures
        ends = ((base.numerator, base.denominator) if isinstance(base, Fraction)
                else (max(base.num, key=abs), base.den))
        if (e.denominator != 1 or abs(e.numerator) > 1 << 16
                or abs(e.numerator) * sum(abs(n).bit_length() for n in ends) > _EXACT_POWER_BITS):
            raise _NotExact
        if e.numerator >= 0:
            return base ** e.numerator
        if base == 0:
            raise DomainError("negative power of exact zero")
        return (Fraction(1) / base) ** (-e.numerator) if isinstance(base, Fraction) else base ** e.numerator
    if isinstance(expr, Sqrt):
        arg = _exact(expr.arg)
        if isinstance(arg, Fraction):
            if arg < 0:
                raise DomainError("sqrt of a certified-negative value")
            rn, rd = isqrt(arg.numerator), isqrt(arg.denominator)
            if rn * rn == arg.numerator and rd * rd == arg.denominator:
                return Fraction(rn, rd)
        raise _NotExact
    if isinstance(expr, Ln):
        arg = _exact(expr.arg)
        if arg == 1:
            return Fraction(0)
        raise _NotExact
    if isinstance(expr, ExpNode):
        arg = _exact(expr.arg)
        if arg == 0:
            return Fraction(1)
        raise _NotExact
    raise _NotExact


def pi_multiple(expr: Expr):
    """Fraction q with expr == q*pi, else None; q*pi may be written as a
    product with pi and a quotient by any exactly rational subexpressions."""
    if isinstance(expr, _PiConst):
        return Fraction(1)
    if isinstance(expr, Mul):
        for a, b in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(b, _PiConst):
                q = exact_value(a)
                if isinstance(q, Fraction):
                    return q
    if isinstance(expr, Div):
        inner = pi_multiple(expr.left)
        if inner is not None:
            q = exact_value(expr.right)
            if isinstance(q, Fraction) and q != 0:
                return inner / q
    if isinstance(expr, Neg):
        inner = pi_multiple(expr.arg)
        return None if inner is None else -inner
    return None


def _algebraic_sign(value, cap_bits: int) -> int:
    """Sign (1, -1 or 0) of an exact Fraction/CycloElement; an irrational
    value is nonzero, and an enclosure separates it from 0."""
    if isinstance(value, Fraction):
        return (value > 0) - (value < 0)
    if value.is_zero():
        return 0
    if value.is_rational():
        q = value.as_rational()
        return (q > 0) - (q < 0)
    # a nonzero algebraic value is guaranteed to separate from zero, so it
    # may use sixteen times the comparison cap
    ball = eval_ball(AlgConst(value), DEFAULT_START_BITS, 16 * cap_bits, _excludes_zero)
    return 1 if ball.certainly_positive() else -1


_ZERO = Const(Fraction(0))


def certify_compare(a, b, cap_bits: int = DEFAULT_CAP_BITS) -> str:
    """Certified ordering of two real expressions.

    LESS/GREATER are returned only from disjoint enclosures; EQUAL only
    when both sides reduce to the same exact algebraic value; UNDECIDED
    only after the precision cap is exhausted.  Against an exact 0 the
    left side is certified itself: subtracting [0, 0] at the working
    precision leaves both endpoints unchanged.
    """
    ea, eb = as_expr(a), as_expr(b)
    diff = ea if eb == _ZERO else Sub(ea, eb)
    exact = exact_value(diff)
    if exact is not None:
        sign = _algebraic_sign(exact, cap_bits)
        return EQUAL if sign == 0 else (GREATER if sign > 0 else LESS)
    try:
        ball = eval_ball(diff, cap_bits=cap_bits, accept=_excludes_zero)
    except UndecidableError:
        return UNDECIDED
    return GREATER if ball.certainly_positive() else LESS


def certify_sign(expr) -> str:
    return certify_compare(expr, _ZERO)


def certified_floor(expr) -> int:
    """floor(expr): exact for an exactly rational value, otherwise from an
    enclosure certified inside one integer step; raises UndecidableError
    when the value sits on an integer that interval arithmetic cannot
    separate, or when its floor is too large to compute (`floor_of`)."""
    expr = as_expr(expr)
    exact = exact_value(expr)
    if isinstance(exact, Fraction):
        return exact.numerator // exact.denominator
    return floor_of(eval_ball(expr, accept=lambda ball: _floor_bits(ball) > _EXACT_POWER_BITS
                              or within_one_integer_step(ball)))


def _decimal_exponent(m: int, e: int) -> int:
    """x with 10^x <= m 2^e < 10^(x + 1), for m > 0, off by at most two:
    t log10 2 for 2^t <= m 2^e < 2^(t + 1), with log10 2 = ln 2 / ln 10
    from `fixed._ln_fine` at as many bits as t has."""
    t = m.bit_length() + e - 1
    bits = abs(t).bit_length()
    return t * _ln_fine(2, 1, bits)[0] // _ln_fine(10, 1, bits)[1]


def _decimal(m: int, e: int, scale: int = 0) -> str:
    """m 2^e 10^scale correctly rounded (ties away from zero) to
    BALL_STR_DIGITS significant digits, in the layout of mpmath's
    `to_str(..., strip_zeros=False)`: fixed notation when the decimal
    exponent x has min(-(digits // 3), -5) < x < digits, else
    d.ddd...e+x.  The exact integers are those of m 2^e; `ball_str`
    passes the scale of a value whose own exponent is too large for them."""
    if m == 0:
        return "0.0"
    sign, m = ("-", -m) if m < 0 else ("", m)
    num, den = (m << e, 1) if e >= 0 else (m, 1 << -e)
    digits = BALL_STR_DIGITS
    x = _decimal_exponent(m, e)
    while True:
        shift = digits - 1 - x
        n, d = (num * 10 ** shift, den) if shift >= 0 else (num, den * 10 ** -shift)
        if n < d * 10 ** (digits - 1):
            x -= 1
        elif n >= d * 10 ** digits:
            x += 1
        else:
            break
    q = (2 * n + d) // (2 * d)
    if q == 10 ** digits:
        q, x = q // 10, x + 1
    text = str(q)
    x += scale
    if min(-(digits // 3), -5) < x < digits:
        if x < 0:
            return f"{sign}0.{'0' * (-x - 1)}{text}"
        return f"{sign}{text[:x + 1]}.{text[x + 1:]}"
    return f"{sign}{text[0]}.{text[1:]}e{'+' if x >= 0 else ''}{x}"


def ball_str(expr) -> str:
    """The decimal of an expression's value to BALL_STR_DIGITS significant
    digits, correctly rounded: both ends of the enclosure give it, from
    BALL_STR_BITS up.  A value on a rounding tie (an exact rational) never
    settles; it prints the midpoint of its BALL_STR_BITS enclosure, and an
    exact zero reached through a tree that is not exact prints 0.0.  A
    value whose decimal exponent x exceeds _BALL_STR_SCALE in size (the
    exact integers of its decimal grow with x) prints as expr 10^-x, with
    x added to the printed exponent."""
    expr = as_expr(expr)
    text, scale = None, 0

    def settled(ball: Ball) -> bool:
        nonlocal text, scale
        top = max(-ball.lo, ball.hi)
        x = _decimal_exponent(top, ball.exponent) if top and not scale else 0
        if abs(x) > _BALL_STR_SCALE:
            scale = x
            return True
        text = _decimal(ball.lo, ball.exponent, scale)
        return text == _decimal(ball.hi, ball.exponent, scale)

    try:
        eval_ball(expr, BALL_STR_BITS, accept=settled)
        if scale:
            expr = Mul(expr, Pow(Const(Fraction(10)), Fraction(-scale)))
            eval_ball(expr, BALL_STR_BITS, accept=settled)
        return text
    except UndecidableError:
        if exact_value(expr) == 0:
            return "0.0"
        ball = eval_ball(expr, BALL_STR_BITS)
        return _decimal(ball.lo + ball.hi, ball.exponent - 1, scale)
