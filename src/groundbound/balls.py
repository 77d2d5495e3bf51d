"""Certified real evaluation: expression trees, interval balls, comparisons.

Expressions are immutable trees over exact leaves (rationals, cyclotomic
elements, pi, e) with ln/exp/sqrt/sin and rational-power nodes.
`eval_ball` encloses the exact value in an outward-rounded interval
computed on raw `mpmath.libmp` interval tuples (`libmpi` calls on (lo, hi)
pairs of raw mpfs); it never touches `mpmath.iv`.  It walks the one
precision schedule, `precisions` (64, 128, ... bits, also walked by the
integer certificates of `pairs`), until its caller accepts the
enclosure, never above the caller's cap.  `certify_compare` decides
orderings with it (with an exact path for algebraic equalities) and
`certified_floor` rounds down with it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp
from mpmath.libmp import (
    from_int, fzero, mpf_e, mpf_sign,
    mpi_add, mpi_cos, mpi_div, mpi_exp, mpi_log, mpi_mul, mpi_neg, mpi_pow,
    mpi_sin, mpi_sqrt, mpi_sub, round_ceiling, round_floor,
)
from mpmath.libmp.libmpi import mpi_pi

from .cyclo import CycloElement
from .errors import DomainError, UndecidableError

DEFAULT_START_BITS = 64
DEFAULT_CAP_BITS = 4096
BALL_STR_DIGITS = 12
BALL_STR_BITS = 192

LESS = "LESS"
GREATER = "GREATER"
EQUAL = "EQUAL"
UNDECIDED = "UNDECIDED"


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (mpf values are dyadic)."""
    raw = x._mpf_ if hasattr(x, "_mpf_") else mpmath.mpf(x)._mpf_
    sign, man, exponent, _ = raw
    if man == 0 and exponent == 0:
        return Fraction(0)
    value = Fraction(int(man)) * (Fraction(2) ** exponent)
    return -value if sign else value


@dataclass(frozen=True)
class Ball:
    """Interval enclosure of a real number.

    `lower` and `upper` are exact dyadic endpoints (every mpf is exact);
    `center` and `radius` are derived views with the radius padded so
    that [center - radius, center + radius] always covers [lower, upper].
    """

    lower: mpmath.mpf
    upper: mpmath.mpf
    precision_bits: int

    @property
    def center(self):
        with mp.workprec(self.precision_bits + 32):
            return (mp.mpf(self.lower) + mp.mpf(self.upper)) / 2

    @property
    def radius(self):
        lo, hi = mpf_to_fraction(self.lower), mpf_to_fraction(self.upper)
        center = mpf_to_fraction(self.center)
        spread = max(hi - center, center - lo, Fraction(0))
        with mp.workprec(64):
            return mp.mpf(spread.numerator) / mp.mpf(spread.denominator) * (1 + mp.mpf(2) ** -40)

    def contains(self, q) -> bool:
        """Exact containment test for a rational (or float) value."""
        if isinstance(q, (int, float)):
            q = Fraction(q)
        return mpf_to_fraction(self.lower) <= q <= mpf_to_fraction(self.upper)

    def certainly_positive(self) -> bool:
        return mpf_sign(self.lower._mpf_) > 0

    def certainly_negative(self) -> bool:
        return mpf_sign(self.upper._mpf_) < 0

    def __repr__(self):
        return f"Ball({mpmath.nstr(self.center, 17)} +/- {mpmath.nstr(self.radius, 5)}, bits={self.precision_bits})"


# -- expression nodes ---------------------------------------------------


class Expr:
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

    def __reduce__(self):
        # frozen slotted nodes cannot take the default copy/pickle path,
        # which sets attributes on a bare instance; rebuild from the fields
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Const(Expr):
    __slots__ = ("value",)
    value: Fraction

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class AlgConst(Expr):
    """Exact cyclotomic value at the identity embedding."""

    __slots__ = ("value",)
    value: CycloElement

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


@dataclass(frozen=True)
class _Binary(Expr):
    """left OP right; subclasses set OP."""

    __slots__ = ("left", "right")
    left: Expr
    right: Expr
    OP = ""

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


@dataclass(frozen=True)
class _Unary(Expr):
    """One-argument node printed through FORMAT; subclasses set FORMAT."""

    __slots__ = ("arg",)
    arg: Expr
    FORMAT = ""

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


@dataclass(frozen=True)
class Pow(Expr):
    """arg ** exponent for an exact rational exponent; arg > 0 unless the
    exponent is a nonnegative integer."""

    __slots__ = ("arg", "exponent")
    arg: Expr
    exponent: Fraction

    def __str__(self):
        return f"({self.arg})^({self.exponent})"


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    if isinstance(x, CycloElement):
        return AlgConst(x)
    raise TypeError(f"cannot build an expression from {x!r}")


# -- interval evaluation -------------------------------------------------
#
# An enclosure is a raw libmp interval: a (lo, hi) pair of raw mpf tuples.
# Every node makes the libmpi call mpmath's interval context would make at
# the working precision `prec`, so the endpoints are the ones `mpmath.iv`
# gives, without its object layer and without reading or changing the
# global `mpmath.iv`.  Pure leaves (rationals, 2cos(2pi/n) and ln q for
# rational q) are memoized per precision in bounded caches; a memoized
# enclosure comes from the same calls at the same precision as an uncached
# one would, so it has the same endpoints.

LEAF_CACHE_SIZE = 2048


def _point(n: int, prec: int):
    """The integer n rounded outward to `prec` bits."""
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def _ratio(num: int, den: int, prec: int):
    return mpi_div(_point(num, prec), _point(den, prec), prec)


def _fraction(q: Fraction, prec: int):
    return _ratio(q.numerator, q.denominator, prec)


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def _beta(n: int, prec: int):
    """2cos(2pi/n)."""
    two = _point(2, prec)
    angle = mpi_div(mpi_mul(two, mpi_pi(prec), prec), _point(n, prec), prec)
    return mpi_mul(two, mpi_cos(angle, prec), prec)


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def _ln_ratio(num: int, den: int, prec: int):
    if num <= 0:
        raise DomainError("ln of a certified-nonpositive value")
    return mpi_log(_ratio(num, den, prec), prec)


def _log(arg, prec: int):
    if mpf_sign(arg[1]) <= 0:
        raise DomainError("ln of a certified-nonpositive value")
    if mpf_sign(arg[0]) <= 0:
        raise _Inconclusive("ln argument not certified positive")
    return mpi_log(arg, prec)


def _cyclo(x: CycloElement, prec: int):
    beta = _beta(x.n, prec)
    acc = (fzero, fzero)
    for c in reversed(x.coeffs):
        acc = mpi_add(mpi_mul(acc, beta, prec), _fraction(c, prec), prec)
    return acc


def _iv_eval(expr: Expr, prec: int):
    """Enclosure of `expr` at working precision `prec`."""
    t = type(expr)
    if t is Const:
        return _fraction(expr.value, prec)
    if t is Add:
        return mpi_add(_iv_eval(expr.left, prec), _iv_eval(expr.right, prec), prec)
    if t is Sub:
        return mpi_sub(_iv_eval(expr.left, prec), _iv_eval(expr.right, prec), prec)
    if t is Mul:
        return mpi_mul(_iv_eval(expr.left, prec), _iv_eval(expr.right, prec), prec)
    if t is Div:
        denom = _iv_eval(expr.right, prec)
        if mpf_sign(denom[0]) <= 0 <= mpf_sign(denom[1]):
            raise _Inconclusive("division by an interval containing zero")
        return mpi_div(_iv_eval(expr.left, prec), denom, prec)
    if t is Ln:
        arg = expr.arg
        if type(arg) is Const:
            q = arg.value
            return _ln_ratio(q.numerator, q.denominator, prec)
        return _log(_iv_eval(arg, prec), prec)
    if t is Sin:
        return mpi_sin(_iv_eval(expr.arg, prec), prec)
    if t is Neg:
        return mpi_neg(_iv_eval(expr.arg, prec), prec)
    if t is Pow:
        arg = _iv_eval(expr.arg, prec)
        e = expr.exponent
        if e.denominator == 1:
            k = e.numerator
            if k < 0 and mpf_sign(arg[0]) <= 0 <= mpf_sign(arg[1]):
                raise _Inconclusive("negative power of an interval containing zero")
            return mpi_pow(arg, _point(k, prec), prec)
        if mpf_sign(arg[1]) < 0:
            raise DomainError("rational power of a certified-negative value")
        if mpf_sign(arg[0]) <= 0:
            raise _Inconclusive("rational power argument not certified positive")
        return mpi_exp(mpi_mul(mpi_log(arg, prec), _fraction(e, prec), prec), prec)
    if t is Sqrt:
        arg = _iv_eval(expr.arg, prec)
        if mpf_sign(arg[1]) < 0:
            raise DomainError("sqrt of a certified-negative value")
        if mpf_sign(arg[0]) < 0:
            raise _Inconclusive("sqrt argument not certified nonnegative")
        return mpi_sqrt(arg, prec)
    if t is ExpNode:
        return mpi_exp(_iv_eval(expr.arg, prec), prec)
    if t is AlgConst:
        return _cyclo(expr.value, prec)
    if t is _PiConst:
        return mpi_pi(prec)
    if t is _EConst:
        return mpf_e(prec, round_floor), mpf_e(prec, round_ceiling)
    raise TypeError(f"unknown expression node {expr!r}")


class _Inconclusive(Exception):
    """Internal: the interval is too wide to evaluate at this precision."""


def _excludes_zero(ball: Ball) -> bool:
    return ball.certainly_positive() or ball.certainly_negative()


def scaled(x, up: bool, bits: int) -> int:
    """floor (ceil when `up`) of 2^bits x for an mpf
    x = (-1)^sign man 2^exp, exact: a shift of the signed mantissa."""
    sign, man, exp, _ = x._mpf_
    man, exp = int(-man if sign else man), exp + bits
    if exp >= 0:
        return man << exp
    return -(-man >> -exp) if up else man >> -exp


def floor_of(x) -> int:
    """Exact floor of an mpf."""
    return scaled(x, False, 0)


def within_one_integer_step(ball: Ball) -> bool:
    return floor_of(ball.lower) == floor_of(ball.upper)


def precisions(start_bits: int = DEFAULT_START_BITS, cap_bits: int = DEFAULT_CAP_BITS):
    """The one precision schedule: start_bits, doubled while at most
    cap_bits (nothing when start_bits is above the cap)."""
    bits = start_bits
    while bits <= cap_bits:
        yield bits
        bits *= 2


def eval_ball(
    expr: Expr,
    precision_bits: int = DEFAULT_START_BITS,
    cap_bits: int = DEFAULT_CAP_BITS,
    accept=None,
) -> Ball:
    """Enclose the exact value of `expr` in a `Ball`.

    The working precision follows `precisions(precision_bits, cap_bits)`
    while the evaluation is inconclusive or `accept(ball)` is false.
    Raises DomainError when a sub-expression is certified outside its
    domain and UndecidableError when no evaluation at or below the cap
    gives an acceptable ball (e.g. sqrt of an exact zero approached from
    below).
    """
    expr = as_expr(expr)
    reason = "the start precision is above the cap"
    for bits in precisions(precision_bits, cap_bits):
        try:
            lo_raw, hi_raw = _iv_eval(expr, bits + 16)
        except _Inconclusive as exc:
            reason = exc
        else:
            # make_mpf keeps the exact endpoint mantissas (no rounding)
            ball = Ball(lower=mp.make_mpf(lo_raw), upper=mp.make_mpf(hi_raw),
                        precision_bits=bits)
            if accept is None or accept(ball):
                return ball
            reason = "the enclosure is too wide"
    raise UndecidableError(f"evaluation failed below the precision cap: {reason}")


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
        if e.denominator == 1 and e.numerator >= 0:
            return _exact(expr.arg) ** e.numerator
        base = _exact(expr.arg)
        if e.denominator == 1:  # negative integer power
            if base == 0:
                raise DomainError("negative power of exact zero")
            return (Fraction(1) / base) ** (-e.numerator) if isinstance(base, Fraction) else base ** e.numerator
        raise _NotExact
    if isinstance(expr, Sqrt):
        arg = _exact(expr.arg)
        if isinstance(arg, Fraction):
            if arg < 0:
                raise DomainError("sqrt of a certified-negative value")
            rn, rd = _isqrt_exact(arg.numerator), _isqrt_exact(arg.denominator)
            if rn is not None and rd is not None:
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


def _isqrt_exact(n: int):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


def _algebraic_sign(value, cap_bits: int) -> int:
    """Sign of an exact nonzero Fraction/CycloElement (0 for exact zero)."""
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
    separate."""
    expr = as_expr(expr)
    exact = exact_value(expr)
    if isinstance(exact, Fraction):
        return exact.numerator // exact.denominator
    return floor_of(eval_ball(expr, accept=within_one_integer_step).lower)


def ball_str(expr) -> str:
    """Deterministic decimal rendering of an expression's ball midpoint:
    BALL_STR_DIGITS digits of the enclosure at BALL_STR_BITS."""
    ball = eval_ball(as_expr(expr), BALL_STR_BITS)
    with mp.workprec(BALL_STR_BITS):
        return mpmath.nstr(ball.center, BALL_STR_DIGITS, strip_zeros=False)
