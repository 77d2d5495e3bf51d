import random
from fractions import Fraction
from math import ceil, floor

import pytest
from mpmath import iv

from groundbound import pairs
from groundbound.balls import Ball, floor_of, scaled, within_one_integer_step
from groundbound.cyclo import euler_phi, gamma_norm_constant
from groundbound.fixed import (
    FIXED_BITS, LN_GUARD_BITS, _exp_fine, _fixed_ln, _fixed_ln_ratio, _fixed_neg_ln_sin,
    _inverse_series, _ln_fine, _machin, _pi_fine, _sinc_fine, _trig_fine,
)
from groundbound.pairs import TAIL_START

# working precision of the integer log kernels at FIXED_BITS
WORK_BITS = FIXED_BITS + LN_GUARD_BITS

from enclosures import ends


def test_scaled_matches_fraction_formula():
    # `scaled` rounds the ends of a ball outward to units of 2^-64 by a
    # shift; the Fraction formula is the reference
    rng = random.Random(6401)
    ends_ = [(0, 0), (1, 1), (-1, -1), (3, 3), (-3, -3)]
    exponents = [-FIXED_BITS, -FIXED_BITS, -FIXED_BITS, -FIXED_BITS - 1, -FIXED_BITS - 1]
    for _ in range(3000):
        a, b = (rng.getrandbits(rng.randint(1, 160)) * (-1) ** rng.getrandbits(1) for _ in range(2))
        ends_.append((min(a, b), max(a, b)))
        exponents.append(rng.randint(-FIXED_BITS - 200, 60))  # 2^64 x is an integer from -64 up
    below = above = negative = 0
    for (lo, hi), e in zip(ends_, exponents):
        ball = Ball(lo, hi, e, FIXED_BITS)
        got = scaled(ball, FIXED_BITS)
        low, high = ends(ball)
        assert all(type(x) is int for x in got)
        assert got == (floor(low * (1 << FIXED_BITS)), ceil(high * (1 << FIXED_BITS))), (lo, hi, e)
        assert floor_of(ball) == floor(low), (lo, e)
        assert within_one_integer_step(ball) == (floor(low) == floor(high)), (lo, hi, e)
        below += e < -FIXED_BITS
        above += e > -FIXED_BITS
        negative += lo < 0
    assert below > 1000 and above > 500 and negative > 1000


# -- the integer log kernels against a 300-bit interval oracle ----------------

ORACLE_BITS = 300


def _oracle(f, bits=FIXED_BITS, prec=ORACLE_BITS):
    """2^bits f() as an mpmath interval at `prec` bits."""
    saved, iv.prec = iv.prec, prec
    try:
        return f() * iv.mpf(2) ** bits
    finally:
        iv.prec = saved


def _encloses(bounds, value, width):
    """lo <= value <= hi for the interval `value`, compared exactly, and
    hi - lo <= width."""
    lo, hi = bounds
    assert type(lo) is int and type(hi) is int
    a, b = (_mpf_fraction(x) for x in value._mpi_)
    return lo <= a and b <= hi and hi - lo <= width


def _mpf_fraction(raw) -> Fraction:
    """The exact value of a raw mpf (sign, man, exp, bc)."""
    sign, man, exp, _ = raw
    value = Fraction(int(man)) * Fraction(2) ** exp
    return -value if sign else value


def _ln_oracle(a, b, bits=FIXED_BITS, prec=ORACLE_BITS):
    return _oracle(lambda: iv.log(iv.mpf(a) / iv.mpf(b)), bits, prec)


def _check_ln(a, b):
    # the working bounds in units of 2^-WORK_BITS hold as well as the
    # rounded ones, so a slack missing below the guard bits shows too
    assert _encloses(_fixed_ln_ratio(a, b), _ln_oracle(a, b), 16), (a, b)
    assert _encloses(_ln_fine(a, b), _ln_oracle(a, b, WORK_BITS), 16 << 16), (a, b)


def test_ln_kernel_on_random_rationals():
    rng = random.Random(2020)
    for _ in range(2000):
        _check_ln(rng.randint(1, 10 ** rng.randint(1, 1000)), rng.randint(1, 10 ** rng.randint(1, 1000)))


def test_ln_kernel_on_powers_of_two():
    assert _fixed_ln_ratio(1, 1) == (0, 1)
    for n in range(0, 3400, 7):
        for a, b in ((2**n, 1), (1, 2**n), (3 * 2**n, 3), (5, 5 * 2**n)):
            _check_ln(a, b)


def test_ln_kernel_at_the_reduction_thresholds():
    # a/b at and next to 2/3 and 3/2 times powers of two, where the
    # reduction to [2/3, 3/2] switches between doubling, halving and neither
    for n in (0, 1, 5, 64, 333):
        for m in (3, 10**6 + 3, 3 * 10**40):
            for num, den in ((2 * m, 3 * m), (3 * m, 2 * m)):
                for da in (-1, 0, 1):
                    for a, b in ((num + da) << n, den), (num + da, den << n):
                        _check_ln(a, b)


def test_neg_ln_sin_kernel_for_every_modulus_up_to_4096():
    for x in range(3, 4097):
        value = _oracle(lambda: -iv.log(iv.sin(iv.pi / x)))
        assert _encloses(_fixed_neg_ln_sin(x, FIXED_BITS), value, 16), x
        sinc = _oracle(lambda: iv.sin(iv.pi / x) / (iv.pi / x), WORK_BITS)
        assert _encloses(_sinc_fine(x), sinc, 64), x


# -- the kernels of the interval evaluator against mpmath at twice the bits ---

KERNEL_BITS = (16, 64, 128, 512, 2000)


def _dyadic_arguments(rng, count):
    """(m, e) for m 2^e of both signs, from about 2^-200 to 2^12 in size,
    and next to multiples of pi/2, where sin or cos is small."""
    out = [(1, 0), (-1, 0), (3, -1), (1, -200), (-5, -100), (7, 8), (-4095, 0)]
    for q in (1, 2, 3, 4, 7, 100):  # q pi/2 to 50 bits
        out += [(sign * (q * 884279719003555 // 2), -48) for sign in (1, -1)]
    for _ in range(count):
        m = rng.getrandbits(rng.randint(1, 100)) * rng.choice((1, -1)) or 1
        out.append((m, rng.randint(-200, 12) - m.bit_length()))
    return out


def _fixed_atanh_inverse(n, bits):
    """The atanh(1/n) series as `fixed` summed it before it shared one loop
    with atan: the oracle of `_inverse_series(n, bits, False)`."""
    one, nn = 1 << bits, n * n
    lo = hi = 0
    j, power = 0, n  # power = n^(2j + 1)
    down, up = one // n, -(-one // n)  # floor and ceil of 2^bits / power
    while power <= one:
        lo += down // (2 * j + 1)
        hi -= -up // (2 * j + 1)
        j, power = j + 1, power * nn
        down, up = down // nn, -(-up // nn)
    hi -= -(one * nn) // ((2 * j + 1) * power * (nn - 1))
    return lo, hi


def _atan_inverse(n, w):
    """The atan(1/n) series as `fixed` summed it before: the oracle of
    `_inverse_series(n, w, True)`."""
    one, nn = 1 << w, n * n
    lo = hi = 0
    j, power = 0, n  # power = n^(2j + 1)
    down, up = one // n, -(-one // n)  # floor and ceil of 2^w / power
    while power <= one:
        if j & 1:
            lo, hi = lo + (-up // (2 * j + 1)), hi - down // (2 * j + 1)
        else:
            lo, hi = lo + down // (2 * j + 1), hi - (-up // (2 * j + 1))
        j, power = j + 1, power * nn
        down, up = down // nn, -(-up // nn)
    return lo - 1, hi + 1


def test_one_inverse_series_gives_the_integers_of_both_old_ones():
    for w in (64, 65, 80, 128, 333, 1024, 4096):
        for n in (3, 5, 239):
            assert _inverse_series(n, w, False) == _fixed_atanh_inverse(n, w), (n, w)
            assert _inverse_series(n, w, True) == _atan_inverse(n, w), (n, w)
        # atanh(1/3) = ln(2) / 2; each of the J < w summed terms widens the
        # bounds by at most one unit (atan is covered by `test_pi_kernel`)
        assert _encloses(_inverse_series(3, w, False), _oracle(lambda: iv.log(2) / 2, w, 2 * w), w)


def test_pi_kernel():
    # Machin's formula, at most three units of 2^-w wide at the precision
    # it is computed at and four once rounded to W
    for bits in KERNEL_BITS + (4096,):
        w = bits + LN_GUARD_BITS
        assert _encloses(_pi_fine(bits), _oracle(lambda: iv.pi, w, 2 * w), 4), bits
        assert _encloses(_machin(w), _oracle(lambda: iv.pi, w, 2 * w), 3), bits


def test_exp_kernel_at_several_magnitudes_and_signs():
    # lo 2^(k-W) <= exp(m 2^e) <= hi 2^(k-W), at most W units wide
    rng = random.Random(2718)
    for bits in KERNEL_BITS:
        w = bits + LN_GUARD_BITS
        for m, e in _dyadic_arguments(rng, 40):
            lo, hi, k = _exp_fine(m, e, bits)
            value = _oracle(lambda: iv.exp(iv.mpf(m) * iv.mpf(2) ** e), w - k, 2 * w + 32)
            assert _encloses((lo, hi), value, w), (m, e, bits)
    assert _exp_fine(0, 0, FIXED_BITS) == (1 << WORK_BITS, 1 << WORK_BITS, 0)


def test_sin_and_cos_kernel_at_several_magnitudes_and_signs():
    # lo <= 2^w' sin(v + quarter pi/2) <= hi with w' >= W, at most W units
    # wide: w' grows as sin reaches 0, so the bounds keep W relative bits
    rng = random.Random(3141)
    for bits in KERNEL_BITS:
        w = bits + LN_GUARD_BITS
        for m, e in _dyadic_arguments(rng, 40):
            for quarter, f in ((0, iv.sin), (1, iv.cos)):
                lo, hi, w_out = _trig_fine(m, e, bits, quarter)
                value = _oracle(lambda: f(iv.mpf(m) * iv.mpf(2) ** e), w_out, 2 * w_out + 32)
                assert w_out >= w and _encloses((lo, hi), value, w), (m, e, bits, quarter)
                assert max(-lo, hi).bit_length() >= w - 2 or w_out == w, (m, e, bits, quarter)
    assert _trig_fine(0, 0, FIXED_BITS, 0) == (0, 0, WORK_BITS)
    assert _trig_fine(0, 0, FIXED_BITS, 1) == (1 << WORK_BITS, 1 << WORK_BITS, WORK_BITS)


def _log_combo(k: int, s: int) -> dict:
    """c(k, s) as {prime: rational multiplier} for sum q_p ln p."""
    combo: dict[int, Fraction] = {2: Fraction(1)}
    for x in (k, s):
        g = gamma_norm_constant(x)
        if g != 1:
            combo[g] = combo.get(g, Fraction(0)) - Fraction(1, euler_phi(x))
    return {p: q for p, q in combo.items() if q != 0}


def _fixed_combo(terms: tuple) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^FIXED_BITS * sum q_p ln p <= hi: each term
    q ln p is rounded outward from the bounds of ln p."""
    lo = hi = 0
    for p, q in terms:
        a, b = pairs._fixed_term(q.numerator, q.denominator, p)
        lo, hi = lo + a, hi + b
    return lo, hi


def _fraction_bounds(k, s):
    return _fixed_combo(tuple(sorted(_log_combo(k, s).items())))


def test_coefficient_bounds_match_the_fraction_combination():
    # the integer terms of c(k, s) from gamma and phi are the Fraction
    # combination of prime logarithms, and their bounds are the ones it
    # gives; no term is left exactly when the combination is empty
    for k in range(3, 401):
        for s in range(3, k + 1):
            terms, combo = pairs._coefficient_terms(k, s), _log_combo(k, s)
            assert pairs._fixed_coefficient(k, s) == _fraction_bounds(k, s), (k, s)
            assert (not terms) == (not combo), (k, s)
            assert len(terms) == len(combo), (k, s)
            assert {p: Fraction(num, den) for num, den, p in terms} == combo, (k, s)


# -- past the sieve limit: the kernels as `pair_floor` reads them --------------


def _seeded_primes(rng, count, low=TAIL_START + 1, high=10**7):
    primes = []
    while len(primes) < count:
        x = rng.randint(low, high)
        if gamma_norm_constant(x) == x:
            primes.append(x)
    return primes


def test_neg_ln_sin_kernel_past_the_ln_table():
    rng = random.Random(4097)
    for x in [TAIL_START + 1, 10**7] + [rng.randint(TAIL_START + 1, 10**7) for _ in range(200)]:
        value = _oracle(lambda: -iv.log(iv.sin(iv.pi / x)))
        assert _encloses(_fixed_neg_ln_sin(x, FIXED_BITS), value, 16), x


def test_coefficient_bounds_enclose_the_oracle():
    # the bounds of c(k, s) enclose its 300-bit oracle and are a few units
    # wide: for every small pair, and for gamma a prime above the sieve
    # limit 4096, the bounds are the Fraction combination's (ln gamma from
    # `_fixed_ln` either way); (p, p) shares one term
    rng = random.Random(4099)
    primes = _seeded_primes(rng, 60)
    assert pairs._fixed_coefficient(4, 4) == (0, 0)  # exactly 0
    samples = [(k, s) for k in range(3, 41) for s in range(3, k + 1) if (k, s) != (4, 4)]
    samples += [(p, rng.randint(3, 5000)) for p in primes[:30]]
    samples += [(max(p, q), min(p, q)) for p, q in zip(primes[30:45], primes[45:])]
    samples += [(p, p) for p in primes[:10]] + [(p, 4) for p in primes[:5]]
    for k, s in samples:
        value = _oracle(lambda: iv.log(2) - iv.log(gamma_norm_constant(k)) / euler_phi(k)
                        - iv.log(gamma_norm_constant(s)) / euler_phi(s))
        assert _encloses(pairs._fixed_coefficient(k, s), value, 16), (k, s)
        assert pairs._fixed_coefficient(k, s) == _fraction_bounds(k, s), (k, s)


# -- above 64 bits: the kernels the pair certificates rerun at more bits ------


@pytest.mark.parametrize("bits", [128, 256])
def test_kernels_above_64_bits_enclose_the_oracle(bits):
    # ln p on both sides of the sieve limit, ln(a/b) and -ln sin(pi/x)
    # against an interval oracle at twice the bits; ln p comes from the
    # rational kernel for every p
    rng = random.Random(bits)
    oracle_bits = 2 * bits
    primes = [2, 3, 4093] + _seeded_primes(rng, 20, 5, TAIL_START)
    primes += [4099, 10**7 + 19] + _seeded_primes(rng, 20)
    for p in primes:
        value = _oracle(lambda: iv.log(p), bits, oracle_bits)
        assert _encloses(_fixed_ln(p, bits), value, 16), (p, bits)
        assert _fixed_ln(p, bits) == _fixed_ln_ratio(p, 1, bits), (p, bits)
    assert min(primes) < TAIL_START < max(primes)
    for _ in range(300):
        a = rng.randint(1, 10 ** rng.randint(1, 300))
        b = rng.randint(1, 10 ** rng.randint(1, 300))
        value = _ln_oracle(a, b, bits, oracle_bits)
        assert _encloses(_fixed_ln_ratio(a, b, bits), value, 16), (a, b)
        fine = _ln_oracle(a, b, bits + LN_GUARD_BITS, oracle_bits)
        assert _encloses(_ln_fine(a, b, bits), fine, 16 << LN_GUARD_BITS), (a, b)
    moduli = [3, 4, 5, 6, 7, 4095, 4096, 4097, 10**7] + [rng.randint(3, 10**7) for _ in range(100)]
    for x in moduli:
        value = _oracle(lambda: -iv.log(iv.sin(iv.pi / x)), bits, oracle_bits)
        assert _encloses(_fixed_neg_ln_sin(x, bits), value, 16), (x, bits)
