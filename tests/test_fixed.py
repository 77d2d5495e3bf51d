import random
from math import ceil, floor

from mpmath import mp
from mpmath.libmp import from_man_exp, fzero

from groundbound.balls import mpf_to_fraction
from groundbound.fixed import FIXED_BITS, _scaled


def _fraction_scaled(x, up):
    """The rounding `_scaled` replaces: through the exact Fraction value."""
    value = mpf_to_fraction(x) * (1 << FIXED_BITS)
    return ceil(value) if up else floor(value)


def test_scaled_matches_fraction_formula():
    rng = random.Random(6401)
    raws = [fzero, from_man_exp(1, -FIXED_BITS), from_man_exp(-1, -FIXED_BITS),
            from_man_exp(3, -FIXED_BITS - 1), from_man_exp(-3, -FIXED_BITS - 1)]
    for _ in range(3000):
        man = rng.getrandbits(rng.randint(1, 160)) or 1
        exp = rng.randint(-FIXED_BITS - 200, 60)  # 2^64 x is an integer from exp = -64 up
        raws.append(from_man_exp(-man if rng.getrandbits(1) else man, exp))
    below = above = negative = 0
    for raw in raws:
        x = mp.make_mpf(raw)
        for up in (False, True):
            got = _scaled(x, up)
            assert type(got) is int
            assert got == _fraction_scaled(x, up), (raw, up)
        below += raw[2] < -FIXED_BITS
        above += raw[2] > -FIXED_BITS
        negative += raw[0] == 1
    assert below > 1000 and above > 500 and negative > 1000

