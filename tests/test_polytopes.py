from fractions import Fraction as F

import pytest

from groundbound.balls import PI, Const, Div, Mul
from groundbound.errors import InadmissibleQuery, InadmissibleSignature
from groundbound.polytopes import (
    _existence_margin,
    certified_floor,
    existence_inequality,
    face_average_bound,
    fuchsian_t_bound,
    max_admissible_dimension,
    narrow_face_identity,
    narrow_face_vertex_bound,
    takeuchi_bound,
)


def test_face_average_examples():
    assert face_average_bound(0, 2, 9) == F(9, 2)
    assert face_average_bound(0, 2, 5) == 5
    # admissibility boundary m = 2k - 1
    assert face_average_bound(2, 2, 3) > 0
    with pytest.raises(InadmissibleQuery):
        face_average_bound(0, 2, 2)
    with pytest.raises(InadmissibleQuery):
        face_average_bound(3, 2, 9)


def test_narrow_face_bound():
    assert narrow_face_vertex_bound(10) == F(9, 2)
    assert narrow_face_vertex_bound(7) == 5
    assert narrow_face_vertex_bound(6) == 5


def test_identity_with_face_average():
    for n in range(4, 201):
        assert narrow_face_vertex_bound(n) == face_average_bound(0, 2, n - 1)
    assert narrow_face_identity()


def test_existence_inequality_values():
    c = existence_inequality(10)
    assert (c.lhs, c.rhs, c.holds) == (F(180), F(180), False)
    c = existence_inequality(9)
    assert (c.lhs, c.rhs, c.holds) == (F(448, 3), F(140), True)
    c = existence_inequality(12)
    assert (c.lhs, c.rhs, c.holds) == (F(264), F(275), False)


def test_dimension_elimination_exhaustive():
    for n in range(4, 10):
        assert existence_inequality(n).holds, n
    for n in range(10, 10**4 + 1):
        assert not existence_inequality(n).holds, n
    for n in range(4, 10**4 + 1):  # the closed form max_admissible_dimension certifies
        check = existence_inequality(n)
        assert check.lhs - check.rhs == _existence_margin(n), n
    assert max_admissible_dimension() == 9  # no scan beyond n = 10


def test_takeuchi_bounds():
    assert takeuchi_bound(0, 4) == 11
    assert takeuchi_bound(0, 46) == 44
    assert takeuchi_bound(0, 3) >= 5
    with pytest.raises(InadmissibleSignature):
        takeuchi_bound(0, 1)  # 2g + t - 2 = -1


def test_takeuchi_monotone_in_t():
    values = [takeuchi_bound(0, t) for t in range(3, 101)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_fuchsian_t_bound():
    area = Div(Mul(Const(F(128)), PI), Const(F(3)))
    assert fuchsian_t_bound(area) == 46
    assert fuchsian_t_bound(Mul(Const(F(2)), PI)) == 6  # exact tie at t = 6
    small = fuchsian_t_bound(Mul(Const(F(1)), PI))
    bigger = fuchsian_t_bound(Mul(Const(F(10)), PI))
    assert small <= bigger  # monotone in the area bound


def test_fuchsian_tie_through_exact_subexpressions():
    two = Const(F(1)) + Const(F(1))
    assert fuchsian_t_bound(Mul(two, PI)) == 6
    assert fuchsian_t_bound(Div(Mul(Const(F(4)), PI), two)) == 6


def test_counting_chain_intermediates():
    from groundbound.polytopes import counting_chain

    chain = counting_chain(10)
    assert chain["vertex_average_bound"] == F(9, 2)
    assert chain["edges_per_vertex_pairs"] == 36
    assert chain["lhs"] == 180 and chain["rhs"] == 180 and not chain["holds"]
    assert counting_chain(9)["holds"]


def test_certified_floor():
    from groundbound.balls import Ln

    assert certified_floor(Const(F(7, 2))) == 3
    assert certified_floor(Ln(Const(F(100)))) == 4
