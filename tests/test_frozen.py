"""The value classes on `frozen.Frozen` behave as frozen dataclasses did:
equality within one class only, equal hashes for equal values, immutable
fields, `Name(field=value, ...)` reprs, and copies and pickles that rebuild
an equal value."""

import copy
import pickle
from fractions import Fraction

import pytest

from groundbound.balls import PI, Add, Ball, Const, Ln, Sub
from groundbound.bounds import BoundProblem
from groundbound.fields import RealCyclotomicField
from groundbound.graphs import EdgeGraphCase, Family
from groundbound.pairs import TailCertificate
from groundbound.report import Record


def _embedding():
    return RealCyclotomicField([5]).embeddings()[1]


def _record():
    return Record("pairs", "Gamma5", {"k": 31}, 120, 120, True, note="argmax")


def test_equality_is_class_sensitive():
    x, y = Const(Fraction(1, 3)), Ln(PI)
    assert Add(x, y) != Sub(x, y)
    same = Add(Const(Fraction(1, 3)), Ln(PI))
    assert Add(x, y) == same and hash(Add(x, y)) == hash(same)
    assert len({Add(x, y), Sub(x, y), same}) == 2
    assert Ball(1, 2, -3, 64) == Ball(1, 2, -3, 64) != Ball(1, 2, -3, 128)
    assert _embedding() == _embedding() and hash(_embedding()) == hash(_embedding())
    assert _embedding() != RealCyclotomicField([5]).embeddings()[0]


@pytest.mark.parametrize("value, name", [
    (Ball(1, 2, -3, 64), "lo"),
    (Const(Fraction(2)), "value"),
    (_embedding(), "representative"),
    (_record(), "note"),
], ids=("Ball", "Const", "Embedding", "Record"))
def test_fields_cannot_be_assigned(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == before


def test_reprs_name_every_field():
    assert repr(Const(Fraction(2))) == "Const(value=Fraction(2, 1))"
    assert repr(Ball(1, 2, -3, 64)) == "Ball(lo=1, hi=2, exponent=-3, precision_bits=64)"
    assert repr(TailCertificate(4096, 10**7, 12, 3)) == \
        "TailCertificate(start=4096, k_max=10000000, blocks=12, min_slack=3)"
    assert repr(_embedding()) == "Embedding(2 mod 5)"  # its own repr wins


def test_values_survive_copy_and_pickle():
    samples = [Ball(1, 2, -3, 64), _record(), _embedding(),
               TailCertificate(4096, 10**7, 12, 3),
               EdgeGraphCase(Family.G2, s=3, k=4, p=5),
               BoundProblem(2, Const(Fraction(5)), Const(Fraction(1, 2)), PI, 2)]
    for x in samples:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and repr(y) == repr(x), x


def test_constructors_still_check_their_arguments():
    from groundbound.errors import InvalidInput

    with pytest.raises(InvalidInput):
        BoundProblem(0, Const(Fraction(1)), Const(Fraction(1, 2)), PI)
    with pytest.raises(InvalidInput):
        EdgeGraphCase(Family.G2, s=3, k=4)
