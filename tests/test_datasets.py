from fractions import Fraction

from groundbound import datasets


EXPECTED_TAKEUCHI_BYTES = b"""Q|1|rational
Q(sqrt(2))|2|sqrt:2
Q(sqrt(3))|2|sqrt:3
Q(sqrt(5))|2|sqrt:5
Q(sqrt(6))|2|sqrt:6
Q(sqrt(2),sqrt(3))|4|multi_sqrt:2,3
Q(sqrt(2),sqrt(5))|4|multi_sqrt:2,5
Q(cos(2pi/7))|3|cos2pi:7
Q(cos(2pi/9))|3|cos2pi:9
Q(cos(2pi/11))|5|cos2pi:11
Q(cos(2pi/15))|4|cos2pi:15
Q(cos(2pi/16))|4|cos2pi:16
Q(cos(2pi/20))|4|cos2pi:20
"""


def test_lanner4():
    fields = datasets.lanner4_fields()
    assert len(fields) == 3
    assert [f.name for f in fields] == ["Q", "Q(sqrt(2))", "Q(sqrt(5))"]
    assert max(f.degree for f in fields) == 2


def test_takeuchi_fields_byte_exact():
    fields = datasets.takeuchi_fields()
    assert len(fields) == 13
    assert max(f.degree for f in fields) == 5
    deg5 = [f for f in fields if f.degree == 5]
    assert deg5[0].generator == "cos2pi:11"
    raw = datasets._data_text("takeuchi_fields.txt").encode()
    assert raw == EXPECTED_TAKEUCHI_BYTES


def test_triangle_triples():
    triples = datasets.triangle_triples()
    assert len(triples) == 76
    assert (2, 3, 7) in triples and (15, 15, 15) in triples
    assert len(set(triples)) == 76
    for k, l, m in triples:
        assert Fraction(1, k) + Fraction(1, l) + Fraction(1, m) < 1, (k, l, m)
        assert k <= l <= m


def test_summary():
    summary = datasets.dataset_summary()
    assert summary == {
        "lanner4_count": 3,
        "takeuchi_field_count": 13,
        "takeuchi_max_degree": 5,
        "triangle_triple_count": 76,
        "all_triples_hyperbolic": True,
    }
