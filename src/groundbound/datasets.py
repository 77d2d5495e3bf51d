"""Static field and triangle datasets shipped with the package.

Three versioned plain-text tables, one record per line, so tests can
diff them byte for byte:

* ``lanner4_fields.txt`` -- the three ground fields of arithmetic
  Lanner graphs with at least four vertices;
* ``takeuchi_fields.txt`` -- the thirteen ground fields of the bounded
  arithmetic triangle groups;
* ``triangle_triples.txt`` -- the 76 bounded arithmetic triangle
  signatures (k, l, m).
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources

from .frozen import Frozen, set_field


class FieldRecord(Frozen):
    __slots__ = ("name", "degree", "generator")

    def __init__(self, name: str, degree: int, generator: str):
        set_field(self, "name", name)
        set_field(self, "degree", degree)
        set_field(self, "generator", generator)


def _data_text(filename: str) -> str:
    return resources.files("groundbound.data").joinpath(filename).read_text()


def _parse_fields(filename: str) -> tuple[FieldRecord, ...]:
    out = []
    for line in _data_text(filename).splitlines():
        name, degree, generator = line.split("|")
        out.append(FieldRecord(name=name, degree=int(degree), generator=generator))
    return tuple(out)


def lanner4_fields() -> tuple[FieldRecord, ...]:
    return _parse_fields("lanner4_fields.txt")


def takeuchi_fields() -> tuple[FieldRecord, ...]:
    return _parse_fields("takeuchi_fields.txt")


def triangle_triples() -> tuple[tuple[int, int, int], ...]:
    out = []
    for line in _data_text("triangle_triples.txt").splitlines():
        k, l, m = map(int, line.split())
        out.append((k, l, m))
    return tuple(out)


def triangle_is_hyperbolic(k: int, l: int, m: int) -> bool:
    return Fraction(1, k) + Fraction(1, l) + Fraction(1, m) < 1


def dataset_summary() -> dict:
    triples = triangle_triples()
    tf = takeuchi_fields()
    return {
        "lanner4_count": len(lanner4_fields()),
        "takeuchi_field_count": len(tf),
        "takeuchi_max_degree": max(f.degree for f in tf),
        "triangle_triple_count": len(triples),
        "all_triples_hyperbolic": all(triangle_is_hyperbolic(*t) for t in triples),
    }
