"""The five 4-vertex hyperbolic edge-graph families and their bounds.

Each family is a parameterized Gram graph on vertices e1..e4 with one
broken edge u = e1.e2 > 2 and cosine weights 2cos(pi/x) elsewhere.  The
figures are not machine-readable, so adjacency is reconstructed as the
4-vertex pattern whose symbolic determinant matches the printed closed
form; the match is exact for four of the five families (and for every
s = 2 case of the third), while the third family's printed u-coefficient
is half of what any Gram pattern attains -- there the printed closed
form is what the published numbers follow, so it is what the bound
pipeline uses (see the repository notes on divergences).

The printed quadratic -d(u)/4 = a u^2 + b u + c bounds the broken edge:
u lies between its roots, an interval of squared length
Delta = (b^2 - 4ac) / a^2 at the identity embedding.  `VARIANTS` lists the
variant values each family admits, and `variant_width` turns Delta into
the squared width W of the interval where the variant value must lie and
the exceptional radius r; `bounds.method_a_problem` turns (F, W, N(W), r)
into (M, B, R, S), the least-N solver bounds the degree, and
`family_bound` assembles the per-family tables.  The certified signs of
Delta at the embeddings of F drive the feasibility trichotomy:

* identity sign negative  -> the ground field equals F (exact degree);
* a conjugate sign negative -> no V-arithmetic instance exists;
* totally positive        -> the solver path applies.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import balls
from .balls import AlgConst, Const, as_expr, certify_sign
from .bounds import BoundProblem, method_a_problem, solve
from .cyclo import CycloElement
from .errors import (
    GroundboundError,
    InfeasibleCase,
    InvalidInput,
    MissingRange,
)
from .fields import RealCyclotomicField, field_norm
from .frozen import Frozen, set_field

MINIMALITY = 14


class Family(enum.Enum):
    G1 = "Gamma1"
    G2 = "Gamma2"
    G3 = "Gamma3"
    G4 = "Gamma4"
    G5 = "Gamma5"


class Variant(enum.Enum):
    U = "u"
    U_SQUARED = "u_squared"
    U_TILDE = "u_tilde"


# the weighted edges of each family, (i, j) -> the parameter x of the entry
# 2cos(pi/x); e1.e2 = u is the broken edge and every other entry is 0
_EDGES = {
    Family.G1: {(0, 2): "s", (0, 3): "r", (1, 2): "k", (1, 3): "p"},
    Family.G2: {(0, 2): "s", (1, 2): "k", (2, 3): "p"},
    Family.G3: {(0, 2): "s", (1, 3): "k", (2, 3): "r"},
    Family.G4: {(0, 2): "s", (0, 3): "r", (1, 2): "k"},
    Family.G5: {(0, 2): "s", (1, 3): "k"},
}


def _param_names(family: Family) -> tuple:
    """The family's parameters, in `EdgeGraphCase.params` order."""
    return tuple(n for n in "skrp" if n in _EDGES[family].values())


class Feasibility(enum.Enum):
    FEASIBLE = "FEASIBLE"
    FORCES_FIELD_EQUALS_F = "FORCES_FIELD_EQUALS_F"
    IMPOSSIBLE = "IMPOSSIBLE"


class EdgeGraphCase(Frozen):
    __slots__ = ("family", "s", "k", "r", "p")

    def __init__(self, family: Family, s: int | None = None, k: int | None = None,
                 r: int | None = None, p: int | None = None):
        set_field(self, "family", family)
        set_field(self, "s", s)
        set_field(self, "k", k)
        set_field(self, "r", r)
        set_field(self, "p", p)
        names = _param_names(family)
        given = tuple(n for n in "skrp" if getattr(self, n) is not None)
        if given != names or any(getattr(self, n) < 2 for n in names):
            raise InvalidInput(
                f"{family.value} takes exactly {', '.join(names)}, each >= 2"
            )

    def params(self) -> tuple:
        return tuple(getattr(self, n) for n in _param_names(self.family))

    def label(self) -> str:
        inner = ",".join(f"{n}={getattr(self, n)}" for n in _param_names(self.family))
        return f"{self.family.value}({inner})"


class FundamentalMatrix(Frozen):
    """Symmetric Gram matrix with diagonal -2; entries are exact."""

    __slots__ = ("size", "entries")

    def __init__(self, size: int, entries: tuple):
        for i in range(size):
            if entries[i][i] != -2:
                raise ValueError("diagonal must be -2")
            for j in range(size):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("matrix must be symmetric")
        set_field(self, "size", size)
        set_field(self, "entries", entries)

    def minimality(self, t: int = MINIMALITY) -> bool:
        """All off-diagonal entries certified < t."""
        for i in range(self.size):
            for j in range(self.size):
                if i == j:
                    continue
                sign = certify_sign(Const(Fraction(t)) - as_expr(self.entries[i][j]))
                if sign != balls.GREATER:
                    return False
        return True


# -- parameter enumeration ------------------------------------------------

_G4_SR = ((3, 3), (3, 4), (3, 5), (4, 3), (5, 3))


def enumerate_cases(family: Family, k_range=None) -> list[EdgeGraphCase]:
    """Admissible parameter tuples in the deterministic report order: the
    order of the published table for G1-G3, k-major for G4 and G5.  The
    G1-G3 cases are the published ones, so those families take no k range."""
    if family in _PUBLISHED:
        if k_range is not None:
            raise InvalidInput(f"{family.value} has a fixed case list and takes no k range")
        names = _param_names(family)
        return [EdgeGraphCase(family, **dict(zip(names, key))) for key in _PUBLISHED[family]]
    if k_range is None:
        raise MissingRange(f"{family.value} needs an explicit k range")
    if family == Family.G4:
        return [EdgeGraphCase(family, s=s, k=k, r=r)
                for k in k_range for s, r in _G4_SR]
    return [EdgeGraphCase(family, s=s, k=k)
            for k in k_range for s in range(3, k + 1)]


# -- symbolic matrices and determinants ------------------------------------
#
# A "upoly" is a polynomial in the broken-edge weight u with exact
# cyclotomic coefficients, stored constant-first.


def ambient_modulus(case: EdgeGraphCase) -> int:
    n = 1
    for x in case.params():
        n = lcm(n, 2 * x)
    return n


def _cosent(x: int, n: int) -> CycloElement:
    """Entry 2cos(pi/x) in the ambient field."""
    return CycloElement.cos2pi(1, 2 * x, n) * 2


def _upoly_add(a, b):
    out = list(a) + [None] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = c if out[i] is None else out[i] + c
    return tuple(out)


def _upoly_mul(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


def symbolic_gram(case: EdgeGraphCase) -> tuple:
    """4x4 matrix of u-polynomials (tuples of cyclotomic coefficients):
    -2 on the diagonal, u at (0, 1), the `_EDGES` weights, 0 elsewhere."""
    n = ambient_modulus(case)
    zero = CycloElement.rational(n, 0)
    rows = [[(zero,)] * 4 for _ in range(4)]
    for i in range(4):
        rows[i][i] = (CycloElement.rational(n, -2),)
    rows[0][1] = rows[1][0] = (zero, CycloElement.rational(n, 1))
    for (i, j), name in _EDGES[case.family].items():
        rows[i][j] = rows[j][i] = (_cosent(getattr(case, name), n),)
    return tuple(tuple(row) for row in rows)


def symbolic_determinant(case: EdgeGraphCase) -> tuple:
    """det of the symbolic Gram matrix as a u-polynomial."""
    rows = symbolic_gram(case)
    n = ambient_modulus(case)
    zero = CycloElement.rational(n, 0)
    total = (zero,)
    for perm in itertools.permutations(range(4)):
        sign = _perm_sign(perm)
        term = (CycloElement.rational(n, sign),)
        for i in range(4):
            term = _upoly_mul(term, rows[i][perm[i]], zero)
        total = _upoly_add(total, term)
    return total


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def determinant_closed_form(case: EdgeGraphCase) -> tuple:
    """The printed family closed form for d(u), as a u-polynomial."""
    n = ambient_modulus(case)

    def c(x):  # cos(pi/x)
        return CycloElement.cos2pi(1, 2 * x, n)

    def cos2(x):
        return (1 + CycloElement.cos2pi(1, x, n)) / 2

    def sin2(x):
        return (1 - CycloElement.cos2pi(1, x, n)) / 2

    def cos2pi(x):  # cos(2pi/x)
        return CycloElement.cos2pi(1, x, n)

    zero = CycloElement.rational(n, 0)
    one = CycloElement.rational(n, 1)
    f, s, k, r, p = case.family, case.s, case.k, case.r, case.p
    if f == Family.G1:
        a = 2 * (c(r) * c(p) + c(k) * c(s))
        shifted = (a, one)  # u + a
        sq = _upoly_mul(shifted, shifted, zero)
        b = (cos2pi(k) + cos2pi(p)) * (cos2pi(r) + cos2pi(s))
        minus_quarter = _upoly_add(sq, (-b,))
    elif f == Family.G2:
        minus_quarter = (
            4 * (cos2(s) + cos2(k) + cos2(p) - 1),
            4 * c(s) * c(k),
            sin2(p),
        )
    elif f == Family.G3:
        minus_quarter = (
            4 * cos2(r) - 4 * sin2(s) * sin2(k),
            2 * c(s) * c(k) * c(r),
            sin2(r),
        )
    elif f == Family.G4:
        minus_quarter = (
            4 * cos2(s) - 4 * sin2(k) * sin2(r),
            4 * c(s) * c(k),
            one,
        )
    elif f == Family.G5:
        minus_quarter = (-4 * sin2(k) * sin2(s), zero, one)
    else:
        raise ValueError(f)
    return tuple(-4 * coef for coef in minus_quarter)


def _upoly_at(poly, u):
    """poly(u) by Horner's rule."""
    acc = poly[-1]
    for coef in reversed(poly[:-1]):
        acc = acc * u + coef
    return acc


def _exact_u(case: EdgeGraphCase, u_value) -> CycloElement:
    if isinstance(u_value, CycloElement):
        return u_value
    return CycloElement.rational(ambient_modulus(case), u_value)


def gram_matrix(case: EdgeGraphCase, u_value) -> FundamentalMatrix:
    """Numeric Gram matrix with the broken edge set to `u_value`."""
    u = _exact_u(case, u_value)
    entries = tuple(tuple(_upoly_at(poly, u) for poly in row) for row in symbolic_gram(case))
    return FundamentalMatrix(size=4, entries=entries)


def determinant_value(case: EdgeGraphCase, u_value):
    """d(u_value), exact, from the family closed form."""
    acc = _upoly_at(determinant_closed_form(case), _exact_u(case, u_value))
    return acc.as_rational() if acc.is_rational() else acc


# -- ground-field data ------------------------------------------------------


def field_of(case: EdgeGraphCase) -> RealCyclotomicField:
    """F = Q(cos^2(pi/x) : x a parameter of the case)."""
    return RealCyclotomicField([x for x in case.params() if x > 2])


def discriminant_like(case: EdgeGraphCase) -> CycloElement:
    """Delta = (b^2 - 4ac) / a^2 for the printed -d(u)/4 = a u^2 + b u + c,
    in F: the squared length of the u-interval at the identity embedding.

    b itself is not in F (it carries cos(pi/x)), but b^2 - 4ac is:
    G1: a = 1, b^2 - 4ac = 4 (cos 2pi/k + cos 2pi/p)(cos 2pi/r + cos 2pi/s);
    G2: a = sin^2(pi/p); G3: a = sin^2(pi/r); G4, G5: a = 1.
    """
    sin2 = field_of(case).sin2

    def cos2(x):
        return 1 - sin2(x)

    def cos2pi(x):  # cos(2pi/x) = 1 - 2 sin^2(pi/x)
        return 1 - 2 * sin2(x)

    f, s, k, r, p = case.family, case.s, case.k, case.r, case.p
    if f == Family.G1:
        return 4 * (cos2pi(k) + cos2pi(p)) * (cos2pi(r) + cos2pi(s))
    if f == Family.G2:
        disc = 16 * cos2(s) * cos2(k) + 16 * sin2(p) * (1 - cos2(s) - cos2(k) - cos2(p))
        return disc / sin2(p) ** 2
    if f == Family.G3:
        disc = (
            4 * cos2(s) * cos2(k) * cos2(r)
            + 16 * sin2(s) * sin2(k) * sin2(r)
            - 16 * sin2(r) * cos2(r)
        )
        return disc / sin2(r) ** 2
    if f == Family.G4:
        return 16 * (sin2(r) - cos2(s)) * sin2(k)
    if f == Family.G5:
        return 16 * sin2(k) * sin2(s)
    raise ValueError(f)


@lru_cache(maxsize=8)
def _field_and_d(case: EdgeGraphCase) -> tuple[RealCyclotomicField, CycloElement]:
    """(F, Delta) of the case, shared by the feasibility signs and the
    Method-A width: one `case_bound` needs both, and a case with a further
    admissible variant needs them again for its next row, so the latest few
    cases are kept."""
    return field_of(case), discriminant_like(case)


def feasibility(case: EdgeGraphCase) -> Feasibility:
    """Certified signs of Delta at the embeddings of F."""
    F, d = _field_and_d(case)
    # an exact algebraic sign is never UNDECIDED: `certify_sign` raises
    # UndecidableError itself when it cannot separate the value from 0
    signs = [certify_sign(AlgConst(emb.apply(d))) for emb in F.embeddings()]
    if balls.LESS in signs[1:]:
        return Feasibility.IMPOSSIBLE
    if signs[0] == balls.LESS:
        return Feasibility.FORCES_FIELD_EQUALS_F
    return Feasibility.FEASIBLE


# -- Method-A problem assembly ---------------------------------------------

# the variant values each family admits, its default first; G3 admits u^2
# only at s = 2, where the u-coefficient of -d(u)/4 vanishes
VARIANTS = {
    Family.G1: (Variant.U,),
    Family.G2: (Variant.U,),
    Family.G3: (Variant.U, Variant.U_SQUARED),
    Family.G4: (Variant.U_TILDE,),
    Family.G5: (Variant.U_SQUARED,),
}


def admissible_variants(case: EdgeGraphCase) -> tuple[Variant, ...]:
    """The case's row of `VARIANTS`: the default variant first."""
    variants = VARIANTS[case.family]
    return variants[:1] if case.family == Family.G3 and case.s != 2 else variants


def variant_width(delta: CycloElement, variant: Variant) -> tuple[CycloElement, int]:
    """(W, r) from the squared length Delta of the u-interval.

    u lies in an interval of length sqrt(Delta), so W = Delta with
    exceptional radius 16.  u^2 (where the interval is symmetric about 0)
    and u-tilde lie in intervals of length Delta / 4, so W = (Delta / 4)^2,
    with radius 14^2 for u^2 and 16^2 for u-tilde.
    """
    if variant == Variant.U:
        return delta, 16
    quarter = delta / 4
    return quarter * quarter, (MINIMALITY**2 if variant == Variant.U_SQUARED else 16**2)


def method_a_width(case: EdgeGraphCase, variant: Variant) -> tuple[CycloElement, int]:
    """(W, r) for the case's variant value: W in F is the squared width of
    the interval where the variant value must lie, at the identity
    embedding (its conjugates give the widths at the other embeddings),
    and r is the radius of the exceptional interval."""
    admissible = admissible_variants(case)
    if variant not in admissible:
        raise GroundboundError(f"variant {variant.value} undefined for {case.label()}; "
                               f"admissible: {', '.join(v.value for v in admissible)}")
    return variant_width(_field_and_d(case)[1], variant)


def bound_problem(case: EdgeGraphCase, variant: Variant | None = None, m: int = 1) -> BoundProblem:
    """Method-A (M, B, R, S, m) for the case, with exact norms throughout."""
    if variant is None:
        variant = admissible_variants(case)[0]
    feas = feasibility(case)
    if feas != Feasibility.FEASIBLE:
        raise InfeasibleCase(f"{case.label()} is {feas.value}")
    return _feasible_problem(case, variant, m)


def _feasible_problem(case: EdgeGraphCase, variant: Variant, m: int) -> BoundProblem:
    """`bound_problem` for a case already certified FEASIBLE."""
    F = _field_and_d(case)[0]
    width_sq, radius = method_a_width(case, variant)
    return method_a_problem(F, width_sq, field_norm(F, width_sq), radius, m)


# -- per-case and per-family bounds ------------------------------------------


class CaseBound(Frozen):
    __slots__ = ("case", "variant", "m", "mechanism", "field_degree", "least_n", "bound",
                 "published_bound", "problem")

    def __init__(self, case: EdgeGraphCase, variant: Variant | None, m: int,
                 mechanism: str, field_degree: int, least_n: int | None, bound: int,
                 published_bound: int | None, problem: BoundProblem | None):
        set_field(self, "case", case)
        set_field(self, "variant", variant)
        set_field(self, "m", m)
        set_field(self, "mechanism", mechanism)  # "solver" or "forced_degree"
        set_field(self, "field_degree", field_degree)
        set_field(self, "least_n", least_n)
        set_field(self, "bound", bound)
        set_field(self, "published_bound", published_bound)
        set_field(self, "problem", problem)

    @property
    def match(self) -> bool | None:
        if self.published_bound is None:
            return None
        return self.bound == self.published_bound


class FamilyTable(Frozen):
    __slots__ = ("family", "rows", "maximum", "argmax")

    def __init__(self, family: Family, rows: tuple, maximum: int, argmax: EdgeGraphCase):
        set_field(self, "family", family)
        set_field(self, "rows", rows)
        set_field(self, "maximum", maximum)
        set_field(self, "argmax", argmax)


PUBLISHED_G1_M1 = {
    (3, 3, 3, 3): 22, (3, 3, 4, 3): 15, (3, 3, 5, 3): 24,
    (3, 3, 4, 4): 12, (3, 3, 5, 4): 18, (3, 3, 5, 5): 18,
    (3, 4, 4, 3): 12, (3, 4, 5, 3): 18, (3, 5, 5, 3): 18,
}
PUBLISHED_G1_M2 = {(3, 4, 4, 3): 9, (3, 5, 5, 3): 14}
PUBLISHED_G2 = {
    (3, 3, 3): 39, (3, 4, 3): 21, (3, 5, 3): 34, (4, 4, 3): 14,
    (4, 5, 3): 22, (5, 5, 3): 24, (3, 3, 4): 22, (3, 3, 5): 32,
}
PUBLISHED_G3_BASIC = {
    (2, 3, 3): 83, (2, 3, 4): 45, (2, 3, 5): 66, (2, 4, 3): 28,
    (2, 5, 3): 48, (3, 3, 3): 37, (3, 4, 3): 18, (3, 5, 3): 24,
    (4, 4, 3): 9, (4, 5, 3): 2, (5, 5, 3): 2, (3, 3, 4): 17, (3, 3, 5): 2,
}
PUBLISHED_G3_IMPROVED = {
    (2, 3, 3): 53, (2, 3, 4): 31, (2, 3, 5): 32, (2, 4, 3): 19, (2, 5, 3): 22,
}
PUBLISHED_FAMILY_MAXIMA = {Family.G1: 24, Family.G2: 39, Family.G3: 53,
                           Family.G4: 120, Family.G5: 120}
# the m = 1 table of each family with published per-case bounds; its keys
# are the family's admissible cases, in report order
_PUBLISHED = {Family.G1: PUBLISHED_G1_M1, Family.G2: PUBLISHED_G2,
              Family.G3: PUBLISHED_G3_BASIC}


def case_bound(case: EdgeGraphCase, variant: Variant | None = None, m: int = 1,
               published_bound: int | None = None) -> CaseBound:
    """Solve one case; forced-degree cases bypass the solver."""
    if variant is None:
        variant = admissible_variants(case)[0]
    feas = feasibility(case)
    F = _field_and_d(case)[0]
    if feas == Feasibility.FORCES_FIELD_EQUALS_F:
        return CaseBound(case=case, variant=variant, m=m, mechanism="forced_degree",
                         field_degree=F.degree, least_n=None, bound=F.degree,
                         published_bound=published_bound, problem=None)
    if feas == Feasibility.IMPOSSIBLE:
        raise InfeasibleCase(f"{case.label()} admits no V-arithmetic instance")
    problem = _feasible_problem(case, variant, m)
    result = solve(problem)
    return CaseBound(case=case, variant=variant, m=m, mechanism="solver",
                     field_degree=F.degree, least_n=result.least_n,
                     bound=result.degree_bound, published_bound=published_bound,
                     problem=problem)


def family_bound(family: Family, k_range=None) -> FamilyTable:
    """Per-case table and family maximum (Method A only).

    Each case gets one row per admissible variant with m = 1: the default
    variant's row is checked against `_PUBLISHED`, and a case whose first
    row came from the solver gets one row per further variant, checked
    against `PUBLISHED_G3_IMPROVED`; the case's final value is the least of
    its bounds.  G1 cases in `PUBLISHED_G1_M2` also get an m = 2 row for
    information only.  G4 defaults to 2 <= k <= 6.

    The global G4 and G5 maxima over unbounded k live in the pair-search
    module.
    """
    if family == Family.G4 and k_range is None:
        k_range = range(2, 7)
    published = _PUBLISHED.get(family, {})
    rows = []
    finals = {}
    for case in enumerate_cases(family, k_range):
        key = case.params()
        default, *further = admissible_variants(case)
        row = case_bound(case, default, published_bound=published.get(key))
        rows.append(row)
        finals[case] = row.bound
        if family == Family.G1 and key in PUBLISHED_G1_M2:
            rows.append(case_bound(case, m=2, published_bound=PUBLISHED_G1_M2[key]))
        if row.mechanism == "solver":
            for variant in further:
                extra = case_bound(case, variant, published_bound=PUBLISHED_G3_IMPROVED.get(key))
                rows.append(extra)
                finals[case] = min(finals[case], extra.bound)
    if not finals:
        raise InvalidInput(f"no {family.value} case in the k range")
    argmax = max(finals, key=lambda c: (finals[c], c.params()))
    return FamilyTable(family=family, rows=tuple(rows),
                       maximum=finals[argmax], argmax=argmax)
