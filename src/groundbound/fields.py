"""Invariants of real cyclotomic fields F = Q(cos^2(pi/l), ...).

A field is described by the moduli whose squared cosines generate it.
Moduli in {3, 4, 6} contribute rational cosines and are normalized away;
what remains is a subfield of Q(cos 2pi/n) for n = lcm(moduli), cut out
by the fixing group H = {a mod n : a = +-1 mod each modulus}.

Conventions
-----------
* degree = phi(n) / |H|, which reproduces phi(l)/2 for one modulus and
  phi([l,m]) / (2 rho(l,m)) for two.
* embeddings are residue classes of (Z/n)* modulo H, canonicalized as
  the smallest representative; the identity embedding is the class of 1.
* norms are exact: a resultant with psi_n in the full field, a product
  of conjugates in a proper subfield; discriminants come from
  the conductor-discriminant formula, whose conductor exponents are
  counted by the indices of H in the unit groups (Z/d)* for d | n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import polyint as P
from .polyint import _factorize
from .cyclo import CycloElement, euler_phi, field_degree, gamma_norm_constant, sin2_pi_over
from .errors import ElementNotInField, InvalidModulus
from .frozen import Frozen, set_field

RATIONAL_COSINE_MODULI = frozenset({3, 4, 6})
# sin^2(pi/l) for l = 2 and the rational-cosine moduli
_RATIONAL_SIN2 = {2: Fraction(1), 3: Fraction(3, 4), 4: Fraction(1, 2), 6: Fraction(1, 4)}


def invariants(l: int) -> dict:
    """phi(l) and the norm constant gamma(l) (p if l = p^t, else 1)."""
    if l < 3:
        raise InvalidModulus(f"modulus {l} < 3")
    return {"phi": euler_phi(l), "gamma": gamma_norm_constant(l)}


def compositum_info(l: int, m: int) -> dict:
    """lcm, rho and degree of Q(cos^2(pi/l), cos^2(pi/m))."""
    if l < 3 or m < 3:
        raise InvalidModulus("moduli must be >= 3")
    n = lcm(l, m)
    rho = 2 if gcd(l, m) in (1, 2) else 1
    return {"lcm": n, "rho": rho, "degree": euler_phi(n) // (2 * rho)}


class Embedding(Frozen):
    """A real embedding of the field: residue class a mod n, modulo +-H."""

    __slots__ = ("field", "representative")

    def __init__(self, field: RealCyclotomicField, representative: int):
        set_field(self, "field", field)
        set_field(self, "representative", representative)

    @property
    def is_identity(self) -> bool:
        return self.representative == 1 or self.field.degree == 1

    def apply(self, x: CycloElement) -> CycloElement:
        if self.field.n == 1:
            return x
        return x.conjugate(self.representative)

    def __repr__(self):
        return f"Embedding({self.representative} mod {self.field.n})"


class RealCyclotomicField:
    """Compositum of maximal real subfields Q(cos 2pi/l)."""

    __slots__ = ("moduli", "n", "fixing_group", "degree")

    def __init__(self, moduli):
        ms = []
        for m in moduli:
            m = int(m)
            if m < 3:
                raise InvalidModulus(f"modulus {m} < 3")
            if m not in RATIONAL_COSINE_MODULI:
                ms.append(m)
        ms = sorted(set(ms))
        n = 1
        for m in ms:
            n = lcm(n, m)
        if n > 2:
            fixing = tuple(
                a
                for a in range(1, n)
                if gcd(a, n) == 1 and all(a % m in (1, m - 1) for m in ms)
            )
            degree = euler_phi(n) // len(fixing)
        else:
            n = 1
            fixing = (1,)
            degree = 1
        set_field(self, "moduli", tuple(ms))
        set_field(self, "n", n)
        set_field(self, "fixing_group", fixing)
        set_field(self, "degree", degree)

    def __setattr__(self, *a):
        raise AttributeError("RealCyclotomicField is immutable")

    def __reduce__(self):
        return RealCyclotomicField, (self.moduli,)

    def __eq__(self, other):
        return (
            isinstance(other, RealCyclotomicField)
            and self.n == other.n
            and self.fixing_group == other.fixing_group
        )

    def __hash__(self):
        return hash((self.n, self.fixing_group))

    def __repr__(self):
        if self.degree == 1:
            return "RealCyclotomicField(Q)"
        return f"RealCyclotomicField(moduli={self.moduli}, degree={self.degree})"

    @classmethod
    def rationals(cls) -> "RealCyclotomicField":
        return cls(())

    # -- embeddings -----------------------------------------------------

    def embeddings(self) -> list[Embedding]:
        """All real embeddings, identity first, then by representative."""
        if self.n == 1:
            return [Embedding(self, 1)]
        reps = set()
        for a in range(1, self.n):
            if gcd(a, self.n) == 1:
                reps.add(self._canonical(a))
        out = sorted(reps)
        assert len(out) == self.degree
        out.remove(1)
        return [Embedding(self, 1)] + [Embedding(self, a) for a in out]

    def _canonical(self, a: int) -> int:
        orbit = []
        for h in self.fixing_group:
            v = a * h % self.n
            orbit.append(v)
            orbit.append(self.n - v)
        return min(orbit)

    def identity_embedding(self) -> Embedding:
        return Embedding(self, 1)

    # -- membership and elements ----------------------------------------

    def element(self, x) -> CycloElement:
        """Coerce a rational/CycloElement into Q(cos 2pi/n)."""
        if isinstance(x, (int, Fraction)):
            return CycloElement.rational(self.n, x)
        if isinstance(x, CycloElement):
            if x.n == self.n:
                return x
            if self.n % x.n == 0:
                return x.to_modulus(self.n)
        raise ElementNotInField(f"{x!r} does not embed in modulus {self.n}")

    def contains(self, x: CycloElement) -> bool:
        x = self.element(x)
        if self.n == 1:
            return True
        return all(x.conjugate(h) == x for h in self.fixing_group)

    def sin2(self, l: int) -> CycloElement:
        """sin^2(pi/l) as an element of the ambient Q(cos 2pi/n)."""
        if l in RATIONAL_COSINE_MODULI or l == 2:
            return CycloElement.rational(self.n, _RATIONAL_SIN2[l])
        if self.n % l:
            raise InvalidModulus(f"{l} does not divide ambient modulus {self.n}")
        return sin2_pi_over(l, self.n)


def field_norm(field: RealCyclotomicField, x) -> Fraction:
    """Exact norm N_{F/Q}(x): the product of x over all embeddings of F."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x) ** field.degree
    x = field.element(x)
    if not field.contains(x):
        raise ElementNotInField(f"{x!r} is not fixed by the fixing group")
    if field.degree == field_degree(field.n):
        # the full field Q(beta), x = P(beta) / D: N = Res(psi_n, P) / D^d,
        # psi_n the monic minimal polynomial of beta, of degree d
        psi = P.cos_minpoly(field.n)
        return Fraction(P.resultant(psi, P.trim(x.num)), x.den ** P.degree(psi))
    prod = CycloElement.rational(field.n, 1)
    for emb in field.embeddings():
        prod = prod * emb.apply(x)
    if not prod.is_rational():
        raise ElementNotInField("norm did not land in Q; element not in field?")
    return prod.as_rational()


def norm_4sin2_closed_form(field: RealCyclotomicField, l: int) -> Fraction:
    """gamma(l)^(degree / (phi(l)/2)): the norm of 4 sin^2(pi/l) from F.

    Requires F to contain Q(cos 2pi/l), i.e. l one of the field's moduli
    (or a rational-cosine modulus).
    """
    if l in RATIONAL_COSINE_MODULI:
        return (4 * _RATIONAL_SIN2[l]) ** field.degree
    if l not in field.moduli and field.n % l:
        raise InvalidModulus(f"{l} is not a modulus of {field!r}")
    sub_degree = euler_phi(l) // 2
    if field.degree % sub_degree:
        raise InvalidModulus(f"Q(cos 2pi/{l}) is not a subfield of {field!r}")
    return Fraction(gamma_norm_constant(l)) ** (field.degree // sub_degree)


# -- conductor-discriminant ------------------------------------------------


@lru_cache(maxsize=None)
def field_discriminant(field: RealCyclotomicField) -> int:
    """|disc F| by the conductor-discriminant formula, in subgroup indices.

    |disc F| is the product of the conductors f_chi of the deg = [F:Q]
    Dirichlet characters chi mod n trivial on H = `field.fixing_group`
    (Washington, Introduction to Cyclotomic Fields, Thm 3.11).  Write
    f_chi = prod p^a_p(chi) and let p^v exactly divide n.  For 1 <= a <= v,
    a_p(chi) < a exactly when chi factors through (Z/d)* with
    d = n / p^(v-a+1).  The characters trivial on H that do are the
    characters of (Z/d)* / (H mod d), so there are phi(d) / |H mod d| of
    them, and deg - phi(d) / |H mod d| characters have a_p(chi) >= a.
    Summing over a,

        |disc F| = prod_p p^(sum_{a=1..v} (deg - phi(d) / |H mod d|)).
    """
    n, deg = field.n, field.degree
    disc = 1
    for p, v in _factorize(n):
        exponent = 0
        for a in range(1, v + 1):
            d = n // p ** (v - a + 1)
            exponent += deg - euler_phi(d) // len({h % d for h in field.fixing_group})
        disc *= p**exponent
    return disc
