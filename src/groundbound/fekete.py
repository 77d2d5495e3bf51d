"""Constructive small-sup-norm integer polynomials on prescribed intervals.

The existence statement is proved via Minkowski's theorem on the linear
forms A_{k,sigma} given by the Chebyshev coefficients of P^sigma on
[a_sigma, b_sigma]; here the witness is actually constructed.  The
Chebyshev rows are integer tables over one denominator: row i of
[a, b] is R_i / s^i with s = 4 lcm(den a, den b) (`chebyshev_coefficients`),
so every Chebyshev value below is an integer quotient, not a Fraction.
The exact forms are scaled by 2^p and rounded to an integer matrix, p
chosen so that the smallest Chebyshev diagonal entry 2((b-a)/4)^n keeps
LLL_MARGIN_BITS = 32 bits.  An exact integral LLL (Cohen, GTM 138,
Alg. 2.6.7) on its columns proposes small integer coefficient vectors; it
carries only the unimodular transform, never the reduced vectors.
32 guard bits suffice: the rounded matrix only proposes, so coarser
rounding can at worst cost a longer vector, never a wrong certificate.  A
rounding error of 1/2 stays 2^-32 below even the smallest form, and in
every problem measured the first reduced vector still certifies, while
each Gram determinant d_i the reduction carries is 64 i bits shorter than
at 64 guard bits.  The proposals are certified exactly, in integers, in
one order: the reduced vectors as LLL returns them, then one bounded box
of small combinations of the first few.  The search runs over fields of
degree <= 2, so each field element is (X + Y sqrt(D)) / den with
D = p^2 - 4q for psi_n = x^2 + p x + q, and 2b + p = +sqrt(D) for
b = 2cos(2pi/n) (`_surd_of_psi`).  The coefficient-sum bound
sup = sum_k |A_{k,sigma}| is summed as integer coordinate vectors over one
denominator, each A_{k,sigma} signed exactly in Z[sqrt D] (`_surd_sign`),
and sup is compared with the theoretical bound of `fekete_bound_expr`
through their powers E = 2m(n+1), which clear its roots (`within_bound`):
no enclosure decides a certificate.  A certificate whose sup bounds
exceed the theoretical bound is never returned; exhausting the box raises
SearchExhausted, which the theory says cannot happen and is treated as a
bug signal.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from . import balls
from .balls import AlgConst, Const, Expr, Pow
from .cyclo import CycloElement, field_degree
from .errors import GroundboundError, InvalidInput, SearchExhausted
from .fields import Embedding, RealCyclotomicField, field_discriminant
from .frozen import Frozen, set_field
from .polyint import cos_minpoly

# Bits kept below the smallest Chebyshev diagonal entry when the exact
# forms are scaled to integers, and the Lovasz constant of the reduction.
LLL_MARGIN_BITS = 32
LLL_DELTA = Fraction(99, 100)

# The fallback after the reduced vectors: integer combinations of the first
# BOX_VECTORS of them with coefficients in -BOX_RADIUS..BOX_RADIUS.
BOX_RADIUS = 2
BOX_VECTORS = 3

# -- Chebyshev expansions ----------------------------------------------------


def chebyshev_scale(a: Fraction, b: Fraction) -> int:
    """s = 4 lcm(den a, den b): the true Chebyshev row i is R_i / s^i."""
    return 4 * lcm(Fraction(a).denominator, Fraction(b).denominator)


@lru_cache(maxsize=256)
def chebyshev_coefficients(a: Fraction, b: Fraction, n: int) -> tuple[tuple[int, ...], ...]:
    """Integer rows R_i, with R_i[k] / s^i the T_k coefficient of
    ((a+b)/2 + ((b-a)/2) x)^i and s = `chebyshev_scale(a, b)`.

    Multiplication by x in the Chebyshev basis sends T_k to
    (T_{k+1} + T_{|k-1|}) / 2.  With D = lcm(den a, den b), A = aD and
    B = bD, one step is R_{i+1}[k] += 2(A+B) R_i[k] and
    R_{i+1}[k+-1] += (B-A) R_i[k], k-1 read as |k-1|: integers throughout.
    Memoized: `certify_sup_norm` reuses the table `chebyshev_linear_forms`
    built for the same problem.
    """
    a, b = Fraction(a), Fraction(b)
    d = lcm(a.denominator, b.denominator)
    big_a, big_b = int(a * d), int(b * d)
    mid, half = 2 * (big_a + big_b), big_b - big_a
    rows = [(1,)]
    for _ in range(n):
        prev = rows[-1]
        out = [0] * (len(prev) + 1)
        for k, c in enumerate(prev):
            if c:
                out[k] += mid * c
                out[k + 1] += half * c
                out[abs(k - 1)] += half * c
        rows.append(tuple(out))
    return tuple(row + (0,) * (n + 1 - len(row)) for row in rows)


@lru_cache(maxsize=None)
def integral_basis(field: RealCyclotomicField) -> tuple[CycloElement, ...]:
    """Z-basis of the ring of integers; supported for degree <= 2."""
    if field.degree == 1:
        return (CycloElement.rational(field.n, 1),)
    if field.degree != 2:
        raise GroundboundError("integral bases implemented for degree <= 2 only")
    disc = field_discriminant(field)
    d = disc if disc % 4 == 1 else disc // 4
    sqrt_d = _field_sqrt(field, d)
    one = CycloElement.rational(field.n, 1)
    if disc % 4 == 1:
        return (one, (one + sqrt_d) / 2)
    return (one, sqrt_d)


def _field_sqrt(field: RealCyclotomicField, d: int) -> CycloElement:
    """The positive square root of the squarefree integer d inside F of
    degree 2, which is all of Q(b), b = 2cos(2pi/n): 2b + p = +sqrt(D) for
    psi_n = x^2 + p x + q and D = p^2 - 4q (`_surd_of_psi`), so with
    D = f^2 d the root is (2b + p)/f."""
    p, disc = _surd_of_psi(field.n)
    f = isqrt(disc // d)
    if f * f * d != disc:
        raise GroundboundError(f"p^2 - 4q = {disc} is not {d} times a square")
    return (2 * CycloElement.generator(field.n) + p) / f


@lru_cache(maxsize=None)
def _surd_of_psi(n: int) -> tuple[int, int]:
    """(p, D) for psi_n = x^2 + p x + q of degree 2, D = p^2 - 4q.

    b = 2cos(2pi/n) is the larger root of psi_n, as cos falls on [0, pi]
    and its conjugates are 2cos(2pi a/n) for 1 < a < n/2, so
    b = (-p + sqrt(D))/2 and 2b + p = +sqrt(D) with no enclosure.
    """
    if field_degree(n) != 2:
        raise GroundboundError(f"Q(cos 2pi/{n}) is not of degree 2")
    q, p, _ = cos_minpoly(n)
    return p, p * p - 4 * q


def _surd(num, n: int) -> tuple[int, int, int]:
    """(X, Y, D) with 2 (num[0] + num[1] b) = X + Y sqrt(D), b = 2cos(2pi/n),
    for the integer coordinates `num` of an element of Q(b) of degree
    <= 2; a rational element is (2 num[0], 0, 0)."""
    if len(num) == 1:
        return 2 * num[0], 0, 0
    p, disc = _surd_of_psi(n)
    return 2 * num[0] - p * num[1], num[1], disc


def _surd_sign(x: int, y: int, disc: int) -> int:
    """The sign of x + y sqrt(disc), disc >= 0 not a square unless y = 0:
    when the signs of x and y differ, x^2 against y^2 disc decides."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx * sy >= 0:
        return sx or sy
    return sx if x * x > y * y * disc else sy


class ChebyshevForms(Frozen):
    """Exact matrix of the linear forms A_{k,sigma} = sum c_{k sigma i j} a_{ij}.

    Rows are indexed by (k, sigma) and columns by (i, j), both
    lexicographically; c_{k sigma i j} = gamma_j^sigma * cheb_{sigma}[i][k],
    which vanishes for i < k and carries 2((b-a)/4)^k on the diagonal.
    The Chebyshev values are held as integer tables over one denominator
    per embedding: cheb_{sigma}[i][k] = cheb[sigma][i][k] / scales[sigma]^i.
    """

    __slots__ = ("field", "degree_n", "intervals", "basis", "cheb", "scales")

    def __init__(self, field: RealCyclotomicField, degree_n: int, intervals: tuple,
                 basis: tuple, cheb: tuple, scales: tuple):
        set_field(self, "field", field)
        set_field(self, "degree_n", degree_n)
        set_field(self, "intervals", intervals)  # ((Embedding, (a, b)), ...) in embedding order
        set_field(self, "basis", basis)  # integral basis as CycloElements
        set_field(self, "cheb", cheb)  # cheb[sigma_idx][i][k], integers (`chebyshev_coefficients`)
        set_field(self, "scales", scales)  # scales[sigma_idx] = s (`chebyshev_scale`)

    def entry(self, k: int, sigma_idx: int, i: int, j: int) -> CycloElement:
        emb = self.intervals[sigma_idx][0]
        gamma = emb.apply(self.basis[j])
        return gamma * Fraction(self.cheb[sigma_idx][i][k], self.scales[sigma_idx] ** i)

    def row_indices(self):
        return [(k, s) for k in range(self.degree_n + 1) for s in range(len(self.intervals))]

    def col_indices(self):
        return [(i, j) for i in range(self.degree_n + 1) for j in range(len(self.basis))]

    def scaled_matrix(self) -> list[list[int]]:
        """round(2^p * c_{k sigma i j}) for every row (k, sigma) and column (i, j).

        p = LLL_MARGIN_BITS + max(0, ceil(-log2 d)), d the smallest diagonal
        entry 2((b-a)/4)^n, so even the smallest form keeps LLL_MARGIN_BITS
        bits after rounding.  Chebyshev values are used exactly; an
        irrational gamma_j^sigma is enclosed once, at p + LLL_MARGIN_BITS bits,
        and its dyadic ball centre is used exactly.  With 2^p gamma_j^sigma =
        g_num / g_den, every entry is R_i[k] g_num / (s^i g_den) rounded half
        to even, in integers.
        """
        n = self.degree_n
        # ceil(1 / min_sigma d_sigma) = max_sigma ceil(s^n / R_n[n])
        inv_diag = max(-(-(scale ** n) // cheb[n][n])
                       for cheb, scale in zip(self.cheb, self.scales))
        p = LLL_MARGIN_BITS + (inv_diag - 1).bit_length()
        bits = p + LLL_MARGIN_BITS

        def gamma(emb, g) -> tuple[int, int]:
            v = emb.apply(g)
            if v.is_rational():
                q = v.as_rational()
                return q.numerator << p, q.denominator
            ball = balls.eval_ball(AlgConst(v), bits, max(bits, balls.DEFAULT_CAP_BITS))
            # the ball's midpoint, (lo + hi) 2^(exponent - 1), scaled by 2^p
            man, exp = ball.lo + ball.hi, ball.exponent - 1 + p
            return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)

        gammas = [[gamma(emb, g) for g in self.basis] for emb, _ in self.intervals]
        powers = [[scale ** i for i in range(n + 1)] for scale in self.scales]
        rows = []
        for k, s in self.row_indices():
            cheb, power, gamma_s = self.cheb[s], powers[s], gammas[s]
            row = []
            for i, j in self.col_indices():
                c = cheb[i][k]
                if not c:
                    row.append(0)
                    continue
                g_num, g_den = gamma_s[j]
                den = power[i] * g_den
                q, r = divmod(c * g_num, den)
                row.append(q + (2 * r > den or (2 * r == den and q & 1)))
            rows.append(row)
        return rows

    def exact_determinant(self):
        """det over the ambient cyclotomic field, computed by fraction-free
        elimination; used to verify the block-triangular identity."""
        idx_r, idx_c = self.row_indices(), self.col_indices()
        size = len(idx_r)
        mat = [[self.entry(k, s, i, j) for (i, j) in idx_c] for (k, s) in idx_r]
        n_amb = self.field.n
        det = CycloElement.rational(n_amb, 1)
        for col in range(size):
            pivot = None
            for row in range(col, size):
                if not mat[row][col].is_zero():
                    pivot = row
                    break
            if pivot is None:
                return CycloElement.rational(n_amb, 0)
            if pivot != col:
                mat[col], mat[pivot] = mat[pivot], mat[col]
                det = -det
            det = det * mat[col][col]
            inv = mat[col][col].inverse()
            for row in range(col + 1, size):
                if mat[row][col].is_zero():
                    continue
                factor = mat[row][col] * inv
                mat[row] = [x - factor * y for x, y in zip(mat[row], mat[col])]
        return det


def chebyshev_linear_forms(field: RealCyclotomicField, intervals: dict, n: int) -> ChebyshevForms:
    embeddings = field.embeddings()
    ordered = tuple((emb, (Fraction(intervals[emb][0]), Fraction(intervals[emb][1])))
                    for emb in embeddings)
    cheb = tuple(chebyshev_coefficients(a, b, n) for _, (a, b) in ordered)
    scales = tuple(chebyshev_scale(a, b) for _, (a, b) in ordered)
    return ChebyshevForms(field=field, degree_n=n, intervals=ordered,
                          basis=integral_basis(field), cheb=cheb, scales=scales)


# -- certification -----------------------------------------------------------


def fekete_bound_expr(field: RealCyclotomicField, intervals: dict, n: int) -> Expr:
    """|disc F|^(1/2M) * 2^(n/(n+1)) * (n+1) * (prod (b-a)/4)^(n/2M)."""
    m = field.degree
    prod = _quarter_widths(intervals)
    disc = field_discriminant(field)
    out: Expr = Const(Fraction(n + 1))
    if disc != 1:
        out = out * Pow(Const(Fraction(disc)), Fraction(1, 2 * m))
    if n:
        out = out * Pow(Const(Fraction(2)), Fraction(n, n + 1))
        out = out * Pow(Const(prod), Fraction(n, 2 * m))
    return out


def fekete_bound_power(field: RealCyclotomicField, intervals: dict, n: int) -> tuple[int, Fraction]:
    """(E, bound^E) for the value of `fekete_bound_expr`, with E = 2m(n+1),
    m = [F : Q], a power that clears its roots:

        bound^E = (n+1)^E |disc F|^(n+1) 2^(2mn) (prod (b-a)/4)^(n(n+1)).
    """
    m = field.degree
    e = 2 * m * (n + 1)
    prod = _quarter_widths(intervals)
    return e, (n + 1) ** e * field_discriminant(field) ** (n + 1) * 2 ** (2 * m * n) * prod ** (n * (n + 1))


def _quarter_widths(intervals: dict) -> Fraction:
    """prod (b-a)/4 over the intervals."""
    prod = Fraction(1)
    for a, b in intervals.values():
        prod *= (Fraction(b) - Fraction(a)) / 4
    return prod


def within_bound(sup: CycloElement, e: int, bound_e: Fraction) -> bool:
    """Whether sup <= bound, for (e, bound_e) = `fekete_bound_power` and a
    sup bound of `certify_sup_norm`.

    Both sides are >= 0, so this is sup^e <= bound^e.  With
    2 den sup = X + Y sqrt(D) (`_surd`), (X + Y sqrt(D))^e = U + V sqrt(D)
    by square and multiply on integer pairs, and the decision is the exact
    sign of N (2 den)^e - L U - L V sqrt(D), bound^e = N / L: what
    `certify_compare` decides on enclosures, but never UNDECIDED.
    """
    x, y, disc = _surd(sup.num, sup.n)
    u, v, e_left = 1, 0, e
    while e_left:
        if e_left & 1:
            u, v = u * x + v * y * disc, u * y + v * x
        e_left >>= 1
        if e_left:
            x, y = x * x + y * y * disc, 2 * x * y
    top, bottom = bound_e.numerator, bound_e.denominator
    return _surd_sign(top * (2 * sup.den) ** e - bottom * u, -bottom * v, disc) >= 0


def _over_one_denominator(elements) -> tuple[int, list[list[int]]]:
    """(L, vectors): L the least common denominator of the elements'
    coordinates (the lcm of their `den`s, as gcd(den, *num) = 1), and each
    element's coordinates times L, as integers."""
    elements = list(elements)
    den = lcm(*(e.den for e in elements))
    return den, [[x * (den // e.den) for x in e.num] for e in elements]


@lru_cache(maxsize=None)
def _power_images(embedding: Embedding) -> tuple[tuple[int, ...], ...]:
    """The images sigma(b^i) of the power basis b^i of Q(b), b = 2cos(2pi/n),
    as integer coordinate vectors: b is an algebraic integer and sigma
    substitutes an integer Dickson polynomial and reduces modulo b's monic
    integer minimal polynomial, so every coordinate is an integer."""
    n = embedding.field.n
    rows = []
    for i in range(field_degree(n)):
        image = embedding.apply(CycloElement.from_numerators(n, [0] * i + [1], 1))
        assert image.den == 1
        rows.append(image.num)
    return tuple(rows)


def certify_sup_norm(coeffs, embedding: Embedding, interval) -> CycloElement:
    """Upper bound sum_k |A_k| for sup |P^sigma| on the interval, exact.

    `coeffs` are the polynomial coefficients as field elements (constant
    first).  The bound is always >= the true sup and <= (n+1) max |A_k|.
    The coefficients are brought to one integer denominator L, and their
    images L v_i are the integer combinations of the cached power-basis
    images `_power_images(embedding)`, so that
    A_k L s^n = sum_i R_i[k] s^(n-i) v_i is an integer coordinate vector
    (R_i, s from `chebyshev_coefficients`), and its sign is exact in
    Z[sqrt D] (`_surd_sign`).  Implemented for fields of degree <= 2.
    """
    a, b = Fraction(interval[0]), Fraction(interval[1])
    n = len(coeffs) - 1
    cheb, scale = chebyshev_coefficients(a, b, n), chebyshev_scale(a, b)
    field_n = embedding.field.n
    den, coords = _over_one_denominator(
        c if isinstance(c, CycloElement) else CycloElement.rational(field_n, c) for c in coeffs)
    columns = list(zip(*_power_images(embedding)))
    vectors = [[scale ** (n - i) * sum(x * r for x, r in zip(coord, column)) for column in columns]
               for i, coord in enumerate(coords)]
    total_den = den * scale ** n
    total = [0] * len(vectors[0])
    for k in range(n + 1):
        form = [0] * len(total)
        for row, vector in zip(cheb, vectors):
            c = row[k]
            if c:
                form = [f + c * x for f, x in zip(form, vector)]
        sign = -1 if _surd_sign(*_surd(form, field_n)) < 0 else 1
        total = [t + sign * f for t, f in zip(total, form)]
    return CycloElement.from_numerators(field_n, total, total_den)


class FeketeCertificate(Frozen):
    __slots__ = ("field", "degree_n", "alpha", "coefficients", "sup_bounds", "theoretical_bound")

    def __init__(self, field: RealCyclotomicField, degree_n: int, alpha: tuple,
                 coefficients: tuple, sup_bounds: tuple, theoretical_bound: Expr):
        set_field(self, "field", field)
        set_field(self, "degree_n", degree_n)
        set_field(self, "alpha", alpha)  # integer coordinates alpha[i][j] over the integral basis
        set_field(self, "coefficients", coefficients)  # polynomial coefficients as field elements
        set_field(self, "sup_bounds", sup_bounds)  # exact per-embedding bounds, in embedding order
        set_field(self, "theoretical_bound", theoretical_bound)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.alpha)


def _coefficients_from_alpha(field, basis, alpha):
    """sum_j alpha[i][j] basis[j] for each i, coordinate by coordinate over
    one integer denominator of the basis."""
    den, vectors = _over_one_denominator(basis)
    columns = list(zip(*vectors))
    return tuple(CycloElement.from_numerators(field.n, [sum(a * x for a, x in zip(row, col))
                                                        for col in columns], den)
                 for row in alpha)


def find_small_polynomial(field: RealCyclotomicField, intervals: dict, n: int) -> FeketeCertificate:
    """Nonzero integral polynomial of degree <= n with certified sup norms
    below the theoretical bound on every embedding's interval.

    Search: integral LLL on the columns of the exactly scaled
    Chebyshev-form matrix (`ChebyshevForms.scaled_matrix`); the reduced
    vectors, the rows of the transform `_lll` returns, are certified in
    order, then the box
    `_box_combinations` over the first BOX_VECTORS of them.  In every
    problem measured so far the first reduced vector certifies.
    """
    if field.degree > 2:
        raise GroundboundError("search implemented for fields of degree <= 2")
    if n < 0:
        raise InvalidInput(f"degree {n} < 0")
    embeddings = field.embeddings()
    if set(intervals) != set(embeddings):
        raise InvalidInput(f"intervals are given for {list(intervals)}, not for "
                           f"exactly the embeddings {embeddings} of {field}")
    for emb, (a, b) in intervals.items():
        if Fraction(a) >= Fraction(b):
            raise InvalidInput(f"interval [{a}, {b}] at {emb} is empty")
    forms = chebyshev_linear_forms(field, intervals, n)
    bound = fekete_bound_expr(field, intervals, n)
    e, bound_e = fekete_bound_power(field, intervals, n)

    def certify(alpha) -> FeketeCertificate | None:
        coeffs = _coefficients_from_alpha(field, forms.basis, alpha)
        sups = []
        for emb, interval in forms.intervals:
            sup = certify_sup_norm(coeffs, emb, interval)
            if not within_bound(sup, e, bound_e):
                return None
            sups.append(sup)
        return FeketeCertificate(field=field, degree_n=n, alpha=alpha,
                                 coefficients=coeffs, sup_bounds=tuple(sups),
                                 theoretical_bound=bound)

    transform = _lll(forms.scaled_matrix())
    dim, m = len(transform), field.degree
    units = (tuple(int(i == t) for i in range(dim)) for t in range(dim))
    for combo in itertools.chain(units, _box_combinations(min(BOX_VECTORS, dim))):
        # transform's entries follow `col_indices`: (i, j) with j fastest
        vec = [sum(c * col[t] for c, col in zip(combo, transform) if c) for t in range(dim)]
        cert = certify(tuple(tuple(vec[i:i + m]) for i in range(0, dim, m)))
        if cert is not None:
            return cert
    raise SearchExhausted(
        "no certificate among the reduced vectors or in the box; this "
        "contradicts the existence theorem and indicates a bug"
    )


def _box_combinations(k: int):
    """Integer combinations of the first k reduced vectors, coefficients in
    -BOX_RADIUS..BOX_RADIUS: each +- pair once (first nonzero coefficient
    positive), leaving out the unit vectors, already tried, and the
    non-primitive ones, whose sup bounds are whole multiples of a
    combination tried earlier."""
    for combo in itertools.product(range(-BOX_RADIUS, BOX_RADIUS + 1), repeat=k):
        if gcd(*combo) == 1 and sum(map(abs, combo)) > 1 and next(c for c in combo if c) > 0:
            yield combo


def _lll(matrix):
    """Integral LLL (Cohen, GTM 138, Alg. 2.6.7) on the columns of `matrix`.

    Exact throughout: d_i = prod_{l <= i} |b*_l|^2 and lambda_{i,j} =
    d_j mu_{i,j} are integers, updated incrementally by size reduction
    (REDI) and swaps (SWAPI), with Lovasz constant LLL_DELTA.  Returns the
    transform only: row i holds the integer coordinates of reduced vector i
    over the columns, and the reduced vectors are never formed.  When k is
    first reached, vector k is still column k, and every vector j < k is a
    combination of the columns c < k alone, so
    <b_k, b_j> = sum_c transform[j][c] <col_k, col_c> over exact inner
    products of the columns: the same integers, so the same d, lambda and
    decisions, as on the vectors.  Proposals only; all certification is
    exact downstream.
    """
    num, den = LLL_DELTA.numerator, LLL_DELTA.denominator
    size = len(matrix[0])
    columns = list(zip(*matrix))
    transform = [[int(i == c) for i in range(size)] for c in range(size)]
    d = [1] * (size + 1)  # d[i + 1] is d_i of the 0-based vectors 0..i
    lam = [[0] * size for _ in range(size)]
    d[1] = sum(map(mul, columns[0], columns[0]))
    k, k_max = 1, 0
    while k < size:
        lam_k = lam[k]
        if k > k_max:
            k_max = k
            col_k = columns[k]
            gram = [sum(map(mul, col_k, col)) for col in columns[:k + 1]]
            for j in range(k + 1):
                lam_j = lam[j]
                # map stops at the k + 1 entries of gram; transform[j][k] = 0
                u = sum(map(mul, transform[j], gram)) if j < k else gram[k]
                for i in range(j):
                    u = (d[i + 1] * u - lam_k[i] * lam_j[i]) // d[i]
                if j < k:
                    lam_k[j] = u
                else:
                    d[k + 1] = u
        # REDI(k, l) for l = k - 1, then the Lovasz test; if it holds, REDI
        # for l = k - 2 .. 0 and on to k + 1
        for l in range(k - 1, -1, -1):
            d_l = d[l + 1]
            if 2 * abs(lam_k[l]) > d_l:
                q = (2 * lam_k[l] + d_l) // (2 * d_l)
                transform[k] = [x - q * y for x, y in zip(transform[k], transform[l])]
                lam_k[l] -= q * d_l
                lam_k[:l] = [x - q * y for x, y in zip(lam_k, lam[l][:l])]
            if l < k - 1:
                continue
            d_prev, d_k, d_next, mu = d[k - 1], d_l, d[k + 1], lam_k[l]
            t = d_prev * d_next + mu * mu
            if den * t < num * d_k * d_k:  # the Lovasz condition fails
                # SWAPI: exchange vectors k - 1 and k
                transform[k], transform[l] = transform[l], transform[k]
                lam_prev = lam[l]
                lam_k[:l], lam_prev[:l] = lam_prev[:l], lam_k[:l]
                b = t // d_k
                for i in range(k + 1, k_max + 1):
                    lam_i = lam[i]
                    old = lam_i[k]
                    lam_i[k] = new = (d_next * lam_i[l] - mu * old) // d_k
                    lam_i[l] = (b * old + mu * new) // d_next
                d[k] = b
                k = max(l, 1)
                break
        else:
            k += 1
    return transform


# -- Lagrange growth ----------------------------------------------------------


class GrowthBound(Frozen):
    __slots__ = ("factorial_bound", "stirling_bound", "exponential_bound")

    def __init__(self, factorial_bound: Fraction, stirling_bound: float,
                 exponential_bound: float):
        set_field(self, "factorial_bound", factorial_bound)
        set_field(self, "stirling_bound", stirling_bound)
        set_field(self, "exponential_bound", exponential_bound)


def lagrange_growth_bound(m0, a, b, n: int, x) -> GrowthBound:
    """Bounds for |Q_n(x)| at x >= b given sup |Q_n| <= m0 on [a, b]:

        M0 (x-a)^n n^n / (((b-a)/2)^n n!)          (exact)
        M0 (x-a)^n e^n / (((b-a)/2)^n sqrt(2 pi n)) (Stirling form)
        M0 (x-a)^n e^n / ((b-a)/2)^n               (weakest form)
    """
    from math import exp as fexp, factorial, pi as fpi, sqrt as fsqrt

    if n < 1:
        raise ValueError("n must be >= 1")
    m0, a, b, x = Fraction(m0), Fraction(a), Fraction(b), Fraction(x)
    if not (a < b <= x):
        raise ValueError("need a < b <= x")
    half = (b - a) / 2
    exact = m0 * (x - a) ** n * Fraction(n) ** n / (half**n * factorial(n))
    scale = float(m0) * float(x - a) ** n / float(half) ** n
    return GrowthBound(
        factorial_bound=exact,
        stirling_bound=scale * fexp(n) / fsqrt(2 * fpi * n),
        exponential_bound=scale * fexp(n),
    )
