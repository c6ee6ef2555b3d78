"""Reference code that only the tests call, one section per group of library functions it checks.

number theory: numeric.divisor_lists, numeric.squarefree_core, QuadExt arithmetic, one representation.
series and matrices: QSeries products, qseries.sparse_times, qseries.echelon, RatMatrix.rref and kernel.
the plus space: kohnen.plus_space_basis.
elliptic forms and Hecke matrices: elliptic.delta, eisenstein, eigenforms; kohnen.plus_hecke, shimura_match.
Jacobi forms: jacobi.ez_lift.
Siegel tables: SiegelFourierTable.value, siegel.maass_lift, check_maass_space, check_maass_p_space,
    the probe of hecke_eigenvalue; and the table edits that make bad input.
classification: characterize.mu_sequence, growth_check, positivity_scan, solve_satake, theorem41;
    and hostile records.
coset classes by Smith reduction: siegel.coset_classes, _character_trivial, hecke_operator.
explicit coset matrices: siegel.coset_classes.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from sklift.characterize import (
    COND_EIGENVALUE_IDENTITY,
    COND_PRIME_SQUARE_THRESHOLD,
    COND_PRIME_THRESHOLD,
    NEITHER_TYPE,
    RAMANUJAN_TYPE,
    SK_TYPE,
    EigenvalueRecord,
    GrowthReport,
    PositivityReport,
    SatakeParams,
    Theorem41Certificate,
    _explicit_pair,
)
from sklift.elliptic import (
    EllipticEigenform,
    EllipticForm,
    _eta_cube_terms,
    dim_cusp_forms,
)
from sklift.errors import (
    InconsistencyError,
    NotAnEigenformError,
    TruncationError,
    UnsupportedFieldError,
    UsageError,
)
from sklift.jacobi import JacobiForm
from sklift.kohnen import (
    PlusSpaceForm,
    _eigenvalue_on,
    plus_hecke,
)
from sklift.numeric import (
    QuadExt,
    bernoulli_number,
    divisor_lists,
    exact_div,
    int_if_integral,
    is_prime,
    rat,
    sqrt_rational,
    value_sign,
)
from sklift.qseries import (
    QSeries,
    RatMatrix,
    _kronecker,
    _pack,
    _unpack,
    echelon,
    sparse_times,
)
from sklift.siegel import (
    CheckReport,
    SiegelFourierTable,
    _prime_power,
    coset_classes,
    hecke_operator,
    reduce_index,
    reduced_indices,
)


class DimensionMismatchError(Exception):
    """A space built here has a dimension that contradicts the classical formula."""


# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------

def factorize(n: int) -> dict[int, int]:
    """Prime factorization of ``n >= 1`` as a dict prime -> exponent, by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of ``n >= 1``, from the factorization."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def sigma(power: int, n: int) -> int:
    """Divisor sum sigma_power(n)."""
    return sum(d**power for d in divisors(n))


def norm(x) -> Fraction:
    """The field norm a**2 - d * b**2 of ``x = a + b*sqrt(d)``; x**2 for a rational x."""
    if not isinstance(x, QuadExt):
        return x * x
    return x.a * x.a - x.b * x.b * x.d


def conjugate(x):
    """``a - b*sqrt(d)`` for ``x = a + b*sqrt(d)``; ``x`` itself for a rational x."""
    if not isinstance(x, QuadExt):
        return x
    return QuadExt(x.a, -x.b, x.d)


def noncanonical(value) -> list:
    """The exact values inside ``value`` that are not in their one representation.

    Walks dataclasses, lists and tuples.  An int or a Fraction is canonical,
    and so is a QuadExt with b != 0 whose parts a and b are each an int or a
    non-integral Fraction.  A float is not, and neither is a QuadExt with
    b == 0, an integral Fraction part or a float part.
    """
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value) for x in noncanonical(getattr(value, f.name))]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in noncanonical(v)]
    if isinstance(value, float):
        return [value]
    if isinstance(value, QuadExt) and (value.b == 0 or not all(map(_canonical_part, (value.a, value.b)))):
        return [value]
    return []


def _canonical_part(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def fpow(base: int, e: int) -> Fraction:
    """Exact integer power with negative exponents allowed."""
    if e >= 0:
        return Fraction(base**e)
    return Fraction(1, base**(-e))


def _simplify(x):
    """A rational value out of a QuadExt with no sqrt(d) part, without trusting the library to."""
    if isinstance(x, QuadExt) and x.b == 0:
        return x.a
    return x


# ---------------------------------------------------------------------------
# series and matrices
# ---------------------------------------------------------------------------

def _schoolbook(a: list, b: list, n: int) -> list:
    """Coefficients 0..n of the product of two coefficient lists, term by term.

    Works for any exact coefficient type; it is the reference the integer
    Kronecker product is tested against.
    """
    out = [0] * (n + 1)
    for i in range(min(len(a) - 1, n) + 1):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(min(len(b) - 1, n - i) + 1):
            bj = b[j]
            if bj != 0:
                out[i + j] += ai * bj
    return out


def series_product(*factors: QSeries) -> QSeries:
    """The product of ``factors`` by ``_schoolbook``, for any exact coefficients.

    Valid to the smallest validity among the factors, as a library product is.
    """
    out = factors[0]
    for f in factors[1:]:
        n = min(out.prec, f.prec)
        out = QSeries(_schoolbook(out.coeffs, f.coeffs, n), n)
    return out


def series_power(s: QSeries, e: int) -> QSeries:
    """``s`` to the power e >= 0 as e library products, valid to the validity of ``s``."""
    out = QSeries([1], s.prec)
    for _ in range(e):
        out = out * s
    return out


def series_inverse(s: QSeries) -> QSeries:
    """Multiplicative inverse term by term; requires an invertible constant term."""
    c0 = s.coeffs[0]
    if c0 == 0:
        raise UsageError("series with zero constant term has no inverse")
    inv0 = Fraction(1) / c0 if not isinstance(c0, QuadExt) else 1 / c0
    out = [inv0] + [0] * s.prec
    for n in range(1, s.prec + 1):
        acc = 0
        for i in range(1, n + 1):
            if s.coeffs[i] != 0 and out[n - i] != 0:
                acc += s.coeffs[i] * out[n - i]
        out[n] = -acc * inv0
    return QSeries(out, s.prec)


def sparse_times_by_terms(terms: list, coeffs: list, n: int, rounds: int) -> list:
    """``sparse_times`` one shifted add per term, each list packed and read back per call.

    The slot width holds max|coeffs| * (sum of |c| over all terms)**rounds.
    """
    coeffs = coeffs[: n + 1]
    bound = max(map(abs, coeffs), default=0) * sum(abs(c) for _, c in terms) ** rounds
    if bound == 0:
        return [0] * (n + 1)
    width = (bound.bit_length() + 8) // 8
    mask = (1 << (8 * width * (n + 1))) - 1
    shifts = [(8 * width * e, c) for e, c in terms if e <= n]
    x = _pack(coeffs, width)
    for _ in range(rounds):
        x = sum(c * (x << s) for s, c in shifts) & mask
    return _unpack(x, width, n)


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, by Gauss-Jordan over Fractions."""
    rows = [row[:] for row in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return RatMatrix(rows), tuple(pivots)


def identity(n: int) -> RatMatrix:
    return RatMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if a.cols != b.rows:
        raise UsageError("matrix dimensions do not match")
    return RatMatrix(
        [
            [sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)
        ]
    )


def add(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise UsageError("matrix dimensions do not match")
    return RatMatrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


def scale(m: RatMatrix, c) -> RatMatrix:
    c = rat(c)
    return RatMatrix([[x * c for x in row] for row in m.entries])


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def charpoly(m: RatMatrix) -> list[Fraction]:
    """Monic characteristic polynomial det(xI - M), coefficients low to high, by Faddeev-LeVerrier."""
    if m.rows != m.cols:
        raise UsageError("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    power = identity(n)
    for k in range(1, n + 1):
        power = matmul(m, power)
        ck = -sum((power.entries[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = ck
        power = add(power, scale(identity(n), ck))
    return coeffs


def staircase_matrix(basis: list[QSeries], images: list[QSeries]) -> RatMatrix:
    """Matrix of a linear map on a staircase basis, verified against every image.

    Each basis series has its own pivot, its valuation, and vanishes at the
    pivots of the others; ``images[j]`` is the image of ``basis[j]``, valid
    at every pivot.  The coordinate of an image along a basis series is the
    ratio of their coefficients at that series' pivot, and each image must
    equal the recombination of the basis with its coordinates.  Column j of
    the result holds the coordinates of image j.
    """
    pivots = [b.valuation() for b in basis]
    cols = []
    for image in images:
        coords = [exact_div(image.coeffs[pos], b.coeffs[pos]) for pos, b in zip(pivots, basis)]
        recombined = [sum(x * b.coefficient(i) for x, b in zip(coords, basis)) for i in range(image.prec + 1)]
        if recombined != image.coeffs:
            raise InconsistencyError("the map does not stabilize the span of the basis")
        cols.append(coords)
    return RatMatrix([[col[i] for col in cols] for i in range(len(basis))])


def eigen_split_2x2(m: RatMatrix) -> list[tuple]:
    """Eigenvalues and eigenvectors ``[(lam, (v0, v1))]`` of a 2x2 rational matrix with distinct real roots.

    The eigenvalues are the roots ``(-c1 +- sqrt(c1**2 - 4*c0)) / 2`` of the
    characteristic polynomial, + root first: rational, or a conjugate pair in
    a real quadratic field whose discriminant ``sqrt_rational`` certifies.
    The Hecke matrices split here all have such roots.
    """
    (a, b), (c, d) = m.entries
    c0, c1 = a * d - b * c, -(a + d)
    root = sqrt_rational(c1 * c1 - 4 * c0)
    out = []
    for lam in ((-c1 + root) / 2, (-c1 - root) / 2):
        out.append((lam, (b, lam - a) if b != 0 else (lam - d, c)))
    return out


def split_pair(basis: list[QSeries], m: RatMatrix) -> list[tuple]:
    """``(lam, series)`` for each eigenvector ``(v0, v1)`` of ``m`` by ``eigen_split_2x2``.

    The series is ``v0 * basis[0] + v1 * basis[1]``, coefficient by
    coefficient, divided by its leading nonzero coefficient.
    """
    s0, s1 = basis
    out = []
    for lam, (v0, v1) in eigen_split_2x2(m):
        coeffs = [x * v0 + y * v1 for x, y in zip(s0.coeffs, s1.coeffs)]
        inv = exact_div(1, next(c for c in coeffs if c != 0))
        out.append((lam, QSeries([c * inv for c in coeffs])))
    return out


# ---------------------------------------------------------------------------
# the plus space: the kernel construction the closed forms replaced
# ---------------------------------------------------------------------------

def theta_terms(prec: int) -> list[tuple[int, int]]:
    """The nonzero terms ``(e, c)`` of theta to ``prec``: 1 and 2*q**(n*n)."""
    return [(0, 1)] + [(n * n, 2) for n in range(1, math.isqrt(prec) + 1)]


def odd_sigma_half(half: int) -> list:
    """sigma_1(2i + 1) for i = 0..half.

    These are the coefficients of g, where the weight-2 generator
    f2 = sum of sigma_1(n) q**n over odd n is q * g(q**2).
    """
    g = [0] * (half + 1)
    # each odd n = d*e with odd d <= e gets d + e, or d alone when e = d;
    # n sits at index (n - 1)/2, so with d fixed and e = d, d + 2, ... the
    # indices step by d and only the d up to sqrt(n) are run over
    for d in range(1, math.isqrt(2 * half + 1) + 1, 2):
        start = d * d // 2
        count = len(range(start, half + 1, d))
        g[start::d] = map(operator.add, g[start::d], chain([d], range(2 * d + 2, 2 * d + 2 * count, 2)))
    return g


def f2_powers(prec: int, count: int) -> list[list]:
    """Coefficient lists of f2, f2**2, ..., f2**count to ``prec``, at half length.

    f2 vanishes at even exponents, f2 = q * g(q**2), so f2**j is
    q**j * g(q**2)**j: only powers of g, half as long, are multiplied,
    each as the product of two lower ones, as integer lists.
    """
    half = max((prec - 1) // 2, 0)
    g_pows = [[1], odd_sigma_half(half)]
    for j in range(2, count + 1):
        # an even power squares the half power, which the product takes faster
        g_pows.append(_kronecker(g_pows[j // 2], g_pows[j - j // 2], half))
    out = []
    for j in range(1, count + 1):
        c = [0] * (prec + 1)
        c[j::2] = g_pows[j][: len(range(j, prec + 1, 2))]
        out.append(c)
    return out


def window_generators(k: int, prec: int, f2_pows: list[list]) -> list[list]:
    """Coefficient lists of the monomial generators to ``prec``, for ``f2_pows`` to at least it.

    Generator b is theta**(wnum - 4b) * f2**b, wnum = 2k - 1; the powers of
    theta run up from theta**(wnum % 4), four rounds of shifted adds each,
    and each meets its f2 power in one product.
    """
    wnum = 2 * k - 1
    squares = theta_terms(prec)
    theta_pow = sparse_times(squares, [1], prec, wnum % 4)
    gens = []
    for b in range(wnum // 4, 0, -1):
        gens.append(_kronecker(theta_pow, f2_pows[b - 1][: prec + 1], prec))
        theta_pow = sparse_times(squares, theta_pow, prec, 4)
    gens.append(theta_pow)
    return gens[::-1]


def sparse_horner(terms: list, step: int, tail: int, parts: list, n: int) -> list:
    """Coefficients 0..n of ``S**tail * Q`` by Horner's rule on one packed integer.

    S is ``sum(c * q**e for e, c in terms)`` and ``parts`` is a list of
    ``(x, coeffs)`` pairs, int x and int lists: Q_0 = x_0 * coeffs_0,
    Q_j = S**step * Q_(j-1) + x_j * coeffs_j, and Q is the last Q_j.  Each
    coefficient list is packed once and the result is read back once, at
    ``sparse_times``' rounds and masks, so intermediate slots may overflow.
    With N the sum of |c| over the terms up to q**n (or 1 if that is 0),
    ``bound = bound * N**step + |x_j| * max|coeffs_j|`` at each part, times
    N**tail at the end, bounds every result coefficient; the slot width
    holds it plus a sign bit.
    """
    parts = [(x, coeffs[: n + 1]) for x, coeffs in parts]
    # at least 1, so that the bound holds each packed part as well
    total = max(sum(abs(c) for e, c in terms if e <= n), 1)
    bound = 0
    for x, coeffs in parts:
        bound = bound * total**step + abs(x) * max(map(abs, coeffs), default=0)
    bound *= total**tail
    if bound == 0:
        return [0] * (n + 1)
    width = (bound.bit_length() + 8) // 8
    mask = (1 << (8 * width * (n + 1))) - 1
    groups: dict[int, list[int]] = {}
    for e, c in terms:
        if e <= n and c:
            groups.setdefault(c, []).append(8 * width * e)

    def times_s(x: int, rounds: int) -> int:
        for _ in range(rounds):
            x = sum(c * sum(map(x.__lshift__, shifts)) for c, shifts in groups.items()) & mask
        return x

    x = 0
    for j, (xj, coeffs) in enumerate(parts):
        if j:
            x = times_s(x, step)
        if xj:
            x += xj * _pack(coeffs, width)
    return _unpack(times_s(x, tail), width, n)


def plus_space_basis_by_kernel(k: int, prec: int):
    """The plus-space basis as the kernel of the support constraints in the monomial span.

    The kernel (constant term zero, nothing in the residue classes 1 and 2
    mod 4 up to 4k) is found at that window by one ``echelon`` call and must have the integral-weight cusp
    dimension, or ``DimensionMismatchError`` is raised; each basis form is
    then evaluated at full validity by one packed Horner pass in theta**4.
    Any dimension is returned, as a staircase basis.
    """
    if k % 2:
        raise UsageError("odd weights do not occur on this lift chain")
    bound = 4 * k
    if bound > prec:
        raise TruncationError(f"constraint bound {bound} exceeds series validity {prec}")
    # one elimination over the constraint positions, the other exponents to
    # the window, then the monomial coordinates: the rows with a pivot past
    # the constraints span the kernel, echelonized over a window that does
    # not depend on the requested validity, so the basis does not either
    wnum = 2 * k - 1
    f2_pows = f2_powers(prec, wnum // 4)
    positions = [0] + [n for n in range(1, bound + 1) if n % 4 in (1, 2)]
    order = positions + [n for n in range(1, bound + 1) if n % 4 in (0, 3)]
    gens = window_generators(k, bound, f2_pows)
    ident = [[int(i == j) for j in range(len(gens))] for i in range(len(gens))]
    rows = [[g[n] for n in order] + e for g, e in zip(gens, ident)]
    red, pivots = echelon(rows)
    kernel_rows = [(row, c) for row, c in zip(red, pivots) if c >= len(positions)]
    expected = dim_cusp_forms(2 * k - 2)
    if len(kernel_rows) != expected:
        raise DimensionMismatchError(
            f"plus space at k={k}: kernel dimension {len(kernel_rows)}, expected {expected}"
        )
    if any(c > bound for _, c in kernel_rows):
        raise DimensionMismatchError(
            f"plus space at k={k}: echelon pivots escape the constraint window"
        )
    # generator b is theta**(wnum - 4b) * f2**b, so sum(x_b * generator b) is
    # theta**(wnum % 4) * Q with Q = sum(x_b * t4**(bmax - b) * f2**b),
    # t4 = theta**4, evaluated at full validity by Horner in t4 on one
    # packed integer: Q_0 = x_0, Q_j = t4 * Q_(j-1) + x_j * f2**j
    squares = theta_terms(prec)
    out = []
    for row, _ in kernel_rows:
        # primitive as the row is: its window entries are combinations of these
        coords = row[bound + 1 :]
        parts = list(zip(coords, [[1]] + f2_pows))
        series = QSeries(sparse_horner(squares, 4, wnum % 4, parts, prec), prec)
        lead = series.coefficient(series.valuation())
        if lead < 0:
            series = -series
        # full-validity support recheck, not just up to the constraint bound
        out.append(PlusSpaceForm(k, series))
    return out


# ---------------------------------------------------------------------------
# elliptic forms: the Fraction Eisenstein series and monomial cusp basis the
# closed form Delta * E_(w-12) replaced, and the Hecke matrices
# ---------------------------------------------------------------------------

def eisenstein_by_fractions(weight: int, prec: int) -> QSeries:
    """E_k as -2k/B_k times the divisor sums, every coefficient a Fraction."""
    factor = Fraction(-2 * weight) / bernoulli_number(weight)
    return QSeries([Fraction(1)] + [factor * sigma(weight - 1, n) for n in range(1, prec + 1)], prec)


def delta_by_squarings(prec: int) -> QSeries:
    """The discriminant form as Jacobi's series for the cube of eta, squared three times, times q."""
    cube = [0] * prec
    for e, c in _eta_cube_terms(prec - 1):
        cube[e] = c
    s = QSeries(cube, prec - 1)
    for _ in range(3):
        s = s * s
    return s.shift(1)


def _monomial_exponents(weight: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with 12a + 4b + 6c = weight and a >= 1."""
    out = []
    for a in range(1, weight // 12 + 1):
        rem = weight - 12 * a
        for c in range(rem // 6 + 1):
            if (rem - 6 * c) % 4 == 0:
                out.append((a, (rem - 6 * c) // 4, c))
    return out


def cusp_basis_by_fractions(weight: int, prec: int) -> list[EllipticForm]:
    """The staircase cusp basis: the monomials Delta**a E4**b E6**c, then Gauss-Jordan over Fractions.

    Delta is ``delta_by_squarings`` and E4 and E6 are
    ``eisenstein_by_fractions``, whose coefficients are integers, so the
    monomials are integer products.  Entries are stored as ints where
    integral, the library's type rule.  Any dimension is returned.
    """
    expected = dim_cusp_forms(weight)
    if expected == 0:
        return []
    if prec < expected + 1:
        raise TruncationError(f"weight {weight} needs validity to q**{expected + 1}")
    d = delta_by_squarings(prec)
    e4, e6 = (QSeries(map(int_if_integral, eisenstein_by_fractions(w, prec).coeffs), prec) for w in (4, 6))
    rows = []
    for a, b, c in _monomial_exponents(weight):
        s = d
        for f in [d] * (a - 1) + [e4] * b + [e6] * c:
            s = s * f
        rows.append(s.coeffs[1:])
    red, pivots = rref(RatMatrix(rows))
    if len(pivots) != expected:
        raise DimensionMismatchError(
            f"cusp space of weight {weight}: got rank {len(pivots)}, expected {expected}"
        )
    return [
        EllipticForm(weight, QSeries([0] + [int_if_integral(x) for x in red.entries[r]], prec))
        for r in range(expected)
    ]


def eigenforms_by_fractions(weight: int, prec: int) -> list[EllipticEigenform]:
    """The normalized eigenbasis split from ``cusp_basis_by_fractions``, as the library splits it."""
    basis = cusp_basis_by_fractions(weight, prec)
    if len(basis) < 2:
        return [EllipticEigenform(weight, f.series) for f in basis]
    if len(basis) > 2:
        raise UnsupportedFieldError(
            f"weight {weight} has a {len(basis)}-dimensional cusp space; "
            "eigenvalue fields beyond degree 2 are not supported"
        )
    t2 = staircase_matrix([f.series for f in basis], [hecke_Tp(f, 2).series for f in basis])
    return [EllipticEigenform(weight, series) for _, series in split_pair([f.series for f in basis], t2)]


def hecke_Tp(f: EllipticForm, p: int) -> EllipticForm:
    """Prime Hecke operator on coefficients; output valid to prec // p."""
    out_prec = f.series.prec // p
    pk = p ** (f.weight - 1)
    coeffs = []
    for n in range(out_prec + 1):
        c = f.a(p * n)
        if n % p == 0:
            c = c + pk * f.a(n // p)
        coeffs.append(c)
    return EllipticForm(f.weight, QSeries(coeffs, out_prec))


def hecke_matrix(weight: int, p: int, prec: int) -> RatMatrix:
    """Matrix of T(p) on the echelonized level-one cusp basis, verified."""
    basis = cusp_basis_by_fractions(weight, prec)
    return staircase_matrix([f.series for f in basis], [hecke_Tp(f, p).series for f in basis])


def plus_hecke_matrix(basis: list[PlusSpaceForm], p: int) -> RatMatrix:
    """Matrix of the square-index operator at p on a staircase basis, verified."""
    images = [plus_hecke(g, p).series for g in basis]
    return staircase_matrix([g.series for g in basis], images)


def plus_eigenforms(k: int, prec: int):
    """Eigenbasis of the plus space under the index-4 operator.

    Returns a list of ``(form, eigenvalue)`` pairs; for two-dimensional
    spaces the eigenvalues are exact conjugate quadratic irrationals.
    """
    basis = plus_space_basis_by_kernel(k, prec)
    if not basis:
        return []
    if len(basis) == 1:
        g = basis[0]
        return [(g, _eigenvalue_on(g, 2))]
    if len(basis) > 2:
        raise UnsupportedFieldError(
            f"plus space at k={k} has dimension {len(basis)}; fields beyond degree 2 unsupported"
        )
    out = []
    for lam, series in split_pair([g.series for g in basis], plus_hecke_matrix(basis, 2)):
        form = PlusSpaceForm(k, series)
        if _eigenvalue_on(form, 2) != lam:
            raise InconsistencyError("plus-space eigenvector failed verification")
        out.append((form, lam))
    return out


# ---------------------------------------------------------------------------
# Jacobi forms
# ---------------------------------------------------------------------------

def jacobi_coeff(phi: JacobiForm, n: int, r: int):
    """c(n, r), zero outside the cuspidal support 4n - r*r > 0."""
    disc = 4 * n - r * r
    if disc <= 0:
        return 0
    if disc > phi.max_disc:
        raise TruncationError(
            f"coefficient at discriminant {disc} beyond tabulated range {phi.max_disc}"
        )
    return phi.by_disc.get(disc, 0)


def plus_form_from_jacobi(phi: JacobiForm) -> PlusSpaceForm:
    """Read the discriminant-indexed data back as a plus-space expansion."""
    coeffs = [0] * (phi.max_disc + 1)
    for disc, v in phi.by_disc.items():
        coeffs[disc] = v
    return PlusSpaceForm(phi.weight, QSeries(coeffs, phi.max_disc))


# ---------------------------------------------------------------------------
# Siegel tables: edits, the lookup by exception, and the lift and checkers
# that look up through it
# ---------------------------------------------------------------------------

class SiegelIndex(NamedTuple):
    """Index triple for the half-integral matrix [[n, r/2], [r/2, m]].

    It hashes and compares as the plain ``(n, r, m)`` tuple tables key by.
    """

    n: int
    r: int
    m: int

    @property
    def disc(self) -> int:
        return 4 * self.n * self.m - self.r * self.r


def misstored(table: SiegelFourierTable) -> list:
    """The entries not in stored form: a value is an int exactly when it is integral."""
    return [
        (key, v) for key, v in table.entries.items()
        if (type(v) is int) != (not isinstance(v, QuadExt) and Fraction(v).denominator == 1)
    ]


def scaled(table: SiegelFourierTable, factor) -> SiegelFourierTable:
    """A copy with every coefficient multiplied by ``factor``."""
    return SiegelFourierTable(
        table.weight, table.bound, {k: v * factor for k, v in table.entries.items()}
    )


def perturbed(table: SiegelFourierTable, index, delta) -> SiegelFourierTable:
    """A copy with one reduced coefficient shifted by ``delta``."""
    idx = SiegelIndex(*reduce_index(*index))
    entries = dict(table.entries)
    entries[idx] = entries.get(idx, 0) + delta
    return SiegelFourierTable(table.weight, table.bound, entries)


def value(table: SiegelFourierTable, n: int, r: int, m: int):
    """A(n, r, m); zero outside the cusp support, error beyond the bound."""
    if n <= 0 or m <= 0 or 4 * n * m - r * r <= 0:
        return 0
    idx = SiegelIndex(*reduce_index(n, r, m))
    if idx.m > table.bound:
        raise TruncationError(f"index {(n, r, m)} reduces to {tuple(idx)} beyond bound {table.bound}")
    return table.entries.get(idx, 0)


def try_value(table: SiegelFourierTable, n: int, r: int, m: int):
    """``value``, with None for an index beyond the bound."""
    try:
        return value(table, n, r, m)
    except TruncationError:
        return None


def table_entries(weight: int, bound: int, entries: dict) -> dict:
    """The entries ``SiegelFourierTable`` keeps, every key tested by ``reduce_index``."""
    if weight < 1:
        raise UsageError(f"table weight {weight} is below 1")
    clean = {}
    for key, value in entries.items():
        if any(type(x) is not int for x in key):
            raise UsageError(f"table key {key!r} is not a triple of ints")
        idx = SiegelIndex(*key)
        if reduce_index(*idx) != tuple(idx):
            raise UsageError(f"table key {tuple(idx)} is not reduced")
        if idx.m > bound:
            raise UsageError(f"table key {tuple(idx)} beyond bound {bound}")
        if value != 0:
            clean[idx] = value
    return clean


def maass_lift(phi: JacobiForm, bound: int) -> SiegelFourierTable:
    """The divisor-sum lift, one ``jacobi_coeff(phi, n*m/d**2, r/d)`` per divisor."""
    needed = 4 * bound * bound
    if phi.max_disc < needed:
        raise TruncationError(
            f"lift to bound {bound} needs Jacobi discriminants up to {needed}, "
            f"table stops at {phi.max_disc}"
        )
    k = phi.weight
    divs = divisor_lists(bound)
    entries = {}
    for idx in reduced_indices(bound):
        n, r, m = idx
        acc = 0
        for d in divs[math.gcd(n, r, m)]:
            acc += d ** (k - 1) * jacobi_coeff(phi, n * m // (d * d), r // d)
        if acc != 0:
            entries[idx] = acc
    return SiegelFourierTable(k, bound, entries)


def check_maass_space(table: SiegelFourierTable) -> CheckReport:
    """The divisor-sum relation checker, each right-hand side through ``try_value`` above."""
    k = table.weight
    divs = divisor_lists(table.bound)
    checked = skipped = 0
    violations = []
    for idx in reduced_indices(table.bound):
        n, r, m = idx
        rhs = 0
        resolvable = True
        for d in divs[math.gcd(n, r, m)]:
            val = try_value(table, n * m // (d * d), r // d, 1)
            if val is None:
                resolvable = False
                break
            rhs += d ** (k - 1) * val
        if not resolvable:
            skipped += 1
            continue
        lhs = table.entries.get(idx, 0)
        checked += 1
        if lhs != rhs:
            violations.append((tuple(idx), lhs, rhs))
    return CheckReport("maass", None, table.bound, checked, skipped, tuple(violations))


def maass_lift_by_all_divisors(phi: JacobiForm, bound: int) -> SiegelFourierTable:
    """The divisor-sum lift by discriminant, running the divisor loop at gcd 1 too."""
    needed = 4 * bound * bound
    if phi.max_disc < needed:
        raise TruncationError(
            f"lift to bound {bound} needs Jacobi discriminants up to {needed}, "
            f"table stops at {phi.max_disc}"
        )
    k = phi.weight
    divs = divisor_lists(bound)
    powers = {d: d ** (k - 1) for d in range(1, bound + 1)}
    get = phi.by_disc.get
    entries = {}
    for n in range(1, bound + 1):
        for r in range(n + 1):
            g = math.gcd(n, r)
            for m in range(n, bound + 1):
                disc = 4 * n * m - r * r
                acc = 0
                for d in divs[math.gcd(g, m)]:
                    acc += powers[d] * get(disc // (d * d), 0)
                if acc != 0:
                    entries[(n, r, m)] = acc
    return SiegelFourierTable._trusted(k, bound, entries)


def check_maass_by_all_divisors(table: SiegelFourierTable) -> CheckReport:
    """The divisor-sum checker by discriminant, running the divisor loop at gcd 1 too."""
    k = table.weight
    bound = table.bound
    divs = divisor_lists(bound)
    powers = {d: d ** (k - 1) for d in range(1, math.isqrt(4 * max(bound, 0)) + 1)}
    get = table.entries.get
    checked = skipped = 0
    violations = []
    for m in range(1, bound + 1):
        for n in range(1, m + 1):
            excess = 4 * (n * m - bound)
            low = min(math.isqrt(excess - 1) + 1, n + 1) if excess > 0 else 0
            skipped += low
            for r in range(low, n + 1):
                disc = 4 * n * m - r * r
                rhs = 0
                for d in divs[math.gcd(n, r, m)]:
                    dd = disc // (d * d)
                    rho = dd & 1
                    rhs += powers[d] * get((1, rho, (dd + rho) // 4), 0)
                lhs = get((n, r, m), 0)
                checked += 1
                if lhs != rhs:
                    violations.append(((n, r, m), lhs, rhs))
    return CheckReport("maass", None, table.bound, checked, skipped, tuple(violations))


def check_maass_p_space(table: SiegelFourierTable, p: int) -> CheckReport:
    """The single-prime relation checker, each lookup through ``try_value`` above."""
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    k = table.weight
    pk = p ** (k - 1)
    top = p * table.bound
    checked = skipped = 0
    violations = []
    for n in range(1, top + 1):
        for m in range(1, top + 1):
            rmax = math.isqrt(4 * n * m * p)
            for r in range(rmax + 1):
                t1 = try_value(table, n * p, r, m)
                t4 = try_value(table, n, r, m * p)
                t2 = 0
                if n % p == 0 and r % p == 0:
                    t2 = try_value(table, n // p, r // p, m)
                t3 = 0
                if r % p == 0 and m % p == 0:
                    t3 = try_value(table, n, r // p, m // p)
                if t1 is None or t2 is None or t3 is None or t4 is None:
                    skipped += 1
                    continue
                checked += 1
                lhs = t1 + pk * t2
                rhs = pk * t3 + t4
                if lhs != rhs:
                    violations.append(((n, r, m), lhs, rhs))
    return CheckReport("maass-p", p, table.bound, checked, skipped, tuple(violations))


def hecke_probe(table: SiegelFourierTable, bound: int):
    """The reduced index to ``bound`` with least (discriminant, n, r) and a nonzero entry, or None.

    Every reduced index is sorted by that key, stored or not.
    """
    by_disc = sorted(
        reduced_indices(bound),
        key=lambda i: (4 * i[0] * i[2] - i[1] * i[1], i[0], i[1]),
    )
    for idx in by_disc:
        if table.entries.get(idx, 0) != 0:
            return idx
    return None


def hecke_eigenvalue(table: SiegelFourierTable, m: int):
    """The similitude-m eigenvalue, read at ``hecke_probe`` above."""
    transformed = hecke_operator(table, m)
    probe = hecke_probe(table, transformed.bound)
    if probe is None:
        raise NotAnEigenformError(
            "no nonzero coefficient available as a probe", witness=None
        )
    mu = exact_div(transformed.entries.get(probe, 0), table.entries[probe])
    factor = int_if_integral(mu)
    for idx in reduced_indices(transformed.bound):
        if transformed.entries.get(idx, 0) != factor * table.entries.get(idx, 0):
            raise NotAnEigenformError(
                f"table is not an eigenform of the similitude-{m} operator",
                witness=idx,
            )
    return mu


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def reconstruct(sp: SatakeParams) -> EigenvalueRecord:
    """Invert the construction: the (mu_p, mu_p2) the Satake data came from."""
    k, p = sp.weight, sp.p
    w, c = sp.trace_scaled, sp.pair_product
    u_sq = p * w * w
    v = u_sq - c - 2 - Fraction(1, p)
    mu_p = _simplify(fpow(p, k - 1) * w)
    mu_p2 = _simplify(fpow(p, 2 * k - 3) * v)
    return EigenvalueRecord(k, p, mu_p, mu_p2)


def cmp_sqrt_multiple(x, t, p: int) -> int:
    """Sign of ``x - t*sqrt(p)`` with ``t`` of any sign, exactly.

    ``x`` and ``t`` may be rational or live in a common real quadratic field;
    when that field is the one generated by sqrt(p) the difference is formed
    directly, otherwise the comparison is resolved by sign analysis followed
    by squaring.
    """
    def _in_sqrt_p_field(v):
        return not isinstance(v, QuadExt) or v.b == 0 or v.d == p

    if _in_sqrt_p_field(x) and _in_sqrt_p_field(t):
        return value_sign(x - t * QuadExt(0, 1, p))
    sx = value_sign(x)
    st = value_sign(t)
    if st == 0:
        return sx
    if sx == 0:
        return -st
    if sx != st:
        return sx
    return value_sign(x * x - t * t * p) * sx


def cmp_halfpower(x, c, p: int, e: int) -> int:
    """Ordering of ``x`` versus ``c * p**(e/2)`` for a prime ``p`` and ``c >= 0``: -1, 0 or 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    c = rat(c)
    if c < 0:
        raise ValueError("the half-power scale must be nonnegative")
    if e % 2 == 0:
        return value_sign(x - c * fpow(p, e // 2))
    return cmp_sqrt_multiple(x, c * fpow(p, (e - 1) // 2), p)


def abs_within(x, c, p: int, e: int) -> bool:
    """Exact test of ``|x| <= c * p**(e/2)`` with ``c >= 0``, by two half-power comparisons."""
    return cmp_halfpower(x, c, p, e) <= 0 and cmp_halfpower(-x, c, p, e) <= 0


def growth_by_half_powers(rec: EigenvalueRecord, seq: list) -> GrowthReport:
    """``growth_check`` as it was before the bounds were compared squared."""
    k, p = rec.weight, rec.p
    first_sharp = first_weak = None
    for r, mu in enumerate(seq):
        e = r * (2 * k - 3)
        sharp = Fraction(math.comb(r + 3, 3)) + Fraction(math.comb(r + 1, 3), p)
        weak = Fraction(3, 2) * math.comb(r + 3, 3)
        if first_sharp is None and not abs_within(mu, sharp, p, e):
            first_sharp = r
        if first_weak is None and not abs_within(mu, weak, p, e):
            first_weak = r
    return GrowthReport(len(seq) - 1, first_sharp, first_weak)


@dataclasses.dataclass(frozen=True)
class SpinEulerData:
    """Coefficients of the degree-4 local factor generating mu(p**r).

    e1 and e2 come straight from the record; e3 and e4 are forced by the
    similitude pairing of spectral parameters at scale p**(2k-3).
    """

    e1: object
    e2: object
    e3: object
    e4: object


def spin_euler_data(rec: EigenvalueRecord) -> SpinEulerData:
    """The local factor's coefficients in the record's own values, unscaled."""
    k, p = rec.weight, rec.p
    e1 = rec.mu_p
    e2 = rec.mu_p * rec.mu_p - rec.mu_p2 - p ** (2 * k - 4)
    e3 = p ** (2 * k - 3) * rec.mu_p
    e4 = p ** (4 * k - 6)
    return SpinEulerData(e1, e2, e3, e4)


def mu_sequence_by_fractions(rec: EigenvalueRecord, rmax: int) -> list:
    """``mu_sequence`` as it was before the recurrence ran in scaled integers."""
    if rmax < 0:
        raise UsageError("the scan depth must be nonnegative")
    k, p = rec.weight, rec.p
    ed = spin_euler_data(rec)
    numerator = {0: Fraction(1), 2: -p ** (2 * k - 4)}
    seq: list = []
    for r in range(rmax + 1):
        val = numerator.get(r, Fraction(0))
        if r >= 1:
            val = val + ed.e1 * seq[r - 1]
        if r >= 2:
            val = val - ed.e2 * seq[r - 2]
        if r >= 3:
            val = val + ed.e3 * seq[r - 3]
        if r >= 4:
            val = val - ed.e4 * seq[r - 4]
        seq.append(val)
    if rmax >= 1 and value_sign(seq[1] - rec.mu_p) != 0:
        raise InconsistencyError("prime-power sequence fails to reproduce mu(p)")
    if rmax >= 2 and value_sign(seq[2] - rec.mu_p2) != 0:
        raise InconsistencyError("prime-power sequence fails to reproduce mu(p**2)")
    return seq


def growth_by_fractions(rec: EigenvalueRecord, seq: list) -> GrowthReport:
    """``growth_check`` as it was before the squared bounds were compared in integers."""
    p = rec.p
    step = p ** (2 * rec.weight - 3)
    scale = 1
    first_sharp = first_weak = None
    for r, mu in enumerate(seq):
        if r:
            scale *= step
        mu_sq = mu * mu
        sharp = Fraction(math.comb(r + 3, 3)) + Fraction(math.comb(r + 1, 3), p)
        weak = Fraction(3, 2) * math.comb(r + 3, 3)
        if first_sharp is None and value_sign(mu_sq - sharp * sharp * scale) > 0:
            first_sharp = r
        if first_weak is None and value_sign(mu_sq - weak * weak * scale) > 0:
            first_weak = r
        if first_sharp is not None and first_weak is not None:
            break
    return GrowthReport(len(seq) - 1, first_sharp, first_weak)


def positivity_by_value_sign(seq: list) -> PositivityReport:
    """``positivity_scan`` as it was before it read the signs of integer numerators."""
    signs = tuple(value_sign(mu) for mu in seq)
    changes = []
    last = 0
    for r, s in enumerate(signs):
        if s == 0:
            continue
        if last and s != last:
            changes.append(r)
        last = s
    return PositivityReport(len(seq) - 1, signs, all(s > 0 for s in signs), tuple(changes))


def satake_by_sqrt_multiples(rec: EigenvalueRecord) -> SatakeParams:
    """``solve_satake`` as it was before the unimodular window was compared squared."""
    k, p = rec.weight, rec.p
    w = _simplify(rec.mu_p / fpow(p, k - 1))
    v = _simplify(rec.mu_p2 / fpow(p, 2 * k - 3))
    u_sq = _simplify(p * w * w)
    c = _simplify(u_sq - v - 2 - Fraction(1, p))
    disc = _simplify(u_sq - 4 * c)
    if value_sign(_simplify(Fraction((p + 1) ** 2, p) - (p + 1) * w + c)) == 0:
        classification = SK_TYPE
    else:
        real_pair = value_sign(disc) >= 0
        inside = (
            value_sign(16 - u_sq) >= 0
            and cmp_sqrt_multiple(4 + c, 2 * w, p) >= 0
            and cmp_sqrt_multiple(4 + c, -2 * w, p) >= 0
        )
        classification = RAMANUJAN_TYPE if (real_pair and inside) else NEITHER_TYPE
    x, y = _explicit_pair(p, w, disc, classification)
    return SatakeParams(k, p, w, c, disc, classification, x, y)


def theorem41_by_sqrt_multiples(rec: EigenvalueRecord) -> Theorem41Certificate:
    """``theorem41`` as it was before mu(p) > 4 p**(k-3/2) was compared squared."""
    k, p = rec.weight, rec.p
    fired = []
    cond_ii = cmp_sqrt_multiple(rec.mu_p, 4 * fpow(p, k - 2), p) > 0
    if cond_ii:
        fired.append(COND_PRIME_THRESHOLD)
    cond_iv = value_sign(rec.mu_p2 - 10 * fpow(p, 2 * k - 3)) > 0
    if cond_iv:
        fired.append(COND_PRIME_SQUARE_THRESHOLD)
    t = p ** (k - 1) + p ** (k - 2)
    gap = rec.mu_p * rec.mu_p - t * rec.mu_p + fpow(p, 2 * k - 2) - rec.mu_p2
    cond_vii = value_sign(gap) == 0
    if cond_vii:
        fired.append(COND_EIGENVALUE_IDENTITY)
    verdict = SK_TYPE if cond_vii else f"not-{SK_TYPE}"
    inconsistent = (cond_ii or cond_iv) and not cond_vii
    return Theorem41Certificate(rec, verdict, tuple(fired), inconsistent, satake_by_sqrt_multiples(rec))


# two 20-digit primes: trial division below 10**4 cannot resolve 2*P*Q
HOSTILE_P = 10_000_000_000_000_000_051
HOSTILE_Q = 30_000_000_000_000_000_041


def record_with_discriminant(weight: int, p: int, mu_p, disc) -> EigenvalueRecord:
    """The record with prime eigenvalue ``mu_p`` whose spectral pair has (x - y)**2 = ``disc``."""
    u_sq = p * (rat(mu_p) / fpow(p, weight - 1)) ** 2
    c = (u_sq - disc) / 4
    mu_p2 = fpow(p, 2 * weight - 3) * (u_sq - c - 2 - Fraction(1, p))
    return EigenvalueRecord(weight, p, mu_p, mu_p2)


# ---------------------------------------------------------------------------
# coset classes by Smith reduction: the path the closed forms replaced
# ---------------------------------------------------------------------------

def smith_normal_form(mat):
    """Exact Smith form of a small integer matrix: S = U @ mat @ V.

    Returns ``(S, U, V)`` with U, V unimodular and S diagonal with the
    divisibility chain.
    """
    a = [row[:] for row in mat]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_sub(i, j, c):
        a[i] = [x - c * y for x, y in zip(a[i], a[j])]
        u[i] = [x - c * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, c):
        for row in a:
            row[i] -= c * row[j]
        for row in v:
            row[i] -= c * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        # move a minimal nonzero entry of the trailing block to (t, t)
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # pull any non-multiple of the pivot into its row, then redo
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def _int_inverse(mat):
    """Exact inverse of a unimodular integer matrix."""
    n = len(mat)
    red, pivots = rref(RatMatrix(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    ))
    if pivots != tuple(range(n)):
        raise InconsistencyError("matrix is not invertible")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            x = red.entries[i][n + j]
            if x.denominator != 1:
                raise InconsistencyError("matrix is not unimodular")
            row.append(int(x))
        out.append(row)
    return out


def _solve_integer(columns, target):
    """Solve sum(x_j * columns[j]) = target over the integers."""
    rows = len(columns[0])
    mat = [[col[i] for col in columns] for i in range(rows)]
    s, u, v = smith_normal_form(mat)
    uv = [sum(u[i][j] * target[j] for j in range(rows)) for i in range(rows)]
    ncols = len(columns)
    y = [0] * ncols
    for i in range(rows):
        sii = s[i][i] if i < ncols else 0
        if sii:
            if uv[i] % sii:
                raise InconsistencyError("no integral solution")
            y[i] = uv[i] // sii
        elif uv[i]:
            raise InconsistencyError("no integral solution")
    return [sum(v[i][j] * y[j] for j in range(ncols)) for i in range(ncols)]


def translation_classes(d_a, d_b, d_d):
    """Translation data over one D block: (size, generators, full enumeration basis).

    The admissible upper blocks form a rank-3 lattice (one symmetry
    constraint) containing the translates S*D; the quotient is computed by
    exact Smith reduction.
    """
    # solution lattice of  d_a*B12 - d_b*B11 - d_d*B21 = 0,
    # coordinates (B11, B12, B21, B22)
    s, u, v = smith_normal_form([[-d_b, d_a, -d_d, 0]])
    basis = [[v[i][j] for i in range(4)] for j in range(1, 4)]  # columns 1..3 of V
    # translates S*D for the three symmetric generators
    translates = [
        [d_a, d_b, 0, 0],
        [0, d_d, d_a, d_b],
        [0, 0, 0, d_d],
    ]
    rel = [_solve_integer(basis, t) for t in translates]
    rel_mat = [[rel[j][i] for j in range(3)] for i in range(3)]
    s2, u2, v2 = smith_normal_form(rel_mat)
    orders = [abs(s2[i][i]) for i in range(3)]
    if 0 in orders:
        raise InconsistencyError("translation quotient is not finite")
    uinv = _int_inverse(u2)
    gens = []
    for j in range(3):
        vec = [
            sum(basis[i][coord] * uinv[i][j] for i in range(3)) for coord in range(4)
        ]
        gens.append(((vec[0], vec[1]), (vec[2], vec[3])))
    size = orders[0] * orders[1] * orders[2]
    return size, tuple(orders), tuple(gens)


class GeneratorClass(NamedTuple):
    """A coset class with the generators of its finite translation group.

    A character is trivial exactly when it is integral on each generator.
    """

    d_a: int
    d_b: int
    d_d: int
    size: int
    char_gens: tuple  # 2x2 integer matrices

    @property
    def det(self) -> int:
        return self.d_a * self.d_d


def generator_classes(p: int, e: int) -> tuple[GeneratorClass, ...]:
    """The coset classes of similitude p**e by Smith reduction, in the library's order."""
    s = p**e
    classes = []
    for i in range(e + 1):
        d_a = p**i
        for j in range(e + 1):
            d_d = p**j
            for d_b in range(d_d):
                if (s * d_b) % (d_a * d_d):
                    continue
                size, orders, gens = translation_classes(d_a, d_b, d_d)
                live = tuple(g for g, o in zip(gens, orders) if o > 1)
                classes.append(GeneratorClass(d_a, d_b, d_d, size, live))
    return tuple(classes)


def generator_test(cls: GeneratorClass, tn: int, tr: int, tm: int) -> bool:
    """Whether the character at T = (tn, tr, tm) is trivial on every generator of ``cls``."""
    da, db, dd = cls.d_a, cls.d_b, cls.d_d
    det = cls.det
    for gen in cls.char_gens:
        # X = gen * adj(D); phase = tr(T X) / det
        x11 = gen[0][0] * dd
        x12 = -gen[0][0] * db + gen[0][1] * da
        x21 = gen[1][0] * dd
        x22 = -gen[1][0] * db + gen[1][1] * da
        num = 2 * tn * x11 + tr * (x12 + x21) + 2 * tm * x22
        if num % (2 * det):
            return False
    return True


def hecke_operator_oracle(table: SiegelFourierTable, m: int) -> SiegelFourierTable:
    """The similitude-m operator on the Smith-form classes and the generator test."""
    p, e = _prime_power(m)
    s = m
    out_bound = table.bound // s
    if out_bound < 1:
        raise TruncationError(f"similitude-{m} operator needs table bound >= {m}")
    k = table.weight
    classes = generator_classes(p, e)
    gamma = Fraction(s) ** (2 * k - 3)
    entries = {}
    for idx in reduced_indices(out_bound):
        n, r, mm = idx
        acc = 0
        for cls in classes:
            da, db, dd = cls.d_a, cls.d_b, cls.d_d
            q1 = n * da * da + r * da * db + mm * db * db
            q12 = dd * (da * r + 2 * db * mm)
            q2 = mm * dd * dd
            if q1 % s or q12 % s or q2 % s:
                continue
            tn, tr, tm = q1 // s, q12 // s, q2 // s
            if tn <= 0 or 4 * tn * tm - tr * tr <= 0:
                continue
            if not generator_test(cls, tn, tr, tm):
                continue
            val = table.value(tn, tr, tm)
            if val != 0:
                acc += Fraction(cls.size, cls.det**k) * val
        if acc != 0:
            entries[idx] = gamma * acc
    return SiegelFourierTable(k, out_bound, entries)


# ---------------------------------------------------------------------------
# explicit coset matrices
# ---------------------------------------------------------------------------

def coset_representatives(p: int, e: int = 1) -> list:
    """Explicit 4x4 integer matrices, one per right coset of similitude p**e."""
    s = p**e
    reps = []
    for cls in coset_classes(p, e):
        size, orders, gens = translation_classes(cls.d_a, cls.d_b, cls.d_d)
        a = (
            (s // cls.d_a, 0),
            (-(s * cls.d_b) // (cls.d_a * cls.d_d), s // cls.d_d),
        )
        offsets = [((0, 0), (0, 0))]
        for g, o in zip(gens, orders):
            offsets = [
                (
                    (b[0][0] + c * g[0][0], b[0][1] + c * g[0][1]),
                    (b[1][0] + c * g[1][0], b[1][1] + c * g[1][1]),
                )
                for b in offsets
                for c in range(o)
            ]
        for b in offsets:
            reps.append(
                (
                    (a[0][0], a[0][1], b[0][0], b[0][1]),
                    (a[1][0], a[1][1], b[1][0], b[1][1]),
                    (0, 0, cls.d_a, cls.d_b),
                    (0, 0, 0, cls.d_d),
                )
            )
    return reps


def similitude_of(g) -> int:
    """The similitude factor of an integral 4x4 symplectic-similitude matrix."""
    n = 4
    j = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    gt_j_g = [
        [
            sum(g[k][i] * sum(j[k][l] * g[l][jx] for l in range(n)) for k in range(n))
            for jx in range(n)
        ]
        for i in range(n)
    ]
    lam = None
    for i in range(n):
        for jx in range(n):
            expect = j[i][jx]
            got = gt_j_g[i][jx]
            if expect == 0:
                if got != 0:
                    raise UsageError("matrix is not a symplectic similitude")
            else:
                cand = got // expect
                if cand * expect != got:
                    raise UsageError("matrix is not a symplectic similitude")
                if lam is None:
                    lam = cand
                elif lam != cand:
                    raise UsageError("matrix is not a symplectic similitude")
    if lam is None or lam <= 0:
        raise UsageError("degenerate similitude")
    return lam


def _det3(m, rows, cols):
    (a, b, c), (d, e, f), (g2, h2, i2) = (
        [m[r][cols[0]], m[r][cols[1]], m[r][cols[2]]] for r in rows
    )
    return a * (e * i2 - f * h2) - b * (d * i2 - f * g2) + c * (d * h2 - e * g2)


def coset_equivalent(g, h) -> bool:
    """Whether two similitude matrices generate the same right coset.

    Decided exactly over the integers: g h**(-1) is formed through the
    adjugate of h and must be integral with trivial similitude.
    """
    rows = cols = (0, 1, 2, 3)
    adj = [
        [
            (-1) ** (i + j)
            * _det3(h, tuple(r for r in rows if r != j), tuple(c for c in cols if c != i))
            for j in range(4)
        ]
        for i in range(4)
    ]
    det = sum(h[0][j] * adj[j][0] for j in range(4))
    if det == 0:
        return False
    gamma = []
    for i in range(4):
        row = []
        for j in range(4):
            num = sum(g[i][k] * adj[k][j] for k in range(4))
            if num % det:
                return False
            row.append(num // det)
        gamma.append(row)
    try:
        return similitude_of(gamma) == 1
    except UsageError:
        return False
