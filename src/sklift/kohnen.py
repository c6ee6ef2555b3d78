"""Half-integral weight cusp forms on Gamma0(4) and the plus space.

The full space of weight (2k-1)/2 forms is spanned by monomials in the unary
theta series and the odd-divisor weight-2 form.  The plus space is carved out
exactly as the kernel of the coefficient constraints, cross-checked against
the dimension of the corresponding integral-weight cusp space, and carries
the square-index Hecke action whose eigenvalues match the integral-weight
prime eigenvalues (that matching is how the two sides are glued together).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from .elliptic import EllipticEigenform, dim_cusp_forms, eigenforms
from .errors import (
    DimensionMismatchError,
    InconsistencyError,
    NotAnEigenformError,
    TruncationError,
    UnsupportedFieldError,
    UsageError,
)
from .numeric import exact_div, is_prime, kronecker_symbol
from .qseries import QSeries, RatMatrix, echelon, eigen_split_2x2, sparse_times, staircase_matrix


def _theta_terms(prec: int) -> list[tuple[int, int]]:
    """The nonzero terms ``(e, c)`` of theta to ``prec``: 1 and 2*q**(n*n)."""
    return [(0, 1)] + [(n * n, 2) for n in range(1, math.isqrt(prec) + 1)]


def theta_series(prec: int) -> QSeries:
    """The unary theta series 1 + 2*sum(q**(n*n))."""
    coeffs = [0] * (prec + 1)
    for e, c in _theta_terms(prec):
        coeffs[e] = c
    return QSeries(coeffs, prec)


def odd_sigma_series(prec: int) -> QSeries:
    """The weight-2 generator: sum of sigma_1(n) q**n over odd n."""
    coeffs = [0] * (prec + 1)
    # the divisors of an odd n are odd: each odd d adds itself at its odd multiples
    for d in range(1, prec + 1, 2):
        coeffs[d :: 2 * d] = map(add, coeffs[d :: 2 * d], repeat(d))
    return QSeries(coeffs, prec)


def _f2_powers(prec: int, count: int) -> list[list]:
    """Coefficient lists of f2, f2**2, ..., f2**count to ``prec``, at half length.

    f2 vanishes at even exponents, f2 = q * g(q**2), so f2**j is
    q**j * g(q**2)**j: only powers of g, half as long, are multiplied,
    each from the one before.
    """
    g = QSeries(odd_sigma_series(prec).coeffs[1::2], max((prec - 1) // 2, 0))
    out = []
    gj = None
    for j in range(1, count + 1):
        gj = g if gj is None else gj * g
        c = [0] * (prec + 1)
        c[j::2] = gj.coeffs[: len(range(j, prec + 1, 2))]
        out.append(c)
    return out


def halfint_generators(k: int, prec: int) -> list[QSeries]:
    """Monomial spanning set of the weight (2k-1)/2 space on Gamma0(4).

    Generator b is theta**(2k-1-4b) * f2**b for b = 0..(2k-1)//4; the power
    of theta acts on f2**b as shifted adds.
    """
    if k % 2:
        raise UsageError("only even weights occur on this lift chain")
    wnum = 2 * k - 1
    squares = _theta_terms(prec)
    f2_pows = [[1]] + _f2_powers(prec, wnum // 4)
    return [
        QSeries(sparse_times(squares, f2_pow, prec, wnum - 4 * b), prec)
        for b, f2_pow in enumerate(f2_pows)
    ]


class PlusSpaceForm:
    """A cuspidal form of weight (2k-1)/2 on Gamma0(4) in the plus space.

    Its support lies only on exponents 0, 3 mod 4.
    """

    __slots__ = ("k", "series")

    def __init__(self, k: int, series: QSeries):
        c = series.coeffs
        if c[0] or any(c[1::4]) or any(c[2::4]):
            n = next(n for n in range(series.prec + 1) if not _plus_supported(n) and c[n] != 0)
            raise InconsistencyError(f"plus-space support violated at exponent {n}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "series", series)

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("forms are immutable")

    @property
    def prec(self) -> int:
        return self.series.prec

    def c(self, n: int):
        """Coefficient at q**n."""
        return self.series.coefficient(n)

    def __eq__(self, other):
        if not isinstance(other, PlusSpaceForm):
            return NotImplemented
        return self.k == other.k and self.series == other.series

    def __hash__(self):
        return hash((self.k, self.series))

    def __repr__(self):
        return f"PlusSpaceForm(k={self.k}, prec={self.prec})"


def _plus_supported(n: int) -> bool:
    # cuspidal plus condition for even k: nothing at n = 0 or n = 1, 2 mod 4
    return n > 0 and n % 4 in (0, 3)


def plus_space_basis(
    k: int, prec: int, constraint_bound: int | None = None
) -> list[PlusSpaceForm]:
    """Exact basis of the cuspidal plus space of weight (2k-1)/2.

    The kernel of the support constraints (constant term zero, nothing in the
    residue classes 1 and 2 mod 4 up to ``constraint_bound``) is computed
    inside the monomial span; the resulting dimension must match the
    integral-weight cusp dimension, otherwise the constraint bound was too
    small or a convention is wrong, and we refuse loudly.
    """
    if k % 2:
        raise UsageError("odd weights do not occur on this lift chain")
    bound = constraint_bound if constraint_bound is not None else 4 * k
    if bound > prec:
        raise TruncationError(
            f"constraint bound {bound} exceeds series validity {prec}", required=bound
        )
    # one elimination over the constraint positions, the other exponents to
    # the window, then the monomial coordinates: the rows with a pivot past
    # the constraints span the kernel, echelonized over a window that does
    # not depend on the requested validity, so the basis does not either
    positions = [0] + [n for n in range(1, bound + 1) if n % 4 in (1, 2)]
    order = positions + [n for n in range(1, bound + 1) if n % 4 in (0, 3)]
    gens = halfint_generators(k, bound)
    ident = [[int(i == j) for j in range(len(gens))] for i in range(len(gens))]
    rows = [[g.coeffs[n] for n in order] + e for g, e in zip(gens, ident)]
    red, pivots = echelon(rows)
    kernel = [(row, c) for row, c in zip(red, pivots) if c >= len(positions)]
    expected = dim_cusp_forms(2 * k - 2)
    if len(kernel) != expected:
        raise DimensionMismatchError(
            f"plus space at k={k}: kernel dimension {len(kernel)}, expected {expected} "
            f"(constraint bound {bound} too small, or conventions wrong)"
        )
    if any(c > bound for _, c in kernel):
        raise DimensionMismatchError(
            f"plus space at k={k}: echelon pivots escape the constraint window"
        )
    # generator b is theta**(wnum - 4b) * f2**b, so sum(x_b * generator b) is
    # theta**(wnum % 4) * Q with Q = sum(x_b * t4**(bmax - b) * f2**b),
    # t4 = theta**4, evaluated at full validity by Horner in t4:
    # Q_0 = x_0, Q_j = t4 * Q_(j-1) + x_j * f2**j; each product by theta is
    # one shifted add per square on a packed integer
    wnum = 2 * k - 1
    squares = _theta_terms(prec)
    f2_pows = _f2_powers(prec, wnum // 4)
    out = []
    for row, _ in kernel:
        # primitive as the row is: its window entries are combinations of these
        coords = row[bound + 1 :]
        acc = coords[:1]
        for x, f2_pow in zip(coords[1:], f2_pows):
            acc = sparse_times(squares, acc, prec, 4)
            if x:
                acc = list(map(add, acc, map(mul, f2_pow, repeat(x))))
        series = QSeries(sparse_times(squares, acc, prec, wnum % 4), prec)
        lead = series.coefficient(series.valuation())
        if lead < 0:
            series = -series
        # full-validity support recheck, not just up to the constraint bound
        out.append(PlusSpaceForm(k, series))
    return out


def plus_hecke(g: PlusSpaceForm, p: int) -> PlusSpaceForm:
    """Square-index Hecke operator on the plus space; output valid to prec // p**2.

    On coefficients with plus-supported exponent n: c(n) picks up c(p*p*n), a
    Kronecker-twisted p**(k-2) c(n) term, and p**(2k-3) c(n/p**2); exponents
    outside the support stay zero (at odd p that restriction is automatic, at
    p = 2 it is what keeps the operator on the plus space).  The sign
    convention (symbol evaluated at -n for the even weights used here) is
    pinned by the requirement that eigenvalues match prime eigenvalues on the
    integral-weight side, and is frozen: see the conventions section of the
    README.
    """
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    out_prec = g.prec // (p * p)
    if out_prec < 1:
        raise TruncationError(
            f"applying the square-index operator at {p} needs validity >= {p * p}",
            required=p * p,
        )
    k = g.k
    mid = p ** (k - 2)
    big = p ** (2 * k - 3)
    coeffs = [0] * (out_prec + 1)
    for n in range(1, out_prec + 1):
        if not _plus_supported(n):
            continue
        c = g.c(p * p * n) + mid * kronecker_symbol(-n, p) * g.c(n)
        if n % (p * p) == 0:
            c = c + big * g.c(n // (p * p))
        coeffs[n] = c
    return PlusSpaceForm(k, QSeries(coeffs, out_prec))


def plus_hecke_matrix(basis: list[PlusSpaceForm], p: int) -> RatMatrix:
    """Matrix of the square-index operator at p on a staircase basis, verified."""
    images = [plus_hecke(g, p).series for g in basis]
    return staircase_matrix([g.series for g in basis], images, p * p)


def plus_eigenforms(k: int, prec: int, constraint_bound: int | None = None):
    """Eigenbasis of the plus space under the index-4 operator.

    Returns a list of ``(form, eigenvalue)`` pairs; for two-dimensional
    spaces the eigenvalues are exact conjugate quadratic irrationals.
    """
    basis = plus_space_basis(k, prec, constraint_bound)
    if not basis:
        return []
    if len(basis) == 1:
        g = basis[0]
        lam = _eigenvalue_on(g, 2)
        return [(g, lam)]
    if len(basis) > 2:
        raise UnsupportedFieldError(
            f"plus space at k={k} has dimension {len(basis)}; fields beyond degree 2 unsupported"
        )
    out = []
    for lam, (v0, v1) in eigen_split_2x2(plus_hecke_matrix(basis, 2)):
        series = v0 * basis[0].series + v1 * basis[1].series
        lead = series.coefficient(series.valuation())
        form = PlusSpaceForm(k, series * exact_div(1, lead))
        check = _eigenvalue_on(form, 2)
        if check != lam:
            raise InconsistencyError("plus-space eigenvector failed verification")
        out.append((form, lam))
    return out


def _eigenvalue_on(g: PlusSpaceForm, p: int):
    """Eigenvalue of the square-index operator at p, verified at every coefficient."""
    tg = plus_hecke(g, p)
    val = g.series.valuation()
    if val is None or val > tg.prec:
        raise NotAnEigenformError("no usable probe coefficient", witness=val)
    lam = exact_div(tg.c(val), g.c(val))
    # an integral eigenvalue scales the coefficients as an int, not as a Fraction
    factor = lam.numerator if isinstance(lam, Fraction) and lam.denominator == 1 else lam
    image = tg.series.coeffs
    if list(map(mul, g.series.coeffs[: tg.prec + 1], repeat(factor))) != image:
        n = next(n for n in range(tg.prec + 1) if image[n] != lam * g.c(n))
        raise NotAnEigenformError(f"plus-space form is not an eigenform at p={p}", witness=n)
    return lam


def shimura_match(
    g: PlusSpaceForm, candidates: list[EllipticEigenform] | None = None, prec: int = 16
) -> EllipticEigenform:
    """The integral-weight eigenform whose prime-2 eigenvalue matches ``g``.

    ``g`` must be an eigenform of the index-4 operator; the correspondence is
    realized purely through eigenvalue matching, and a missing match is an
    internal error because the two spaces are isomorphic.
    """
    lam = _eigenvalue_on(g, 2)
    if candidates is None:
        candidates = eigenforms(2 * g.k - 2, prec)
    for f in candidates:
        if f.a(2) == lam:
            return f
    raise InconsistencyError(
        f"no weight-{2 * g.k - 2} eigenform with prime-2 eigenvalue {lam}"
    )
