"""Half-integral weight cusp forms on Gamma0(4) and the plus space.

The full space of weight (2k-1)/2 forms is spanned by monomials in the unary
theta series and the odd-divisor weight-2 form.  The plus space is carved out
exactly as the kernel of the coefficient constraints, cross-checked against
the dimension of the corresponding integral-weight cusp space, and carries
the square-index Hecke action whose eigenvalues match the integral-weight
prime eigenvalues (that matching is how the two sides are glued together).

The kernel is found from the monomials at the constraint window only, built
from one run of theta powers; each basis form is then evaluated at full
validity in one packed Horner pass in theta**4 over powers of the weight-2
form that are built once per basis.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import add, mul

from .elliptic import EllipticEigenform, dim_cusp_forms
from .errors import (
    DimensionMismatchError,
    InconsistencyError,
    NotAnEigenformError,
    TruncationError,
    UsageError,
)
from .numeric import exact_div, int_if_integral, is_prime, kronecker_symbol
from .qseries import QSeries, _kronecker, _sparse_horner, echelon, sparse_times


def _theta_terms(prec: int) -> list[tuple[int, int]]:
    """The nonzero terms ``(e, c)`` of theta to ``prec``: 1 and 2*q**(n*n)."""
    return [(0, 1)] + [(n * n, 2) for n in range(1, math.isqrt(prec) + 1)]


def _odd_sigma_half(half: int) -> list:
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
        g[start::d] = map(add, g[start::d], chain([d], range(2 * d + 2, 2 * d + 2 * count, 2)))
    return g


def _f2_powers(prec: int, count: int) -> list[list]:
    """Coefficient lists of f2, f2**2, ..., f2**count to ``prec``, at half length.

    f2 vanishes at even exponents, f2 = q * g(q**2), so f2**j is
    q**j * g(q**2)**j: only powers of g, half as long, are multiplied,
    each as the product of two lower ones, as integer lists.
    """
    half = max((prec - 1) // 2, 0)
    g_pows = [[1], _odd_sigma_half(half)]
    for j in range(2, count + 1):
        # an even power squares the half power, which the product takes faster
        g_pows.append(_kronecker(g_pows[j // 2], g_pows[j - j // 2], half))
    out = []
    for j in range(1, count + 1):
        c = [0] * (prec + 1)
        c[j::2] = g_pows[j][: len(range(j, prec + 1, 2))]
        out.append(c)
    return out


def _window_generators(k: int, prec: int, f2_pows: list[list]) -> list[list]:
    """Coefficient lists of the monomial generators to ``prec``, for ``f2_pows`` to at least it.

    Generator b is theta**(wnum - 4b) * f2**b, wnum = 2k - 1; the powers of
    theta run up from theta**(wnum % 4), four rounds of shifted adds each,
    and each meets its f2 power in one product.
    """
    wnum = 2 * k - 1
    squares = _theta_terms(prec)
    theta_pow = sparse_times(squares, [1], prec, wnum % 4)
    gens = []
    for b in range(wnum // 4, 0, -1):
        gens.append(_kronecker(theta_pow, f2_pows[b - 1][: prec + 1], prec))
        theta_pow = sparse_times(squares, theta_pow, prec, 4)
    gens.append(theta_pow)
    return gens[::-1]


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
    wnum = 2 * k - 1
    f2_pows = _f2_powers(prec, wnum // 4)
    positions = [0] + [n for n in range(1, bound + 1) if n % 4 in (1, 2)]
    order = positions + [n for n in range(1, bound + 1) if n % 4 in (0, 3)]
    gens = _window_generators(k, bound, f2_pows)
    ident = [[int(i == j) for j in range(len(gens))] for i in range(len(gens))]
    rows = [[g[n] for n in order] + e for g, e in zip(gens, ident)]
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
    # t4 = theta**4, evaluated at full validity by Horner in t4 on one
    # packed integer: Q_0 = x_0, Q_j = t4 * Q_(j-1) + x_j * f2**j
    squares = _theta_terms(prec)
    out = []
    for row, _ in kernel:
        # primitive as the row is: its window entries are combinations of these
        coords = row[bound + 1 :]
        parts = list(zip(coords, [[1]] + f2_pows))
        series = QSeries(_sparse_horner(squares, 4, wnum % 4, parts, prec), prec)
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


def _eigenvalue_on(g: PlusSpaceForm, p: int):
    """Eigenvalue of the square-index operator at p, verified at every coefficient."""
    tg = plus_hecke(g, p)
    val = g.series.valuation()
    if val is None or val > tg.prec:
        raise NotAnEigenformError("no usable probe coefficient", witness=val)
    lam = exact_div(tg.c(val), g.c(val))
    # an integral eigenvalue scales the coefficients as an int, not as a Fraction
    factor = int_if_integral(lam)
    image = tg.series.coeffs
    if list(map(mul, g.series.coeffs[: tg.prec + 1], repeat(factor))) != image:
        n = next(n for n in range(tg.prec + 1) if image[n] != lam * g.c(n))
        raise NotAnEigenformError(f"plus-space form is not an eigenform at p={p}", witness=n)
    return lam


def shimura_match(g: PlusSpaceForm, candidates: list[EllipticEigenform]) -> EllipticEigenform:
    """The eigenform among ``candidates`` whose prime-2 eigenvalue matches ``g``.

    ``g`` must be an eigenform of the index-4 operator; the correspondence is
    realized purely through eigenvalue matching, and a missing match is an
    internal error because the two spaces are isomorphic.
    """
    lam = _eigenvalue_on(g, 2)
    for f in candidates:
        if f.a(2) == lam:
            return f
    raise InconsistencyError(
        f"no weight-{2 * g.k - 2} eigenform with prime-2 eigenvalue {lam}"
    )
