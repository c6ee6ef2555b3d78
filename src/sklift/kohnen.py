"""Half-integral weight cusp forms on Gamma0(4) and the plus space.

The plus space of weight (2k-1)/2 is isomorphic to the level-one cusp space
of weight 2k - 2 under the Shimura correspondence; the lift chain uses only
the one-dimensional spaces, at k = 10, 12 and 14, and builds each basis form
from its Eichler-Zagier closed form: eta(4t)**18 * theta(t + 1/2) at k = 10,
times E4(4t) at k = 14, and a Serre-derivative combination with E2(4t) at
k = 12, all as shifted adds and integer products on the residues 0 and
3 mod 4.  The square-index Hecke action carries eigenvalues that match the
integral-weight prime eigenvalues, and that matching is how the two sides
are glued together.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul

from .elliptic import (
    EllipticEigenform,
    _eta_cube_terms,
    dim_cusp_forms,
    eisenstein,
)
from .errors import (
    InconsistencyError,
    NotAnEigenformError,
    TruncationError,
    UnsupportedFieldError,
    UsageError,
)
from .numeric import divisor_lists, exact_div, int_if_integral, is_prime, kronecker_symbol, short_repr
from .qseries import QSeries, _kronecker, sparse_times


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


def _plus_supported(n: int) -> bool:
    # cuspidal plus condition for even k: nothing at n = 0 or n = 1, 2 mod 4
    return n > 0 and n % 4 in (0, 3)


def plus_space_basis(k: int, prec: int) -> list[PlusSpaceForm]:
    """Exact basis of the cuspidal plus space of weight (2k-1)/2, to ``prec``.

    Empty where the cusp space S_(2k-2) is zero; a space of dimension two or
    more raises ``UnsupportedFieldError``.  The one-dimensional spaces, at
    k = 10, 12 and 14, are spanned by the closed forms of Eichler and
    Zagier (The Theory of Jacobi Forms, 1985, sections 3, 5 and 9), each
    with leading coefficient 1 at q**3:
    g10 = eta(4t)**18 * theta(t + 1/2), g14 = E4(4t) * g10 and
    g12 = 19 * E2(4t) * g10 - 6 * q * d/dq g10.  With x = q**4 a form is
    B(x) + q**3 * A(x), and for g10 A = E * (1 + 2 * sum(x**(s*s))) and
    B = -2 * E * sum(x**(j*j + j + 1)), where E = prod(1 - x**n)**18 is
    the sixth power of Jacobi's series for the cube.
    """
    if k % 2:
        raise UsageError("odd weights do not occur on this lift chain")
    dim = dim_cusp_forms(2 * k - 2)
    if dim == 0:
        return []
    if dim > 1:
        raise UnsupportedFieldError(
            f"weight {2 * k - 1}/2 has a {dim}-dimensional plus space; "
            "eigenvalue fields beyond degree 1 are not supported"
        )
    m = prec // 4
    e = sparse_times(_eta_cube_terms(m), [1], m, 6)
    if k == 14:
        e = _kronecker(eisenstein(4, m).series.coeffs, e, m)
    squares = [(0, 1)] + [(s * s, 2) for s in range(1, math.isqrt(m) + 1)]
    pronic = [(j * j + j + 1, -2) for j in range(math.isqrt(m) + 1)]
    a, b = sparse_times(squares, e, m, 1), sparse_times(pronic, e, m, 1)
    if k == 12:
        # q * d/dq scales the coefficient at q**(4i + 3) by 4i + 3, at q**(4i) by 4i
        e2 = [1] + [-24 * sum(ds) for ds in divisor_lists(m)[1:]]
        a = [19 * c - 6 * (4 * i + 3) * x for i, (c, x) in enumerate(zip(_kronecker(e2, a, m), a))]
        b = [19 * c - 24 * i * x for i, (c, x) in enumerate(zip(_kronecker(e2, b, m), b))]
    coeffs = [0] * (prec + 1)
    coeffs[::4] = b[: len(coeffs[::4])]
    coeffs[3::4] = a[: len(coeffs[3::4])]
    return [PlusSpaceForm(k, QSeries(coeffs, prec))]


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
        raise UsageError(f"{short_repr(p)} is not prime")
    out_prec = g.prec // (p * p)
    if out_prec < 1:
        raise TruncationError(f"applying the square-index operator at {p} needs validity >= {p * p}")
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
