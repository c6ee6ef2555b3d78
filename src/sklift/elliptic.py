"""Level-one elliptic modular forms with exact q-expansions.

Cusp form bases are built from integer monomials in the discriminant form
and the two Eisenstein generators E4 = 1 + 240 sigma_3 and
E6 = 1 - 504 sigma_5, both from ``eisenstein``, then row reduced by
``qseries.echelon`` to a staircase basis whose coefficients are ints
wherever they are integral.  A one-dimensional cusp space holds one
normalized eigenform, its basis form, with rational coefficients; a space of
dimension two or more is refused, as its eigenforms have irrational
coefficients that nothing on the lift chain carries.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatchError, TruncationError, UnsupportedFieldError, UsageError
from .numeric import bernoulli_number, int_if_integral
from .qseries import QSeries, echelon


def dim_modular_forms(weight: int) -> int:
    """Dimension of the full space of level-one modular forms."""
    if weight < 0 or weight % 2:
        return 0
    if weight % 12 == 2:
        return weight // 12
    return weight // 12 + 1


def dim_cusp_forms(weight: int) -> int:
    """Dimension of the level-one cusp space."""
    if weight < 12 or weight % 2:
        return 0
    return dim_modular_forms(weight) - 1


class EllipticForm:
    """A modular form of even weight for the full modular group."""

    __slots__ = ("weight", "series")

    def __init__(self, weight: int, series: QSeries):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "series", series)

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("EllipticForm values are immutable")

    def a(self, n: int):
        """Fourier coefficient at q**n."""
        return self.series.coefficient(n)

    def __eq__(self, other):
        if not isinstance(other, EllipticForm):
            return NotImplemented
        return self.weight == other.weight and self.series == other.series

    def __hash__(self):
        return hash((self.weight, self.series))

    def __repr__(self):
        return f"{type(self).__name__}(weight={self.weight}, prec={self.series.prec})"


class EllipticEigenform(EllipticForm):
    """A normalized Hecke eigenform; ``eigenforms`` builds rational ones only."""

    __slots__ = ()

    def __init__(self, weight: int, series: QSeries):
        if series.coefficient(1) != 1:
            raise UsageError("eigenforms must be normalized with leading coefficient 1")
        super().__init__(weight, series)


def _divisor_power_sums(power: int, prec: int) -> list[int]:
    """sigma_power(n) at index n = 1..prec, 0 at index 0, by a divisor sieve."""
    sums = [0] * (prec + 1)
    for d in range(1, prec + 1):
        term = d**power
        for multiple in range(d, prec + 1, d):
            sums[multiple] += term
    return sums


def eisenstein(weight: int, prec: int) -> EllipticForm:
    """Normalized Eisenstein series of even weight >= 4."""
    if weight % 2 or weight < 4:
        raise UsageError(f"no Eisenstein series of weight {weight} here")
    factor = int_if_integral(Fraction(-2 * weight) / bernoulli_number(weight))
    sums = _divisor_power_sums(weight - 1, prec)
    return EllipticForm(weight, QSeries([1] + [int_if_integral(factor * s) for s in sums[1:]], prec))


def _eta_cube_terms(prec: int) -> list[tuple[int, int]]:
    """The nonzero terms ``(e, c)`` to ``prec`` of prod(1 - q**n)**3.

    By Jacobi's identity it is sum((-1)**j * (2j + 1) * q**(j(j+1)/2)), j >= 0.
    """
    # j*(j+1)/2 <= prec exactly when 2j + 1 <= isqrt(8 * prec + 1)
    count = (math.isqrt(8 * prec + 1) + 1) // 2
    return [(j * (j + 1) // 2, (-1) ** j * (2 * j + 1)) for j in range(count)]


def _eta_power24(prec: int) -> QSeries:
    # the cube of the eta q-expansion (without the q**(1/8)), then three squarings
    cube = [0] * (prec + 1)
    for e, c in _eta_cube_terms(prec):
        cube[e] = c
    s = QSeries(cube, prec)
    for _ in range(3):
        s = s * s
    return s


def delta(prec: int) -> EllipticForm:
    """The weight-12 discriminant cusp form, from its eta-product expansion."""
    if prec < 1:
        raise UsageError("the discriminant form needs validity to at least q**1")
    return EllipticForm(12, _eta_power24(prec - 1).shift(1))


def _monomial_exponents(weight: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with 12a + 4b + 6c = weight and a >= 1."""
    out = []
    for a in range(1, weight // 12 + 1):
        rem = weight - 12 * a
        for c in range(rem // 6 + 1):
            if (rem - 6 * c) % 4 == 0:
                out.append((a, (rem - 6 * c) // 4, c))
    return out


def cusp_basis(weight: int, prec: int) -> list[EllipticForm]:
    """Echelonized exact basis of the level-one cusp space."""
    expected = dim_cusp_forms(weight)
    if expected == 0:
        return []
    if prec < expected + 1:
        raise TruncationError(
            f"weight {weight} needs validity to q**{expected + 1}", required=expected + 1
        )
    d = delta(prec).series
    e4, e6 = eisenstein(4, prec).series, eisenstein(6, prec).series
    rows = []
    for a, b, c in _monomial_exponents(weight):
        s = d**a
        if b:
            s = s * e4**b
        if c:
            s = s * e6**c
        rows.append(s.coeffs[1:])
    red, pivots = echelon(rows)
    if len(pivots) != expected:
        raise DimensionMismatchError(
            f"cusp space of weight {weight}: got rank {len(pivots)}, expected {expected}"
        )
    basis = []
    for row, c in zip(red, pivots):
        # the row of the rational RREF, an int wherever it is integral
        pv = row[c]
        coeffs = [x // pv if x % pv == 0 else Fraction(x, pv) for x in row]
        basis.append(EllipticForm(weight, QSeries([0] + coeffs, prec)))
    return basis


def eigenforms(weight: int, prec: int) -> list[EllipticEigenform]:
    """Normalized eigenbasis of a level-one cusp space of dimension at most one.

    The basis form of a one-dimensional space is its eigenform; a space of
    dimension two or more raises ``UnsupportedFieldError``.
    """
    basis = cusp_basis(weight, prec)
    if len(basis) > 1:
        raise UnsupportedFieldError(
            f"weight {weight} has a {len(basis)}-dimensional cusp space; "
            "eigenvalue fields beyond degree 1 are not supported"
        )
    return [EllipticEigenform(weight, f.series) for f in basis]
