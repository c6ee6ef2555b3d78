"""Level-one elliptic modular forms with exact q-expansions.

The discriminant form Delta is q * prod(1 - q**n)**24, the eighth power of
Jacobi's series for the cube of eta, built in integers by ``sparse_times``.
A one-dimensional cusp space S_w = Delta * M_(w-12) holds one normalized
eigenform, Delta * E_(w-12) (Serre, A Course in Arithmetic, VII 3), with
E_0 = 1 at weight 12; on the weights a lift reaches its coefficients are
ints.  A space of dimension two or more is refused, as its eigenforms have
irrational coefficients that nothing on the lift chain carries.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import TruncationError, UnsupportedFieldError, UsageError
from .numeric import bernoulli_number, int_if_integral
from .qseries import QSeries, sparse_times


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


def delta(prec: int) -> EllipticForm:
    """The weight-12 discriminant cusp form, from its eta-product expansion."""
    if prec < 1:
        raise UsageError("the discriminant form needs validity to at least q**1")
    eta24 = sparse_times(_eta_cube_terms(prec - 1), [1], prec - 1, 8)
    return EllipticForm(12, QSeries(eta24, prec - 1).shift(1))


def eigenforms(weight: int, prec: int) -> list[EllipticEigenform]:
    """``[Delta * E_(weight-12)]`` for a one-dimensional level-one cusp space, ``[]`` for an empty one.

    A space of dimension two or more raises ``UnsupportedFieldError`` before any series is built.
    """
    dim = dim_cusp_forms(weight)
    if dim > 1:
        raise UnsupportedFieldError(
            f"weight {weight} has a {dim}-dimensional cusp space; "
            "eigenvalue fields beyond degree 1 are not supported"
        )
    if dim == 0:
        return []
    if prec < 2:
        raise TruncationError(f"weight {weight} needs validity to q**2")
    e = eisenstein(weight - 12, prec).series if weight > 12 else QSeries([1], prec)
    return [EllipticEigenform(weight, delta(prec).series * e)]
