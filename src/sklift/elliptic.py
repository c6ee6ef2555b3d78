"""Level-one elliptic modular forms with exact q-expansions.

Cusp form bases are built from integer monomials in the discriminant form
and the two Eisenstein generators E4 = 1 + 240 sigma_3 and
E6 = 1 - 504 sigma_5, both from ``eisenstein``, then row reduced by
``qseries.echelon`` to a staircase basis whose coefficients are ints
wherever they are integral.  Hecke operators act directly on coefficients,
and eigenforms are extracted from the exact characteristic polynomial of
the prime-2 Hecke matrix; quadratic eigenvalue fields are handled
symbolically, anything of higher degree is refused.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    InconsistencyError,
    TruncationError,
    UnsupportedFieldError,
    UsageError,
)
from .numeric import QuadExt, bernoulli_number, exact_div, int_if_integral, is_prime
from .qseries import QSeries, echelon, eigen_split_2x2, staircase_matrix


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

    @property
    def prec(self) -> int:
        return self.series.prec

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
        return f"EllipticForm(weight={self.weight}, prec={self.prec})"


class EllipticEigenform(EllipticForm):
    """A normalized Hecke eigenform; coefficients may be quadratic irrationals.

    ``field_disc`` is None for rational eigenforms and the squarefree radicand
    of the coefficient field otherwise.
    """

    __slots__ = ("field_disc",)

    def __init__(self, weight: int, series: QSeries, field_disc: int | None = None):
        if series.coefficient(1) != 1:
            raise UsageError("eigenforms must be normalized with leading coefficient 1")
        super().__init__(weight, series)
        object.__setattr__(self, "field_disc", field_disc)

    def __repr__(self):
        tag = "rational" if self.field_disc is None else f"Q(sqrt({self.field_disc}))"
        return f"EllipticEigenform(weight={self.weight}, prec={self.prec}, field={tag})"


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


def _eta_power24(prec: int) -> QSeries:
    # cube of the eta q-expansion (without the q**(1/8)) via the classical
    # triangular-number identity, then three squarings
    cube = [0] * (prec + 1)
    k = 0
    while k * (k + 1) // 2 <= prec:
        cube[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
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


def hecke_Tp(f: EllipticForm, p: int) -> EllipticForm:
    """Prime Hecke operator on coefficients; output valid to prec // p."""
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    out_prec = f.prec // p
    if out_prec < 1:
        raise TruncationError(
            f"applying T({p}) needs input validity >= {p}", required=p
        )
    pk = p ** (f.weight - 1)
    coeffs = []
    for n in range(out_prec + 1):
        c = f.a(p * n)
        if n % p == 0:
            c = c + pk * f.a(n // p)
        coeffs.append(c)
    return EllipticForm(f.weight, QSeries(coeffs, out_prec))


def eigenforms(weight: int, prec: int) -> list[EllipticEigenform]:
    """Simultaneous normalized eigenbasis of the level-one cusp space.

    Spaces of dimension two are split through the exact characteristic
    polynomial of the prime-2 Hecke matrix; eigenvalue fields of degree
    three or more raise ``UnsupportedFieldError``.
    """
    basis = cusp_basis(weight, prec)
    d = len(basis)
    if d == 0:
        return []
    if d == 1:
        return [EllipticEigenform(weight, basis[0].series)]
    if d > 2:
        raise UnsupportedFieldError(
            f"weight {weight} has a {d}-dimensional cusp space; "
            "eigenvalue fields beyond degree 2 are not supported"
        )
    out = []
    t2 = staircase_matrix([f.series for f in basis], [hecke_Tp(f, 2).series for f in basis], 2)
    for lam, (v0, v1) in eigen_split_2x2(t2):
        series = v0 * basis[0].series + v1 * basis[1].series
        lead = series.coefficient(1)
        if lead == 0:
            raise InconsistencyError("eigenvector with vanishing leading coefficient")
        series = series * exact_div(1, lead)
        disc = lam.d if isinstance(lam, QuadExt) else None
        form = EllipticEigenform(weight, series, field_disc=disc)
        _verify_eigenform(form, 2)
        out.append(form)
    return out


def _verify_eigenform(f: EllipticEigenform, p: int) -> None:
    tf = hecke_Tp(f, p)
    expected = f.series.truncate(tf.prec) * f.a(p)
    if expected != tf.series:
        raise InconsistencyError(
            f"claimed eigenform of weight {f.weight} is not a T({p}) eigenvector"
        )

