"""Truncated power series with exact coefficients, and exact linear algebra.

A ``QSeries`` knows the largest exponent to which it is valid and refuses to
hand out coefficients beyond it.  A product takes the minimum of the two
validity bounds, so a silent loss of precision cannot happen.  A series may
hold ints, Fractions or quadratic irrationals, but products take int
coefficients only, the case of the lift chain: a product of two all-int
series is one big-integer multiplication by Kronecker substitution, and a
product with any other coefficient raises ``UsageError``.  ``sparse_times``
multiplies an integer list by a power of a series with few terms, such as
theta or Jacobi's series for the cube of eta, as shifted adds on one packed
integer at one slot width, taken from a proven bound on the result, packing
the list once and reading the result back once.

``echelon``, fraction-free Gauss-Jordan returning primitive integer rows, is
the one row reduction; ``RatMatrix.rref`` clears denominators and calls it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat

from .errors import TruncationError, UsageError
from .numeric import rat


class QSeries:
    """A power series known exactly up to and including exponent ``prec``."""

    __slots__ = ("prec", "coeffs")

    def __init__(self, coeffs, prec: int | None = None):
        coeffs = list(coeffs)
        if prec is None:
            prec = len(coeffs) - 1
        if prec < 0:
            raise UsageError("a series needs at least its constant term")
        if len(coeffs) < prec + 1:
            coeffs.extend([0] * (prec + 1 - len(coeffs)))
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "coeffs", coeffs[: prec + 1])

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("QSeries values are immutable")

    def coefficient(self, n: int):
        if n < 0:
            return 0
        if n > self.prec:
            raise TruncationError(f"coefficient {n} requested from a series valid to {self.prec}")
        return self.coeffs[n]

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None for zero series."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def shift(self, j: int) -> "QSeries":
        """Multiply by q**j (j >= 0); validity grows with the shift."""
        if j < 0:
            raise UsageError("negative shifts are not supported")
        return QSeries([0] * j + self.coeffs, self.prec + j)

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.prec, other.prec)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        if set(map(type, a)) | set(map(type, b)) == {int}:
            return QSeries(_kronecker(a, b, n), n)
        raise UsageError("a series product takes int coefficients only")

    __rmul__ = __mul__

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.prec == other.prec and self.coeffs == other.coeffs

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.prec > 5 else ""
        return f"QSeries([{shown}{tail}], prec={self.prec})"


def _pack(coeffs: list, width: int) -> int:
    """sum(c * 256**(width*i)) for signed ints c with |c| < 256**width."""
    if min(coeffs, default=0) >= 0:
        packed = b"".join(map(int.to_bytes, coeffs, repeat(width), repeat("little")))
        return int.from_bytes(packed, "little")
    pos = b"".join(map(int.to_bytes, map(max, coeffs, repeat(0)), repeat(width), repeat("little")))
    neg = b"".join(
        map(int.to_bytes, map(int.__neg__, map(min, coeffs, repeat(0))), repeat(width), repeat("little"))
    )
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(x: int, width: int, n: int) -> list:
    """Slots 0..n of ``x``, each slot's value signed and below half a slot.

    Adding half a slot to each of slots 0..n makes every slot non-negative,
    so the slots separate without borrows; masking to n + 1 slots drops the
    higher ones whatever their signs.
    """
    nbytes = width * (n + 1)
    offset = 1 << (8 * width - 1)
    biased = x + int.from_bytes(offset.to_bytes(width, "little") * (n + 1), "little")
    raw = (biased & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
    slots = map(slice, range(0, nbytes, width), range(width, nbytes + width, width))
    return list(map(offset.__rsub__, map(int.from_bytes, map(raw.__getitem__, slots), repeat("little"))))


def _kronecker(a: list, b: list, n: int) -> list:
    """Coefficients 0..n of the product of two int lists, by Kronecker substitution.

    Each list becomes one integer with a coefficient per ``width``-byte slot,
    and a single big-integer product (Karatsuba in C) replaces the quadratic
    loop.  A product coefficient is a sum of at most min(len) terms, so
    ``width`` holds max|a| * max|b| * min(len) plus a sign bit.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if bound == 0:
        return [0] * (n + 1)
    width = (bound.bit_length() + 8) // 8
    return _unpack(_pack(a, width) * _pack(b, width), width, n)


def sparse_times(terms: list, coeffs: list, n: int, rounds: int) -> list:
    """Coefficients 0..n of ``S**rounds * coeffs``, S = ``sum(c * q**e for e, c in terms)``.

    ``terms`` holds a few ``(e, c)`` pairs, e >= 0, such as the nonzero terms
    of theta, and every c and coefficient is an int.  The list is packed
    once, one ``width``-byte slot per coefficient, and read back once.  A
    round, one product by S, adds the shifted copies of the packed integer
    for each distinct c, multiplies each sum by its c, and masks to n + 1
    slots.  Shifts, adds, products and the mask are exact modulo
    256**(width*(n+1)), so the result is congruent to the truncated product.
    ``width`` comes from a proven bound on the result, never from the
    result: with N the sum of |c| over the terms up to q**n (or 1 if that
    is 0), a round at most multiplies the largest |coefficient| by N, so
    max|coeffs| * N**rounds bounds every result coefficient; ``width`` holds
    it plus a sign bit, so each slot reads back signed.
    """
    coeffs = coeffs[: n + 1]
    total = max(sum(abs(c) for e, c in terms if e <= n), 1)
    bound = max(map(abs, coeffs), default=0) * total**rounds
    if bound == 0:
        return [0] * (n + 1)
    width = (bound.bit_length() + 8) // 8
    mask = (1 << (8 * width * (n + 1))) - 1
    groups: dict[int, list[int]] = {}
    for e, c in terms:
        if e <= n and c:
            groups.setdefault(c, []).append(8 * width * e)
    x = _pack(coeffs, width)
    for _ in range(rounds):
        x = sum(c * sum(map(x.__lshift__, shifts)) for c, shifts in groups.items()) & mask
    return _unpack(x, width, n)


# ---------------------------------------------------------------------------
# exact matrices over the rationals
# ---------------------------------------------------------------------------

def echelon(rows: list[list[int]]) -> tuple[list[list[int]], tuple[int, ...]]:
    """Fraction-free Gauss-Jordan: the primitive pivot rows and their pivot columns.

    Each step swaps in the first row at or below the current one that is
    nonzero in the column, and sets every other row to
    ``(pv * row - row[c] * pivot_row) // prev``, exact because each entry is
    a minor of the input (Bareiss, Math. Comp. 22, 1968).  A returned row has
    a positive pivot; divided by it, it is the row of the rational RREF.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        pivot_row, pv = m[r], m[r][c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(pv * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pv
        pivots.append(c)
    out = []
    for row, c in zip(m, pivots):
        g = math.gcd(*row) if row[c] > 0 else -math.gcd(*row)
        out.append([x // g for x in row])
    return out, tuple(pivots)


class RatMatrix:
    """A dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [[rat(x) for x in row] for row in entries]
        if entries and any(len(row) != len(entries[0]) for row in entries):
            raise UsageError("ragged rows in matrix input")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", len(entries[0]) if entries else 0)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("RatMatrix values are immutable")

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.entries == other.entries

    # -- elimination -----------------------------------------------------

    def rref(self) -> tuple["RatMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        dens = [math.lcm(*(x.denominator for x in row)) for row in self.entries]
        red, pivots = echelon([[int(x * d) for x in row] for row, d in zip(self.entries, dens)])
        entries = [[Fraction(x, row[c]) for x in row] for row, c in zip(red, pivots)]
        return RatMatrix(entries + [[0] * self.cols] * (self.rows - len(entries))), pivots

    def kernel(self) -> list[list[Fraction]]:
        """Exact basis of the right kernel (one vector per free column)."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [Fraction(0)] * self.cols
            v[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][free]
            basis.append(v)
        return basis
