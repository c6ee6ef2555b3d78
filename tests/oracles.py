"""Reference code that only the tests call.

Slow or independent implementations the tests compare the library against,
the table edits the tests build bad input with, and the explicit coset
matrices that pin the Hecke operators' coset classes.
None of it is on the lift chain.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sklift.characterize import EigenvalueRecord, SatakeParams, _simplify
from sklift.errors import TruncationError, UsageError
from sklift.jacobi import JacobiForm
from sklift.kohnen import PlusSpaceForm
from sklift.numeric import QuadExt, factorize, fpow, is_prime, rat
from sklift.qseries import QSeries, RatMatrix
from sklift.siegel import (
    CheckReport,
    HeckeDoubleCoset,
    SiegelFourierTable,
    SiegelIndex,
    _translation_classes,
    reduce_index,
)


# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------

def divisors(n: int) -> list[int]:
    """Sorted positive divisors of ``n >= 1``, from the factorization."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def sigma(power: int, n: int) -> int:
    """Divisor sum sigma_power(n)."""
    return sum(d**power for d in divisors(n))


def norm(x: QuadExt) -> Fraction:
    """The field norm a**2 - d * b**2 of ``x = a + b*sqrt(d)``."""
    return x.a * x.a - x.b * x.b * x.d


# ---------------------------------------------------------------------------
# series and matrices
# ---------------------------------------------------------------------------

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


def solve(m: RatMatrix, rhs: list) -> list[Fraction]:
    """Solve ``m @ x = rhs`` exactly; raises if inconsistent or ambiguous."""
    aug = RatMatrix([row + [rat(rhs[i])] for i, row in enumerate(m.entries)])
    red, pivots = aug.rref()
    if m.cols in pivots:
        raise UsageError("inconsistent linear system")
    if len(pivots) < m.cols:
        raise UsageError("underdetermined linear system")
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.entries[r][m.cols]
    return x


def poly_eval_matrix(coeffs: list[Fraction], m: RatMatrix) -> RatMatrix:
    """Evaluate a polynomial (low-to-high coefficients) at a square matrix."""
    out = RatMatrix([[0] * m.cols for _ in range(m.rows)])
    power = RatMatrix.identity(m.rows)
    for c in coeffs:
        if c != 0:
            out = out + power.scale(c)
        power = power @ m
    return out


# ---------------------------------------------------------------------------
# Jacobi forms
# ---------------------------------------------------------------------------

def plus_form_from_jacobi(phi: JacobiForm) -> PlusSpaceForm:
    """Read the discriminant-indexed data back as a plus-space expansion."""
    coeffs = [0] * (phi.max_disc + 1)
    for disc, v in phi.by_disc.items():
        coeffs[disc] = v
    return PlusSpaceForm(phi.weight, QSeries(coeffs, phi.max_disc))


# ---------------------------------------------------------------------------
# Siegel tables: edits and the lookup by exception
# ---------------------------------------------------------------------------

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
        raise TruncationError(
            f"index {(n, r, m)} reduces to {tuple(idx)} beyond bound {table.bound}",
            required=idx.m,
        )
    return table.entries.get(idx, 0)


def try_value(table: SiegelFourierTable, n: int, r: int, m: int):
    """``value``, with None for an index beyond the bound."""
    try:
        return value(table, n, r, m)
    except TruncationError:
        return None


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


# ---------------------------------------------------------------------------
# explicit coset matrices
# ---------------------------------------------------------------------------

def coset_representatives(family: HeckeDoubleCoset) -> list:
    """Explicit 4x4 integer matrices, one per right coset of the family."""
    s = family.similitude
    reps = []
    for cls in family.classes:
        size, orders, gens = _translation_classes(cls.d_a, cls.d_b, cls.d_d)
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
