"""Reference code that only the tests call.

Slow or independent implementations the tests compare the library against,
and the explicit coset matrices that pin the Hecke operators' coset classes.
None of it is on the lift chain.
"""

from __future__ import annotations

from fractions import Fraction

from sklift.errors import UsageError
from sklift.jacobi import JacobiForm
from sklift.kohnen import PlusSpaceForm
from sklift.numeric import QuadExt, factorize, rat
from sklift.qseries import QSeries, RatMatrix
from sklift.siegel import HeckeDoubleCoset, _translation_classes


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
