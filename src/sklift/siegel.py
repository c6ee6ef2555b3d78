"""Degree-2 Siegel cusp forms as exact Fourier-coefficient tables.

A table stores coefficients at canonically reduced index triples (n, r, m)
with 0 <= r <= n <= m; lookups at arbitrary triples route through binary
form reduction.  On top of the tables this module provides the divisor-sum
lift from index-1 Jacobi forms, the two coefficient-relation checkers, and
the similitude-p / similitude-p**2 Hecke operators realized through explicit
right-coset families acting by index remapping with exact character sums.

Operator normalization is the one pinned by the eigenvalue contract: on a
lifted form the prime eigenvalue equals p**(k-1) + p**(k-2) + a(p), with
a(p) the prime coefficient of the input elliptic eigenform.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    InconsistencyError,
    NotAnEigenformError,
    TruncationError,
    UsageError,
)
from .jacobi import JacobiForm
from .numeric import QuadExt, divisor_lists, exact_div, is_prime, rat
from .qseries import RatMatrix

SCHEMA_VERSION = 1


class SiegelIndex(NamedTuple):
    """Index triple for the half-integral matrix [[n, r/2], [r/2, m]]."""

    n: int
    r: int
    m: int

    @property
    def disc(self) -> int:
        return 4 * self.n * self.m - self.r * self.r


def reduce_index(n: int, r: int, m: int) -> tuple[int, int, int]:
    """Canonical representative 0 <= r <= n <= m of a positive definite triple."""
    if n <= 0 or m <= 0 or 4 * n * m - r * r <= 0:
        raise UsageError(f"({n},{r},{m}) is not positive definite")
    for _ in range(10_000):
        if n > m:
            n, m = m, n
        if not (-n < r <= n):
            t = -((n - r) // (2 * n))  # ceil((r - n) / 2n)
            m = m - r * t + n * t * t
            r = r - 2 * n * t
            continue
        if n <= m:
            return (n, abs(r), m)
    raise InconsistencyError("binary form reduction failed to terminate")


def reduced_indices(bound: int):
    """All canonical triples with m <= bound, in deterministic order."""
    for m in range(1, bound + 1):
        for n in range(1, m + 1):
            for r in range(n + 1):
                yield SiegelIndex(n, r, m)


class SiegelFourierTable:
    """Sparse exact coefficient table of a degree-2 cusp form, complete to ``bound``.

    Only nonzero reduced entries are stored; any reduced index with maximal
    entry at most ``bound`` that is absent is exactly zero.
    """

    __slots__ = ("weight", "bound", "entries")

    def __init__(self, weight: int, bound: int, entries: dict):
        clean = {}
        for key, value in entries.items():
            idx = SiegelIndex(*key)
            if reduce_index(*idx) != tuple(idx):
                raise UsageError(f"table key {tuple(idx)} is not reduced")
            if idx.m > bound:
                raise UsageError(f"table key {tuple(idx)} beyond bound {bound}")
            if value != 0:
                clean[idx] = value
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("tables are immutable; build a new one")

    def _lookup(self, n: int, r: int, m: int):
        """``(A(n, r, m), reduced key)``; the value is None beyond the bound.

        Off the cusp support the value is 0 and the key None.
        """
        if n <= 0 or m <= 0 or 4 * n * m - r * r <= 0:
            return 0, None
        key = reduce_index(n, r, m)
        if key[2] > self.bound:
            return None, key
        return self.entries.get(key, 0), key

    def value(self, n: int, r: int, m: int):
        """A(n, r, m); zero outside the cusp support, error beyond the bound."""
        val, key = self._lookup(n, r, m)
        if val is None:
            raise TruncationError(
                f"index {(n, r, m)} reduces to {key} beyond bound {self.bound}",
                required=key[2],
            )
        return val

    def try_value(self, n: int, r: int, m: int):
        """Like ``value`` but returns None when the index is beyond the bound."""
        return self._lookup(n, r, m)[0]

    def __eq__(self, other):
        if not isinstance(other, SiegelFourierTable):
            return NotImplemented
        return (
            self.weight == other.weight
            and self.bound == other.bound
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.weight, self.bound, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return (
            f"SiegelFourierTable(weight={self.weight}, bound={self.bound}, "
            f"nonzero={len(self.entries)})"
        )

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for idx in sorted(self.entries):
            v = self.entries[idx]
            if isinstance(v, QuadExt):
                raise UsageError(
                    "schema v1 stores rational coefficients only; "
                    "this table has quadratic-irrational entries"
                )
            if type(v) is int:
                num, den = v, 1
            else:
                v = rat(v)
                num, den = v.numerator, v.denominator
            entries.append([idx.n, idx.r, idx.m, str(num), str(den)])
        return {
            "schema_version": SCHEMA_VERSION,
            "weight": self.weight,
            "bound": self.bound,
            "entries": entries,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SiegelFourierTable":
        if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
            raise UsageError(
                f"unsupported table schema {data.get('schema_version')!r}; "
                f"expected {SCHEMA_VERSION}"
            )
        try:
            weight = int(data["weight"])
            bound = int(data["bound"])
            entries = {}
            for n, r, m, num, den in data["entries"]:
                entries[(int(n), int(r), int(m))] = Fraction(int(num), int(den))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed table file: {exc}") from exc
        return cls(weight, bound, entries)


# ---------------------------------------------------------------------------
# the divisor-sum lift and the coefficient-relation checkers
# ---------------------------------------------------------------------------

def maass_lift(phi: JacobiForm, bound: int) -> SiegelFourierTable:
    """Lift an index-1 Jacobi form to a degree-2 table out to ``bound``.

    A(n, r, m) sums d**(k-1) times the Jacobi coefficient at
    (n*m/d**2, r/d) over divisors d of gcd(n, r, m).
    """
    needed = 4 * bound * bound
    if phi.max_disc < needed:
        raise TruncationError(
            f"lift to bound {bound} needs Jacobi discriminants up to {needed}, "
            f"table stops at {phi.max_disc}",
            required=needed,
        )
    k = phi.weight
    # gcd(n, r, m) <= n <= bound on reduced indices
    divs = divisor_lists(bound)
    entries = {}
    for idx in reduced_indices(bound):
        n, r, m = idx
        acc = 0
        for d in divs[math.gcd(n, r, m)]:
            acc += d ** (k - 1) * phi.coeff(n * m // (d * d), r // d)
        if acc != 0:
            entries[idx] = acc
    return SiegelFourierTable(k, bound, entries)


class CheckReport(NamedTuple):
    """Outcome of a coefficient-relation scan.

    ``skipped`` counts relation instances whose evaluation would need
    coefficients beyond the table bound; they are coverage data, not failures.
    """

    kind: str
    p: int | None
    bound: int
    checked: int
    skipped: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_maass_space(table: SiegelFourierTable) -> CheckReport:
    """Verify the divisor-sum relation at every reduced index within bound.

    The relation constrains positive definite indices only (coefficients off
    the cusp support vanish on both sides).
    """
    k = table.weight
    divs = divisor_lists(table.bound)
    checked = skipped = 0
    violations = []
    for idx in reduced_indices(table.bound):
        n, r, m = idx
        rhs = 0
        resolvable = True
        for d in divs[math.gcd(n, r, m)]:
            val = table.try_value(n * m // (d * d), r // d, 1)
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


def check_maass_p_space(table: SiegelFourierTable, p: int) -> CheckReport:
    """Verify the single-prime coefficient relation

        A(np, r, m) + p**(k-1) A(n/p, r/p, m)
            = p**(k-1) A(n, r/p, m/p) + A(n, r, mp)

    over all instances with n, m <= p*bound whose four lookups resolve within
    the table (indices with fractional entries contribute zero).  Instances
    with r < 0 mirror the r > 0 ones coefficient for coefficient, so only
    r >= 0 is enumerated.
    """
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
                t1 = table.try_value(n * p, r, m)
                t4 = table.try_value(n, r, m * p)
                t2 = 0
                if n % p == 0 and r % p == 0:
                    t2 = table.try_value(n // p, r // p, m)
                t3 = 0
                if r % p == 0 and m % p == 0:
                    t3 = table.try_value(n, r // p, m // p)
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
# integer lattice utilities (for the coset families)
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
    red, pivots = RatMatrix(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    ).rref()
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


# ---------------------------------------------------------------------------
# right-coset families for the similitude operators
# ---------------------------------------------------------------------------

class CosetClass(NamedTuple):
    """All right cosets sharing one lower-right block ``D`` in normal form.

    ``size`` is the number of translation classes over ``D``;
    ``char_gens`` generate the finite translation group, so a character is
    trivial exactly when it is integral on each generator.
    """

    d_a: int
    d_b: int
    d_d: int
    size: int
    char_gens: tuple  # 2x2 integer matrices

    @property
    def det(self) -> int:
        return self.d_a * self.d_d


def _translation_classes(d_a, d_b, d_d):
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


def _coset_classes(p: int, e: int) -> tuple[CosetClass, ...]:
    """Normal-form classes for similitude p**e, e in {1, 2}."""
    s = p**e
    classes = []
    for i in range(e + 1):
        d_a = p**i
        for j in range(e + 1):
            d_d = p**j
            for d_b in range(d_d):
                if (s * d_b) % (d_a * d_d):
                    continue
                size, orders, gens = _translation_classes(d_a, d_b, d_d)
                live = tuple(g for g, o in zip(gens, orders) if o > 1)
                classes.append(CosetClass(d_a, d_b, d_d, size, live))
    return tuple(classes)


_CLASS_CACHE: dict[tuple[int, int], tuple[CosetClass, ...]] = {}


def coset_classes(p: int, e: int = 1) -> tuple[CosetClass, ...]:
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    if e not in (1, 2):
        raise UsageError("only similitudes p and p**2 are implemented")
    key = (p, e)
    if key not in _CLASS_CACHE:
        classes = _coset_classes(p, e)
        total = sum(c.size for c in classes)
        expected = (
            p**3 + p**2 + p + 1
            if e == 1
            else p**6 + p**5 + 2 * p**4 + 2 * p**3 + p**2 + p + 1
        )
        if total != expected:
            raise InconsistencyError(
                f"coset family for p={p}, e={e} has {total} members, expected {expected}"
            )
        _CLASS_CACHE[key] = classes
    return _CLASS_CACHE[key]


class HeckeDoubleCoset:
    """The complete family of right cosets of one similitude, by coset class."""

    __slots__ = ("similitude", "classes")

    def __init__(self, p: int, e: int = 1):
        object.__setattr__(self, "similitude", p**e)
        object.__setattr__(self, "classes", coset_classes(p, e))

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("coset families are immutable")

    def __len__(self) -> int:
        return sum(c.size for c in self.classes)


def coset_decomposition_Tp(p: int) -> HeckeDoubleCoset:
    """Right-coset family of the prime double coset; p**3+p**2+p+1 members."""
    return HeckeDoubleCoset(p, 1)


# ---------------------------------------------------------------------------
# Hecke action on coefficient tables
# ---------------------------------------------------------------------------

def _prime_power(m: int) -> tuple[int, int]:
    """``(p, e)`` with ``m = p**e`` for a prime p and e in {1, 2}, in integers only."""
    if is_prime(m):
        return m, 1
    if m > 0:
        root = math.isqrt(m)
        if root * root == m and is_prime(root):
            return root, 2
    raise UsageError(f"Hecke index {m} is not p or p**2 for a prime p")


def hecke_operator(table: SiegelFourierTable, m: int) -> SiegelFourierTable:
    """Apply the full similitude-m Hecke operator (m = p or p**2).

    The output table is valid to bound // m; every coefficient is an exact
    finite sum of table values weighted by powers of p, with congruence
    conditions expressed through exact character sums over the translation
    groups of the coset classes.
    """
    p, e = _prime_power(m)
    s = m
    out_bound = table.bound // s
    if out_bound < 1:
        raise TruncationError(
            f"similitude-{m} operator needs table bound >= {m}", required=m
        )
    k = table.weight
    classes = coset_classes(p, e)
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
            # character triviality on the translation group
            det = cls.det
            trivial = True
            for gen in cls.char_gens:
                # X = gen * adj(D); phase = tr(T X) / det
                x11 = gen[0][0] * dd
                x12 = -gen[0][0] * db + gen[0][1] * da
                x21 = gen[1][0] * dd
                x22 = -gen[1][0] * db + gen[1][1] * da
                num = 2 * tn * x11 + tr * (x12 + x21) + 2 * tm * x22
                if num % (2 * det):
                    trivial = False
                    break
            if not trivial:
                continue
            val = table.value(tn, tr, tm)
            if val != 0:
                acc += Fraction(cls.size, det**k) * val
        if acc != 0:
            entries[idx] = gamma * acc
    return SiegelFourierTable(k, out_bound, entries)


def hecke_eigenvalue(table: SiegelFourierTable, m: int):
    """Eigenvalue of the similitude-m operator, verified at every common index.

    The probe is the reduced index with minimal (discriminant, n, r) whose
    coefficient is nonzero; a failed proportionality raises with the first
    witness index.
    """
    transformed = hecke_operator(table, m)
    probe = None
    for idx in sorted(reduced_indices(transformed.bound), key=lambda i: (i.disc, i.n, i.r)):
        if table.entries.get(idx, 0) != 0:
            probe = idx
            break
    if probe is None:
        raise NotAnEigenformError(
            "no nonzero coefficient available as a probe", witness=None
        )
    fval = table.entries[probe]
    tval = transformed.entries.get(probe, 0)
    mu = exact_div(tval, fval)
    for idx in reduced_indices(transformed.bound):
        if transformed.entries.get(idx, 0) != mu * table.entries.get(idx, 0):
            raise NotAnEigenformError(
                f"table is not an eigenform of the similitude-{m} operator",
                witness=tuple(idx),
            )
    return mu
