"""Degree-2 Siegel cusp forms as exact Fourier-coefficient tables.

A table stores coefficients at canonically reduced index triples (n, r, m)
with 0 <= r <= n <= m, keyed by plain int tuples; lookups at arbitrary
triples route through binary form reduction.  A stored value is an int
whenever it is integral, so a table read from a file equals the lifted one
type for type.  Keys are checked once, where they come in from outside: the
public constructor refuses keys that are not int triples, unreduced keys
and out-of-bound keys, and ``from_json_dict`` also an index listed twice
and a bound past ``work.BOUND_CAP``.  The lift and the Hecke operators produce
reduced keys by construction and build their tables through the trusted
``SiegelFourierTable._trusted``.

On top of the tables this module provides the divisor-sum lift from index-1
Jacobi forms, the two coefficient-relation checkers, and the similitude-p /
similitude-p**2 Hecke operators.  The operators sum over classes of block
upper-triangular right cosets, one class per lower-right block
D = [[d_a, d_b], [0, d_d]], acting by index remapping; a class's size,
d_a * d_d * gcd(d_a, d_b, d_d), and the test for its character being trivial
at a source index are closed forms in D.

Operator normalization is the one pinned by the eigenvalue contract: on a
lifted form the prime eigenvalue equals p**(k-1) + p**(k-2) + a(p), with
a(p) the prime coefficient of the input elliptic eigenform.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import work
from .errors import (
    InconsistencyError,
    NotAnEigenformError,
    TruncationError,
    UsageError,
)
from .jacobi import JacobiForm
from .numeric import QuadExt, divisor_lists, exact_div, int_if_integral, is_prime, json_int, rat, short_repr

SCHEMA_VERSION = 1

# the most swap-and-translate steps a reduction takes before it gives up
REDUCTION_STEPS = 10_000


def reduce_index(n: int, r: int, m: int) -> tuple[int, int, int]:
    """Canonical representative 0 <= r <= n <= m of a positive definite triple."""
    if n <= 0 or m <= 0 or 4 * n * m - r * r <= 0:
        raise UsageError(f"({n},{r},{m}) is not positive definite")
    steps = REDUCTION_STEPS
    while steps:
        steps -= 1
        if n > m:
            n, m = m, n
        if not (-n < r <= n):
            t = -((n - r) // (2 * n))  # ceil((r - n) / 2n)
            m = m - r * t + n * t * t
            r = r - 2 * n * t
            continue
        return (n, abs(r), m)
    raise InconsistencyError("binary form reduction failed to terminate")


def reduced_indices(bound: int):
    """All canonical triples (n, r, m) with m <= bound, by m, then n, then r."""
    for m in range(1, bound + 1):
        for n in range(1, m + 1):
            for r in range(n + 1):
                yield (n, r, m)


def _check_weight(weight: int) -> None:
    if weight < 1:
        raise UsageError(f"table weight {weight} is below 1")


def _stored_parts(v) -> tuple[str, str]:
    """The numerator and denominator text schema v1 stores for a table value."""
    if type(v) is int:
        return str(v), "1"
    if isinstance(v, QuadExt):
        raise UsageError(
            "schema v1 stores rational coefficients only; "
            "this table has quadratic-irrational entries"
        )
    v = rat(v)
    return str(v.numerator), str(v.denominator)


class SiegelFourierTable:
    """Sparse exact coefficient table of a degree-2 cusp form, complete to ``bound``.

    Only nonzero reduced entries are stored; any reduced index with maximal
    entry at most ``bound`` that is absent is exactly zero.
    """

    __slots__ = ("weight", "bound", "entries")

    def __init__(self, weight: int, bound: int, entries: dict):
        _check_weight(weight)
        clean = {}
        for key, value in entries.items():
            n, r, m = key
            # a bool or float index would be written as JSON that no reader takes back
            if not type(n) is type(r) is type(m) is int:
                raise UsageError(f"table key {key!r} is not a triple of ints")
            # 0 <= r <= n <= m with n >= 1 is reduced and positive definite;
            # reduction decides the rest, and refuses non-positive-definite keys
            if not (n >= 1 and 0 <= r <= n <= m) and reduce_index(n, r, m) != (n, r, m):
                raise UsageError(f"table key {(n, r, m)} is not reduced")
            if m > bound:
                raise UsageError(f"table key {(n, r, m)} beyond bound {bound}")
            if value != 0:
                clean[key] = int_if_integral(value)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _trusted(cls, weight: int, bound: int, entries: dict) -> "SiegelFourierTable":
        """A table over ``entries`` as given, for producers inside this module.

        The caller guarantees reduced keys with m <= ``bound`` and nonzero
        values; only the weight is checked.
        """
        _check_weight(weight)
        table = object.__new__(cls)
        object.__setattr__(table, "weight", weight)
        object.__setattr__(table, "bound", bound)
        object.__setattr__(table, "entries", entries)
        return table

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("tables are immutable; build a new one")

    def value(self, n: int, r: int, m: int):
        """A(n, r, m); zero outside the cusp support, error beyond the bound."""
        if n <= 0 or m <= 0 or 4 * n * m - r * r <= 0:
            return 0
        key = reduce_index(n, r, m)
        if key[2] > self.bound:
            raise TruncationError(f"index {(n, r, m)} reduces to {key} beyond bound {self.bound}")
        return self.entries.get(key, 0)

    def try_value(self, n: int, r: int, m: int):
        """Like ``value`` but returns None when the index is beyond the bound.

        The relation checkers make about a million of these lookups per
        table, and a call into ``reduce_index`` cost them a third of their
        time, so this frame repeats its steps: the swap, the translation and
        the same ``REDUCTION_STEPS`` guard.  The guard counts an int down
        where a ``for`` over ``range`` built a new object on every lookup;
        that took the p = 5 check of a (10,12) lift from about 470 to 355 ms
        (best of five, Python 3.11, 2 cores).
        """
        if n <= 0 or m <= 0 or 4 * n * m - r * r <= 0:
            return 0
        steps = REDUCTION_STEPS
        while steps:
            steps -= 1
            if n > m:
                n, m = m, n
            if not (-n < r <= n):
                t = -((n - r) // (2 * n))  # ceil((r - n) / 2n)
                m = m - r * t + n * t * t
                r = r - 2 * n * t
                continue
            if m > self.bound:
                return None
            return self.entries.get((n, abs(r), m), 0)
        raise InconsistencyError("binary form reduction failed to terminate")

    def __eq__(self, other):
        if not isinstance(other, SiegelFourierTable):
            return NotImplemented
        return (
            self.weight == other.weight
            and self.bound == other.bound
            and self.entries == other.entries
        )

    def __repr__(self):
        return (
            f"SiegelFourierTable(weight={self.weight}, bound={self.bound}, "
            f"nonzero={len(self.entries)})"
        )

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        # keys are unique, so the sort never compares two values
        return {
            "schema_version": SCHEMA_VERSION,
            "weight": self.weight,
            "bound": self.bound,
            "entries": [[*key, *_stored_parts(v)] for key, v in sorted(self.entries.items())],
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict())``, each entry one f-string and one join.

        No per-entry list is built, so writing a large table allocates no
        containers for the garbage collector to walk.
        """
        entries = self.entries
        rows = []
        for key in sorted(entries):
            n, r, m = key
            v = entries[key]
            if type(v) is int:
                rows.append(f'[{n}, {r}, {m}, "{v}", "1"]')
            else:
                num, den = _stored_parts(v)
                rows.append(f'[{n}, {r}, {m}, "{num}", "{den}"]')
        return (
            f'{{"schema_version": {SCHEMA_VERSION}, "weight": {self.weight}, '
            f'"bound": {self.bound}, "entries": [{", ".join(rows)}]}}'
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "SiegelFourierTable":
        if not isinstance(data, dict):
            raise UsageError(f"a table is a JSON object, not a {type(data).__name__}")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise UsageError(
                f"unsupported table schema {short_repr(data.get('schema_version'))}; "
                f"expected {SCHEMA_VERSION}"
            )
        try:
            weight = json_int(data["weight"], "weight")
            bound = json_int(data["bound"], "bound")
            work.table_bound(bound)
            entries = {}
            for n, r, m, num, den in data["entries"]:
                index = tuple(json_int(x, "an entry index") for x in (n, r, m))
                if index in entries:
                    raise UsageError(f"table index {index} is listed twice")
                num, den = json_int(num, "a numerator"), json_int(den, "a denominator")
                entries[index] = num if den == 1 else Fraction(num, den)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"malformed table file: {exc}") from exc
        return cls(weight, bound, entries)


# ---------------------------------------------------------------------------
# the divisor-sum lift and the coefficient-relation checkers
# ---------------------------------------------------------------------------

def _maass_sums(k: int, bound: int, c: dict, disc_cap: int):
    """``((n, r, m), sum of d**(k-1) * c[(4nm - r**2) / d**2] over d | gcd(n, r, m))``.

    One pair for every reduced index with m <= ``bound`` whose discriminant
    is at most ``disc_cap``, by n, then r, then m: the order of the table
    file.  ``c`` maps a discriminant to the coefficient of the index-1 form
    there, absent meaning zero.  A term's discriminant (4nm - r**2) / d**2
    is positive and 0 or 3 mod 4, so at least 3, which bounds d.
    """
    _check_weight(k)
    divs = divisor_lists(bound)
    top = min(bound, math.isqrt(max(disc_cap, 0) // 3))
    powers = {d: d ** (k - 1) for d in range(1, top + 1)}
    get = c.get
    for n in range(1, bound + 1):
        for r in range(n + 1):
            g = math.gcd(n, r)
            # the discriminant grows with m, and is at most disc_cap up to here
            for m in range(n, min(bound, (disc_cap + r * r) // (4 * n)) + 1):
                disc = 4 * n * m - r * r
                e = math.gcd(g, m)
                if e == 1:
                    # the d = 1 term alone
                    yield (n, r, m), get(disc, 0)
                else:
                    acc = 0
                    for d in divs[e]:
                        acc += powers[d] * get(disc // (d * d), 0)
                    yield (n, r, m), acc


def maass_lift(phi: JacobiForm, bound: int) -> SiegelFourierTable:
    """Lift an index-1 Jacobi form to a degree-2 table out to ``bound``.

    A(n, r, m) sums d**(k-1) times the Jacobi coefficient at
    (n*m/d**2, r/d), of discriminant (4nm - r**2) / d**2, over divisors d of
    gcd(n, r, m).
    """
    needed = 4 * bound * bound
    if phi.max_disc < needed:
        raise TruncationError(
            f"lift to bound {bound} needs Jacobi discriminants up to {needed}, "
            f"table stops at {phi.max_disc}"
        )
    # every reduced index to bound has discriminant at most 4 * bound**2
    entries = {idx: v for idx, v in _maass_sums(phi.weight, bound, phi.by_disc, needed) if v}
    return SiegelFourierTable._trusted(phi.weight, bound, entries)


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
    the cusp support vanish on both sides).  Its right-hand side is the
    divisor sum of the table's own first Fourier-Jacobi coefficient
    A(1, rho, (D + rho) / 4), rho = D mod 2, the reduced index of
    discriminant D; that lies within the bound exactly when D <= 4 * bound.
    The indices past that are counted as skipped without being visited.
    Violations are reported by m, then n, then r.
    """
    bound = table.bound
    get = table.entries.get
    first = {4 * m - r: get((1, r, m), 0) for m in range(1, bound + 1) for r in (0, 1)}
    checked = 0
    violations = []
    for idx, rhs in _maass_sums(table.weight, bound, first, 4 * bound):
        checked += 1
        lhs = get(idx, 0)
        if lhs != rhs:
            violations.append((idx, lhs, rhs))
    violations.sort(key=lambda v: (v[0][2], v[0][0], v[0][1]))
    # bound * (bound + 1) * (bound + 5) / 6 reduced indices have m <= bound
    skipped = bound * (bound + 1) * (bound + 5) // 6 - checked if bound > 0 else 0
    return CheckReport("maass", None, bound, checked, skipped, tuple(violations))


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
        raise UsageError(f"{short_repr(p)} is not prime")
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
# right-coset families for the similitude operators
# ---------------------------------------------------------------------------

class CosetClass(NamedTuple):
    """All right cosets sharing one lower-right block D = [[d_a, d_b], [0, d_d]].

    Their upper blocks are the integral B with D^T B symmetric, taken modulo
    the translates S D by integral symmetric S; ``size`` counts them.
    """

    d_a: int
    d_b: int
    d_d: int
    size: int

    @property
    def det(self) -> int:
        return self.d_a * self.d_d


def coset_classes(p: int, e: int = 1) -> tuple[CosetClass, ...]:
    """Normal-form classes for similitude p**e, e in {1, 2}.

    A class has d_a * d_d * gcd(d_a, d_b, d_d) cosets (see ``_character_trivial``).
    """
    if not is_prime(p):
        raise UsageError(f"{short_repr(p)} is not prime")
    if e not in (1, 2):
        raise UsageError("only similitudes p and p**2 are implemented")
    s = p**e
    classes = []
    for i in range(e + 1):
        d_a = p**i
        for j in range(e + 1):
            d_d = p**j
            for d_b in range(d_d):
                if (s * d_b) % (d_a * d_d):
                    continue
                size = d_a * d_d * math.gcd(d_a, d_b, d_d)
                classes.append(CosetClass(d_a, d_b, d_d, size))
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
    return tuple(classes)


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


def _character_trivial(cls: CosetClass, tn: int, tr: int, tm: int) -> bool:
    """Whether B -> e(tr(T B D^-1)) is trivial on the cosets of ``cls``.

    T = [[tn, tr/2], [tr/2, tm]] and g = gcd(d_a, d_b, d_d).  In coordinates
    (x, y, z) = (B11, B21, B22) the symmetry of D^T B reads
    d_a B12 = d_b x + d_d y, so the admissible B form the lattice
    d_b x + d_d y = 0 (mod d_a), of index d_a / g in Z^3; the translates S D
    form a sublattice of determinant d_a**2 d_d, which leaves d_a d_d g cosets.
    On B the phase is

        tr(T B D^-1) = (tn d_d x + (tr d_d - tm d_b) y + tm d_a z) / (d_a d_d).

    z is free, so the character needs d_d | tm; then, with
    rho = tr - (tm / d_d) d_b, the phase is (tn x + rho y) / d_a mod 1.  That
    vanishes on the kernel of (x, y) -> d_b x + d_d y mod d_a exactly when
    (tn, rho) lies in the cyclic group (d_b, d_d) generates mod d_a, that is
    g | tn, g | rho and tn d_d = rho d_b (mod d_a g).
    """
    da, db, dd = cls.d_a, cls.d_b, cls.d_d
    if tm % dd:
        return False
    g = math.gcd(da, db, dd)
    rho = tr - (tm // dd) * db
    return tn % g == 0 and rho % g == 0 and (tn * dd - rho * db) % (da * g) == 0


def hecke_operator(table: SiegelFourierTable, m: int) -> SiegelFourierTable:
    """Apply the full similitude-m Hecke operator (m = p or p**2).

    The output table is valid to bound // m; every coefficient is an exact
    finite sum of table values weighted by powers of p, with congruence
    conditions expressed through the characters of the coset classes, each
    tested in closed form by ``_character_trivial``.
    """
    p, e = _prime_power(m)
    s = m
    out_bound = table.bound // s
    if out_bound < 1:
        raise TruncationError(f"similitude-{m} operator needs table bound >= {m}")
    k = table.weight
    classes = coset_classes(p, e)
    # s**(2k-3) * size / det**k is size * (s*s // det)**k / s**3, as det
    # divides s*s: an integer weight per class, and one division per index
    weights = [cls.size * (s * s // cls.det) ** k for cls in classes]
    cube = s**3
    entries = {}
    for idx in reduced_indices(out_bound):
        n, r, mm = idx
        acc = 0
        for cls, weight in zip(classes, weights):
            da, db, dd = cls.d_a, cls.d_b, cls.d_d
            q1 = n * da * da + r * da * db + mm * db * db
            q12 = dd * (da * r + 2 * db * mm)
            q2 = mm * dd * dd
            if q1 % s or q12 % s or q2 % s:
                continue
            # tn > 0 and 4 tn tm - tr**2 = (det / s)**2 (4 n mm - r**2) > 0: positive definite
            tn, tr, tm = q1 // s, q12 // s, q2 // s
            if not _character_trivial(cls, tn, tr, tm):
                continue
            val = table.value(tn, tr, tm)
            if val != 0:
                acc += weight * val
        if acc != 0:
            entries[idx] = int_if_integral(exact_div(acc, cube))
    return SiegelFourierTable._trusted(k, out_bound, entries)


def hecke_eigenvalue(table: SiegelFourierTable, m: int):
    """Eigenvalue of the similitude-m operator, verified at every common index.

    The probe is the reduced index with minimal (discriminant, n, r) whose
    coefficient is nonzero; a failed proportionality raises with the first
    witness index.
    """
    transformed = hecke_operator(table, m)
    # stored values are nonzero, and (discriminant, n, r) determines m
    probe = min(
        (idx for idx in table.entries if idx[2] <= transformed.bound),
        key=lambda i: (4 * i[0] * i[2] - i[1] * i[1], i[0], i[1]),
        default=None,
    )
    if probe is None:
        raise NotAnEigenformError(
            "no nonzero coefficient available as a probe", witness=None
        )
    fval = table.entries[probe]
    tval = transformed.entries.get(probe, 0)
    mu = exact_div(tval, fval)
    # an integral eigenvalue scales the coefficients as an int, not as a Fraction
    factor = int_if_integral(mu)
    for idx in reduced_indices(transformed.bound):
        if transformed.entries.get(idx, 0) != factor * table.entries.get(idx, 0):
            raise NotAnEigenformError(
                f"table is not an eigenform of the similitude-{m} operator",
                witness=idx,
            )
    return mu
