"""Eigenvalue-level analysis of degree-2 Hecke eigenforms.

Everything here works from a pair of local eigenvalues (prime and prime
square) at one prime.  The local spectral parameters are recovered exactly,
the record is classified as lifted-type versus unimodular-type, the single
prime criteria and the exact eigenvalue identity are evaluated, the full
prime-power eigenvalue sequence is generated from the degree-4 local data,
and the growth bounds and sign behavior of that sequence are scanned.  All
of it reads one integer form of a record, the local data scaled by the lcm L
of its denominators (``_scaled_record``): each criterion is the sign of an
integer, and the sequence runs scaled by powers of L.  A record file is
read by one loader, ``load_records``, which holds each record to the work
budgets of ``work`` before any work.

No floating point: every inequality involving sqrt(p) is settled by sign
splitting and squaring.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import work
from .errors import InconsistencyError, UsageError
from .numeric import (
    PRIME_TEST_BITS,
    QuadExt,
    _sgn,
    exact_div,
    format_value,
    is_prime,
    json_int,
    rat,
    refuse_past_digit_limit,
    short_repr,
    sqrt_if_square,
    sqrt_rational,
    value_sign,
)

SK_TYPE = "saito-kurokawa"
RAMANUJAN_TYPE = "ramanujan"
NEITHER_TYPE = "neither"

COND_PRIME_THRESHOLD = "prime-threshold"
COND_PRIME_SQUARE_THRESHOLD = "prime-square-threshold"
COND_EIGENVALUE_IDENTITY = "eigenvalue-identity"

@dataclass(frozen=True)
class EigenvalueRecord:
    """Local eigenvalue data (prime and prime-square) of one eigenform."""

    weight: int
    p: int
    mu_p: object
    mu_p2: object

    def __post_init__(self):
        if self.weight % 2 or self.weight < 10:
            raise UsageError(f"weight must be even and >= 10, got {self.weight}")
        if self.p.bit_length() > PRIME_TEST_BITS:
            raise UsageError(f"p has {self.p.bit_length()} bits; primes are tested up to {PRIME_TEST_BITS}")
        if not is_prime(self.p):
            raise UsageError(f"{short_repr(self.p)} is not prime")
        object.__setattr__(self, "mu_p", _as_value(self.mu_p))
        object.__setattr__(self, "mu_p2", _as_value(self.mu_p2))

    def to_json_dict(self) -> dict:
        return {
            "weight": self.weight,
            "p": self.p,
            "mu_p": format_exact(self.mu_p),
            "mu_p2": format_exact(self.mu_p2),
        }


def _as_value(x):
    if isinstance(x, QuadExt):
        return x
    return rat(x)


def format_exact(x) -> str:
    if isinstance(x, QuadExt):
        raise UsageError("record files carry rational values only")
    return format_value(x)


def parse_exact(text) -> Fraction:
    """Parse an integer or a decimal/fraction string; floats and booleans are refused."""
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            refuse_past_digit_limit(text, "an exact value")
            raise UsageError(f"not an exact rational: {short_repr(text)}") from exc
    return Fraction(json_int(text, "an exact value"))


def load_records(path, scan: int) -> list[EigenvalueRecord]:
    """Read newline-delimited JSON records; errors carry the line number and the field.

    ``weight`` and ``p`` are JSON integers or strings of one; ``mu_p`` and
    ``mu_p2`` are JSON integers or exact decimal/fraction strings.  Before
    any work, a record is refused when its weight is past the cap on the
    integers ``classify`` builds, when ``scan`` > 0 and the prime-power scan
    to that depth is past the scan budgets, or when its report could not be
    printed (see ``work``).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read records file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"records file {path} is not UTF-8: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            fields = {name: json_int(data[name], name) for name in ("weight", "p")}
            for name in ("mu_p", "mu_p2"):
                text = data[name]
                fields[name] = parse_exact(text if isinstance(text, str) else json_int(text, name))
            rec = EigenvalueRecord(**fields)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, UsageError) as exc:
            raise UsageError(f"{path}:{lineno}: bad record ({exc})") from exc
        try:
            work.record_weight(rec)
            if scan > 0:
                scale, coefficients, _ = _scaled_data(rec)
                work.scan(work.scan_sizes(scale, coefficients), scan)
            work.printable(rec)
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# record constructors
# ---------------------------------------------------------------------------

def sk_record(weight: int, p: int, a_p) -> EigenvalueRecord:
    """The eigenvalue record of the lift of an elliptic eigenform.

    The prime eigenvalue is p**(k-1) + p**(k-2) + a(p); eliminating the
    second spectral parameter gives the prime-square value
    a(p)**2 + (p**(k-1)+p**(k-2)) a(p) + p**(2k-2).
    """
    k = weight
    a_p = _as_value(a_p)
    t = p ** (k - 1) + p ** (k - 2)
    return EigenvalueRecord(k, p, t + a_p, a_p * a_p + t * a_p + Fraction(p) ** (2 * k - 2))


def record_from_pair(weight: int, p: int, x, y) -> EigenvalueRecord:
    """Record with prescribed spectral traces x, y (rational or in Q(sqrt p)).

    mu_p = p**(k-3/2) (x + y) and
    mu_p2 = p**(2k-3) (x**2 + x y + y**2 - 2 - 1/p), handled exactly.
    """
    k = weight
    x, y = _as_value(x), _as_value(y)
    sqrt_p = QuadExt(0, 1, p)
    # the weight is checked only when the record is built, so k - 2 may be negative
    mu_p = Fraction(p) ** (k - 2) * (x + y) * sqrt_p
    mu_p2 = Fraction(p) ** (2 * k - 3) * (x * x + x * y + y * y - 2 - Fraction(1, p))
    return EigenvalueRecord(k, p, mu_p, mu_p2)


def sk_trace(p: int) -> QuadExt:
    """The lifted-type spectral trace sqrt(p) + 1/sqrt(p)."""
    return QuadExt(0, Fraction(p + 1, p), p)


# ---------------------------------------------------------------------------
# spectral parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SatakeParams:
    """The unordered spectral trace pair {x, y} of a record, exactly.

    The pair is carried through its elementary symmetric data: the rescaled
    trace ``w`` (so x + y = w*sqrt(p)) and the product ``c = x*y``, together
    with the discriminant of the quadratic they satisfy.  ``x`` and ``y``
    are filled in explicitly whenever they live in a single quadratic field;
    otherwise the classification rests on the exact sign certificates alone.
    """

    weight: int
    p: int
    trace_scaled: object  # w with x + y = w * sqrt(p)
    pair_product: object  # c = x * y
    discriminant: object  # (x - y)**2
    classification: str
    x: object | None
    y: object | None

    def to_json_dict(self) -> dict:
        return {
            "classification": self.classification,
            "trace_over_sqrt_p": format_value(self.trace_scaled),
            "pair_product": format_value(self.pair_product),
            "discriminant": format_value(self.discriminant),
            "x": None if self.x is None else format_value(self.x),
            "y": None if self.y is None else format_value(self.y),
        }


def solve_satake(rec: EigenvalueRecord) -> SatakeParams:
    """Recover the spectral trace pair of a record and classify it.

    {x, y} are the roots of Z**2 - u Z + c with u = mu_p / p**(k-3/2) and
    c = u**2 - v - 2 - 1/p, v = mu_p2 / p**(2k-3).  Lifted type means
    sqrt(p) + 1/sqrt(p) is a member of the pair; unimodular type means both
    members are real and in [-2, 2].  Records fitting neither certificate
    cannot come from an eigenform and are tagged accordingly.  With
    S = L**2 p**(2k-3), u**2 = c1**2 / S and c = c2 / S - 2 in the record's
    integer form (``_scaled_record``), so each test is the sign of an integer.
    """
    k, p = rec.weight, rec.p
    scale, c1, c2, tail = _scaled_record(rec)
    s = tail * p
    c1_sq = c1 * c1
    pk = p ** (k - 2)

    # q(z0) S for z0 = sqrt(p) + 1/sqrt(p) and q(Z) = Z**2 - u Z + c, which is
    # L**2 times the identity gap c2 + tail - t L c1 + p**2 tail of theorem41,
    # as (p+1)**2 tail - 2 s = (p**2 + 1) tail and (p+1) p**(k-2) = t
    q_at_z0 = (p + 1) ** 2 * tail - (p + 1) * pk * scale * c1 + c2 - 2 * s
    if value_sign(q_at_z0) == 0:
        classification = SK_TYPE
    else:
        real_pair = value_sign(c1_sq - 4 * c2 + 8 * s) >= 0
        # u**2 <= 16 and 4 + c >= 2|u|, that is, 4 + c >= 0 and (4 + c)**2 >= 4 u**2
        shifted = c2 + 2 * s
        inside = (
            value_sign(16 * s - c1_sq) >= 0
            and value_sign(shifted) >= 0
            and value_sign(shifted * shifted - 4 * s * c1_sq) >= 0
        )
        classification = RAMANUJAN_TYPE if (real_pair and inside) else NEITHER_TYPE

    w = exact_div(c1, scale * pk * p)
    disc = exact_div(c1_sq - 4 * c2, s) + 8
    x, y = _explicit_pair(p, w, disc, classification)
    return SatakeParams(k, p, w, exact_div(c2, s) - 2, disc, classification, x, y)


def _explicit_pair(p, w, disc, classification):
    """Exact x, y = (u +- sqrt(disc)) / 2 with u = w*sqrt(p); (None, None) when not found.

    For rational u the root may lie in any real quadratic field, found by
    ``sqrt_rational``.  For irrational u the pair lies in Q(sqrt p), so the
    root must be rational or a rational multiple of sqrt(p): disc or p*disc
    is then a rational square.
    """
    u = None if isinstance(w, QuadExt) and w.d != p else w * QuadExt(0, 1, p)
    if classification == SK_TYPE:
        x = sk_trace(p)
        return x, None if u is None else u - x
    if u is None or isinstance(disc, QuadExt) or disc < 0:
        return None, None
    if isinstance(u, QuadExt):
        root = sqrt_if_square(disc)
        if root is None and (s := sqrt_if_square(p * disc)) is not None:
            root = QuadExt(0, s / p, p)
    else:
        root = sqrt_rational(disc)
    if root is None:
        return None, None
    return (u + root) / 2, (u - root) / 2


# ---------------------------------------------------------------------------
# the single-prime criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem41Certificate:
    """Outcome of the single-prime eigenvalue criteria on one record.

    ``verdict`` follows the exact eigenvalue identity; the two threshold
    conditions are evaluated alongside it, and a record where a threshold
    fires without the identity is flagged inconsistent (no eigenform can
    produce such data).
    """

    record: EigenvalueRecord
    verdict: str
    conditions_fired: tuple
    inconsistent: bool
    satake: SatakeParams

    def to_json_dict(self) -> dict:
        return {
            "weight": self.record.weight,
            "p": self.record.p,
            "verdict": self.verdict,
            "conditions_fired": list(self.conditions_fired),
            "inconsistent": self.inconsistent,
            "satake": self.satake.to_json_dict(),
        }


def theorem41(rec: EigenvalueRecord) -> Theorem41Certificate:
    """Evaluate the single-prime criteria exactly.

    Conditions: the prime eigenvalue exceeds 4 p**(k-3/2); the prime-square
    eigenvalue exceeds 10 p**(2k-3); the identity
    mu(p**2) = mu(p)**2 - (p**(k-1)+p**(k-2)) mu(p) + p**(2k-2).  Each is
    decided on L**2 times it, in the record's integer form (``_scaled_record``).
    """
    _, c1, c2, tail = _scaled_record(rec)
    s = tail * rec.p
    c1_sq = c1 * c1
    fired = []
    # mu(p) > 4 p**(k-2) sqrt(p), that is, mu(p) > 0 and mu(p)**2 > 16 p**(2k-3)
    cond_ii = value_sign(c1) > 0 and value_sign(c1_sq - 16 * s) > 0
    if cond_ii:
        fired.append(COND_PRIME_THRESHOLD)
    # L**2 mu(p**2) = c1**2 - c2 - L**2 p**(2k-4)
    cond_iv = value_sign(c1_sq - c2 - tail - 10 * s) > 0
    if cond_iv:
        fired.append(COND_PRIME_SQUARE_THRESHOLD)
    # L**2 (mu(p)**2 - t mu(p) + p**(2k-2) - mu(p**2)) with t = p**(k-1) + p**(k-2)
    # is solve_satake's q(z0) S, zero exactly when the pair is of lifted type
    satake = solve_satake(rec)
    cond_vii = satake.classification == SK_TYPE
    if cond_vii:
        fired.append(COND_EIGENVALUE_IDENTITY)
    verdict = SK_TYPE if cond_vii else f"not-{SK_TYPE}"
    inconsistent = (cond_ii or cond_iv) and not cond_vii
    return Theorem41Certificate(rec, verdict, tuple(fired), inconsistent, satake)


# ---------------------------------------------------------------------------
# the prime-power eigenvalue sequence
# ---------------------------------------------------------------------------

def _scaled(x, scale: int):
    """``x * scale`` in integers, for ``scale`` a multiple of the denominators of x's parts."""
    if isinstance(x, QuadExt):
        return QuadExt(_scaled(x.a, scale), _scaled(x.b, scale), x.d)
    return x.numerator * (scale // x.denominator)


def _scaled_record(rec: EigenvalueRecord):
    """``(L, c1, c2, L**2 p**(2k-4))``, L the lcm of the denominators of e1 and e2, c_i = L**i e_i.

    e1 = mu(p) and e2 = mu(p)**2 - mu(p**2) - p**(2k-4) are the first two
    coefficients of the degree-4 local factor 1 - e1 X + e2 X**2 - e3 X**3
    + e4 X**4; the similitude pairing of the spectral parameters forces
    e3 = p**(2k-3) e1 and e4 = p**(4k-6).  c1 and c2 are integers, or
    ``QuadExt``s with int parts when the record lies in Q(sqrt d).
    """
    k, p = rec.weight, rec.p
    power = p ** (2 * k - 4)
    e1 = rec.mu_p
    # values from two different fields refuse to combine here
    e2 = e1 * e1 - rec.mu_p2 - power
    scale = math.lcm(*(x.denominator for e in (e1, e2) for x in ((e.a, e.b) if isinstance(e, QuadExt) else (e,))))
    sq = scale * scale
    return scale, _scaled(e1, scale), _scaled(e2, sq), sq * power


def _scaled_data(rec: EigenvalueRecord):
    """``(L, (c1, c2, c3, c4), tail)``: the recurrence of s_r = L**r mu(p**r).

    L, c1, c2 and tail = L**2 p**(2k-4) are ``_scaled_record``'s; with
    S = L**2 p**(2k-3) = p tail, c3 = S c1 = L**3 e3 and c4 = S**2 = L**4 e4.
    """
    scale, c1, c2, tail = _scaled_record(rec)
    s = tail * rec.p
    return scale, (c1, c2, c1 * s, s * s), tail


def mu_sequence(rec: EigenvalueRecord, rmax: int) -> list:
    """mu(p**r) for r = 0..rmax from the degree-4 local data, exactly.

    The sequence is the expansion of
    (1 - p**(2k-4) X**2) / (1 - e1 X + e2 X**2 - e3 X**3 + e4 X**4).
    It runs in integers: s_r = L**r mu(p**r), with L the lcm of the
    denominators of e1 and e2, obeys the same recurrence with the integer
    coefficients L**i e_i (integer pairs in Z[sqrt d] for a record in
    Q(sqrt d)), and L**r is divided out of each value once, at the end.  The
    r = 1, 2 values must reproduce the record itself and are asserted to.
    """
    if rmax < 0:
        raise UsageError("the scan depth must be nonnegative")
    scale, (c1, c2, c3, c4), tail = _scaled_data(rec)
    s1 = s2 = s3 = s4 = 0  # s_(r-1) .. s_(r-4)
    seq: list = []
    den = 1
    for r in range(rmax + 1):
        if r == 0:
            s = 1
        else:
            s = c1 * s1 - c2 * s2 + c3 * s3 - c4 * s4
            if r == 2:
                s = s - tail
            den *= scale
        seq.append(s / den if isinstance(s, QuadExt) else Fraction(s, den))
        s1, s2, s3, s4 = s, s1, s2, s3
    if rmax >= 1 and seq[1] != rec.mu_p:
        raise InconsistencyError("prime-power sequence fails to reproduce mu(p)")
    if rmax >= 2 and seq[2] != rec.mu_p2:
        raise InconsistencyError("prime-power sequence fails to reproduce mu(p**2)")
    return seq


@dataclass(frozen=True)
class GrowthReport:
    """First failures (if any) of the two exact growth bounds up to ``rmax``.

    The sharp bound is (C(r+3,3) + C(r+1,3)/p) p**(r(k-3/2)); the weak bound
    is (3/2) C(r+3,3) p**(r(k-3/2)).  ``None`` means the bound held
    throughout the scan window.
    """

    rmax: int
    first_sharp_violation: int | None
    first_weak_violation: int | None

    @property
    def ok(self) -> bool:
        return self.first_sharp_violation is None and self.first_weak_violation is None

    def to_json_dict(self) -> dict:
        return {
            "scan_depth": self.rmax,
            "first_sharp_violation": self.first_sharp_violation,
            "first_weak_violation": self.first_weak_violation,
        }


def _exceeds(mu, m: int, n: int, scale: int) -> bool:
    """Whether m |mu| > n sqrt(scale), for positive integers m, n, scale, in integers.

    For mu = a/b this is u**2 > w with u = m|a| and w = n**2 b**2 scale.
    The bit lengths settle it unless 2 bitlen(u) - bitlen(w) is 0 or 1:
    from 2 on, u**2 >= 2**(2 bitlen(u) - 2) >= 2**bitlen(w) > w, and from -1
    down, u**2 < 2**(2 bitlen(u)) <= 2**(bitlen(w) - 1) <= w.  Only in
    between is u squared.  For mu = (a + b sqrt(d)) / e it is the sign of
    m**2 (a**2 + d b**2 + 2ab sqrt(d)) - n**2 e**2 scale.
    """
    if isinstance(mu, QuadExt):
        e = math.lcm(mu.a.denominator, mu.b.denominator)
        return value_sign(m * m * _scaled(mu, e) ** 2 - (n * e) ** 2 * scale) > 0
    u = m * abs(mu.numerator)
    w = (n * mu.denominator) ** 2 * scale
    gap = 2 * u.bit_length() - w.bit_length()
    if gap == 0 or gap == 1:
        return u * u > w
    return gap > 0


def growth_check(rec: EigenvalueRecord, seq: list) -> GrowthReport:
    """Exact scan of ``seq`` = mu(p**r), r = 0..len(seq)-1, against both growth bounds.

    |mu| <= c p**(r(2k-3)/2) with c = n/m >= 0 is tested as
    m**2 mu**2 <= n**2 p**(r(2k-3)), in integers (see ``_exceeds``), which
    is exact for mu in any real quadratic field.  The sharp bound has
    n/m = (C(r+3,3) p + C(r+1,3)) / p and the weak one 3 C(r+3,3) / 2.
    """
    p = rec.p
    step = p ** (2 * rec.weight - 3)
    scale = 1
    first_sharp = first_weak = None
    for r, mu in enumerate(seq):
        if r:
            scale *= step
        c = math.comb(r + 3, 3)
        if first_sharp is None and _exceeds(mu, p, c * p + math.comb(r + 1, 3), scale):
            first_sharp = r
        if first_weak is None and _exceeds(mu, 2, 3 * c, scale):
            first_weak = r
        if first_sharp is not None and first_weak is not None:
            break
    return GrowthReport(len(seq) - 1, first_sharp, first_weak)


@dataclass(frozen=True)
class PositivityReport:
    """Signs of mu(p**r) for r <= rmax and the positions of sign changes."""

    rmax: int
    signs: tuple
    all_positive: bool
    sign_changes: tuple

    def to_json_dict(self) -> dict:
        return {
            "scan_depth": self.rmax,
            "all_positive": self.all_positive,
            "sign_changes": list(self.sign_changes),
            "signs": list(self.signs),
        }


def positivity_scan(seq: list) -> PositivityReport:
    """Exact signs of the prime-power eigenvalue sequence ``seq`` = mu(p**r).

    A rational value's sign is its integer numerator's.
    """
    signs = tuple(mu.sign() if isinstance(mu, QuadExt) else _sgn(mu.numerator) for mu in seq)
    changes = []
    last = 0
    for r, s in enumerate(signs):
        if s == 0:
            continue
        if last and s != last:
            changes.append(r)
        last = s
    return PositivityReport(len(seq) - 1, signs, all(s > 0 for s in signs), tuple(changes))
