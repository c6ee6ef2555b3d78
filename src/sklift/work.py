"""The work policy: every cap a command is held to, its estimate, and the one refusal.

A command estimates its work from its input's header before it builds
anything, and refuses a request past a cap with ``refuse``'s one line,
naming the largest value that fits, which the one bisection
``largest_fitting`` finds.  A record whose report could not be printed is
refused too.
"""

from __future__ import annotations

import math
import sys

from .errors import UsageError
from .numeric import is_prime, short_repr

# the largest index bound of a lift or a table file: check --maass and eigen
# visit about bound**3 / 6 reduced indices, and a cold lift's work grows about
# as bound**4 (a half-integral truncation of 4 * bound**2, series products of
# that length, and the table entries); at bound 100 a cold weight-14 lift takes
# 1.1-1.3 s and 74 MB, at 150 it takes 2.7 s and 201 MB (2 cores, Python 3.11)
BOUND_CAP = 100
# bits in one integer a command builds, or in a record's whole scan (16 MiB),
# and the scan's bit operations: a weight-500 record at p = 101 fits to depth 200
BITS_CAP = 1 << 27
SCAN_WORK_CAP = 1 << 40


def largest_fitting(fits, low: int, past: int) -> int:
    """The largest x with low <= x < past and fits(x), for ``fits`` true up to a point, false after it.

    ``fits(past)`` is false, and ``low`` comes back when nothing above it fits.
    """
    while past - low > 1:
        mid = (low + past) // 2
        low, past = (mid, past) if fits(mid) else (low, mid)
    return low


def refuse(name: str, shown: str, work: str, growth: str, largest: int, context: str = ""):
    """Raise the one-line refusal of ``name`` = ``shown``, a request past the cap on ``work``."""
    raise UsageError(
        f"{name} {shown} is past the cap on {work}, which grows as {growth}; "
        f"the largest {name} that fits{' ' + context if context else ''} is {largest}"
    )


def lift_bound(bound: int) -> None:
    if bound > BOUND_CAP:
        refuse("--bound", short_repr(bound), "a lift's work", "bound**4", BOUND_CAP)


def table_bound(bound: int) -> None:
    if bound > BOUND_CAP:
        refuse("table bound", short_repr(bound), "the work a table can demand", "bound**3", BOUND_CAP)


def maass_p_instances(p: int, bound: int) -> int:
    """An upper bound on the instances ``siegel.check_maass_p_space`` enumerates at p >= 2.

    With T = p * bound it visits isqrt(4pnm) + 1 <= 2 sqrt(pnm) + 1 values of r
    at each n, m <= T, and sum(sqrt(n) for n <= T) <= (2/3) (T + 1)**(3/2); so
    it is T**2 + (8/9) sqrt(p) (T + 1)**3 at most, the least y with
    81 y**2 >= 64 p (T + 1)**6 in place of the second term.
    """
    t = p * bound
    return t * t + math.isqrt((64 * p * (t + 1) ** 6 - 1) // 81) + 1


# check --all (p = 2, 3 and 5) fits on every table that lift can write
MAASS_P_CAP = maass_p_instances(5, BOUND_CAP)


def maass_p(p: int, bound: int) -> None:
    """Refuse a ``--maass-p`` past ``MAASS_P_CAP``, a count of instances and not a time.

    The largest integer that fits lies below 4 * MAASS_P_CAP**2, where
    (8/9) sqrt(p) alone passes the cap; the prime named is the first at or below it.
    """
    def fits(q):
        return maass_p_instances(q, bound) <= MAASS_P_CAP

    if p > 1 and not fits(p):
        largest = largest_fitting(fits, 2, min(p, 4 * MAASS_P_CAP**2))
        while not is_prime(largest):
            largest -= 1
        refuse("--maass-p", short_repr(p), "the checker's work", "p**3.5 * bound**3", largest,
               f"table bound {bound}")


def table_weight(table, command: str, p: int = 0) -> None:
    """Refuse a table weight at which ``command`` builds a power of the weight past ``BITS_CAP`` bits.

    Each power of the weight it builds divides base**weight, of at most
    weight * bitlen(base) bits: d**(k-1) for the divisors d <= isqrt(4 bound / 3)
    that ``check --maass`` reads (a checked index has D <= 4 bound, and d**2
    divides D with D / d**2 >= 3), p**(k-1) for ``check --maass-p``, and
    (p**4 / det)**k for the Hecke operators of ``eigen``; only table values
    multiply them.
    """
    base, growth, context = {
        "check --maass": (math.isqrt(4 * max(table.bound, 0) // 3), "log(bound)", f"table bound {table.bound}"),
        "check --maass-p": (p, "log(p)", f"--maass-p {p}"),
        "eigen": (p**4, "log(p)", f"--primes {p}"),
    }[command]

    def fits(k):
        return k * base.bit_length() <= BITS_CAP

    if not fits(table.weight):
        refuse("table weight", short_repr(table.weight), f"the integers {command} builds", f"weight * {growth}",
               largest_fitting(fits, 0, table.weight), context)


def record_bits(rec, weight: int) -> int:
    """An upper bound on the bits of every integer ``classify`` builds for ``rec`` at ``weight`` but its scan.

    With mu(p) = a/b and mu(p**2) = c/e, the lcm L of the record's
    denominators divides b**2 e (``characterize._scaled_record``).  The largest
    integer the criteria, the spectral solve and the scan's coefficients build
    is (c2 + 2 L**2 p**(2k-3))**2, c2 = L**2 (mu(p)**2 - mu(p**2) - p**(2k-4)),
    of at most 4 bitlen(L) + 2 max(2 bitlen(a), bitlen(c), (2k-3) bitlen(p)) + 8 bits.
    """
    lbits = 2 * rec.mu_p.denominator.bit_length() + rec.mu_p2.denominator.bit_length()
    top = max(2 * rec.mu_p.numerator.bit_length(), rec.mu_p2.numerator.bit_length())
    return 4 * lbits + 2 * max(top, (2 * weight - 3) * rec.p.bit_length()) + 8


def record_weight(rec) -> None:
    """Refuse a record at whose weight ``record_bits`` passes ``BITS_CAP``; the largest weight named is even."""
    def fits(half):
        return record_bits(rec, 2 * half) <= BITS_CAP

    if not fits(rec.weight // 2):
        refuse("weight", short_repr(rec.weight), "the integers classify builds", "weight * log(p)",
               2 * largest_fitting(fits, 0, rec.weight // 2), "this record")


def scan_sizes(scale: int, coefficients) -> tuple[int, int]:
    """``(rho, lam)`` of a rational record: s_r has at most rho r + bitlen(2 C(r+3,3)) bits.

    ``scale`` is L and ``coefficients`` are c1..c4 of the scan's recurrence
    (``characterize._scaled_data``).  Every root z of
    X**4 - c1 X**3 + c2 X**2 - c3 X + c4 has |z| <= 2 max |c_i|**(1/i)
    (Fujiwara's bound), so |z| < 2**rho with rho = 1 + max ceil(bitlen(c_i) / i).
    As s_r = h_r - tail h_(r-2) in the complete symmetric polynomials h of the
    four roots, and tail < |c4|**(1/2) < 2**(2 rho), |s_r| <= 2 C(r+3,3) 2**(rho r).
    lam is bitlen(L) when L > 1, else 0, so L**r has at most lam r bits.
    """
    rho = 1 + max(-(-c.bit_length() // i) for i, c in enumerate(coefficients, start=1))
    return rho, 0 if scale == 1 else scale.bit_length()


def scan_cost(sizes: tuple[int, int], scan: int) -> tuple[int, int]:
    """Upper bounds on the bits s_0, ..., s_scan hold together and on the bit operations they cost.

    With b_r = rho r + bitlen(2 C(scan+3,3)) bits bounding each s_r (see
    ``scan_sizes``), the bits are the sum of the b_r, and the work is the
    sum of b_r (rho + lam r): the products of s_r with the coefficients,
    and the gcd that reduces s_r / L**r.
    """
    rho, lam = sizes
    beta = (2 * math.comb(scan + 3, 3)).bit_length()
    n = scan + 1
    s1 = scan * n // 2  # the sum of r for r <= scan
    s2 = scan * n * (2 * scan + 1) // 6  # the sum of r**2
    bits = rho * s1 + beta * n
    work = rho * rho * s1 + rho * lam * s2 + beta * rho * n + beta * lam * s1
    return bits, work


def scan(sizes: tuple[int, int], depth: int) -> None:
    """Refuse a ``--scan`` depth past ``BITS_CAP`` or ``SCAN_WORK_CAP``; both costs grow with the depth."""
    def fits(d):
        bits, work = scan_cost(sizes, d)
        return bits <= BITS_CAP and work <= SCAN_WORK_CAP

    if not fits(depth):
        refuse("--scan", short_repr(depth), "the bits and bit operations of this record's scan",
               "scan**2 and scan**3", largest_fitting(fits, 0, depth))


def printable(rec) -> None:
    """Refuse a record whose report would hold a value Python cannot convert to text.

    File values are below 10**D in numerator and denominator, with
    D = ``sys.get_int_max_str_digits()`` (0 lifts the limit, and nothing is
    refused); a report value with a denominator of 10**D or more cannot be
    printed.  With mu(p) = a/b and mu(p**2) = c/e in lowest terms, that holds
    for trace_over_sqrt_p = a / (b p**(k-1)) when a != 0 and
    p**(k-1) >= 10**D |a|, as it reduces by gcd(a, p**(k-1)) <= |a|; and for
    pair_product = -N / (e p**(2k-3)), N = c + (2p + 1) e p**(2k-4), when
    a = 0, c != 0 and p**(2k-4) >= 10**D |c|.  N = c mod e is prime to e, and
    v_p(N) = v_p(c) as |c| < p**(2k-4), so it reduces by p**v_p(c) <= |c| at
    most, to a denominator of at least p 10**D.  As 8**D <= 10**D < 16**D,
    10**D |num| lies in [2**(3D + bitlen(num) - 1), 2**(4D + bitlen(num))),
    and 10**D is built only when p**e may meet that range.
    """
    digits = sys.get_int_max_str_digits()
    a, c = rec.mu_p.numerator, rec.mu_p2.numerator
    # trace_over_sqrt_p when a != 0, else pair_product
    e, num = (rec.weight - 1, a) if a else (2 * rec.weight - 4, c)
    if not (digits and num):
        return
    low, high = 3 * digits + num.bit_length() - 1, 4 * digits + num.bit_length()
    # 2**(e (bitlen(p) - 1)) <= p**e < 2**(e bitlen(p))
    if e * (rec.p.bit_length() - 1) >= high or (
        e * rec.p.bit_length() > low and _power_at_least(rec.p, e, 10**digits * abs(num))
    ):
        raise UsageError(
            f"the report of this record would hold a value with more digits than Python converts "
            f"to text ({digits}); refused before any work"
        )


def _power_at_least(p: int, e: int, x: int) -> bool:
    """Whether p**e >= x, for p >= 2, e >= 1 and x >= 1, from bit lengths where they settle it.

    As 2**(e (bitlen(p) - 1)) <= p**e < 2**(e bitlen(p)), p**e > x when
    e (bitlen(p) - 1) >= bitlen(x), and p**e < x when e bitlen(p) < bitlen(x).
    Otherwise p**e has fewer than e bitlen(p) < 2 bitlen(x) bits, and is computed.
    """
    if e * (p.bit_length() - 1) >= x.bit_length():
        return True
    return e * p.bit_length() >= x.bit_length() and p**e >= x
