"""Exact arithmetic foundation.

Rationals are ints or ``fractions.Fraction`` (always in lowest terms,
positive denominator).  On top of that this module provides real quadratic
irrationals ``a + b*sqrt(d)`` with exact signs (resolved by sign splitting
and squaring, never by floating point), and the elementary number-theoretic
functions the rest of the package needs.

Each exact value has one representation: an int or a Fraction when it is
rational, a ``QuadExt`` with ``b != 0`` only when it is not.  ``QuadExt``
alone enforces this, so no caller tests whether a value is "really" rational.
A stored coefficient, and each part of a ``QuadExt``, is an int when it is
integral (``int_if_integral``); a quotient stays a Fraction.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction

from .errors import UsageError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _SMALL_PRIMES as bases
PSI_13 = 3317044064679887385961981

# squarefree_core trial-divides below this and factors nothing further
TRIAL_LIMIT = 10_000
# squarefree_core runs no primality test on a cofactor longer than this
PRIME_TEST_BITS = 2048


def rat(x) -> Fraction:
    """Coerce an int/str/Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point input is not accepted; pass int, str or Fraction")
    return Fraction(x)


def json_int(value, field: str) -> int:
    """An integer read from a JSON file: a JSON integer or a string of one.

    Floats and booleans are refused with ``UsageError`` naming ``field``,
    where ``int()`` would truncate 10.9 to 10 and read ``true`` as 1.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            refuse_past_digit_limit(value, field)
    raise UsageError(f"{field} must be an integer, got {type(value).__name__} {short_repr(value)}")


def short_repr(value) -> str:
    """``repr(value)`` for an error line; past 20 characters, only its start and ``...``.

    A string is cut before it is quoted, so the quote stays closed.
    """
    if isinstance(value, str):
        return repr(value) if len(value) <= 20 else f"{value[:20]!r}..."
    if type(value) is int and value.bit_length() > 67:
        # 21 digits or more; one division keeps 20 or more (3/10 < log10(2)), within Python's int-to-text limit
        cut = value.bit_length() * 3 // 10 - 20
        return str(-(-value // 10**cut) if value < 0 else value // 10**cut)[:20] + "..."
    text = repr(value)
    return text if len(text) <= 20 else f"{text[:20]}..."


def refuse_past_digit_limit(text: str, field: str) -> None:
    """Raise ``UsageError`` when ``text`` holds more digits in a row than Python converts.

    ``int`` and ``Fraction`` refuse such a string, though it may well be a
    number, when D = ``sys.get_int_max_str_digits()`` is not 0.  The error
    names D and quotes only the start of the string.
    """
    digits = sys.get_int_max_str_digits()
    if digits and re.search(rf"\d{{{digits + 1}}}", text.replace("_", "")):
        raise UsageError(
            f"{field} has more digits than Python converts to an integer ({digits}): {short_repr(text)}"
        )


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    """Primality of ``n``: Miller-Rabin to the prime bases 2..41, then strong Lucas.

    The strong tests to the thirteen bases 2..41 decide every ``n`` below
    psi_13 = 3317044064679887385961981 (Sorenson and Webster, 2017).  From
    psi_13 on, ``n`` must also pass a strong Lucas test with Selfridge's
    parameters, which with base 2 is the Baillie-PSW test: no composite is
    known to pass it, though none is proven not to.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < PSI_13 or _strong_lucas_probable_prime(n)


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of an odd ``n > 41`` with Selfridge's parameters P = 1, Q = (1 - D)/4.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D|n) = -1.
    Writing n + 1 = d * 2**s with d odd, ``n`` passes when U_d = 0 or
    V_(d * 2**r) = 0 mod n for some r < s.
    """
    root = math.isqrt(n)
    if root * root == n:  # no D has (D|n) = -1
        return False
    D = 5
    while (j := kronecker_symbol(D, n)) != -1:
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k, Q**k mod n for k = 1, then the binary digits of d from the top
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            # U_(k+1) = (U_k + V_k)/2 and V_(k+1) = (D U_k + V_k)/2 mod the odd n
            u, v = u + v, D * u + v
            u, v = (u + n * (u % 2)) // 2 % n, (v + n * (v % 2)) // 2 % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def divisor_lists(n: int) -> list[list[int]]:
    """Sorted positive divisors of every g = 0..n at index g (none at 0), by a sieve."""
    lists: list[list[int]] = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for multiple in range(d, n + 1, d):
            lists[multiple].append(d)
    return lists


def squarefree_core(n: int) -> tuple[int, int] | None:
    """Write ``n = s*s*d`` with ``d`` squarefree; returns ``(s, d)``, or None.

    Trial division below ``TRIAL_LIMIT`` leaves a cofactor whose prime
    factors are all at least ``TRIAL_LIMIT``.  A square cofactor joins ``s``.
    Otherwise it is squarefree when it is below ``TRIAL_LIMIT**3`` and so has
    at most two prime factors, or when it is prime; primality is tested only
    up to ``PRIME_TEST_BITS`` bits.  Any other cofactor would need factoring
    or a longer test, and the result is None: the core is not certified.
    """
    if n < 1:
        raise ValueError("squarefree_core expects a positive integer")
    s, d = 1, 1
    q = 2
    while q < TRIAL_LIMIT and q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        s *= q ** (e // 2)
        if e % 2:
            d *= q
        q += 1 if q == 2 else 2
    root = math.isqrt(n)
    if root * root == n:
        return s * root, d
    if n < TRIAL_LIMIT**3 or (n.bit_length() <= PRIME_TEST_BITS and is_prime(n)):
        return s, d * n
    return None


@functools.cache
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention), by the defining recurrence."""
    bs = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bs[j]
        bs.append(-acc / (m + 1))
    return bs[n]


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n != 0, extending the Jacobi symbol."""
    if n == 0:
        raise ValueError("kronecker symbol is undefined for n = 0")
    result = 1
    if n < 0:
        if a < 0:
            result = -1
        n = -n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# quadratic irrationals
# ---------------------------------------------------------------------------

_SQUAREFREE_SEEN: set[int] = set()


def _check_squarefree(d: int) -> int:
    if d in _SQUAREFREE_SEEN:
        return d
    if d < 2:
        raise ValueError("the adjoined radicand must be a squarefree integer >= 2")
    core = squarefree_core(d)
    if core is None:
        raise ValueError(f"cannot certify that {d} is squarefree by trial division")
    if core[1] != d:
        raise ValueError(f"{d} is not squarefree")
    _SQUAREFREE_SEEN.add(d)
    return d


def _sgn(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _surd_sign(a, b, d: int) -> int:
    """Exact sign of ``a + b*sqrt(d)`` for rational a, b and a squarefree d >= 2.

    When the two terms have opposite signs, |a| and |b|*sqrt(d) are compared
    squared; they are never equal, as sqrt(d) is irrational.
    """
    if a == 0:
        return _sgn(b)
    if b == 0 or (a > 0) == (b > 0):
        return _sgn(a)
    return _sgn(a) if a * a > b * b * d else _sgn(b)


class QuadExt:
    """An element ``a + b*sqrt(d)`` of a real quadratic field, exact, with ``b != 0``.

    ``d`` is a squarefree integer >= 2.  ``QuadExt(a, b, d)`` with ``b == 0``
    is the Fraction ``a``, and every operation builds its result through the
    class, so a rational value is never a QuadExt.  a and b are ints when
    integral, and are divided as Fractions.  QuadExt values mix freely with
    ints and Fractions; values of two different fields refuse to combine.  A
    QuadExt divides by an int or a Fraction only, and takes non-negative
    powers only.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, a, b, d: int):
        a, b = rat(a), rat(b)
        if b == 0:
            return a
        a, b = int_if_integral(a), int_if_integral(b)
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", _check_squarefree(d))
        return self

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("QuadExt values are immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __new__, since __setattr__ refuses
        return QuadExt, (self.a, self.b, self.d)

    # -- coercion ------------------------------------------------------

    def _coerce(self, other):
        """Return ``(a, b)`` of ``other`` viewed inside this field, or None."""
        if isinstance(other, QuadExt):
            return (other.a, other.b) if other.d == self.d else None
        if isinstance(other, (int, Fraction)):
            return other, 0
        return None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return QuadExt(self.a + co[0], self.b + co[1], self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return QuadExt(self.a - co[0], self.b - co[1], self.d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        return QuadExt(self.a * oa + self.b * ob * self.d, self.a * ob + self.b * oa, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(self.a, other), Fraction(self.b, other), self.d)
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            # non-negative powers only: e >>= 1 below never ends at e = -1
            return NotImplemented
        out = Fraction(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- order and equality ----------------------------------------------

    def sign(self) -> int:
        """Exact sign, decided by squaring when the two terms compete."""
        return _surd_sign(self.a, self.b, self.d)

    def _diff_sign(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        # the difference is a Fraction when the sqrt(d) parts cancel
        return value_sign(QuadExt(self.a - co[0], self.b - co[1], self.d))

    def __eq__(self, other):
        s = self._diff_sign(other)
        if s is NotImplemented:
            return NotImplemented
        return s == 0

    def __lt__(self, other):
        s = self._diff_sign(other)
        if s is NotImplemented:
            return NotImplemented
        return s < 0

    def __gt__(self, other):
        s = self._diff_sign(other)
        if s is NotImplemented:
            return NotImplemented
        return s > 0

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt({self.d})"


def sqrt_if_square(x: Fraction) -> Fraction | None:
    """The rational square root of ``x >= 0``, or None when ``x`` is not a rational square."""
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def sqrt_rational(x: Fraction):
    """Exact square root of a nonnegative rational: Fraction, QuadExt, or None.

    None when ``squarefree_core`` cannot certify the radicand's squarefree part.
    """
    x = rat(x)
    if x < 0:
        raise ValueError("sqrt of a negative rational is not real")
    if x == 0:
        return Fraction(0)
    core = squarefree_core(x.numerator * x.denominator)
    if core is None:
        return None
    s, d = core
    root = Fraction(s, x.denominator)
    if d == 1:
        return root
    return QuadExt(0, root, d)


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------

def value_sign(x) -> int:
    """Sign of a Fraction/int/QuadExt."""
    if isinstance(x, QuadExt):
        return x.sign()
    return _sgn(x)


def exact_div(a, b):
    """``a / b`` exactly, for a rational ``b``: a QuadExt when ``a`` is one, else a Fraction."""
    return (a if isinstance(a, QuadExt) else Fraction(a)) / b


def int_if_integral(x):
    """The int ``x`` is when it is an integral Fraction, otherwise ``x`` unchanged.

    A stored coefficient (of a series, a cache entry or a table) is an int
    whenever it is integral, so integer data runs in int arithmetic.  A
    quotient such as ``exact_div``'s stays a Fraction, because ``int / int``
    would be a float.
    """
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def format_value(x) -> str:
    """Readable exact rendering of a Fraction or QuadExt; ``UsageError`` past Python's digit limit."""
    try:
        return repr(x) if isinstance(x, QuadExt) else str(rat(x))
    except ValueError as exc:
        raise UsageError("an exact value has more digits than Python converts to text") from exc
