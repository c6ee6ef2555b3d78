"""Reference values the output gate computes without calling sklift.

Everything here is re-derived from first principles in a few lines each, so
that a wrong answer from the program cannot also make its own check pass:
elliptic eigenvalues from Delta * E4**a * E6, the Saito-Kurokawa eigenvalue
formulas, the single-prime criteria of the classifier, and binary form
reduction for locating perturbed table entries.
"""

from __future__ import annotations

import math
from fractions import Fraction

# (n, r, m) triples that label degree-2 Fourier coefficients
Index = tuple


def _sigma(power: int, n: int) -> int:
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def _mul(a: list, b: list, prec: int) -> list:
    out = [0] * (prec + 1)
    for i, x in enumerate(a[: prec + 1]):
        if x:
            for j, y in enumerate(b[: prec + 1 - i]):
                out[i + j] += x * y
    return out


def elliptic_ap(siegel_weight: int, p: int) -> int:
    """a(p) of the level-one eigenform of weight 2k - 2 for k in {10, 12, 14}.

    Those cusp spaces (weights 18, 22, 26) are one-dimensional, so the
    normalized eigenform is Delta * E4**a * E6 with 12 + 4a + 6 = 2k - 2.
    """
    weight = 2 * siegel_weight - 2
    if weight not in (18, 22, 26):
        raise ValueError(f"no one-dimensional reference space at weight {weight}")
    prec = p
    eta24 = [1] + [0] * prec
    for n in range(1, prec + 1):
        factor = [0] * (prec + 1)
        factor[0], factor[n] = 1, -1
        for _ in range(24):
            eta24 = _mul(eta24, factor, prec)
    delta = [0] + eta24[:prec]
    e4 = [1] + [240 * _sigma(3, n) for n in range(1, prec + 1)]
    e6 = [1] + [-504 * _sigma(5, n) for n in range(1, prec + 1)]
    form = _mul(delta, e6, prec)
    for _ in range((weight - 18) // 4):
        form = _mul(form, e4, prec)
    return form[p]


def sk_eigenvalues(k: int, p: int, a_p: int) -> tuple[int, int]:
    """(mu(p), mu(p**2)) of the lift of an eigenform with prime coefficient a(p)."""
    t = p ** (k - 1) + p ** (k - 2)
    return t + a_p, a_p * a_p + t * a_p + p ** (2 * k - 2)


def conditions_fired(k: int, p: int, mu_p: Fraction, mu_p2: Fraction) -> list[str]:
    """The single-prime criteria that hold, in the classifier's reporting order."""
    fired = []
    if mu_p > 0 and mu_p * mu_p > 16 * Fraction(p) ** (2 * k - 3):
        fired.append("prime-threshold")
    if mu_p2 > 10 * Fraction(p) ** (2 * k - 3):
        fired.append("prime-square-threshold")
    t = p ** (k - 1) + p ** (k - 2)
    if mu_p2 == mu_p * mu_p - t * mu_p + Fraction(p) ** (2 * k - 2):
        fired.append("eigenvalue-identity")
    return fired


def unimodular_record(k: int, p: int, s: Fraction, t: Fraction) -> tuple[Fraction, Fraction]:
    """(mu(p), mu(p**2)) for the spectral pair x = s + t*sqrt(p), y = -s + t*sqrt(p).

    Substituted into mu(p) = p**(k-3/2) (x + y) and
    mu(p**2) = p**(2k-3) (x**2 + x*y + y**2 - 2 - 1/p); both come out rational.
    """
    mu_p = 2 * t * Fraction(p) ** (k - 1)
    mu_p2 = Fraction(p) ** (2 * k - 3) * (s * s + 3 * p * t * t - 2 - Fraction(1, p))
    return mu_p, mu_p2


def reduce_form(n: int, r: int, m: int) -> Index:
    """Reduced representative 0 <= r <= n <= m of a positive definite form."""
    while True:
        if not -n < r <= n:
            t = (r + n - 1) // (2 * n)  # ceil((r - n) / 2n) puts r in (-n, n]
            m, r = m - r * t + n * t * t, r - 2 * n * t
        if n > m:
            n, m = m, n
            continue
        return (n, abs(r), m)


def _positive(n: int, r: int, m: int) -> bool:
    return n > 0 and m > 0 and 4 * n * m - r * r > 0


def relation_lookups(kind: str, p: int | None, index: Index) -> list[Index]:
    """Reduced indices a relation instance reads, for the two table checkers."""
    n, r, m = index
    if kind == "maass":
        g = math.gcd(math.gcd(n, r), m)
        raw = [(n, r, m)] + [
            (n * m // (d * d), r // d, 1) for d in range(1, g + 1) if g % d == 0
        ]
    else:
        raw = [(n * p, r, m), (n, r, m * p)]
        if n % p == 0 and r % p == 0:
            raw.append((n // p, r // p, m))
        if r % p == 0 and m % p == 0:
            raw.append((n, r // p, m // p))
    return [reduce_form(*t) for t in raw if _positive(*t)]

