import copy
import decimal
import math
import pickle
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sklift.numeric import (
    PRIME_TEST_BITS,
    TRIAL_LIMIT,
    QuadExt,
    _strong_lucas_probable_prime,
    bernoulli_number,
    divisor_lists,
    exact_div,
    int_if_integral,
    is_prime,
    kronecker_symbol,
    rat,
    short_repr,
    sqrt_if_square,
    sqrt_rational,
    squarefree_core,
)

from oracles import (
    HOSTILE_P,
    HOSTILE_Q,
    abs_within,
    cmp_halfpower,
    cmp_sqrt_multiple,
    conjugate,
    divisors,
    factorize,
    noncanonical,
    norm,
    sigma,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def brute_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any((x * x - a) % p == 0 for x in range(1, p)) else -1


class TestKronecker:
    def test_identity_case(self):
        assert kronecker_symbol(1, 3) == 1

    def test_small_prime_values_match_square_search(self):
        # brute-force over squares mod p as the oracle
        assert kronecker_symbol(2, 7) == brute_legendre(2, 7) == 1
        assert kronecker_symbol(3, 7) == brute_legendre(3, 7) == -1
        for p in (3, 5, 7, 11, 13, 17):
            for a in range(-2 * p, 2 * p + 1):
                assert kronecker_symbol(a, p) == brute_legendre(a, p)

    def test_even_second_argument(self):
        # the prime-2 factor: 0 for even a, +-1 by a mod 8
        assert kronecker_symbol(4, 2) == 0
        assert kronecker_symbol(7, 2) == 1
        assert kronecker_symbol(3, 2) == -1
        assert kronecker_symbol(-7, 6) == kronecker_symbol(-7, 2) * kronecker_symbol(-7, 3)

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            kronecker_symbol(5, 0)

    @given(
        st.integers(min_value=-300, max_value=300),
        st.integers(min_value=-300, max_value=300),
        st.integers(min_value=1, max_value=80).map(lambda n: 2 * n + 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_completely_multiplicative_in_numerator(self, a1, a2, n):
        lhs = kronecker_symbol(a1 * a2, n)
        rhs = kronecker_symbol(a1, n) * kronecker_symbol(a2, n)
        assert lhs == rhs


class TestElementary:
    def test_is_prime(self):
        assert [p for p in range(40) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 + 1)

    def test_is_prime_past_the_twelve_base_bound(self):
        # the least strong pseudoprimes to the bases 2..37 and to 2..41
        assert 399165290221 * 798330580441 == 318665857834031151167461
        assert not is_prime(318665857834031151167461)
        assert 1287836182261 * 2575672364521 == 3317044064679887385961981
        assert not is_prime(3317044064679887385961981)
        for n in (2**1279 - 1, 2**2203 - 1, HOSTILE_P, HOSTILE_Q):
            assert is_prime(n)
        assert not is_prime((2**89 - 1) * (2**107 - 1))
        assert not is_prime((2**127 - 1) ** 2)

    def test_is_prime_matches_trial_division_below_10_6(self):
        n = 10**6
        sieve = bytearray([1]) * (n + 1)
        sieve[0] = sieve[1] = 0
        for q in range(2, math.isqrt(n) + 1):
            if sieve[q]:
                sieve[q * q :: q] = bytearray(len(range(q * q, n + 1, q)))
        assert all(is_prime(m) == bool(sieve[m]) for m in range(n + 1))

    def test_strong_lucas_pseudoprimes(self):
        # the odd composites below 10**5 that pass the strong Lucas test with
        # Selfridge's parameters (OEIS A217255); primes pass it too
        pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
        passing = [m for m in range(43, 10**5, 2) if _strong_lucas_probable_prime(m)]
        assert [m for m in passing if not is_prime(m)] == pseudoprimes
        assert len(passing) == len([m for m in range(43, 10**5, 2) if is_prime(m)]) + len(pseudoprimes)

    def test_factorize_and_divisors(self):
        # factorize and divisors are the oracles of divisor_lists and squarefree_core;
        # sigma builds the oracle of elliptic.eisenstein
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert sigma(1, 6) == 12
        assert sigma(3, 2) == 9

    def test_divisor_sieve_matches_factorization(self):
        lists = divisor_lists(2000)
        assert lists[0] == []
        assert all(lists[n] == divisors(n) for n in range(1, 2001))
        assert divisor_lists(0) == [[]]

    def test_exact_div(self):
        assert exact_div(3, 6) == Fraction(1, 2)
        assert type(exact_div(4, 2)) is Fraction
        root = QuadExt(1, 1, 5)
        assert exact_div(root, 2) == QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
        assert exact_div(4, root) == QuadExt(-1, 1, 5)  # 4 / (1 + sqrt5) = sqrt5 - 1
        with pytest.raises(ZeroDivisionError):
            exact_div(1, 0)

    def test_rat_refuses_floats(self):
        assert rat("3/6") == Fraction(1, 2) and rat(7) == 7
        with pytest.raises(TypeError, match="floating point input is not accepted"):
            rat(1.5)

    def test_int_if_integral(self):
        # a stored value is an int when integral; a quotient stays a Fraction
        for x, want in [(Fraction(6, 3), 2), (Fraction(-10**40), -10**40), (Fraction(0), 0), (7, 7)]:
            got = int_if_integral(x)
            assert type(got) is int and got == want
        for x in (Fraction(1, 2), Fraction(-7, 3), QuadExt(1, 1, 5)):
            assert int_if_integral(x) is x
        assert int_if_integral(exact_div(4, 2)) == 2 and type(exact_div(4, 2)) is Fraction

    def test_squarefree_core(self):
        assert squarefree_core(18) == (3, 2)
        assert squarefree_core(1) == (1, 1)
        assert squarefree_core(49) == (7, 1)
        with pytest.raises(ValueError, match="positive integer"):
            squarefree_core(0)

    def test_bernoulli(self):
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(6) == Fraction(1, 42)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_sqrt_rational(self):
        assert sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)
        root = sqrt_rational(Fraction(18))
        assert isinstance(root, QuadExt) and root.b == 3 and root.d == 2
        assert sqrt_rational(Fraction(0)) == 0
        with pytest.raises(ValueError):
            sqrt_rational(Fraction(-1))


SMALL_PRIMES = [q for q in range(2, 60) if is_prime(q)]
# primes just above the trial-division limit: two of them stay below
# TRIAL_LIMIT**3, three never do
NEAR_LIMIT_PRIMES = [q for q in range(TRIAL_LIMIT, TRIAL_LIMIT + 400) if is_prime(q)]


def core_from_factorization(n):
    f = factorize(n)
    return (
        math.prod(q ** (e // 2) for q, e in f.items()),
        math.prod(q for q, e in f.items() if e % 2),
    )


class TestShortRepr:
    @given(st.integers(-(10**60), 10**60) | st.integers(-(2**400), 2**400))
    @example(10**19)
    @example(10**20)
    @example(-(10**19))
    @example(2**70)
    @example(2**67 - 1)
    @example(2**67)
    @example(-(2**67))
    # 60 digits, of which the one division leaves exactly 20
    @example(803469022129495137770981046170581301261101496891396417650688)
    @example(-803469022129495137770981046170581301261101496891396417650688)
    def test_int_as_its_text_cut(self, n):
        text = repr(n)
        assert short_repr(n) == (text if len(text) <= 20 else f"{text[:20]}...")

    def test_int_past_the_digit_limit(self):
        # Python refuses to convert such an int to text; its start is still
        # quoted, as the decimal module (which has no such limit) writes it
        for n in (10**5000 + 7, -(7**9000), 3**40000, 2**100000 - 1):
            assert short_repr(n) == str(decimal.Decimal(n))[:20] + "..."


class TestSquarefreeCore:
    @given(
        st.lists(st.sampled_from(SMALL_PRIMES), max_size=12),
        st.lists(st.sampled_from(NEAR_LIMIT_PRIMES), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_against_factorization(self, small, large):
        # a cofactor of one prime, a prime square or two primes is certified;
        # three primes past the limit are not, without factoring
        n = math.prod(small) * math.prod(large)
        core = squarefree_core(n)
        if len(large) == 3:
            assert core is None
        else:
            assert core == core_from_factorization(n)

    @given(
        st.lists(st.sampled_from(SMALL_PRIMES), max_size=8),
        st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=100, deadline=None)
    def test_cofactors_below_the_cube_are_certified(self, small, m):
        n = math.prod(small) * m
        assert squarefree_core(n) == core_from_factorization(n)

    def test_large_prime_and_prime_square(self):
        assert squarefree_core(6 * HOSTILE_P) == (1, 6 * HOSTILE_P)
        assert squarefree_core(12 * HOSTILE_P**2) == (2 * HOSTILE_P, 3)

    def test_primality_tested_only_up_to_the_bit_cap(self):
        # two Mersenne primes, one each side of PRIME_TEST_BITS
        assert PRIME_TEST_BITS == 2048
        m1279, m2203 = 2**1279 - 1, 2**2203 - 1
        assert squarefree_core(6 * m1279) == (1, 6 * m1279)
        assert squarefree_core(6 * m2203) is None

    def test_two_large_primes_uncertified(self):
        n = 2 * HOSTILE_P * HOSTILE_Q
        assert squarefree_core(n) is None
        assert sqrt_rational(Fraction(n, 9)) is None
        with pytest.raises(ValueError, match="cannot certify"):
            QuadExt(0, 1, n)

    def test_sqrt_if_square(self):
        assert sqrt_if_square(Fraction(49, 4 * HOSTILE_P**2)) == Fraction(7, 2 * HOSTILE_P)
        assert sqrt_if_square(Fraction(0)) == 0
        assert sqrt_if_square(Fraction(2 * HOSTILE_P * HOSTILE_Q)) is None
        assert sqrt_if_square(Fraction(1, 2)) is None


radicands = st.sampled_from([2, 3, 5, 51349])
quad_elems = st.builds(QuadExt, rationals, rationals, radicands)


class TestQuadExt:
    @given(radicands, st.lists(st.tuples(rationals, rationals), min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, d, parts):
        # one field for all three; a draw with b == 0 is a Fraction mixed in
        x, y, z = (QuadExt(a, b, d) for a, b in parts)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x

    @given(quad_elems)
    @settings(max_examples=100, deadline=None)
    def test_conjugate_norm(self, x):
        assert x * conjugate(x) == norm(x)

    def test_division(self):
        x = QuadExt(1, 2, 3)
        y = QuadExt(-5, Fraction(1, 2), 3)
        assert (x / y) * y == x
        assert (1 / x) * x == 1
        with pytest.raises(ZeroDivisionError):
            x / QuadExt(0, 0, 3)

    def test_sign_and_order(self):
        assert QuadExt(0, 1, 2) > Fraction(7, 5)
        assert QuadExt(0, 1, 2) < Fraction(3, 2)
        assert QuadExt(-3, 2, 2) < 0  # 2*sqrt(2) = 2.828 < 3
        assert QuadExt(-2, Fraction(3, 2), 2) > 0  # 1.5*sqrt(2) = 2.121 > 2
        assert QuadExt(5, 0, 7) == 5

    def test_mixed_fields_refuse(self):
        with pytest.raises(TypeError):
            QuadExt(0, 1, 2) + QuadExt(0, 1, 3)

    def test_rational_elements_mix(self):
        assert QuadExt(3, 0, 2) + QuadExt(0, 1, 3) == QuadExt(3, 1, 3)

    @pytest.mark.parametrize("x", [QuadExt(0, 1, 2), QuadExt(Fraction(-7, 3), Fraction(5, 11), 51349)])
    def test_copy_and_pickle(self, x):
        # rebuilt through QuadExt(a, b, d), since the values refuse attribute writes
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is QuadExt
            assert (twin.a, twin.b, twin.d) == (x.a, x.b, x.d)

    def test_non_squarefree_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(0, 1, 12)
        with pytest.raises(ValueError, match="squarefree integer >= 2"):
            QuadExt(1, 1, 1)


class TestOneRepresentation:
    @given(radicands, st.lists(st.tuples(rationals, rationals), min_size=2, max_size=2), rationals)
    @example(2, [(0, 1), (0, 1)], 0)
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_and_square_roots(self, d, parts, r):
        # a rational result is an int or a Fraction, never a QuadExt with b == 0
        x, y = (QuadExt(a, b, d) for a, b in parts)
        values = [x, y, -x, conjugate(x), x + y, x - y, x * y, x * conjugate(x), x + r, r - x, x * r]
        values += [x**e for e in range(4)]
        values += [x / y, r / y, y**-2] if y != 0 else []
        values += [x / r, r / x] if r != 0 and x != 0 else []
        values.append(sqrt_rational(abs(r)))
        assert noncanonical(values) == []

    @given(
        radicands,
        st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50).filter(bool)), min_size=2, max_size=2),
        st.one_of(st.integers(-50, 50), rationals).filter(bool),
        st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_int_parts_divide_as_fractions(self, d, parts, r, e):
        # int parts never meet a float division: each quotient equals the one
        # worked out on Fraction parts, and its parts are canonical
        (a, b), (c, f) = parts
        x, y = QuadExt(a, b, d), QuadExt(c, f, d)
        assert (type(x.a), type(x.b)) == (int, int)

        def inverse(u, v):
            nrm = Fraction(u * u - v * v * d)
            return u / nrm, -v / nrm

        def times(u, v, s, t):
            return u * s + v * t * d, u * t + v * s

        def power(u, v, n):
            out = (Fraction(1), Fraction(0))
            for _ in range(n):
                out = times(*out, u, v)
            return out

        quotients = {
            "x / r": (x / r, (Fraction(a) / r, Fraction(b) / r)),
            "r / x": (r / x, tuple(r * z for z in inverse(a, b))),
            "1 / x": (1 / x, inverse(a, b)),
            "x / y": (x / y, times(a, b, *inverse(c, f))),
            "x ** -e": (x**-e, inverse(*power(a, b, e))),
        }
        for name, (got, (want_a, want_b)) in quotients.items():
            assert noncanonical([got]) == [], name
            assert got == QuadExt(want_a, want_b, d), name
            got_a, got_b = (got.a, got.b) if isinstance(got, QuadExt) else (got, 0)
            assert (Fraction(got_a), Fraction(got_b)) == (want_a, want_b), name

    def test_rational_is_a_fraction(self):
        assert type(QuadExt(3, 0, 7)) is Fraction and QuadExt(3, 0, 7) == 3
        assert type(QuadExt(0, 1, 2) ** 2) is Fraction


class TestHalfPower:
    """The sqrt(p) comparisons in the oracles of ``growth_check``, ``solve_satake`` and ``theorem41``."""

    def test_examples(self):
        assert cmp_halfpower(Fraction(3), 1, 2, 2) > 0
        assert cmp_halfpower(Fraction(240), 4, 2, 17) < 0
        assert cmp_halfpower(Fraction(-1), 4, 2, 17) < 0

    def test_exact_equality_cases(self):
        assert cmp_halfpower(Fraction(8), 1, 2, 6) == 0
        x = QuadExt(0, 12, 3)  # 12 sqrt(3) = 4 * 3^(3/2)
        assert cmp_halfpower(x, 4, 3, 3) == 0

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            cmp_halfpower(Fraction(1), -1, 2, 1)

    def test_nonprime_base_rejected(self):
        with pytest.raises(ValueError):
            cmp_halfpower(Fraction(1), 1, 6, 1)

    def test_agrees_with_high_precision_floats(self):
        # 1000 random cases against 60-digit evaluation
        mpmath.mp.dps = 60
        rng = random.Random(20260810)
        for _ in range(1000):
            x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
            c = Fraction(rng.randint(0, 10**4), rng.randint(1, 100))
            p = rng.choice([2, 3, 5, 7, 37])
            e = rng.randint(0, 40)
            got = cmp_halfpower(x, c, p, e)
            approx = mpmath.mpf(x.numerator) / x.denominator - (
                mpmath.mpf(c.numerator) / c.denominator
            ) * mpmath.power(p, mpmath.mpf(e) / 2)
            want = 0 if approx == 0 else (1 if approx > 0 else -1)
            assert got == want, (x, c, p, e)

    def test_quadext_operand(self):
        # x in another quadratic field against c * p^(e/2)
        x = QuadExt(10, 1, 3)  # 11.73
        assert cmp_halfpower(x, 1, 2, 7) > 0  # 2^3.5 = 11.31
        assert cmp_halfpower(x, 3, 2, 5) < 0  # 3 * 2^2.5 = 16.97

    def test_abs_within(self):
        assert abs_within(Fraction(-11), 1, 2, 7)  # |−11| <= 11.31
        assert not abs_within(Fraction(-12), 1, 2, 7)
        assert abs_within(Fraction(-4), 1, 2, 4) and not abs_within(5, 1, 2, 4)
        with pytest.raises(ValueError):  # the scale is refused as in cmp_halfpower
            abs_within(0, -1, 2, 4)

    def test_cmp_sqrt_multiple_signs(self):
        assert cmp_sqrt_multiple(Fraction(0), Fraction(-1), 2) > 0
        assert cmp_sqrt_multiple(Fraction(-1), Fraction(-1), 2) > 0  # -1 > -1.41
        assert cmp_sqrt_multiple(QuadExt(0, 1, 2), Fraction(1), 2) == 0
