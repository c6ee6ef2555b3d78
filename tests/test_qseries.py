import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sklift.errors import TruncationError, UsageError
from sklift.numeric import QuadExt
from sklift.qseries import (
    QSeries,
    RatMatrix,
    _kronecker,
    _pack,
    echelon,
    sparse_times,
)

from oracles import (
    _schoolbook,
    identity,
    rank,
    rref,
    series_power,
    series_product,
    sparse_horner,
    sparse_times_by_terms,
)

small_rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
)


# signed integer series: small and beyond 2**256 coefficients, with a
# validity that truncates or pads the list, and half of them made
# all-negative
int_series = st.builds(
    lambda coeffs, prec, negate: QSeries([-abs(c) for c in coeffs] if negate else coeffs, prec),
    st.lists(
        st.one_of(st.integers(-3, 3), st.integers(-(2**300), 2**300)), min_size=1, max_size=16
    ),
    st.integers(min_value=0, max_value=20),
    st.booleans(),
)


# the terms of a sparse factor: exponents past the validity, repeated ones,
# and zero, negative and past-2**64 coefficients
big_or_small = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
sparse_terms = st.lists(st.tuples(st.integers(0, 35), big_or_small), max_size=6)


# (S, step, tail, parts, slot width) where S**tail leaves the top bit of the slot
# free; one part each, which sparse_times takes as the oracle does
_EDGE_CASES = [
    (base, step, tail, 1, width)
    for base, step, tail in [(1000, 1, 2), (2**20 - 3, 1, 3)]
    for width in (1, 2, 8, 9, 40)
    if base**tail <= 1 << (8 * width - 2)
]


def _assert_fast_product_exact(a, b):
    """The Kronecker path, called directly and through ``*``, equals the schoolbook loop."""
    n = min(a.prec, b.prec)
    expected = _schoolbook(a.coeffs, b.coeffs, n)
    assert _kronecker(a.coeffs[: n + 1], b.coeffs[: n + 1], n) == expected
    assert (a * b).coeffs == expected


class TestQSeries:
    def test_identity_and_cancellation(self):
        one = QSeries([1], 4)
        a = QSeries([1, 2, 3], 4)
        assert a * one == a
        b = (QSeries([1, 1], 5) * QSeries([1, -1], 5))
        assert b.coeffs[:3] == [1, 0, -1]

    def test_discriminant_times_eisenstein_head(self):
        # oracle: first terms of the eta product and the weight-6 series,
        # multiplied by hand
        from sklift.elliptic import delta, eisenstein

        prod = delta(6).series * eisenstein(6, 6).series
        assert prod.coefficient(1) == 1
        assert prod.coefficient(2) == -528  # -24 + -504

    def test_min_truncation(self):
        a = QSeries([1] * 8, 7)
        b = QSeries([1] * 4, 3)
        assert (a * b).prec == (b * a).prec == 3

    def test_coefficient_out_of_range(self):
        with pytest.raises(TruncationError):
            QSeries([1, 2], 1).coefficient(5)

    def test_shift_and_truncate(self):
        s = QSeries([1, 2], 1).shift(2)
        assert s.prec == 3 and s.coeffs == [0, 0, 1, 2]
        assert QSeries([1, 2, 3], 1).coeffs == [1, 2]
        with pytest.raises(TruncationError):
            s.coefficient(4)

    def test_quadext_coefficients(self):
        # a product with a QuadExt or Fraction coefficient is refused in one
        # line; the schoolbook oracle still multiplies them exactly
        root = QuadExt(0, 1, 5)
        s = QSeries([1, root], 3)
        half = QSeries([Fraction(1, 2), 3, 0, -1], 3)
        ints = QSeries([2, 0, 5, 7], 3)
        for a, b in ((s, s), (half, ints), (ints, half), (s, half)):
            with pytest.raises(UsageError, match="^a series product takes int coefficients only$"):
                a * b
        sq = series_product(s, s)
        assert sq.coeffs[1] == 2 * root
        assert sq.coeffs[2] == 5
        assert series_product(half, ints).coeffs == [1, 6, Fraction(5, 2), Fraction(33, 2)]
        assert series_product(s, half).coeffs == [Fraction(1, 2), 3 + root / 2, 3 * root, -1]

    @given(int_series, int_series)
    @example(QSeries([0, 0, 0], 2), QSeries([5, -7], 1))
    @example(QSeries([-4], 0), QSeries([2**400 + 1], 0))
    @example(QSeries([1, -1], 1), QSeries([1, 1], 1))  # slot 2 of the product is -1
    @example(QSeries([-(2**257), -1, -(2**300)], 2), QSeries([-3, -(2**256), -2], 2))
    @settings(max_examples=500, deadline=None)
    def test_integer_product_matches_schoolbook(self, a, b):
        _assert_fast_product_exact(a, b)

    def test_integer_product_seeded_sweep(self):
        # the same property on 5000 seeded random pairs, cheaper to draw
        # than through hypothesis
        rng = random.Random(20090101)

        def draw():
            negative = rng.random() < 0.5  # all-negative series half the time
            coeffs = []
            for _ in range(rng.randint(1, 16)):
                c = rng.getrandbits(rng.choice((2, 64, 257, 300)))
                coeffs.append(-c if negative or rng.random() < 0.5 else c)
            return QSeries(coeffs, rng.randint(0, 20))

        for _ in range(5000):
            _assert_fast_product_exact(draw(), draw())

    def test_pack_and_product_by_sign_pattern(self):
        # all-non-negative lists (theta, f2 and their powers) pack in one
        # pass, mixed and all-negative lists in two; both feed the product
        rng = random.Random(1982)
        lists = [
            [0], [0, 0, 0], [1, 2, 0, 2], [2**300, 0, 7], [255, 256, 65535],
            [1, -1], [-5, 0, 3, -(2**257)], [-1], [-3, -(2**64), -2],
        ]
        for _ in range(200):
            length = rng.randint(1, 12)
            top = rng.choice((3, 2**64, 2**300))
            lists.append([rng.randint(0, top) for _ in range(length)])
            lists.append([rng.randint(-top, top) for _ in range(length)])
        for coeffs in lists:
            width = (max(map(abs, coeffs)).bit_length() + 8) // 8
            packed = sum(c * 256 ** (width * i) for i, c in enumerate(coeffs))
            assert _pack(coeffs, width) == packed
        for a, b in zip(lists, lists[1:] + lists[:1]):
            _assert_fast_product_exact(QSeries(a), QSeries(b))

    def test_sparse_times_matches_schoolbook(self):
        # (sum c q**e)**rounds * coeffs against the term-by-term product,
        # rounds 0 to 4, n from 0, terms of every sign pattern (exponents
        # past n and repeated ones included), coefficients past 2**256
        rng = random.Random(4096)
        exponent_sets = [[0], [3], [0, 1], [0, 1, 4, 9], [2, 2, 5], [0, 4, 30], [1, 4, 9, 16, 25]]
        for exponents in exponent_sets:
            for pattern in range(2 ** len(exponents)):
                for _ in range(6):
                    mags = [rng.choice((1, 2, 7, 2**64, 2**257)) for _ in exponents]
                    terms = [
                        (e, -c if pattern >> i & 1 else c) for i, (e, c) in enumerate(zip(exponents, mags))
                    ]
                    n = rng.randint(0, 24)
                    top = rng.choice((3, 2**64, 2**300))
                    coeffs = [rng.randint(-top, top) for _ in range(rng.randint(1, 26))]
                    if rng.random() < 0.2:
                        coeffs = [0] * len(coeffs)
                    dense = [0] * (n + 1)
                    for e, c in terms:
                        if e <= n:
                            dense[e] += c
                    want = (coeffs + [0] * (n + 1))[: n + 1]
                    for rounds in range(5):
                        got = sparse_times(terms, coeffs, n, rounds)
                        assert got == want, (terms, coeffs, n, rounds)
                        assert all(type(c) is int for c in got)
                        want = _schoolbook(dense, want, n)

    def test_sparse_times_by_theta(self):
        # theta's terms against powers of the theta series itself
        for n in (0, 1, 3, 4, 17, 64):
            terms = [(0, 1)] + [(i * i, 2) for i in range(1, math.isqrt(n) + 1)]
            theta = QSeries([1 if e == 0 else 2 if math.isqrt(e) ** 2 == e else 0 for e in range(n + 1)])
            coeffs = [(-3) ** e for e in range(n + 1)]
            for rounds in range(1, 5):
                assert sparse_times(terms, coeffs, n, rounds) == (series_power(theta, rounds) * QSeries(coeffs)).coeffs

    @given(sparse_terms, st.lists(big_or_small, max_size=30), st.integers(0, 30), st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    @example([(0, 1), (0, -1)], [5, -7], 3, 4)
    @example([(0, 0), (2, 0)], [1, 2, 3], 2, 1)
    @example([], [1, -1], 1, 0)
    @example([], [], 0, 3)
    @example([(5, 3), (9, -2)], [1, 1, 1], 4, 8)
    def test_sparse_times_matches_per_term_rounds(self, terms, coeffs, n, rounds):
        # grouped rounds against one shifted add per term: repeated, negative
        # and zero coefficients, exponents past n, empty input, rounds 0 to 8
        got = sparse_times(terms, coeffs, n, rounds)
        assert got == sparse_times_by_terms(terms, coeffs, n, rounds)
        assert all(type(c) is int for c in got)

    @pytest.mark.parametrize("base, step, tail, count, width", _EDGE_CASES)
    def test_results_at_the_edge_of_the_width(self, base, step, tail, count, width):
        # a constant S = base makes the width bound exact: the one part is the
        # largest multiple of S**tail that fits a signed slot of ``width``
        # bytes, divided by S**tail, so the first result coefficient is the
        # bound itself and sits within S**tail of the slot's edge
        edge = (1 << (8 * width - 1)) - 1
        d = edge // base**tail
        terms = [(0, base - 1), (0, 1), (7, 5)]
        top = base**tail * d
        assert top.bit_length() == 8 * width - 1
        for sign in (1, -1):
            want = [sign * top, -sign * top, 0, sign * top]
            assert sparse_horner(terms, step, tail, [(sign, [d, -d, 0, d])], 3) == want
        assert sparse_times(terms, [d, -d, 0, d], 3, tail) == [top, -top, 0, top]

    @given(int_series, int_series, int_series)
    @settings(max_examples=80, deadline=None)
    def test_mul_associative_commutative(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(small_rationals, min_size=m, max_size=m), min_size=n, max_size=n
        ).map(RatMatrix)
    )
)


@st.composite
def int_matrices(draw):
    """Integer matrices of a drawn rank: products of a mixing and a basis matrix."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    rank = draw(st.integers(0, min(rows, cols)))
    entries = st.one_of(st.integers(-9, 9), st.integers(-(2**130), 2**130))
    basis = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=rank, max_size=rank))
    mixes = draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                          min_size=rows, max_size=rows))
    return [[sum(x * b[j] for x, b in zip(mix, basis)) for j in range(cols)] for mix in mixes]


class TestEchelon:
    @given(int_matrices())
    @example([])
    @example([[0, 0, 0], [0, 0, 0]])
    @example([[0], [-6], [4]])
    @example([[0, 2**101, 3], [0, -(2**102), -6], [5, 0, 1]])
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_gauss_jordan(self, rows):
        red, pivots = echelon(rows)
        want, want_pivots = rref(RatMatrix(rows))
        assert pivots == want_pivots and len(red) == len(pivots)
        for row, c, want_row in zip(red, pivots, want.entries):
            # primitive, positive at the pivot, and the rational row once divided by it
            assert all(type(x) is int for x in row)
            assert row[c] > 0 and math.gcd(*row) == 1
            assert [Fraction(x, row[c]) for x in row] == want_row
        assert RatMatrix(rows).rref() == (want, want_pivots)


class TestRatMatrix:
    def test_kernel_examples(self):
        assert identity(2).kernel() == []
        assert len(RatMatrix([[0, 0], [0, 0]]).kernel()) == 2
        basis = RatMatrix([[1, 1], [2, 2]]).kernel()
        assert len(basis) == 1
        v = basis[0]
        # spans the same line as (1, -1)
        assert v[0] * (-1) == v[1] * 1 and v != [0, 0]

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_rank_nullity(self, m):
        assert m.rref() == rref(m)
        assert rank(m) + len(m.kernel()) == m.cols
        for v in m.kernel():
            image = [
                sum(m.entries[i][j] * v[j] for j in range(m.cols))
                for i in range(m.rows)
            ]
            assert all(x == 0 for x in image)
