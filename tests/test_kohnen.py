import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sklift.elliptic import dim_cusp_forms, eigenforms
from sklift.errors import (
    NotAnEigenformError,
    TruncationError,
    UnsupportedFieldError,
    UsageError,
)
from sklift.kohnen import (
    PlusSpaceForm,
    _eigenvalue_on,
    plus_hecke,
    plus_space_basis,
    shimura_match,
)
from sklift.numeric import QuadExt
from sklift.qseries import QSeries

from oracles import (
    DimensionMismatchError,
    charpoly,
    eigenforms_by_fractions,
    hecke_matrix,
    matmul,
    plus_eigenforms,
    plus_hecke_matrix,
    plus_space_basis_by_kernel,
)


def _outcome(build, *args):
    try:
        return [(g.prec, g.series.coeffs) for g in build(*args)]
    except DimensionMismatchError:
        return DimensionMismatchError


class TestClosedForms:
    def test_equal_to_the_kernel_basis(self):
        # every validity from the old constraint window 4k to 200, and the
        # lift sizes 576, 1600 and 2500 (index bounds 12, 20 and 25)
        for k in (10, 12, 14):
            for prec in list(range(4 * k, 201)) + [576, 1600, 2500]:
                expected = _outcome(plus_space_basis_by_kernel, k, prec)
                assert _outcome(plus_space_basis, k, prec) == expected, (k, prec)

    @given(st.sampled_from([10, 12, 14]), st.integers(0, 2500))
    @settings(max_examples=25, deadline=None)
    def test_equal_to_the_kernel_basis_at_drawn_validity(self, k, prec):
        # the kernel oracle needs its window, so a short draw compares a prefix
        expected = plus_space_basis_by_kernel(k, max(prec, 4 * k))[0].series.coeffs[: prec + 1]
        (g,) = plus_space_basis(k, prec)
        assert g.prec == prec and g.series.coeffs == expected

    def test_below_the_old_window_is_a_prefix(self):
        for k in (10, 12, 14):
            full = plus_space_basis(k, 4 * k)[0].series.coeffs
            for prec in range(4 * k):
                (g,) = plus_space_basis(k, prec)
                assert g.prec == prec and g.series.coeffs == full[: prec + 1], (k, prec)

    def test_dimension_two_and_up_refused(self):
        for k, dim in ((16, 2), (30, 4)):
            with pytest.raises(UnsupportedFieldError) as err:
                plus_space_basis(k, 200)
            assert str(err.value) == (
                f"weight {2 * k - 1}/2 has a {dim}-dimensional plus space; "
                "eigenvalue fields beyond degree 1 are not supported"
            )


class TestPlusSpace:
    def test_dimensions_match_integral_weight(self):
        assert len(plus_space_basis(8, 80)) == 0
        assert len(plus_space_basis(10, 80)) == 1
        assert len(plus_space_basis(12, 96)) == 1
        assert len(plus_space_basis(14, 112)) == 1
        assert len(plus_space_basis_by_kernel(16, 128)) == dim_cusp_forms(30) == 2

    def test_known_leading_coefficients(self, plus10, plus12):
        # classical leading data of the two index-1 Jacobi cusp forms
        assert plus10.c(3) == 1 and plus10.c(4) == -2
        assert plus12.c(3) == 1 and plus12.c(4) == 10

    def test_support_enforced_to_full_truncation(self, plus10):
        for n in range(plus10.prec + 1):
            if n == 0 or n % 4 in (1, 2):
                assert plus10.c(n) == 0, n

    def test_basis_is_prefix_stable_across_truncations(self):
        # the cache reuses longer cached expansions, which is only sound
        # because the normalized basis does not depend on the truncation
        for build, k in ((plus_space_basis, 10), (plus_space_basis_by_kernel, 16)):
            long = build(k, 260)
            short = build(k, 130)
            for a, b in zip(long, short):
                assert a.series.coeffs[:131] == b.series.coeffs

    def test_odd_weight_rejected(self):
        for build in (plus_space_basis, plus_space_basis_by_kernel):
            with pytest.raises(UsageError):
                build(11, 80)

    def test_bad_support_rejected(self):
        with pytest.raises(Exception):
            PlusSpaceForm(10, QSeries([0, 1, 0, 0], 3))

    def test_first_unsupported_exponent_named(self, plus10):
        for n in (0, 1, 2, 5, 6, 349, 354):
            for later in (None, 5, 13, 358):
                coeffs = list(plus10.series.coeffs)
                coeffs[n] = QuadExt(0, 1, 5) if n == 5 else 7
                if later is not None and later > n:
                    coeffs[later] = -1
                with pytest.raises(Exception, match=f"support violated at exponent {n}$"):
                    PlusSpaceForm(10, QSeries(coeffs, plus10.prec))


class TestPlusHecke:
    def test_eigenvalues_match_integral_side(self, plus10, plus12):
        assert _eigenvalue_on(plus10, 2) == -528
        assert _eigenvalue_on(plus12, 2) == -288
        # checked in int arithmetic, still returned as the exact quotient
        assert type(_eigenvalue_on(plus10, 2)) is Fraction

    def test_prime3_eigenvalue(self, plus10, f18):
        assert _eigenvalue_on(plus10, 3) == f18.a(3) == -4284

    def test_zero_form(self, plus10):
        zero = PlusSpaceForm(10, QSeries([0] * 73, 72))
        assert not any(plus_hecke(zero, 2).series.coeffs)

    def test_insufficient_truncation(self, plus10):
        short = PlusSpaceForm(10, QSeries(plus10.series.coeffs, 3))
        with pytest.raises(TruncationError):
            plus_hecke(short, 2)

    def test_nonprime_index_refused(self, plus10):
        with pytest.raises(UsageError, match="4 is not prime"):
            plus_hecke(plus10, 4)

    def test_operators_commute(self):
        for k in (10, 12):
            basis = plus_space_basis(k, 360)
            m4 = plus_hecke_matrix(basis, 2)
            m9 = plus_hecke_matrix(basis, 3)
            assert matmul(m4, m9) == matmul(m9, m4)

    def test_charpoly_matches_integral_weight(self):
        # same exact polynomial for the index-4 operator and the prime-2
        # operator on the corresponding integral-weight space
        for build, k in ((plus_space_basis, 10), (plus_space_basis, 12), (plus_space_basis_by_kernel, 16)):
            plus_poly = charpoly(plus_hecke_matrix(build(k, 200), 2))
            ell_poly = charpoly(hecke_matrix(2 * k - 2, 2, 24))
            assert plus_poly == ell_poly, k

    def test_not_an_eigenform_witness(self):
        g = plus_space_basis_by_kernel(16, 200)[0]  # staircase vector, not an eigenform
        with pytest.raises(NotAnEigenformError):
            _eigenvalue_on(g, 2)

    def test_witness_is_the_first_mismatch(self, plus10):
        for n in (3, 4, 7, 80, 88):
            coeffs = list(plus10.series.coeffs)
            coeffs[n] += 1
            g = PlusSpaceForm(10, QSeries(coeffs, plus10.prec))
            tg = plus_hecke(g, 2)
            lam = Fraction(tg.c(3), g.c(3))
            first = next(i for i in range(tg.prec + 1) if tg.c(i) != lam * g.c(i))
            with pytest.raises(NotAnEigenformError, match="not an eigenform at p=2") as err:
                _eigenvalue_on(g, 2)
            assert err.value.witness == first


class TestShimura:
    def test_dim_one_matches(self, plus10, plus12):
        assert shimura_match(plus10, eigenforms(18, 16)).weight == 18
        assert shimura_match(plus10, eigenforms(18, 16)).a(2) == -528
        assert shimura_match(plus12, eigenforms(22, 16)).a(2) == -288

    def test_dim_two_quadratic_match(self):
        pairs = plus_eigenforms(16, 200)
        assert len(pairs) == 2
        cands = eigenforms_by_fractions(30, 24)
        matched = set()
        for g, lam in pairs:
            assert isinstance(lam, QuadExt) and lam.d == 51349
            f = shimura_match(g, cands)
            assert f.a(2) == lam
            matched.add(id(f))
        assert len(matched) == 2

    def test_eigenvalue_verified_before_matching(self, plus10):
        # a plus form that is not an eigenform cannot be matched
        g = plus_space_basis_by_kernel(16, 200)[0]
        with pytest.raises(NotAnEigenformError):
            shimura_match(g, eigenforms_by_fractions(30, 24))


class TestFrozenEigenforms:
    """Digests of the coefficient lists as the separate elliptic and
    plus-space eigen-splits produced them; the shared helpers must
    reproduce them exactly."""

    ELLIPTIC = {
        12: "cbca5fcbb520a9824b100d823084b5b82522739e541977a364a8511b583c3719",
        14: "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        16: "26fea60c36fa94b1ac078f7dd447c95d191a05ac194a4fd90c73603afea3cc46",
        18: "522fa74f8e7f84aa5e19179f5bd410c56f88b0f7544e647dc038bc979cb2208a",
        20: "bb58e80f2262dc7ac00267aa618088f62a3b3cb6674c083fa5d547f409e0edb0",
        22: "c41458c2b45736a4cb7acfc6e551a3b7463f11d4d397caf0ec5c3c6e807a3b68",
        24: "0a7af919719bd1036255391c127388203a5e9c6b73effcf16f817b8a5d58a030",
        26: "a629cb4b02f497d25b925a476aadd99c52b98bd450a098309171ac6d111b957a",
        28: "283fea3a34f6f404237c7d7534d6bf2ceff84353ff97bc8b13286b1ea78365ee",
        30: "7ded20d2ce0586aff221d11ad22d3564d25fc4699a6c5d99c72d24689d9bb9ee",
        32: "65b99412045b6f2bcb35b4f69ff30939100d08df6bf0acec4174a223f5d1a1e9",
        34: "7eddd2110d97910954302ff8e30b7af3254ac774b02ddf9f43d5fb2369609b29",
    }
    PLUS = {
        10: "bab9e3e33bec8530aac8b5a79a4033f46a5d4dc24af2db99bec5fddf37801c64",
        12: "a289720a256c9a04d9ba3553eaaf3574159bf0049bd149b7288b128e9669d4aa",
        14: "dd6701425e3494bb6579c2f249e1398fb763b1e720797357aece748d1937cabd",
        16: "295bc7ca44174b82d62abe1bc1bb57973ca7a9eb86b946df046c22088d606440",
    }

    @staticmethod
    def digest(lists):
        return hashlib.sha256(json.dumps([[str(c) for c in cs] for cs in lists]).encode()).hexdigest()

    def test_elliptic_eigenforms(self):
        for w, want in self.ELLIPTIC.items():
            # the oracle split stands in for the spaces that ``eigenforms`` refuses
            split = eigenforms if dim_cusp_forms(w) <= 1 else eigenforms_by_fractions
            assert self.digest([f.series.coeffs for f in split(w, 24)]) == want, w

    def test_plus_eigenforms(self):
        for k, want in self.PLUS.items():
            assert self.digest([g.series.coeffs for g, _ in plus_eigenforms(k, 200)]) == want, k
            if dim_cusp_forms(2 * k - 2) == 1:
                assert self.digest([g.series.coeffs for g in plus_space_basis(k, 200)]) == want, k
