import time
from fractions import Fraction

import pytest

from sklift.elliptic import (
    EllipticEigenform,
    delta,
    dim_cusp_forms,
    dim_modular_forms,
    eigenforms,
    eisenstein,
)
from sklift.errors import TruncationError, UnsupportedFieldError, UsageError
from sklift.numeric import QuadExt, int_if_integral
from sklift.qseries import QSeries

import oracles
from oracles import charpoly, cusp_basis_by_fractions, divisors, hecke_matrix, hecke_Tp, split_pair

# level-one cusp dimensions, frozen from the classical formula
KNOWN_CUSP_DIMS = {
    12: 1, 14: 0, 16: 1, 18: 1, 20: 1, 22: 1, 24: 2, 26: 1,
    28: 2, 30: 2, 32: 2, 34: 2, 36: 3, 38: 2, 40: 3,
}


def tau_oracle(n):
    """Discriminant-form coefficients by the classical divisor-sum recursion,
    fully independent of the eta-product route used in the package."""
    def sig(m):
        return sum(divisors(m))

    total = n**4 * sig(n)
    correction = 0
    for i in range(1, n):
        correction += i * i * (35 * i * i - 52 * i * n + 18 * n * n) * sig(i) * sig(n - i)
    return total - 24 * correction


class TestGenerators:
    def test_eisenstein_4(self):
        e4 = eisenstein(4, 8)
        assert e4.a(0) == 1
        assert e4.a(1) == 240
        assert e4.a(2) == 2160

    def test_eisenstein_6(self):
        e6 = eisenstein(6, 8)
        assert e6.a(0) == 1
        assert e6.a(1) == -504

    def test_eisenstein_rejects(self):
        with pytest.raises(UsageError):
            eisenstein(5, 8)
        with pytest.raises(UsageError):
            eisenstein(2, 8)

    def test_delta_refused_below_q1(self):
        with pytest.raises(UsageError, match="validity to at least q\\*\\*1"):
            delta(0)

    def test_delta_first_coefficients(self):
        d = delta(12)
        assert d.a(0) == 0 and d.a(1) == 1
        assert d.a(2) == -24
        assert d.a(3) == 252

    def test_delta_against_divisor_sum_oracle(self):
        d = delta(30)
        for n in range(1, 31):
            assert d.a(n) == tau_oracle(n), n

    def test_delta_matches_squaring_oracle(self):
        # eight sparse rounds of the cube of eta against three series squarings
        for prec in list(range(1, 130)) + [500, 1000]:
            got = delta(prec).series
            want = oracles.delta_by_squarings(prec)
            assert (got.prec, got.coeffs) == (want.prec, want.coeffs), prec
            assert {type(c) for c in got.coeffs} == {int}, prec


class TestBases:
    """The oracle cusp basis that ``TestIntegerSeed`` and ``TestClosedForm`` compare ``eigenforms`` with."""

    def test_dimensions_against_frozen_table(self):
        for w, dim in KNOWN_CUSP_DIMS.items():
            assert dim_cusp_forms(w) == dim, w
            assert len(cusp_basis_by_fractions(w, 24)) == dim, w
        assert dim_cusp_forms(10) == 0
        assert cusp_basis_by_fractions(10, 24) == []
        assert dim_modular_forms(12) == 2

    def test_weight18_head(self):
        f = cusp_basis_by_fractions(18, 10)[0]
        assert f.a(1) == 1 and f.a(2) == -528

    def test_weight30_echelon(self):
        basis = cusp_basis_by_fractions(30, 12)
        assert basis[0].a(1) == 1 and basis[0].a(2) == 0
        assert basis[1].a(1) == 0 and basis[1].a(2) == 1


class TestHecke:
    # the oracle operator on library forms: f18 and delta are eigenforms of T(2)
    def test_eigenform_scaling_weight18(self, f18):
        t2 = hecke_Tp(f18, 2)
        assert t2.series.coeffs == [-528 * c for c in f18.series.coeffs[: t2.series.prec + 1]]

    def test_delta_prime2(self):
        d = delta(24)
        t2 = hecke_Tp(d, 2)
        assert t2.series.coeffs == [-24 * c for c in d.series.coeffs[: t2.series.prec + 1]]

    def test_multiplicativity_prime_squares(self):
        # a(p^2) = a(p)^2 - p^(w-1) on eigenforms
        for w in (18, 22, 26):
            f = eigenforms(w, 40)[0]
            for p in (2, 3):
                assert f.a(p * p) == f.a(p) ** 2 - p ** (w - 1), (w, p)


class TestEigenforms:
    def test_dim_one_values(self, f18, f22):
        assert f18.a(2) == -528
        assert f22.a(2) == -288
        assert eigenforms(26, 16)[0].a(2) == -48

    @staticmethod
    def weight30_pair():
        # the oracle's cusp basis, split by its 2x2 eigen-split: the
        # dimension-two input that test_kohnen checks shimura_match on
        basis = [f.series for f in cusp_basis_by_fractions(30, 24)]
        return [EllipticEigenform(30, s) for _, s in split_pair(basis, hecke_matrix(30, 2, 24))]

    def test_weight30_quadratic_pair(self):
        pair = self.weight30_pair()
        assert len(pair) == 2
        vals = {f.a(2) for f in pair}
        assert len(vals) == 2
        for f in pair:
            a2 = f.a(2)
            assert isinstance(a2, QuadExt) and a2.d == 51349
        # conjugate pair: sum and product rational, matching the charpoly
        poly = charpoly(hecke_matrix(30, 2, 24))
        s = sum(f.a(2) for f in pair)
        pr = pair[0].a(2) * pair[1].a(2)
        assert s == -poly[1] and pr == poly[0]

    def test_weight30_eigenform_relation(self):
        for f in self.weight30_pair():
            assert f.a(4) == f.a(2) ** 2 - 2**29

    def test_degree_three_field_refused(self):
        with pytest.raises(UnsupportedFieldError):
            eigenforms(36, 40)

    @pytest.mark.parametrize("weight, dim", [(24, 2), (30, 2), (36, 3)])
    def test_past_dimension_one_refused(self, weight, dim):
        # every space past dimension one is refused, in one message shape
        with pytest.raises(UnsupportedFieldError) as info:
            eigenforms(weight, 40)
        assert str(info.value) == (
            f"weight {weight} has a {dim}-dimensional cusp space; "
            "eigenvalue fields beyond degree 1 are not supported"
        )

    def test_empty_space(self):
        assert eigenforms(14, 16) == []
        # an empty space is empty at any validity
        assert eigenforms(14, 0) == [] and eigenforms(10, 1) == [] and eigenforms(13, 16) == []

    def test_short_validity_refused(self):
        for weight in (12, 18, 26):
            for prec in (0, 1):
                with pytest.raises(TruncationError) as info:
                    eigenforms(weight, prec)
                assert str(info.value) == f"weight {weight} needs validity to q**2"

    def test_large_space_refused_before_any_series(self):
        # a 50-dimensional space is refused at once, whatever the validity
        start = time.perf_counter()
        for prec in (0, 1, 200, 10**6):
            with pytest.raises(UnsupportedFieldError, match="^weight 600 has a 50-dimensional cusp space;"):
                eigenforms(600, prec)
        assert time.perf_counter() - start < 1


def typed(forms):
    """Each form's weight, validity, field and coefficients, with the type of each coefficient."""
    return [
        (f.weight, f.series.prec, f.series.coeffs, list(map(type, f.series.coeffs)))
        for f in forms
    ]


def outcome(build, *args):
    try:
        return ("returned", typed(build(*args)))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


class TestIntegerSeed:
    """The integer Eisenstein series and cusp basis against the Fraction ones they replaced."""

    @pytest.mark.parametrize("weight", range(4, 42, 2))
    def test_eisenstein_matches_fraction_oracle(self, weight):
        got = eisenstein(weight, 24).series.coeffs
        want = oracles.eisenstein_by_fractions(weight, 24).coeffs
        assert got == want
        assert list(map(type, got)) == [type(int_if_integral(c)) for c in want]

    def test_eisenstein_in_ints_where_the_factor_is_integral(self):
        for weight in (4, 6, 8, 10, 14):
            assert {type(c) for c in eisenstein(weight, 30).series.coeffs} == {int}, weight
        assert Fraction in {type(c) for c in eisenstein(12, 30).series.coeffs}

    @pytest.mark.parametrize("prec", [16, 48])
    @pytest.mark.parametrize("weight", range(12, 42, 2))
    def test_cusp_basis_matches_fraction_oracle(self, weight, prec):
        # the oracle's staircase basis has the classical dimension, and where
        # it is one form, that form is the closed form Delta * E_(weight-12)
        basis = cusp_basis_by_fractions(weight, prec)
        assert len(basis) == dim_cusp_forms(weight)
        assert [[f.a(n) for n in range(1, len(basis) + 1)] for f in basis] == [
            [int(i == j) for j in range(len(basis))] for i in range(len(basis))
        ]
        if len(basis) == 1:
            assert typed(basis) == typed(eigenforms(weight, prec))

    @pytest.mark.parametrize("prec", [16, 48])
    @pytest.mark.parametrize("weight", range(12, 42, 2))
    def test_eigenforms_match_fraction_oracle(self, weight, prec):
        got = outcome(eigenforms, weight, prec)
        if dim_cusp_forms(weight) > 1:
            assert got[:2] == ("raised", UnsupportedFieldError)
            return
        assert got == outcome(oracles.eigenforms_by_fractions, weight, prec)
        # every weight with a lift (one-dimensional input space) is seeded in ints
        if dim_cusp_forms(weight) == 1:
            assert set(got[1][0][3]) == {int}

    def test_refusals_match_fraction_oracle(self):
        # a one-dimensional space at too short a validity is refused as the
        # oracle refuses it; a larger space is refused for its dimension
        # first, where the oracle asks for more validity
        for weight, prec in ((12, 0), (12, 1), (26, 1)):
            got = outcome(eigenforms, weight, prec)
            assert got[:2] == ("raised", TruncationError)
            assert got == outcome(cusp_basis_by_fractions, weight, prec)
        for weight, prec in ((24, 2), (36, 3)):
            assert outcome(eigenforms, weight, prec)[:2] == ("raised", UnsupportedFieldError)
            assert outcome(cusp_basis_by_fractions, weight, prec)[:2] == ("raised", TruncationError)


class TestClosedForm:
    """The eigenform Delta * E_(w-12) against the oracle's monomial basis, at every one-dimensional weight."""

    @pytest.mark.parametrize("weight", [12, 16, 18, 20, 22, 26])
    def test_matches_oracle_basis(self, weight):
        # the oracle's normalized form does not depend on its validity, so
        # one long oracle form, cut to each validity, stands in for the
        # oracle at every validity; the cut is checked at a few of them
        long = cusp_basis_by_fractions(weight, 1000)
        for prec in [2, 3, 16, 200, 500]:
            assert typed(cusp_basis_by_fractions(weight, prec)) == typed(
                [type(f)(weight, QSeries(f.series.coeffs, prec)) for f in long]
            ), prec
        for prec in list(range(2, 201)) + [500, 1000]:
            want = [EllipticEigenform(weight, QSeries(f.series.coeffs, prec)) for f in long]
            got = eigenforms(weight, prec)
            assert typed(got) == typed(want), prec
            assert list(map(type, got)) == [EllipticEigenform], prec
