import pytest

from sklift.errors import TruncationError, UsageError
from sklift.jacobi import JacobiForm

from oracles import jacobi_coeff, plus_form_from_jacobi


class TestEZLift:
    def test_reindexing_identities(self, plus10, jacobi10):
        # c(n, r) reads the plus-space coefficient at 4n - r*r
        assert jacobi_coeff(jacobi10, 1, 1) == plus10.c(3)
        assert jacobi_coeff(jacobi10, 2, 1) == plus10.c(7)
        assert jacobi_coeff(jacobi10, 1, 0) == plus10.c(4)

    def test_roundtrip_reproduces_coefficients(self, plus10, jacobi10):
        back = plus_form_from_jacobi(jacobi10)
        assert back.series == plus10.series

    def test_weight_and_index_carried(self, jacobi10, jacobi12):
        assert jacobi10.weight == 10
        assert jacobi12.weight == 12
        assert jacobi10.index == 1


class TestCoefficientAccess:
    def test_sign_symmetry(self, jacobi10):
        for n in range(1, 8):
            for r in range(-5, 6):
                if 4 * n - r * r > 0:
                    assert jacobi_coeff(jacobi10, n, r) == jacobi_coeff(jacobi10, n, -r)

    def test_discriminant_dependence(self, jacobi10):
        # same discriminant, same value
        assert jacobi_coeff(jacobi10, 3, 3) == jacobi_coeff(jacobi10, 1, 1)  # both 4n - r^2 = 3
        assert jacobi_coeff(jacobi10, 5, 4) == jacobi_coeff(jacobi10, 1, 0)  # both 4

    def test_cuspidal_zero_at_nonpositive_disc(self, jacobi10):
        assert jacobi_coeff(jacobi10, 1, 2) == 0  # disc 0
        assert jacobi_coeff(jacobi10, 1, 3) == 0  # disc -5

    def test_out_of_range_reports_requirement(self, jacobi10):
        big_n = jacobi10.max_disc
        with pytest.raises(TruncationError) as err:
            jacobi_coeff(jacobi10, big_n, 1)
        assert str(err.value) == f"coefficient at discriminant {4 * big_n - 1} beyond tabulated range {big_n}"

    def test_bad_table_keys_rejected(self):
        with pytest.raises(UsageError):
            JacobiForm(10, {2: 1}, 10)  # 2 is not 0 or 3 mod 4
        with pytest.raises(UsageError):
            JacobiForm(10, {-3: 1}, 10)
        with pytest.raises(UsageError):
            JacobiForm(10, {12: 1}, 10)  # beyond claimed range

    def test_nonzero_head(self, jacobi10):
        assert jacobi_coeff(jacobi10, 1, 1) != 0
