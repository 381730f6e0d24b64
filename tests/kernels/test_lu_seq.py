"""Tests for sequential LU kernels."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    lu_blocked_partial_pivot,
    lu_nopivot,
    lu_partial_pivot,
    lu_residual,
    permutation_from_pivots,
    split_lu,
    trsm_lower_unit,
    trsm_upper,
)


def _random_matrix(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n))


def _diag_dominant(n: int, seed: int = 0) -> np.ndarray:
    a = _random_matrix(n, seed)
    a += n * np.eye(n)
    return a


class TestLuNoPivot:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_reconstructs_diag_dominant(self, n):
        a = _diag_dominant(n)
        lu = lu_nopivot(a)
        lower, upper = split_lu(lu)
        assert lu_residual(a, lower, upper) < 1e-12

    def test_zero_pivot_raises(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ZeroDivisionError):
            lu_nopivot(a)

    def test_does_not_mutate_input_by_default(self):
        a = _diag_dominant(6)
        a0 = a.copy()
        lu_nopivot(a)
        np.testing.assert_array_equal(a, a0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            lu_nopivot(np.zeros((3, 4)))

    def test_matches_scipy_on_no_pivot_needed(self):
        """For matrices where scipy chooses the identity permutation the
        factors must coincide."""
        a = _diag_dominant(8, seed=3)
        p, l, u = scipy.linalg.lu(a)
        if np.allclose(p, np.eye(8)):
            lower, upper = split_lu(lu_nopivot(a))
            np.testing.assert_allclose(lower, l, atol=1e-10)
            np.testing.assert_allclose(upper, u, atol=1e-10)


class TestLuPartialPivot:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 50])
    def test_pa_equals_lu(self, n):
        a = _random_matrix(n, seed=n)
        lu, piv = lu_partial_pivot(a)
        lower, upper = split_lu(lu)
        perm = permutation_from_pivots(piv)
        assert lu_residual(a, lower, upper, perm) < 1e-12

    def test_handles_zero_leading_pivot(self):
        a = np.array([[0.0, 2.0], [3.0, 1.0]])
        lu, piv = lu_partial_pivot(a)
        lower, upper = split_lu(lu)
        perm = permutation_from_pivots(piv)
        assert lu_residual(a, lower, upper, perm) < 1e-14

    def test_pivots_match_lapack(self):
        a = _random_matrix(12, seed=7)
        _, piv = lu_partial_pivot(a)
        lapack_lu, lapack_piv = scipy.linalg.lu_factor(a)
        np.testing.assert_array_equal(piv, lapack_piv)

    def test_factors_match_lapack(self):
        a = _random_matrix(12, seed=9)
        lu, _ = lu_partial_pivot(a)
        lapack_lu, _ = scipy.linalg.lu_factor(a)
        np.testing.assert_allclose(lu, lapack_lu, atol=1e-10)

    def test_singular_matrix_completes(self):
        a = np.ones((4, 4))
        lu, piv = lu_partial_pivot(a)
        lower, upper = split_lu(lu)
        perm = permutation_from_pivots(piv)
        assert lu_residual(a, lower, upper, perm) < 1e-14


class TestLuBlocked:
    @pytest.mark.parametrize("n,b", [(8, 2), (16, 4), (17, 4), (32, 8),
                                     (33, 16), (10, 64)])
    def test_pa_equals_lu(self, n, b):
        a = _random_matrix(n, seed=n * 7 + b)
        lu, piv = lu_blocked_partial_pivot(a, block=b)
        lower, upper = split_lu(lu)
        perm = permutation_from_pivots(piv)
        assert lu_residual(a, lower, upper, perm) < 1e-12

    @pytest.mark.parametrize("b", [1, 3, 5, 8])
    def test_blocked_matches_unblocked(self, b):
        a = _random_matrix(13, seed=11)
        lu_b, piv_b = lu_blocked_partial_pivot(a, block=b)
        lu_u, piv_u = lu_partial_pivot(a)
        np.testing.assert_allclose(lu_b, lu_u, atol=1e-10)
        np.testing.assert_array_equal(piv_b, piv_u)

    def test_bad_block_rejected(self):
        with pytest.raises(ValueError):
            lu_blocked_partial_pivot(np.eye(4), block=0)


class TestHelpers:
    def test_split_lu_unit_diagonal(self):
        lu = np.arange(1.0, 10.0).reshape(3, 3)
        lower, upper = split_lu(lu)
        np.testing.assert_array_equal(np.diag(lower), np.ones(3))
        assert upper[1, 0] == 0.0
        assert lower[0, 1] == 0.0

    def test_trsm_lower_unit(self):
        a = _diag_dominant(7, seed=2)
        lu = lu_nopivot(a)
        lower, upper = split_lu(lu)
        rng = np.random.default_rng(0)
        b = rng.standard_normal((7, 4))
        x = trsm_lower_unit(lu, b)  # combined storage: diag ignored
        np.testing.assert_allclose(lower @ x, b, atol=1e-10)

    def test_trsm_upper_right(self):
        a = _diag_dominant(6, seed=4)
        _, upper = split_lu(lu_nopivot(a))
        rng = np.random.default_rng(1)
        b = rng.standard_normal((3, 6))
        x = trsm_upper(upper, b, side="right")
        np.testing.assert_allclose(x @ upper, b, atol=1e-10)

    def test_trsm_upper_left(self):
        a = _diag_dominant(6, seed=4)
        _, upper = split_lu(lu_nopivot(a))
        b = np.random.default_rng(2).standard_normal((6, 2))
        x = trsm_upper(upper, b, side="left")
        np.testing.assert_allclose(upper @ x, b, atol=1e-10)

    def test_trsm_bad_side(self):
        with pytest.raises(ValueError):
            trsm_upper(np.eye(2), np.eye(2), side="diagonal")

    def test_residual_zero_matrix(self):
        z = np.zeros((3, 3))
        assert lu_residual(z, np.eye(3), z) == 0.0


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_gepp_residual_small_on_random(self, n, seed):
        a = _random_matrix(n, seed)
        lu, piv = lu_partial_pivot(a)
        lower, upper = split_lu(lu)
        perm = permutation_from_pivots(piv)
        assert lu_residual(a, lower, upper, perm) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_l_unit_lower_u_upper(self, n, seed):
        a = _random_matrix(n, seed)
        lu, _ = lu_partial_pivot(a)
        lower, upper = split_lu(lu)
        assert np.all(np.triu(lower, 1) == 0)
        assert np.all(np.tril(upper, -1) == 0)
        np.testing.assert_array_equal(np.diag(lower), np.ones(n))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_gepp_multipliers_bounded_by_one(self, n, seed):
        """Partial pivoting guarantees |L| <= 1."""
        a = _random_matrix(n, seed)
        lu, _ = lu_partial_pivot(a)
        lower, _ = split_lu(lu)
        assert np.max(np.abs(lower)) <= 1.0 + 1e-12
