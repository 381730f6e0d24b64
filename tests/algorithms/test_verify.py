"""Tests for invariant-reporting factor verification (base.py)."""

import numpy as np
import pytest

from repro.algorithms.base import (
    FactorVerificationError,
    check_factors,
    verify_factors,
    verify_qr_factors,
)
from repro.kernels import lu_partial_pivot, permutation_from_pivots, split_lu


def _good_factors(n=8, seed=0):
    a = np.random.default_rng(seed).standard_normal((n, n))
    lu, piv = lu_partial_pivot(a)
    lower, upper = split_lu(lu)
    perm = permutation_from_pivots(piv, n)
    return a, lower, upper, perm


class TestCheckFactors:
    def test_good_factors_pass(self):
        a, lower, upper, perm = _good_factors()
        chk = check_factors(a, lower, upper, perm, residual_tol=1e-10)
        assert chk.ok
        assert chk.failed == ()
        assert chk.residual < 1e-12
        assert chk.describe().startswith("ok")

    def test_invalid_permutation_named(self):
        a, lower, upper, perm = _good_factors()
        perm = perm.copy()
        perm[0] = perm[1]  # duplicate entry: not a permutation
        chk = check_factors(a, lower, upper, perm)
        assert not chk.ok
        assert chk.failed[0][0] == "permutation"

    def test_non_unit_lower_named(self):
        a, lower, upper, perm = _good_factors()
        bad = lower.copy()
        bad[0, 0] = 2.0
        chk = check_factors(a, bad, upper, perm)
        assert chk.failed[0][0] == "lower_triangular"

    def test_above_diagonal_mass_in_lower_named(self):
        a, lower, upper, perm = _good_factors()
        bad = lower.copy()
        bad[0, 5] = 1.0
        chk = check_factors(a, bad, upper, perm)
        assert chk.failed[0][0] == "lower_triangular"

    def test_below_diagonal_mass_in_upper_named(self):
        a, lower, upper, perm = _good_factors()
        bad = upper.copy()
        bad[5, 0] = 1.0
        chk = check_factors(a, lower, bad, perm)
        assert chk.failed[0][0] == "upper_triangular"

    def test_residual_violation_named(self):
        a, lower, upper, perm = _good_factors()
        chk = check_factors(a, lower, upper * 1.5, perm,
                            residual_tol=1e-10)
        assert chk.failed[0][0] == "residual"
        assert "FAILED" in chk.describe()

    @pytest.mark.parametrize(
        "factor, where, invariant",
        [
            ("lower", (0, 5), "lower_triangular"),
            ("lower", (3, 3), "lower_triangular"),
            ("upper", (5, 0), "upper_triangular"),
            ("lower", (5, 0), "residual"),
            ("upper", (0, 5), "residual"),
        ],
        ids=["above-L", "diag-L", "below-U", "inside-L", "inside-U"],
    )
    def test_nan_fails_the_check_it_sits_in(self, factor, where, invariant):
        """A NaN compares false against every tolerance, both ways."""
        a, lower, upper, perm = _good_factors()
        factors = {"lower": lower.copy(), "upper": upper.copy()}
        factors[factor][where] = np.nan
        chk = check_factors(
            a, factors["lower"], factors["upper"], perm, residual_tol=1e-10
        )
        assert chk.failed[0][0] == invariant
        assert chk.failed[-1][0] == "residual" and np.isnan(chk.residual)
        with pytest.raises(FactorVerificationError, match=invariant):
            chk.raise_if_failed()

    def test_shape_mismatch_raises_immediately(self):
        a, lower, upper, perm = _good_factors()
        with pytest.raises(FactorVerificationError) as ei:
            check_factors(a, lower[:4], upper, perm)
        assert ei.value.invariant == "shape"


class TestVerifyFactors:
    def test_returns_residual_for_good_factors(self):
        a, lower, upper, perm = _good_factors(seed=1)
        assert verify_factors(a, lower, upper, perm) < 1e-12

    def test_raises_naming_first_invariant(self):
        a, lower, upper, perm = _good_factors(seed=2)
        with pytest.raises(FactorVerificationError, match="permutation"):
            verify_factors(a, lower, upper, np.zeros_like(perm))

    def test_out_of_range_perm_does_not_crash(self):
        a, lower, upper, perm = _good_factors(seed=3)
        bad = perm.copy()
        bad[0] = 999
        with pytest.raises(FactorVerificationError, match="permutation"):
            verify_factors(a, lower, upper, bad)

    def test_residual_tolerance_enforced(self):
        """``verify_factors`` reports the residual; bounding it is
        ``check_factors(residual_tol=)``'s job."""
        a, lower, upper, perm = _good_factors(seed=4)
        assert verify_factors(a, lower, upper * 2.0, perm) > 1e-10
        chk = check_factors(a, lower, upper * 2.0, perm, residual_tol=1e-10)
        with pytest.raises(FactorVerificationError, match="residual"):
            chk.raise_if_failed()


class TestVerifyQrFactors:
    def test_good_qr(self):
        a = np.random.default_rng(5).standard_normal((10, 10))
        q, r = np.linalg.qr(a)
        residual, orth = verify_qr_factors(a, q, np.triu(r))
        assert residual < 1e-14
        assert orth < 1e-14

    def test_shape_mismatch_named(self):
        a = np.eye(6)
        with pytest.raises(FactorVerificationError) as ei:
            verify_qr_factors(a, np.eye(6)[:, :3], np.eye(6))
        assert ei.value.invariant == "shape"

    def test_non_triangular_r_named(self):
        a = np.random.default_rng(6).standard_normal((8, 8))
        q, r = np.linalg.qr(a)
        r = np.triu(r)
        r[5, 0] = 1.0
        with pytest.raises(
            FactorVerificationError, match="upper_triangular"
        ):
            verify_qr_factors(a, q, r)

    def test_reports_orthogonality_defect(self):
        a = np.random.default_rng(7).standard_normal((8, 8))
        q, r = np.linalg.qr(a)
        _, orth = verify_qr_factors(a, q * 1.01, np.triu(r))
        assert orth > 1e-3
