"""Tests for closed-form bounds (paper Section 6 expressions)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.theory.bounds import (
    cholesky_io_lower_bound,
    conflux_gap_over_lower_bound,
    conflux_io_cost,
    lu_io_lower_bound,
    lu_parallel_lower_bound,
    lu_parallel_lower_bound_leading,
    lu_s1_lower_bound,
    lu_s2_lower_bound,
    mmm_io_lower_bound,
    mmm_parallel_lower_bound,
)


class TestLUBounds:
    def test_s1_formula(self):
        assert lu_s1_lower_bound(10) == 45.0
        assert lu_s1_lower_bound(1) == 0.0

    def test_s2_formula(self):
        n, m = 100, 64.0
        expected = (2 * n**3 - 6 * n**2 + 4 * n) / (3 * math.sqrt(m))
        assert lu_s2_lower_bound(n, m) == pytest.approx(expected)

    def test_s2_never_negative_for_tiny_n(self):
        assert lu_s2_lower_bound(1, 16.0) == 0.0

    def test_total_is_sum_of_statement_bounds(self):
        n, m = 64, 256.0
        assert lu_io_lower_bound(n, m) == pytest.approx(
            lu_s1_lower_bound(n) + lu_s2_lower_bound(n, m)
        )

    def test_parallel_divides_by_p(self):
        n, m, p = 128, 256.0, 8
        assert lu_parallel_lower_bound(n, m, p) == pytest.approx(
            lu_io_lower_bound(n, m) / p
        )

    def test_leading_term(self):
        n, m, p = 4096, 1024.0, 64
        assert lu_parallel_lower_bound_leading(n, m, p) == pytest.approx(
            2 * n**3 / (3 * p * math.sqrt(m))
        )

    def test_leading_term_dominates_for_large_n(self):
        n, m, p = 16384, 1_048_576.0, 64
        full = lu_parallel_lower_bound(n, m, p)
        leading = lu_parallel_lower_bound_leading(n, m, p)
        assert full == pytest.approx(leading, rel=0.05)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_n_rejected(self, bad):
        with pytest.raises(ValueError):
            lu_io_lower_bound(bad, 64.0)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            lu_io_lower_bound(64, 0.0)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            lu_parallel_lower_bound(64, 64.0, 0)


class TestMMMCholesky:
    def test_mmm_formula(self):
        assert mmm_io_lower_bound(100, 100.0) == pytest.approx(
            2e6 / 10.0
        )

    def test_mmm_parallel(self):
        assert mmm_parallel_lower_bound(100, 100.0, 4) == pytest.approx(
            mmm_io_lower_bound(100, 100.0) / 4
        )

    def test_cholesky_is_sixth_of_cube_times_2_over_sqrt_m(self):
        n, m = 300, 900.0
        assert cholesky_io_lower_bound(n, m) == pytest.approx(
            n**3 / (3 * 30.0)
        )


class TestConfluxGap:
    """The headline claim: COnfLUX sits 1/3 above the lower bound."""

    @pytest.mark.parametrize(
        "n,m,p",
        [(4096, 1024.0, 64), (16384, 1_048_576.0, 1024), (512, 256.0, 8)],
    )
    def test_gap_is_exactly_three_halves(self, n, m, p):
        assert conflux_gap_over_lower_bound(n, m, p) == pytest.approx(1.5)

    def test_conflux_cost_leading_term(self):
        n, m, p = 4096, 1_048_576.0, 64
        assert conflux_io_cost(n, m, p) == pytest.approx(
            n**3 / (p * math.sqrt(m))
        )


class TestScalingProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=10_000),
        m=st.floats(min_value=4.0, max_value=1e7),
        p=st.integers(min_value=1, max_value=100_000),
    )
    def test_bound_nonnegative(self, n, m, p):
        assert lu_parallel_lower_bound(n, m, p) >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=16, max_value=5_000),
        m=st.floats(min_value=16.0, max_value=1e6),
    )
    def test_more_memory_never_raises_bound(self, n, m):
        assert lu_io_lower_bound(n, 2 * m) <= lu_io_lower_bound(n, m) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=16, max_value=5_000),
        m=st.floats(min_value=16.0, max_value=1e6),
        p=st.integers(min_value=1, max_value=4_096),
    )
    def test_conflux_always_above_bound(self, n, m, p):
        """COnfLUX's leading cost can never dip below the leading lower
        bound — sanity for all parameter combinations."""
        assert (
            conflux_io_cost(n, m, p)
            >= lu_parallel_lower_bound_leading(n, m, p) - 1e-9
        )

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=16, max_value=2_000),
        m=st.floats(min_value=16.0, max_value=1e5),
    )
    def test_doubling_p_halves_parallel_bound(self, n, m):
        q1 = lu_parallel_lower_bound(n, m, 7)
        q2 = lu_parallel_lower_bound(n, m, 14)
        assert q2 == pytest.approx(q1 / 2.0)


class TestQrBound:
    """The QR I/O lower bound (4 N^3 / (3 sqrt(M)) and its parallel
    form) sits in fixed ratios to the LU and Cholesky bounds."""

    def test_twice_lu_s2(self):
        from repro.theory.bounds import qr_io_lower_bound

        n, m = 4096, 1 << 20
        # Twice LU's leading Schur term (two multiplications per wedge
        # point), exactly in the leading order.
        assert qr_io_lower_bound(n, m) == pytest.approx(
            4.0 * n**3 / (3.0 * math.sqrt(m))
        )
        assert qr_io_lower_bound(n, m) == pytest.approx(
            4.0 * cholesky_io_lower_bound(n, m)
        )

    def test_parallel_divides_by_p(self):
        from repro.theory.bounds import (
            qr_io_lower_bound,
            qr_parallel_lower_bound,
        )

        n, m = 1024, 1 << 16
        assert qr_parallel_lower_bound(n, m, 64) == pytest.approx(
            qr_io_lower_bound(n, m) / 64
        )

    def test_validation(self):
        from repro.theory.bounds import (
            qr_io_lower_bound,
            qr_parallel_lower_bound,
        )

        with pytest.raises(ValueError):
            qr_io_lower_bound(0, 16)
        with pytest.raises(ValueError):
            qr_io_lower_bound(16, 0.5)
        with pytest.raises(ValueError):
            qr_parallel_lower_bound(16, 16, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=16, max_value=5_000),
        m=st.floats(min_value=16.0, max_value=1e6),
    )
    def test_more_memory_never_raises_qr_bound(self, n, m):
        from repro.theory.bounds import qr_io_lower_bound

        assert qr_io_lower_bound(n, 2 * m) <= qr_io_lower_bound(n, m) + 1e-9
