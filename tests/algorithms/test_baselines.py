"""Correctness tests for the baseline implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import REGISTRY, factor


def _mat(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, n))


class TestScalapack2D:
    @pytest.mark.parametrize(
        "pr,pc,nb,n",
        [
            (1, 1, 4, 16),
            (2, 2, 4, 16),
            (2, 2, 4, 32),
            (2, 4, 8, 32),
            (4, 2, 3, 30),
            (1, 4, 8, 32),
            (3, 3, 5, 27),
        ],
    )
    def test_residual(self, pr, pc, nb, n):
        res = factor("scalapack2d", _mat(n, seed=pr * 10 + pc), pr * pc,
                     grid=(pr, pc), nb=nb)
        assert res.residual < 1e-12

    def test_pivots_match_lapack_exactly(self):
        """2D GEPP performs textbook partial pivoting: the permutation
        must equal LAPACK's for the same matrix."""
        import scipy.linalg

        a = _mat(32, seed=3)
        res = factor("scalapack2d", a, 4, grid=(2, 2), nb=8)
        _, lapack_piv = scipy.linalg.lu_factor(a)
        from repro.kernels.linalg import permutation_from_pivots

        np.testing.assert_array_equal(
            res.perm, permutation_from_pivots(lapack_piv)
        )

    def test_factors_match_sequential_blocked(self):
        from repro.kernels.lu_seq import lu_blocked_partial_pivot, split_lu

        a = _mat(24, seed=4)
        res = factor("scalapack2d", a, 4, grid=(2, 2), nb=4)
        lu, _ = lu_blocked_partial_pivot(a, block=4)
        lower, upper = split_lu(lu)
        np.testing.assert_allclose(res.lower, lower, atol=1e-10)
        np.testing.assert_allclose(res.upper, upper, atol=1e-10)

    def test_zero_pivot_column_handled(self):
        a = _mat(16, seed=5)
        a[:, 0] = 0.0  # singular first column
        res = factor("scalapack2d", a, 4, grid=(2, 2), nb=4)
        assert res.residual < 1e-12

    def test_needs_pivoting(self):
        a = _mat(16, seed=6)
        a[0, 0] = 0.0
        res = factor("scalapack2d", a, 4, grid=(2, 2), nb=4)
        assert res.residual < 1e-12

    def test_single_rank_zero_volume(self):
        res = factor("scalapack2d", _mat(16), 1, grid=(1, 1), nb=4)
        assert res.volume.total_bytes == 0

    def test_default_grid_is_nearly_square(self):
        res = factor("scalapack2d", _mat(16, seed=7), 6, nb=4)
        assert res.grid in [(2, 3), (3, 2)]
        assert res.residual < 1e-12

    def test_bad_nb_rejected(self):
        with pytest.raises(ValueError):
            factor("scalapack2d", _mat(8), 1, nb=0)

    def test_oversized_grid_rejected(self):
        with pytest.raises(ValueError, match="ranks"):
            factor("scalapack2d", _mat(8), 2, grid=(2, 2))


class TestSlate2D:
    def test_residual(self):
        res = factor("slate2d", _mat(32, seed=8), 4)
        assert res.residual < 1e-12
        assert res.block == 16  # SLATE default, no user tuning

    def test_tall_grid_preference(self):
        res = factor("slate2d", _mat(24, seed=9), 8, nb=4)
        pr, pc = res.grid
        assert pr >= pc  # SLATE-ish: tall rather than wide

    def test_volume_similar_to_scalapack(self):
        """The paper: "their communication volumes are mostly equal"."""
        a = _mat(64, seed=10)
        r1 = factor("scalapack2d", a, 4, grid=(2, 2), nb=16)
        r2 = factor("slate2d", a, 4, grid=(2, 2), nb=16)
        assert r1.volume.total_bytes == r2.volume.total_bytes


class TestCandmc25D:
    @pytest.mark.parametrize(
        "g,c,v,n",
        [
            (1, 1, 4, 16),
            (2, 1, 4, 16),
            (1, 2, 4, 16),
            (2, 2, 4, 32),
            (2, 4, 4, 32),
            (2, 2, 6, 30),
        ],
    )
    def test_residual(self, g, c, v, n):
        res = factor("candmc25d", _mat(n, seed=g + 10 * c), g * g * c,
                     grid=(g, g, c), v=v)
        assert res.residual < 1e-12

    def test_row_swapping_costs_more_than_masking(self):
        """The paper's design argument (Section 7.3): swapping on a
        replicated layout beats masking's O(v) index traffic."""
        a = _mat(64, seed=11)
        masked = factor("conflux", a, 8, grid=(2, 2, 2), v=8)
        swapped = factor("candmc25d", a, 8, grid=(2, 2, 2), v=8)
        assert swapped.volume.total_bytes > masked.volume.total_bytes
        assert "row_swap" in swapped.volume.phase_bytes
        assert "row_swap" not in masked.volume.phase_bytes

    def test_full_width_panels_scale_with_c(self):
        """panel_a10 traffic should be ~c x COnfLUX's."""
        a = _mat(64, seed=12)
        c = 4
        masked = factor("conflux", a, 16, grid=(2, 2, c), v=8)
        swapped = factor("candmc25d", a, 16, grid=(2, 2, c), v=8)
        ratio = (
            swapped.volume.phase_bytes["panel_a10"]
            / masked.volume.phase_bytes["panel_a10"]
        )
        assert ratio == pytest.approx(c, rel=0.05)

    def test_matches_own_cost_model(self):
        from repro.models.costmodels import candmc_sim_total_bytes

        n, g, c, v = 96, 2, 2, 8
        res = factor(
            "candmc25d", _mat(n, seed=13), g * g * c, grid=(g, g, c), v=v
        )
        model = candmc_sim_total_bytes(n, g * g * c, c=c, v=v, grid_rows=g)
        assert 0.8 <= res.volume.total_bytes / model <= 1.1


class TestRegistry:
    def test_all_implementations_registered(self):
        assert set(REGISTRY) == {
            "conflux",
            "scalapack2d",
            "slate2d",
            "candmc25d",
            "cholesky25d",
            "caqr25d",
            "confqr",
            "qr2d",
        }

    @pytest.mark.parametrize(
        "name", ["conflux", "scalapack2d", "slate2d", "candmc25d"]
    )
    def test_dispatch_by_name(self, name):
        res = factor(name, _mat(16, seed=14), 4)
        assert res.name == name
        assert res.residual < 1e-12

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown"):
            factor("mkl", _mat(8), 1)


class TestCrossImplementationAgreement:
    """All four implementations factor the same matrix correctly; their
    L U products (after undoing each one's permutation) must rebuild the
    same A."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_all_rebuild_same_matrix(self, seed):
        a = _mat(24, seed=seed)
        for name in ("conflux", "scalapack2d", "slate2d", "candmc25d"):
            res = factor(name, a, 4)
            rebuilt = res.lower @ res.upper
            np.testing.assert_allclose(
                rebuilt, a[res.perm], atol=1e-9,
                err_msg=f"{name} failed to rebuild A",
            )
