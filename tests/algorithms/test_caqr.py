"""Tests for the QR family: 2.5D CAQR and the 2D Householder baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import factor
from repro.models.costmodels import caqr25d_total_bytes, qr2d_total_bytes


def _rand(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n, n))


class TestCaqr25D:
    @pytest.mark.parametrize(
        "g,c,v,n",
        [
            (1, 1, 4, 16),
            (2, 1, 4, 16),
            (1, 2, 4, 16),
            (2, 2, 4, 32),
            (2, 2, 2, 32),
            (2, 4, 4, 32),
            (2, 2, 4, 30),  # short last row/column block
            (3, 3, 5, 30),
        ],
    )
    def test_residual_and_orthogonality_machine_precision(self, g, c, v, n):
        res = factor("caqr25d", _rand(n, seed=g + c), g * g * c,
                     grid=(g, g, c), v=v)
        assert res.residual < 1e-12
        assert res.meta["orthogonality"] < 1e-12

    def test_r_upper_triangular_and_matches_numpy(self):
        a = _rand(32, seed=3)
        res = factor("caqr25d", a, 8, grid=(2, 2, 2), v=4)
        np.testing.assert_array_equal(np.tril(res.upper, -1), 0.0)
        r_ref = np.linalg.qr(a, mode="r")
        np.testing.assert_allclose(
            np.abs(res.upper), np.abs(r_ref), atol=1e-10
        )

    def test_identity_permutation(self):
        res = factor("caqr25d", _rand(16, seed=4), 4, grid=(2, 2, 1), v=4)
        np.testing.assert_array_equal(res.perm, np.arange(16))

    def test_q_is_square_orthogonal(self):
        res = factor("caqr25d", _rand(24, seed=5), 4, grid=(2, 2, 1), v=4)
        assert res.lower.shape == (24, 24)
        np.testing.assert_allclose(
            res.lower.T @ res.lower, np.eye(24), atol=1e-12
        )

    def test_single_rank_zero_volume(self):
        res = factor("caqr25d", _rand(12, seed=6), 1, grid=(1, 1, 1), v=4)
        assert res.volume.total_bytes == 0

    def test_measured_volume_matches_model(self):
        """The per-step model predicts the ledger within a few percent
        (the Table 2 'prediction %' discipline, carried to QR)."""
        for g, c, v, n in [(2, 2, 4, 64), (4, 1, 4, 64), (2, 4, 4, 64)]:
            res = factor("caqr25d", _rand(n, seed=7), g * g * c,
                         grid=(g, g, c), v=v)
            model = caqr25d_total_bytes(n, g * g * c, c=c, v=v,
                                        grid_rows=g)
            assert 0.97 < res.volume.total_bytes / model < 1.03

    def test_phase_ledger_has_qr_phases(self):
        res = factor("caqr25d", _rand(32, seed=8), 8, grid=(2, 2, 2), v=4)
        assert {"tsqr_tree", "panel_bcast", "tree_apply"} <= set(
            res.volume.phase_bytes
        )
        # The reflector fan-out dominates, as in the model.
        assert res.volume.phase_bytes["panel_bcast"] == max(
            res.volume.phase_bytes.values()
        )

    def test_auto_grid(self):
        res = factor("caqr25d", _rand(32, seed=9), 4)
        assert res.residual < 1e-12

    def test_nonsquare_grid_rejected(self):
        with pytest.raises(ValueError, match="square"):
            factor("caqr25d", _rand(16), 8, grid=(2, 4, 1))

    def test_oversized_grid_rejected(self):
        with pytest.raises(ValueError, match="ranks"):
            factor("caqr25d", _rand(16), 4, grid=(2, 2, 2))

    def test_rectangular_input_rejected(self):
        with pytest.raises(ValueError, match="square"):
            factor("caqr25d", np.zeros((4, 6)), 4)

    @settings(max_examples=6, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_matrices(self, n, seed):
        res = factor("caqr25d", _rand(n, seed=seed), 8, grid=(2, 2, 2), v=4)
        assert res.residual < 1e-11
        assert res.meta["orthogonality"] < 1e-11


class TestQr2D:
    @pytest.mark.parametrize(
        "pr,pc,nb,n",
        [
            (1, 1, 4, 16),
            (2, 2, 4, 32),
            (2, 2, 4, 30),
            (4, 2, 8, 32),
            (3, 3, 5, 30),
            (1, 4, 4, 16),
        ],
    )
    def test_residual_and_orthogonality_machine_precision(
        self, pr, pc, nb, n
    ):
        res = factor("qr2d", _rand(n, seed=pr + pc), pr * pc,
                     grid=(pr, pc), nb=nb)
        assert res.residual < 1e-12
        assert res.meta["orthogonality"] < 1e-12

    def test_matches_numpy_r(self):
        a = _rand(32, seed=11)
        res = factor("qr2d", a, 4, grid=(2, 2), nb=8)
        r_ref = np.linalg.qr(a, mode="r")
        np.testing.assert_allclose(
            np.abs(res.upper), np.abs(r_ref), atol=1e-10
        )

    def test_measured_volume_matches_model(self):
        for pr, pc, nb, n in [(2, 2, 4, 64), (4, 2, 8, 64), (4, 4, 8, 64)]:
            res = factor("qr2d", _rand(n, seed=12), pr * pc,
                         grid=(pr, pc), nb=nb)
            model = qr2d_total_bytes(n, pr * pc, nb=nb, grid=(pr, pc))
            assert 0.95 < res.volume.total_bytes / model < 1.06

    def test_single_rank_zero_volume(self):
        res = factor("qr2d", _rand(12, seed=13), 1, grid=(1, 1), nb=4)
        assert res.volume.total_bytes == 0

    def test_bad_block_rejected(self):
        with pytest.raises(ValueError, match="nb"):
            factor("qr2d", _rand(8), 4, nb=0)

    def test_oversized_grid_rejected(self):
        with pytest.raises(ValueError, match="ranks"):
            factor("qr2d", _rand(8), 2, grid=(2, 2))


class TestCrossAlgorithm:
    def test_caqr_and_qr2d_agree_up_to_signs(self):
        a = _rand(32, seed=14)
        caqr = factor("caqr25d", a, 8, grid=(2, 2, 2), v=4)
        qr2d = factor("qr2d", a, 4, grid=(2, 2), nb=4)
        np.testing.assert_allclose(
            np.abs(caqr.upper), np.abs(qr2d.upper), atol=1e-10
        )

    def test_grid_optimized_caqr_beats_2d_at_equal_offered_ranks(self):
        """16 offered ranks: the [2, 2, 2] CAQR grid (8 active) moves
        fewer bytes than the all-16-rank 2D Householder baseline."""
        a = _rand(64, seed=15)
        caqr = factor("caqr25d", a, 16, grid=(2, 2, 2), v=4)
        qr2d = factor("qr2d", a, 16, grid=(4, 4), nb=4)
        assert caqr.volume.total_bytes < qr2d.volume.total_bytes
