"""Tests for the future-work extensions: 2.5D Cholesky and 2.5D MMM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import factor, mmm25d
from repro.theory.bounds import mmm_parallel_lower_bound


def mmm25d_model_bytes(n: int, g: int, c: int) -> float:
    """Analytic volume of mmm25d's schedule on a [G, G, c] grid
    (elements * 8 B): the oracle its measured volume must equal.

    replicate: 2 (c-1) N^2;  summa: 2 (G-1) N^2 (every rank receives
    its row/col blocks for each of its G/c rounds); reduce: (c-1) N^2.
    """
    block = (n / g) ** 2
    replicate = 2 * (c - 1) * g * g * block
    summa_recv = 2 * (g - 1) / g * g * g * c * (g / c) * block
    reduce_c = (c - 1) * g * g * block
    return (replicate + summa_recv + reduce_c) * 8.0


def _spd(n: int, seed: int = 0) -> np.ndarray:
    b = np.random.default_rng(seed).standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


class TestCholesky25D:
    @pytest.mark.parametrize(
        "g,c,v,n",
        [
            (1, 1, 4, 16),
            (2, 1, 4, 16),
            (1, 2, 4, 16),
            (2, 2, 4, 32),
            (2, 4, 4, 32),
            (2, 2, 4, 30),
            (3, 1, 5, 30),
        ],
    )
    def test_residual_machine_precision(self, g, c, v, n):
        res = factor("cholesky25d", _spd(n, seed=g + c), g * g * c,
                     grid=(g, g, c), v=v)
        assert res.residual < 1e-12

    @pytest.mark.parametrize(
        "g,c,v,n", [(3, 1, 2, 18), (4, 1, 3, 26), (3, 2, 2, 17)]
    )
    def test_diagonal_gather_when_a_grid_row_holds_no_diagonal_row(
        self, g, c, v, n
    ):
        """At v < G some grid rows hold no row of a step's diagonal
        block: only the grid rows other than the root's row 0 that hold
        one send, one message each, 8 bytes per entry."""
        res = factor("cholesky25d", _spd(n, seed=g * v + c), g * g * c,
                     grid=(g, g, c), v=v)
        assert res.residual < 1e-12
        nbytes = messages = 0
        for k0 in range(0, n, v):
            k1 = min(k0 + v, n)
            off_root = [r for r in range(k0, k1) if r % g != 0]
            nbytes += 8 * (k1 - k0) * len(off_root)
            messages += len({r % g for r in off_root})
        assert res.volume.phase_bytes["gather_diag"] == nbytes
        assert res.volume.phase_messages["gather_diag"] == messages

    def test_factor_is_lower_triangular(self):
        res = factor("cholesky25d", _spd(16, seed=3), 4, grid=(2, 2, 1), v=4)
        assert np.allclose(np.triu(res.lower, 1), 0.0)
        assert np.all(np.diag(res.lower) > 0)

    def test_matches_scipy_cholesky(self):
        from scipy.linalg import cholesky

        a = _spd(24, seed=4)
        res = factor("cholesky25d", a, 4, grid=(2, 2, 1), v=4)
        np.testing.assert_allclose(
            res.lower, cholesky(a, lower=True), atol=1e-10
        )

    def test_identity_permutation(self):
        res = factor("cholesky25d", _spd(16, seed=5), 8, grid=(2, 2, 2), v=4)
        np.testing.assert_array_equal(res.perm, np.arange(16))

    def test_nonsymmetric_rejected(self):
        a = np.random.default_rng(6).standard_normal((8, 8))
        with pytest.raises(ValueError, match="symmetric"):
            factor("cholesky25d", a, 4, grid=(2, 2, 1), v=4)

    def test_cheaper_than_lu_on_same_grid(self):
        """Half the flops should buy less traffic than LU, too."""

        a = _spd(64, seed=7)
        chol = factor("cholesky25d", a, 8, grid=(2, 2, 2), v=4)
        lu = factor("conflux", a, 8, grid=(2, 2, 2), v=4)
        assert chol.volume.total_bytes < lu.volume.total_bytes

    def test_single_rank_zero_volume(self):
        res = factor("cholesky25d", _spd(12, seed=8), 1, grid=(1, 1, 1), v=4)
        assert res.volume.total_bytes == 0

    def test_auto_grid(self):
        res = factor("cholesky25d", _spd(32, seed=9), 4)
        assert res.residual < 1e-12

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_spd_matrices(self, seed):
        res = factor(
            "cholesky25d", _spd(24, seed=seed), 8, grid=(2, 2, 2), v=4
        )
        assert res.residual < 1e-11


class TestMMM25D:
    @pytest.mark.parametrize(
        "g,c,n",
        [(1, 1, 8), (2, 1, 16), (2, 2, 16), (4, 2, 32), (3, 3, 27),
         (4, 4, 32)],
    )
    def test_product_correct(self, g, c, n):
        rng = np.random.default_rng(g * 10 + c)
        a, b = rng.standard_normal((2, n, n))
        out, _, _ = mmm25d(a, b, g * g * c, grid=(g, g, c))
        np.testing.assert_allclose(out, a @ b, atol=1e-10)

    def test_measured_volume_equals_model_exactly(self):
        """All traffic flows through collectives with closed-form
        volumes, so the match is exact — no tolerance needed."""
        rng = np.random.default_rng(11)
        for g, c, n in [(2, 2, 32), (4, 2, 32), (4, 4, 64)]:
            a, b = rng.standard_normal((2, n, n))
            _, report, _ = mmm25d(a, b, g * g * c, grid=(g, g, c))
            assert report.total_bytes == mmm25d_model_bytes(n, g, c)

    def test_replication_reduces_volume(self):
        """The 2.5D promise for MMM: at P = 256 the replicated grid
        beats the flat one (replication costs 3(c-1)N^2 against a
        2(sqrt(P) - sqrt(P/c))N^2 SUMMA saving, so it needs P large
        enough — same crossover structure as LU's).  Volume == model
        exactly, so the model stands in for the measured run."""
        n = 512
        flat = mmm25d_model_bytes(n, 16, 1)  # (16,16,1) = 256 ranks
        repl = mmm25d_model_bytes(n, 8, 4)  # (8,8,4)   = 256 ranks
        assert repl < flat

    def test_measured_replication_crossover_matches_model(self):
        """Measured at P=64 the flat grid still wins — faithfully
        reproducing the model's crossover prediction."""
        rng = np.random.default_rng(12)
        n = 64
        a, b = rng.standard_normal((2, n, n))
        _, flat, _ = mmm25d(a, b, 64, grid=(8, 8, 1))
        _, repl, _ = mmm25d(a, b, 64, grid=(4, 4, 4))
        assert flat.total_bytes == mmm25d_model_bytes(n, 8, 1)
        assert repl.total_bytes == mmm25d_model_bytes(n, 4, 4)
        assert flat.total_bytes < repl.total_bytes  # crossover is higher

    def test_approaches_lower_bound(self):
        """MMM's 2.5D schedule is communication-*optimal*: measured
        volume lands within ~6% of 2 N^3/(P sqrt(M)) at (8,8,2) —
        ratio -> 1, unlike LU's 1.5x (the paper's [42] heritage)."""
        g, c = 8, 2
        p = g * g * c
        n = 64
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((2, n, n))
        _, report, _ = mmm25d(a, b, p, grid=(g, g, c))
        m = c * n * n / p
        bound = mmm_parallel_lower_bound(n, m, p) * p * 8
        ratio = report.total_bytes / bound
        assert ratio == pytest.approx(17 / 16, rel=0.02)
        assert ratio < 1.5  # strictly better than LU's gap

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            mmm25d(np.zeros((4, 5)), np.zeros((4, 5)), 4)
        with pytest.raises(ValueError, match="exceed"):
            mmm25d(np.zeros((8, 8)), np.zeros((8, 8)), 32,
                   grid=(2, 2, 8))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="ranks"):
            mmm25d(np.zeros((8, 8)), np.zeros((8, 8)), 2, grid=(2, 2, 1))

    @settings(max_examples=6, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_products(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, n, n))
        out, _, _ = mmm25d(a, b, 4, grid=(2, 2, 1))
        np.testing.assert_allclose(out, a @ b, atol=1e-9)
