"""Tests for computational intensity derivation (Lemmas 1, 2, 6)."""

import math

import pytest

from repro.theory.daap import (
    cholesky_program,
    lu_program,
    matmul_like_pair_program,
    mmm_program,
    modified_mmm_program,
)
from repro.theory.intensity import psi_of_x, statement_bound

M = 1024.0


class TestMMMIntensity:
    def test_x0_is_3m(self):
        sb = statement_bound(mmm_program().statements[0], M)
        assert sb.x0 == pytest.approx(3.0 * M, rel=1e-3)

    def test_rho_is_sqrt_m_over_2(self):
        sb = statement_bound(mmm_program().statements[0], M)
        assert sb.rho == pytest.approx(math.sqrt(M) / 2.0, rel=1e-3)

    def test_q_lower_is_2n3_over_sqrt_m(self):
        sb = statement_bound(mmm_program().statements[0], M)
        n = 512
        assert sb.q_lower(n) == pytest.approx(
            2.0 * n**3 / math.sqrt(M), rel=1e-3
        )

    def test_lemma6_not_applied(self):
        sb = statement_bound(mmm_program().statements[0], M)
        assert not sb.lemma6_applied


class TestLUIntensities:
    def test_s1_rho_capped_at_1_by_lemma6(self):
        """Section 6: psi(X) = X-1 would allow rho -> 1 only in the
        limit; the out-degree-one argument pins rho_S1 = 1 exactly."""
        sb = statement_bound(lu_program().statement("S1"), M)
        assert sb.rho == 1.0
        assert sb.lemma6_applied
        assert math.isinf(sb.x0)

    def test_s1_rho_gp_approaches_1_from_above(self):
        sb = statement_bound(lu_program().statement("S1"), M)
        assert sb.rho_gp >= 1.0
        assert sb.rho_gp == pytest.approx(1.0, rel=1e-2)

    def test_s1_q_lower_matches_paper(self):
        sb = statement_bound(lu_program().statement("S1"), M)
        n = 100
        assert sb.q_lower(n) == pytest.approx(n * (n - 1) / 2.0, rel=1e-9)

    def test_s2_rho_is_sqrt_m_over_2(self):
        sb = statement_bound(lu_program().statement("S2"), M)
        assert sb.rho == pytest.approx(math.sqrt(M) / 2.0, rel=1e-3)

    def test_s2_q_lower_matches_paper_formula(self):
        sb = statement_bound(lu_program().statement("S2"), M)
        n = 200
        expected = (2.0 * n**3 - 6.0 * n**2 + 4.0 * n) / (3.0 * math.sqrt(M))
        assert sb.q_lower(n) == pytest.approx(expected, rel=1e-3)


class TestSection41Statements:
    def test_statement_s_rho_is_m(self):
        """Paper Section 4.1 example: rho_S = M, Q_S = N^3/M."""
        sb = statement_bound(
            matmul_like_pair_program().statement("S"), M
        )
        assert sb.x0 == pytest.approx(2.0 * M, rel=1e-2)
        assert sb.rho == pytest.approx(M, rel=1e-2)

    def test_statement_s_access_sizes_at_x0(self):
        sb = statement_bound(
            matmul_like_pair_program().statement("S"), M
        )
        # |A(R)| = |B(R)| = M at the optimum (I = J = M, K = 1)
        for a in sb.solution.access_sizes:
            assert a == pytest.approx(M, rel=1e-2)

    def test_q_s_is_n3_over_m(self):
        sb = statement_bound(
            matmul_like_pair_program().statement("S"), M
        )
        n = 256
        assert sb.q_lower(n) == pytest.approx(n**3 / M, rel=1e-2)


class TestRecomputationFree:
    def test_input_free_statement_has_infinite_rho(self):
        sb = statement_bound(modified_mmm_program().statement("S"), M)
        assert math.isinf(sb.rho)
        assert sb.q_lower(1000) == 0.0


class TestCholeskyIntensities:
    def test_s3_rho_matches_mmm_structure(self):
        sb = statement_bound(cholesky_program().statement("S3"), M)
        assert sb.rho == pytest.approx(math.sqrt(M) / 2.0, rel=1e-3)

    def test_s2_streaming_like_lu_s1(self):
        sb = statement_bound(cholesky_program().statement("S2"), M)
        assert sb.rho == 1.0


class TestPsiOfX:
    def test_lu_s2_psi_at_3m(self):
        sol = psi_of_x(lu_program().statement("S2"), 3.0 * M)
        assert sol.psi == pytest.approx(M**1.5, rel=1e-3)

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError, match="M must be"):
            statement_bound(mmm_program().statements[0], 0.5)


class TestScalingInM:
    @pytest.mark.parametrize("m", [64.0, 256.0, 4096.0])
    def test_rho_scales_as_sqrt_m(self, m):
        sb = statement_bound(mmm_program().statements[0], m)
        assert sb.rho == pytest.approx(math.sqrt(m) / 2.0, rel=1e-2)

    def test_larger_memory_weakens_bound(self):
        s = mmm_program().statements[0]
        q_small = statement_bound(s, 256.0).q_lower(128)
        q_large = statement_bound(s, 4096.0).q_lower(128)
        assert q_large < q_small


class TestTensorContraction:
    """The intro's motivating workload: a batched contraction
    C[i,j,m] += A[i,k,m] B[k,j] handled by the same machinery."""

    def test_bound_derives_cleanly(self):
        from repro.theory.daap import tensor_contraction_program

        sb = statement_bound(
            tensor_contraction_program().statements[0], M
        )
        assert sb.rho > 0 and not math.isinf(sb.rho)
        assert sb.x0 > M

    def test_contraction_cheaper_per_flop_than_mmm(self):
        """The batched contraction reuses B across the m batch, so its
        per-vertex I/O (1/rho) is no worse than MMM's."""
        from repro.theory.daap import tensor_contraction_program

        tc = statement_bound(
            tensor_contraction_program().statements[0], M
        )
        mm = statement_bound(mmm_program().statements[0], M)
        assert tc.rho >= mm.rho * 0.99

    def test_q_scales_with_fourth_power(self):
        from repro.theory.daap import tensor_contraction_program

        sb = statement_bound(
            tensor_contraction_program().statements[0], M
        )
        assert sb.q_lower(32) == pytest.approx(
            sb.q_lower(16) * 16, rel=0.01
        )
