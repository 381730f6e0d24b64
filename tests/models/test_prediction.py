"""Tests for prediction machinery (Figures 6/7, Summit claim)."""

import pytest

from repro.models import predict
from repro.models.costmodels import algorithmic_memory
from repro.models.machines import LAPTOP_SIM, PIZ_DAINT, SUMMIT, Machine
from repro.models.prediction import (
    choose_c_max_replication,
    crossover_p_candmc_vs_2d,
    reduction_vs_second_best,
    sweep_models,
    weak_scaling_n,
)


class TestMachines:
    def test_piz_daint_preset(self):
        assert PIZ_DAINT.total_ranks == 5704
        assert PIZ_DAINT.memory_per_rank_elements == 64 * 2**30 // 8

    def test_max_replication(self):
        """The machine's memory caps predict's default depth at
        c = P M / N^2 (M = 1 Mi elements: c = 1 at N = 8192, where
        the cube-root rule alone would give 4)."""
        m = Machine("toy", total_ranks=64, memory_per_rank_bytes=8 * 2**20)
        capped = predict("candmc25d", 8192, machine=m)
        assert capped.m == algorithmic_memory(8192, 64, 1)
        assert predict("candmc25d", 4096, machine=m).m == (
            algorithmic_memory(4096, 64, 4)
        )

    def test_max_replication_floor_one(self):
        pred = predict("candmc25d", 10**6, machine=LAPTOP_SIM)
        assert pred.m == algorithmic_memory(10**6, 64, 1)


class TestChooseC:
    def test_cube_root_rule(self):
        assert choose_c_max_replication(64, 4096) == 4
        assert choose_c_max_replication(1024, 4096) == 10

    def test_memory_cap(self):
        # m_max allows only c = 2
        n, p = 4096, 64
        m_max = 2 * n * n / p
        assert choose_c_max_replication(p, n, m_max) == 2

    def test_at_least_one(self):
        assert choose_c_max_replication(1, 10**6) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_c_max_replication(0, 128)


class TestSweep:
    def test_all_four_models_present(self):
        out = sweep_models(4096, 64)
        assert set(out) == {
            "scalapack2d",
            "slate2d",
            "candmc25d",
            "conflux",
        }

    def test_leading_only_drops_lower_order(self):
        exact = sweep_models(16384, 1024)
        lead = sweep_models(16384, 1024, leading_only=True)
        assert lead["scalapack2d"] < exact["scalapack2d"]

    def test_conflux_wins_at_paper_scale(self):
        out = sweep_models(16384, 1024)
        assert out["conflux"] == min(out.values())


class TestReduction:
    def test_paper_headline_1_6x_at_p1024(self):
        """"communicates 1.6x less than the second-best implementation"
        (measured claim is 1.42x; model ratio at N=16384, P=1024 is
        ~1.6)."""
        point = reduction_vs_second_best(16384, 1024)
        assert point.best == "conflux"
        assert point.reduction == pytest.approx(1.6, abs=0.1)

    def test_summit_2_1x_claim_leading_models(self):
        point = reduction_vs_second_best(
            16384, SUMMIT.total_ranks, leading_only=True
        )
        assert point.best == "conflux"
        assert point.reduction == pytest.approx(2.1, abs=0.15)

    def test_reduction_grows_with_p(self):
        r_small = reduction_vs_second_best(16384, 64).reduction
        r_large = reduction_vs_second_best(16384, 4096).reduction
        assert r_large > r_small

    def test_volumes_recorded(self):
        point = reduction_vs_second_best(4096, 64)
        assert set(point.volumes) == {
            "scalapack2d",
            "slate2d",
            "candmc25d",
            "conflux",
        }
        assert point.reduction >= 1.0


class TestWeakScaling:
    def test_n_rule(self):
        assert weak_scaling_n(8) == 6400
        assert weak_scaling_n(1) == 3200
        assert weak_scaling_n(64, n0=100) == 400

    def test_constant_per_node_volume_for_conflux(self):
        """Fig 6b's claim: 2.5D per-node volume stays flat under
        N = N0 P^(1/3) scaling (leading order)."""
        per_node = []
        for p in (64, 512, 4096):
            n = weak_scaling_n(p, 400)
            vol = sweep_models(n, p, leading_only=True)["conflux"] / p
            per_node.append(vol)
        spread = max(per_node) / min(per_node)
        assert spread < 1.35  # flat up to rounding of c

    def test_2d_per_node_volume_grows(self):
        per_node = []
        for p in (64, 512, 4096):
            n = weak_scaling_n(p, 400)
            vol = sweep_models(n, p, leading_only=True)["scalapack2d"] / p
            per_node.append(vol)
        assert per_node[-1] > per_node[0] * 1.5  # ~P^(1/6) growth

    def test_validation(self):
        with pytest.raises(ValueError):
            weak_scaling_n(0)


class TestCrossover:
    def test_candmc_crosses_2d_only_at_huge_p(self):
        """"asymptotic optimality is not enough": CANDMC's model beats
        2D only beyond tens of thousands of ranks."""
        n = 16384
        grid = [2**k for k in range(6, 22)]

        def m_of_p(p):
            c = choose_c_max_replication(p, n)
            return algorithmic_memory(n, p, c)

        p_cross = crossover_p_candmc_vs_2d(n, m_of_p, grid)
        assert p_cross is not None
        assert p_cross >= 8192

    def test_no_crossover_without_replication(self):
        n = 16384
        grid = [2**k for k in range(6, 18)]
        p_cross = crossover_p_candmc_vs_2d(
            n, lambda p: n * n / p, grid
        )
        assert p_cross is None


class TestAlgorithmicMemory:
    def test_formula(self):
        assert algorithmic_memory(4096, 64, 4) == 4 * 4096**2 / 64

    def test_validation(self):
        with pytest.raises(ValueError):
            algorithmic_memory(4096, 64, 0)


def _qr_bytes(name: str, n: int, p: int, c: int) -> float:
    return predict(name, n, p, c=c).total_bytes


class TestQrModels:
    def test_confqr_wins_at_deep_replication(self):
        """Past CAQR's c = 2 sweet spot the compact-WY schedule keeps
        converting memory into volume (every term ~ G = sqrt(P/c))
        while CAQR's panel fan-out grows again."""
        confqr = _qr_bytes("confqr", 4096, 64, 8)
        assert confqr < _qr_bytes("caqr25d", 4096, 64, 8)
        assert confqr < _qr_bytes("qr2d", 4096, 64, 8)

    def test_caqr_beats_2d_baseline_across_scales(self):
        """At CAQR's c = 2 optimum its leading terms are 2 sqrt(2 P)
        against the square 2D grid's 3 sqrt(P)."""
        for n, p in [(4096, 16), (4096, 64), (16384, 1024)]:
            assert _qr_bytes("caqr25d", n, p, 2) < _qr_bytes("qr2d", n, p, 2)

    def test_qr2d_is_memory_independent(self):
        assert _qr_bytes("qr2d", 4096, 64, 1) == _qr_bytes("qr2d", 4096, 64, 16)

    def test_caqr_leading_order(self):
        """Sum of per-step terms converges to
        N^2 ((Gc - 1) + 2(G - 1)) / 2 elements at large N (taus and
        tree R factors are lower order)."""
        from repro.models.costmodels import caqr25d_total_bytes

        n, g, c, v = 16384, 8, 2, 16
        total = caqr25d_total_bytes(n, g * g * c, c=c, v=v, grid_rows=g)
        leading = n**2 * ((g * c - 1) + 2 * (g - 1)) / 2.0 * 8
        assert total / leading == pytest.approx(1.0, rel=0.05)

    def test_qr2d_leading_order(self):
        from repro.models.costmodels import qr2d_total_bytes

        n, pr, pc, nb = 16384, 8, 8, 32
        total = qr2d_total_bytes(n, pr * pc, nb=nb, grid=(pr, pc))
        leading = n**2 * ((pc - 1) + 2 * (pr - 1)) / 2.0 * 8
        assert total / leading == pytest.approx(1.0, rel=0.05)
