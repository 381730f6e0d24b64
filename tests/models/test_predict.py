"""The registry-driven ``predict()`` API."""

import pytest

from repro.models import (
    MODEL_NAMES,
    get_model,
    predict,
)
from repro.models.api import MODEL_REGISTRY, register_model
from repro.models.costmodels import (
    QR_MODEL_NAMES,
    algorithmic_memory,
    caqr25d_total_bytes,
    conflux_total_bytes,
    confqr_total_bytes,
)
from repro.models.prediction import (
    choose_c_max_replication,
    sweep_models,
)


class TestRegistry:
    def test_every_lu_and_qr_model_registered(self):
        for name in MODEL_NAMES + QR_MODEL_NAMES:
            assert get_model(name) is MODEL_REGISTRY[name]

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model("mkl")

    def test_entries_well_formed(self):
        for name, info in MODEL_REGISTRY.items():
            assert info.kind == ("qr" if name in QR_MODEL_NAMES else "lu")
            assert callable(info.total_bytes)
            assert callable(info.as_run)

    def test_register_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            register_model(
                "bogus",
                lambda n, p, c: 0.0,
                as_run=lambda n, grid, block: 0.0,
                kind="fft",
            )
        assert "bogus" not in MODEL_REGISTRY


def _grids(g_max: int):
    return [(g, c) for g in range(2, g_max + 1) for c in range(1, 9)]


def _layer_lost_through_memory(n: int, g: int, c: int) -> bool:
    """Whether c -> M = c N^2 / P -> floor(P M / N^2) drops a layer."""
    p = g * g * c
    return max(1, int(p * algorithmic_memory(n, p, c) / n**2)) != c


class TestReplicationDepth:
    """Every form is evaluated at the c its caller chose — no round
    trip through a float memory that can floor one layer away."""

    def test_predict_at_c_is_the_form_at_c(self):
        assert predict("conflux", 1024, 98, c=2).total_bytes == 78_045_184
        assert conflux_total_bytes(1024, 98, c=2) == 78_045_184

    @pytest.mark.parametrize(
        "name,form",
        [("conflux", conflux_total_bytes), ("caqr25d", caqr25d_total_bytes)],
    )
    def test_step_sums_on_every_grid(self, name, form):
        n = 1024
        grids = _grids(32)
        assert sum(_layer_lost_through_memory(n, g, c) for g, c in grids)
        for g, c in grids:
            p = g * g * c
            assert predict(name, n, p, c=c).total_bytes == form(n, p, c=c)

    def test_confqr_where_memory_drops_a_layer(self):
        # ~80 ms a grid: only the grids the memory round trip breaks
        n = 1024
        grids = [
            (g, c) for g, c in _grids(16)
            if _layer_lost_through_memory(n, g, c)
        ]
        assert grids
        for g, c in grids:
            p = g * g * c
            assert predict("confqr", n, p, c=c).total_bytes == (
                confqr_total_bytes(n, p, c=c)
            )


class TestPredict:
    def test_matches_sweep_models_at_same_memory(self):
        n, p = 4096, 256
        c = choose_c_max_replication(p, n)
        expected = sweep_models(n, p, c)
        for name in MODEL_NAMES:
            assert predict(name, n, p).total_bytes == pytest.approx(
                expected[name]
            )

    def test_needs_p_or_machine(self):
        with pytest.raises(ValueError, match="needs p= or machine="):
            predict("conflux", 1024)

    def test_p_defaults_to_machine_ranks(self):
        pred = predict("conflux", 16384, machine="summit")
        assert pred.p == 4608

    def test_no_machine_means_no_time(self):
        pred = predict("conflux", 1024, 64)
        assert pred.machine is None
        assert pred.comm_seconds is None
        assert pred.predicted_seconds is None

    def test_machine_adds_time_estimates(self):
        pred = predict("conflux", 4096, 256, machine="daint-xc50")
        assert pred.machine == "daint-xc50"
        assert pred.comm_seconds > 0
        assert pred.compute_seconds > 0
        assert pred.predicted_seconds == pytest.approx(
            pred.comm_seconds + pred.compute_seconds
        )

    def test_ideal_machine_predicts_zero_seconds(self):
        pred = predict("conflux", 4096, 256, machine="ideal")
        assert pred.predicted_seconds == 0.0

    def test_faster_network_predicts_less_comm_time(self):
        slow = predict("conflux", 4096, 256, machine="daint-xc50")
        fast = predict("conflux", 4096, 256, machine="summit")
        assert fast.comm_seconds < slow.comm_seconds

    def test_qr_kind_charges_more_flops_than_lu(self):
        lu = predict("scalapack2d", 4096, 256, machine="summit")
        qr = predict("qr2d", 4096, 256, machine="summit")
        assert qr.compute_seconds == pytest.approx(
            2 * lu.compute_seconds
        )

    def test_explicit_c_controls_memory(self):
        deep = predict("conflux", 4096, 256, c=4)
        shallow = predict("conflux", 4096, 256, c=1)
        assert deep.m > shallow.m
        assert deep.total_bytes != shallow.total_bytes
        assert deep.m == algorithmic_memory(4096, 256, 4)

    def test_explicit_c_wins_over_memory(self):
        at_c = predict("conflux", 4096, 256, c=2)
        both = predict("conflux", 4096, 256, c=2, m=1.0)
        assert both.total_bytes == at_c.total_bytes

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            predict("conflux", 0, 16)

    @pytest.mark.parametrize(
        "m", [0.0, -5.0, float("nan"), float("inf")]
    )
    def test_memory_it_cannot_use_rejected(self, m):
        # 0 and -5 once ran at c = 1 and reported m = 256
        with pytest.raises(ValueError, match="m must be finite and > 0"):
            predict("conflux", 64, 16, m=m)
