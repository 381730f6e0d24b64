"""Tests for the experiment harness (runner, named specs, reporting)."""

import dataclasses

import pytest

from repro.algorithms.api import resolve_params
from repro.harness import (
    format_series,
    format_table,
    run_experiment,
    run_sweep,
)
from repro.harness import runner
from repro.harness.runner import model_for
from repro.harness.specs import (
    fig7_spec,
    lower_bound_gap_spec,
    table2_measured_spec,
    table2_models_spec,
)
from repro.models.costmodels import MODEL_NAMES, QR_MODEL_NAMES
from repro.models.prediction import (
    TABLE2_PAPER_GB,
    model_gap_at_scale,
    summit_prediction,
)


class TestPickParams:
    """The grid and block an experiment runs on are ``factor()``'s own
    defaults: the resolver is the only place they are written down."""

    def test_conflux_gets_3d_grid(self):
        nranks, (g, gg, c), v = resolve_params("conflux", 256, 16)
        assert nranks == 16
        assert g == gg
        assert g * g * c <= 16
        assert v == max(c, 2)

    def test_2d_impls_get_2d_grid(self):
        assert resolve_params("scalapack2d", 256, 12)[1:] == ((3, 4), 32)
        assert resolve_params("slate2d", 256, 12)[1:] == ((4, 3), 16)

    def test_slate_default_block_16(self):
        assert resolve_params("slate2d", 128, 4)[2] == 16

    def test_explicit_block_wins(self):
        assert resolve_params("conflux", 256, 16, block=12)[2] == 12
        assert resolve_params("qr2d", 256, 16, block=8)[2] == 8

    def test_unknown_impl(self):
        with pytest.raises(KeyError):
            resolve_params("magma", 128, 4)


class TestRunExperiment:
    def test_record_fields(self):
        row = run_experiment("conflux", 64, 4, seed=1)
        assert row["impl"] == "conflux"
        assert row["measured_bytes"] > 0
        assert row["modeled_bytes"] > 0
        assert row["residual"] < 1e-11
        assert 50 < row["prediction_pct"] < 150
        assert row["per_rank_bytes"] == row["measured_bytes"] / 4
        assert row["total_bytes"] == row["measured_bytes"]
        # The prediction counts the pieces kept on their own rank too.
        assert row["self_bytes"] > 0
        assert row["prediction_pct"] == pytest.approx(
            100 * (row["measured_bytes"] + row["self_bytes"])
            / row["modeled_bytes"]
        )

    @pytest.mark.parametrize(
        "impl", ["conflux", "scalapack2d", "slate2d", "candmc25d"]
    )
    def test_all_impls_run_and_predict(self, impl):
        row = run_experiment(impl, 96, 4, seed=2)
        assert row["residual"] < 1e-11
        # measured within 50% of the model even at tiny scale
        assert 0.5 < row["measured_bytes"] / row["modeled_bytes"] < 1.5

    def test_model_for_unknown(self):
        with pytest.raises(KeyError):
            model_for("magma", 128, 4, {})

    @pytest.mark.parametrize(
        "impl, stray, message",
        [
            ("conflux", {"nb": 16}, "conflux takes its block as v=, not nb="),
            ("scalapack2d", {"v": 4}, "scalapack2d takes its block as nb=, "
             "not v="),
        ],
    )
    def test_block_of_the_wrong_family_is_refused_before_the_run(
        self, monkeypatch, impl, stray, message
    ):
        """Swallowing it would run the default block under the cache
        key of a different request."""

        def never(*args, **kwargs):
            raise AssertionError("factor() entered with a stray block")

        monkeypatch.setattr(runner, "factor", never)
        with pytest.raises(ValueError, match=message):
            run_experiment(impl, 32, 4, **stray)

    def test_nan_residual_is_a_broken_run(self, monkeypatch):
        """``nan > 1e-10`` is false: written that way the refusal let a
        NaN residual through and the sweep cached the row as good."""
        real = runner.factor

        def nan_residual(*args, **kwargs):
            return dataclasses.replace(
                real(*args, **kwargs), residual=float("nan")
            )

        monkeypatch.setattr(runner, "factor", nan_residual)
        with pytest.raises(RuntimeError, match="residual nan"):
            run_experiment("conflux", 32, 4)

    def test_member_without_model_fails_before_the_run(self, monkeypatch):
        """cholesky25d is a registered algorithm with no cost model:
        the lookup comes first, so nothing is factored for a row that
        could never be completed."""

        def never(*args, **kwargs):
            raise AssertionError("factor() entered without a model")

        monkeypatch.setattr(runner, "factor", never)
        with pytest.raises(KeyError, match="unknown model") as exc:
            run_experiment("cholesky25d", 64, 8)
        # the message names every algorithm that does have a model
        for name in MODEL_NAMES + QR_MODEL_NAMES:
            assert name in str(exc.value)
        assert "mmm25d" not in str(exc.value)


class TestExperiments:
    def test_table2_model_rows_match_paper(self):
        rows = run_sweep(table2_models_spec()).rows()
        assert len(rows) == 16  # 4 points x 4 implementations
        for row in rows:
            if row["impl"] in ("scalapack2d", "slate2d", "conflux"):
                _, paper_modeled_gb = TABLE2_PAPER_GB[
                    (row["n"], row["p"])
                ][row["impl"]]
                assert row["model_gb"] == pytest.approx(
                    paper_modeled_gb, rel=0.02
                )

    def test_table2_measured_rows_small(self):
        spec = table2_measured_spec(points=((64, 4),))
        rows = run_sweep(
            dataclasses.replace(spec, fixed={**spec.fixed, "seed": 3})
        ).rows()
        assert len(rows) == 4
        for row in rows:
            assert row["residual"] < 1e-11
            assert 50 < row["prediction_pct"] < 160

    def test_fig7_grid_shape(self):
        rows = run_sweep(
            dataclasses.replace(
                fig7_spec(), axes={"n": [4096], "p": [64, 1024]}
            )
        ).rows()
        assert len(rows) == 2
        assert all(r["reduction"] >= 1.0 for r in rows)
        # At P = 64 the leading models tie (COnfLUX within 0.1% of the
        # 2D pair); from P = 1024 COnfLUX is strictly best.
        assert all(r["conflux_vs_best"] <= 1.01 for r in rows)
        assert rows[1]["best"] == "conflux"

    def test_summit_prediction_close_to_paper(self):
        pred = summit_prediction()
        assert pred["best"] == "conflux"
        assert pred["reduction_leading"] == pytest.approx(2.1, abs=0.15)

    def test_lower_bound_gap_sane(self):
        spec = lower_bound_gap_spec(n_values=(64,), p=4)
        rows = run_sweep(
            dataclasses.replace(spec, fixed={**spec.fixed, "seed": 4})
        ).rows()
        assert rows[0]["gap"] > 1.0  # a real schedule can't beat the bound

    def test_model_gap_tends_to_three_halves(self):
        gap = model_gap_at_scale(n=262144, p=16384, c=2)
        assert gap == pytest.approx(1.5, abs=0.08)


class TestReporting:
    def test_format_table_alignment(self):
        rows = [
            {"a": 1, "b": 2.5},
            {"a": 100_000, "b": 0.00001},
        ]
        text = format_table(rows, [("a", "A"), ("b", "B")], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "B" in lines[1]
        assert "100,000" in text
        assert "1.000e-05" in text

    def test_format_table_missing_key(self):
        text = format_table([{"a": 1}], [("a", "A"), ("z", "Z")])
        assert "-" in text

    def test_format_series_groups(self):
        rows = [
            {"impl": "x", "p": 4, "v": 10.0},
            {"impl": "x", "p": 8, "v": 20.0},
            {"impl": "y", "p": 4, "v": 30.0},
        ]
        text = format_series(rows, "p", "v")
        assert "(4, 10)" in text and "(8, 20)" in text
        assert text.index("x:") < text.index("y:")

    def test_empty_table(self):
        text = format_table([], [("a", "A")])
        assert "A" in text


class TestQrHarness:
    def test_qr_specs_registered(self):
        from repro.harness.specs import SPECS, named_spec

        for name in ("qr-strong", "qr-weak", "qr-lower-bound-gap"):
            assert name in SPECS
            assert len(named_spec(name).points()) > 0

    @pytest.mark.parametrize("impl", ["qr2d", "caqr25d"])
    def test_qr_impls_run_and_predict(self, impl):
        row = run_experiment(impl, 48, 4, seed=0)
        assert row["residual"] < 1e-10
        assert 80.0 < row["prediction_pct"] < 120.0

    def test_qr_gap_task_within_constant_of_bound(self):
        from repro.harness.specs import qr_lower_bound_gap_task

        row = qr_lower_bound_gap_task(48, 8, seed=0)
        assert 1.0 < row["gap"] <= 4.0

    def test_qr_resolved_params(self):
        for name in ("caqr25d", "confqr"):
            _, (g, gg, c), v = resolve_params(name, 256, 16)
            assert g == gg and g * g * c <= 16
            assert v == 8
            # max(2, min(8, n)), then a block never wider than the matrix
            assert resolve_params(name, 5, 16)[2] == 5
        assert resolve_params("qr2d", 256, 16)[1:] == ((4, 4), 16)
