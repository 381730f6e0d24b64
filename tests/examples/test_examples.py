"""Smoke tests: every example script runs end to end (small sizes)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(script: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [script] + argv
    try:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = _run("quickstart.py", ["64", "4"], capsys)
        assert "COnfLUX" in out
        assert "residual" in out
        assert "lower bound" in out

    def test_io_lower_bounds_tour(self, capsys):
        out = _run("io_lower_bounds_tour.py", ["128", "256"], capsys)
        assert "MMM" in out and "Cholesky" in out
        assert "1.000" in out  # ratios land on the closed forms

    def test_pebble_game_demo(self, capsys):
        out = _run("pebble_game_demo.py", ["5"], capsys)
        assert "Q_greedy" in out
        assert "Dom_min" in out

    def test_communication_study(self, capsys):
        old = sys.argv
        sys.argv = ["communication_study.py", "64"]
        try:
            # shrink the measured sweep by calling the module pieces
            from repro.harness import format_series, run_sweep
            from repro.harness.specs import (
                fig6a_measured_spec,
                fig6a_model_spec,
            )

            measured = run_sweep(
                fig6a_measured_spec(n=64, p_values=(4,))
            ).rows()
            model = run_sweep(
                fig6a_model_spec(p_values=(64, 1024))
            ).rows()
            assert measured and model
            text = format_series(model, "p", "per_rank_bytes")
            assert "conflux" in text
        finally:
            sys.argv = old

    def test_exascale_planner(self, capsys):
        out = _run("exascale_planner.py", ["piz_daint", "8192", "256"],
                   capsys)
        assert "Processor Grid Optimization" in out
        assert "Best choice: conflux" in out

    def test_exascale_planner_rejects_oversubscription(self, capsys):
        with pytest.raises(SystemExit):
            _run("exascale_planner.py", ["summit", "8192", "999999"],
                 capsys)

    def test_tournament_stability(self, capsys):
        out = _run(
            "tournament_pivoting_stability.py", ["48", "2"], capsys
        )
        assert "Wilkinson" in out
        assert "growth" in out

    def test_beyond_lu(self, capsys):
        out = _run("beyond_lu.py", ["48", "8"], capsys)
        assert "Cholesky" in out and "MMM" in out
        assert "gap" in out
