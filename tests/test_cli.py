"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestFactorCommand:
    def test_conflux_default(self, capsys):
        rc = main(["factor", "--n", "32", "--p", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conflux" in out
        assert "residual" in out

    def test_verbose_phase_breakdown(self, capsys):
        rc = main(["factor", "--n", "32", "--p", "4", "--verbose"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "panel_a10" in out
        assert "msgs" in out

    def test_scalapack_with_block(self, capsys):
        rc = main(
            ["factor", "--algo", "scalapack2d", "--n", "32", "--p", "4",
             "--nb", "8"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "scalapack2d" in out

    def test_cholesky_builds_spd_input(self, capsys):
        rc = main(
            ["factor", "--algo", "cholesky25d", "--n", "32", "--p", "4"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cholesky25d" in out

    def test_conflux_explicit_v(self, capsys):
        rc = main(["factor", "--n", "32", "--p", "4", "--v", "8"])
        assert rc == 0
        assert "block=8" in capsys.readouterr().out

    def test_caqr_reports_orthogonality(self, capsys):
        rc = main(
            ["factor", "--algo", "caqr25d", "--n", "32", "--p", "4",
             "--v", "4"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "caqr25d" in out
        assert "orthogonality" in out

    def test_qr2d_verbose_phases(self, capsys):
        rc = main(
            ["factor", "--algo", "qr2d", "--n", "32", "--p", "4",
             "--nb", "8", "--verbose"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "panel_bcast" in out
        assert "update_reduce" in out

    def test_unknown_impl_rejected(self):
        with pytest.raises(SystemExit):
            main(["factor", "--algo", "mkl"])

    def test_algo_flag_is_canonical(self, capsys):
        rc = main(["factor", "--algo", "slate2d", "--n", "32",
                   "--p", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "slate2d" in out

    def test_list_shows_capabilities(self, capsys):
        rc = main(["factor", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("conflux", "scalapack2d", "slate2d", "candmc25d",
                     "cholesky25d", "caqr25d", "qr2d", "confqr"):
            assert name in out
        assert "mmm25d" not in out
        assert "chol" in out
        assert "25d" in out and "2d" in out

    def test_mmm_rejected_with_pointer(self, capsys):
        """mmm25d computes a product and is not registered: the error
        points at the algorithms that are."""
        with pytest.raises(SystemExit) as exc:
            main(["factor", "--algo", "mmm25d", "--n", "16",
                  "--p", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown algorithm 'mmm25d'" in err and "conflux" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--p", "0"], "need positive P and N"),
            (["--n", "8", "--p", "8", "--v", "1"], "v=1 must be >= 2"),
            (["--algo", "qr2d", "--v", "4"], "unexpected keyword"),
            (["--n", "-3"], "negative dimensions"),
            (["--fault-seed", "1"], "fault_seed= given without faults="),
            (["--machine", "laptop"], "unknown machine 'laptop'"),
            (["--faults", "no-such-plan.json"], "No such file"),
            (["--timeout", "nan"], "timeout_s must be > 0, got nan"),
            (["--timeout", "0"], "timeout_s must be > 0, got 0.0"),
            (["--timeout", "-1"], "timeout_s must be > 0, got -1.0"),
        ],
    )
    def test_bad_input_is_an_error_not_a_traceback(
        self, capsys, argv, message
    ):
        with pytest.raises(SystemExit) as exc:
            main(["factor", "--n", "16", "--p", "4", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    @pytest.mark.parametrize(
        "flag, doc, message",
        [
            ("--machine",
             {"name": "m", "total_ranks": 64,
              "memory_per_rank_bytes": 1 << 30, "alpha": float("nan")},
             "alpha/beta must be finite and >= 0, got nan/"),
            ("--faults",
             {"rules": [{"action": "delay", "delay_s": float("nan")}]},
             "delay_s must be finite and >= 0, got nan"),
            ("--faults",
             {"rules": [{"action": "delay", "delay_s": float("inf")}]},
             "delay_s must be finite and >= 0, got inf"),
        ],
    )
    def test_non_finite_document_is_an_error(
        self, capsys, tmp_path, flag, doc, message
    ):
        # json parses NaN and Infinity; the run they would configure
        # reports a NaN (or a too-small) makespan instead of failing
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["factor", "--n", "16", "--p", "4",
                  "--machine", "daint-xc50", flag, str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("flag", ["--machine", "--faults"])
    def test_truncated_document_names_its_file(self, capsys, tmp_path, flag):
        path = tmp_path / "doc.json"
        path.write_text('{"name": ')
        with pytest.raises(SystemExit) as exc:
            main(["factor", "--n", "16", "--p", "4", flag, str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: Expecting value"
        )

    def test_wrong_factors_are_not_a_usage_error(self, monkeypatch):
        import repro.algorithms
        from repro.algorithms import FactorVerificationError

        def broken(*args, **kwargs):
            raise FactorVerificationError("residual", "too large")

        monkeypatch.setattr(repro.algorithms, "factor", broken)
        with pytest.raises(FactorVerificationError, match="residual"):
            main(["factor", "--n", "16", "--p", "4"])


class TestBoundsCommand:
    def test_lu_bounds(self, capsys):
        rc = main(["bounds", "--kernel", "lu", "--n", "512",
                   "--m", "1024"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "LU I/O lower bound" in out
        assert "S1" in out and "S2" in out

    def test_parallel_bound_printed(self, capsys):
        rc = main(["bounds", "--kernel", "mmm", "--n", "256",
                   "--m", "1024", "--p", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P=16" in out

    def test_cholesky_bounds(self, capsys):
        rc = main(["bounds", "--kernel", "cholesky", "--n", "256",
                   "--m", "256"])
        assert rc == 0
        assert "S3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag,value",
        [("--n", "0"), ("--m", "0.5"), ("--p", "0"), ("--p", "-2")],
    )
    def test_value_below_one_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 1, got {value}\n"


class TestPlanCommand:
    def test_piz_daint_plan(self, capsys):
        rc = main(["plan", "--machine", "piz_daint", "--n", "16384",
                   "--p", "1024"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Piz Daint" in out
        assert "best: conflux" in out

    def test_summit_full_machine_default_p(self, capsys):
        rc = main(["plan", "--machine", "summit", "--n", "16384"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P=4,608" in out

    def test_machine_resolves_like_factor(self, capsys, tmp_path):
        """``plan --machine`` takes what ``factor --machine`` takes:
        any registry preset under either spelling, or a JSON spec."""
        for spelling in ("daint-xc50", "daint_xc50"):
            assert main(["plan", "--machine", spelling, "--n", "4096",
                         "--p", "64"]) == 0
            assert "daint-xc50: N=4,096, P=64" in capsys.readouterr().out
        assert main(["plan", "--machine", "laptop-sim", "--n", "256"]) == 0
        assert "laptop-sim: N=256, P=64" in capsys.readouterr().out
        spec = tmp_path / "box.json"
        spec.write_text(
            '{"name": "box", "total_ranks": 16, '
            '"memory_per_rank_bytes": 1073741824}'
        )
        assert main(["plan", "--machine", str(spec), "--n", "512"]) == 0
        assert "box: N=512, P=16" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"total_ranks": "64"}, "'total_ranks' must be int, got '64'"),
            ({"alpha": "1e-6"}, "'alpha' must be int or float"),
            ({"total_ranks": True}, "'total_ranks' must be int, got True"),
            ({"total_ranks": 0}, "must be >= 1, got 0/"),
            ({"memory_per_rank_bytes": -1}, "must be >= 1, got 64/-1"),
        ],
    )
    def test_mistyped_machine_spec_is_an_error(
        self, capsys, tmp_path, fields, message
    ):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({
            "name": "m", "total_ranks": 64,
            "memory_per_rank_bytes": 1 << 30, **fields,
        }))
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--machine", str(spec), "--n", "64"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    def test_unknown_machine_lists_presets(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--machine", "laptop"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown machine 'laptop'" in err and "laptop-sim" in err

    def test_prices_the_grid_it_chose(self, capsys):
        """At N = 32768 the laptop's memory allows c = 1 only; there
        the 2D model is 77.309 GB and COnfLUX's 77.365 GB."""
        rc = main(["plan", "--machine", "laptop-sim", "--n", "32768"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "grid [G,G,c] = [8, 8, 1]" in out
        assert "conflux            77.365 GB" in out
        assert "best: scalapack2d" in out

    @pytest.mark.parametrize("p", ["0", "-2"])
    def test_rank_count_below_one_is_an_error(self, capsys, p):
        # --p 0 once planned for the preset's 64 ranks and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--machine", "laptop-sim", "--n", "1024",
                  "--p", p])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: need positive P and N, got P={p}"
        )

    def test_no_feasible_grid_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--machine", "laptop-sim", "--n", "65536"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: no feasible [G, G, c] grid for P=64, N=65536"
        )


class TestModelsCommand:
    def test_exact_models(self, capsys):
        rc = main(["models", "--n", "4096", "--p", "1024"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conflux" in out and "GB total" in out

    def test_leading_flag(self, capsys):
        rc = main(["models", "--n", "4096", "--p", "1024", "--leading"])
        assert rc == 0
        assert "leading factors" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--n", "--p"])
    def test_bad_input_is_an_error_not_a_traceback(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["models", flag, "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need positive P and N")


class TestSweepCommand:
    def test_list_names_every_spec(self, capsys):
        rc = main(["sweep", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("table2", "fig6a", "fig7", "lower-bound-gap",
                     "qr-strong", "qr-weak", "qr-lower-bound-gap"):
            assert name in out

    def test_qr_gap_sweep_runs(self, capsys, tmp_path):
        rc = main(["sweep", "--run", "qr-lower-bound-gap",
                   "--max-points", "1", "--workers", "1",
                   "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 computed" in out
        assert "gap" in out

    def test_negative_max_points_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--run", "table2-models", "--max-points", "-1",
                  "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "error: max_points must be >= 0, got -1" in captured.err
        assert "computed" not in captured.out

    def test_run_then_resume_hits_cache(self, capsys, tmp_path):
        args = ["sweep", "--run", "table2", "--max-points", "2",
                "--workers", "1", "--cache-dir", str(tmp_path)]
        rc = main(args)
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 computed, 0 cached" in out
        assert "scalapack2d" in out

        rc = main(["sweep", "--resume", "table2", "--max-points", "2",
                   "--workers", "1", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 computed, 2 cached" in out

    def test_show_and_clear_cache(self, capsys, tmp_path):
        main(["sweep", "--run", "table2", "--max-points", "1",
              "--workers", "1", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(["sweep", "--show-cache", "--cache-dir",
                   str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "entries: 1" in out
        rc = main(["sweep", "--clear-cache", "--cache-dir",
                   str(tmp_path)])
        assert rc == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_unknown_sweep_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--run", "not-a-sweep"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: unknown sweep")

    def test_no_action_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "nothing to do" in err
        assert "--run NAME" in err

    def test_positional_spelling_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "run", "table2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_cache_flag_recomputes(self, capsys, tmp_path):
        args = ["sweep", "--run", "lower-bound-gap", "--max-points",
                "1", "--workers", "1", "--no-cache",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert "1 computed" in capsys.readouterr().out
        assert main(args) == 0
        assert "1 computed" in capsys.readouterr().out


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_module_entry_point_importable(self):
        import importlib.util

        spec = importlib.util.find_spec("repro.__main__")
        assert spec is not None
