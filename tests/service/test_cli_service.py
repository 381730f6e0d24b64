"""The ``loadgen`` CLI verb (the ``serve`` verb is covered at the
library level by the TCP tests in test_server.py, and here only for
the bad input it rejects before it listens)."""

import json

import pytest

from repro.cli import main
from repro.documents import write
from repro.service import ServiceConfig, WorkloadSpec


class TestLoadgen:
    def test_closed_loop_reports_the_headline_metrics(self, capsys):
        rc = main([
            "loadgen", "--mode", "closed", "--requests", "20",
            "--clients", "3", "--sizes", "24", "32", "--seed-pool", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "closed-loop: 20 requests" in out
        assert "p50" in out and "p99" in out
        assert "throughput" in out
        assert "cache hit rate" in out

    def test_json_report_is_written_and_valid(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc = main([
            "loadgen", "--requests", "12", "--sizes", "24",
            "--seed-pool", "2", "--json", str(path),
        ])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["workload"]["requests"] == 12
        assert doc["metrics"]["counts"]["completed"] == 12
        assert doc["metrics"]["counts"]["computed"] <= 2  # tiny catalog

    def test_flags_not_given_take_the_dataclass_defaults(
        self, capsys, tmp_path
    ):
        path = tmp_path / "report.json"
        rc = main([
            "loadgen", "--sizes", "24", "--seed-pool", "1",
            "--json", str(path),
        ])
        assert rc == 0
        doc = json.loads(path.read_text())
        spec = WorkloadSpec(sizes=(24,), seed_pool=1)
        assert doc["workload"] == write(spec)
        assert doc["workload"]["requests"] == 100
        assert doc["service"] == write(ServiceConfig())
        assert doc["metrics"]["counts"]["completed"] == 100

    def test_seed_flag_flows_through(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc = main([
            "loadgen", "--requests", "10",
            "--seed", "5", "--sizes", "24", "--seed-pool", "2",
            "--json", str(path),
        ])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert sorted(doc["service"]) == [
            "queue_depth", "request_timeout_s", "workers",
        ]
        assert doc["workload"]["seed"] == 5

    def test_cache_dir_makes_a_second_run_all_hits(self, capsys, tmp_path):
        args = [
            "loadgen", "--requests", "10", "--sizes", "24",
            "--seed-pool", "2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        rc = main(args + ["--json", str(tmp_path / "r2.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "r2.json").read_text())
        # warm persistent cache: nothing computes the second time
        assert doc["metrics"]["counts"]["computed"] == 0

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--timeout", "request_timeout_s must be finite"),
            ("--rate", "rate_rps must be finite"),
            ("--zipf-s", "zipf_s must be finite"),
        ],
    )
    def test_nan_flag_exits_2(self, capsys, flag, message):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--requests", "1", flag, "nan"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err

    def test_unknown_mode_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--mode", "burst"])

    def test_policy_flag_is_an_argparse_error(self, capsys):
        # one FIFO queue: there is nothing left to choose
        with pytest.raises(SystemExit) as excinfo:
            main(["loadgen", "--policy", "fifo"])
        assert excinfo.value.code == 2
        assert "--policy" in capsys.readouterr().err


def test_serve_rejects_a_nan_timeout_before_it_listens(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--port", "0", "--timeout", "nan"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(
        "error: request_timeout_s must be finite"
    )
