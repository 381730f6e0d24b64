"""BENCH_timing.json: the schema check and its ``--validate`` CLI, on
synthetic rows (the artifact's sweeps run only in CI's timing job)."""

import json
import sys
from pathlib import Path

import pytest

_BENCH_DIR = str(Path(__file__).resolve().parents[2] / "benchmarks")
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

import bench_timing  # noqa: E402


def _row(sweep, impl, machine, predicted):
    return {
        "sweep": sweep, "impl": impl, "n": 64, "p": 8,
        "machine": machine, "grid": (2, 2, 2),
        "predicted_seconds": predicted, "compute_seconds": predicted / 4,
        "comm_seconds": predicted / 2, "measured_bytes": 4096,
    }


@pytest.fixture
def artifact():
    return bench_timing.build_artifact([
        _row("table2-time", "conflux", "daint-xc50", 2e-3),
        _row("table2-time", "conflux", "laptop-sim", 5e-3),
        _row("qr-strong-time", "confqr", "daint-xc50", 3e-3),
    ])


class TestValidation:
    def test_a_built_artifact_is_valid(self, artifact):
        assert bench_timing.validate_artifact(artifact) == []
        assert artifact["machines"] == ["daint-xc50", "laptop-sim"]

    def test_a_wrong_schema_version_is_rejected(self, artifact):
        artifact["schema_version"] = 99
        (error,) = bench_timing.validate_artifact(artifact)
        assert "schema_version 99" in error

    def test_a_negative_time_is_rejected(self, artifact):
        artifact["points"][1]["comm_seconds"] = -1.0
        assert bench_timing.validate_artifact(artifact) == [
            "points[1].comm_seconds: negative time"
        ]

    def test_a_machine_missing_from_the_list_is_rejected(self, artifact):
        artifact["machines"] = ["daint-xc50"]
        errors = bench_timing.validate_artifact(artifact)
        assert len(errors) == 1 and "'laptop-sim' not in" in errors[0]


class TestCli:
    def _write(self, tmp_path, doc):
        path = tmp_path / "BENCH_timing.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_validate_accepts_a_good_file(self, artifact, tmp_path, capsys):
        path = self._write(tmp_path, artifact)
        assert bench_timing.main(["--validate", path]) == 0
        assert "valid (3 points" in capsys.readouterr().out

    def test_validate_rejects_a_bad_file(self, artifact, tmp_path, capsys):
        artifact["points"][0]["predicted_seconds"] = "fast"
        path = self._write(tmp_path, artifact)
        assert bench_timing.main(["--validate", path]) == 1
        assert "INVALID: points" in capsys.readouterr().err
