"""BENCH_service.json: determinism, schema validation, CLI."""

import json
import sys
from pathlib import Path

import pytest

_BENCH_DIR = str(Path(__file__).resolve().parents[2] / "benchmarks")
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

import bench_service  # noqa: E402


@pytest.fixture(scope="module")
def artifact():
    """One small real artifact shared by the tests in this module."""
    runs = bench_service.service_runs(requests=24, workers=2)
    return bench_service.build_artifact(runs, requests=24, workers=2)


class TestDeterminism:
    def test_counts_are_byte_identical_across_runs(self, artifact):
        # The ISSUE's determinism requirement: fixed seed => byte-
        # identical BENCH_service.json modulo timings.  strip_observed
        # removes exactly the timing blocks; everything left must
        # serialize identically on a fresh run.
        runs = bench_service.service_runs(requests=24, workers=2)
        again = bench_service.build_artifact(runs, requests=24, workers=2)
        assert json.dumps(
            bench_service.strip_observed(artifact), sort_keys=True
        ) == json.dumps(
            bench_service.strip_observed(again), sort_keys=True
        )

    def test_strip_observed_removes_only_timings(self, artifact):
        stripped = bench_service.strip_observed(artifact)
        for run in stripped["runs"]:
            assert "observed" not in run
            assert "counts" in run
        # the original is untouched (deep copy)
        assert all("observed" in run for run in artifact["runs"])


class TestValidation:
    def test_real_artifact_is_valid(self, artifact):
        assert bench_service.validate_artifact(artifact) == []

    def test_the_run_served_the_full_workload(self, artifact):
        assert artifact["schema_version"] == 2
        assert "policies" not in artifact
        assert len(artifact["runs"]) == 1
        for run in artifact["runs"]:
            assert "policy" not in run
            counts = run["counts"]
            assert counts["completed"] == counts["requests"] == 24
            assert counts["computed"] < counts["requests"]

    def test_validator_catches_bad_documents(self, artifact):
        assert bench_service.validate_artifact([]) != []
        assert bench_service.validate_artifact({}) != []

        broken = bench_service.strip_observed(artifact)  # deep copy
        broken["runs"][0]["counts"]["completed"] += 1
        errors = bench_service.validate_artifact(broken)
        assert any("sum" in e or "completed" in e for e in errors)

    def test_validator_requires_monotone_percentiles(self, artifact):
        import copy

        broken = copy.deepcopy(artifact)
        broken["runs"][0]["observed"]["latency_ms"]["p50"] = 1e9
        errors = bench_service.validate_artifact(broken)
        assert any("monotone" in e for e in errors)


class TestCli:
    def test_out_then_validate_round_trip(self, artifact, tmp_path):
        path = tmp_path / "BENCH_service.json"
        with open(path, "w") as fh:
            json.dump(artifact, fh)
        assert bench_service.main(["--validate", str(path)]) == 0

    def test_validate_rejects_a_corrupt_artifact(self, artifact, tmp_path):
        broken = bench_service.strip_observed(artifact)
        broken["schema_version"] = 99
        path = tmp_path / "bad.json"
        with open(path, "w") as fh:
            json.dump(broken, fh)
        assert bench_service.main(["--validate", str(path)]) == 1
