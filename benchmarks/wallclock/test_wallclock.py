"""Smoke test of the benchmark itself: ``--quick`` twice, the emitted
document against a hand-rolled schema (``bench_timing.py`` style: no
jsonschema in the container), the simulated statistics equal across
the two runs, and ``BENCHMARK.json`` against the catalogue and the
driver's limits.

Run with ``python -m pytest benchmarks/wallclock/test_wallclock.py``
from the repo root; takes about half a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def validate_document(doc: dict) -> list[str]:
    """Schema check of an ``--out`` document; violations, empty = valid."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    for key, typ in (
        ("seed", int), ("end_to_end", list), ("per_layer", list),
        ("workloads", dict),
    ):
        if not isinstance(doc.get(key), typ):
            errors.append(f"missing or mistyped field {key!r}")
    if errors:
        return errors

    def metric(where: str, entry: dict, extra: str, extra_type) -> None:
        for field in ("name", "unit", "better"):
            if not isinstance(entry.get(field), str):
                errors.append(f"{where}: {field} missing")
                return
        if not _NAME.match(entry["name"]):
            errors.append(f"{where}: bad name {entry['name']!r}")
        if not _UNIT.match(entry["unit"]):
            errors.append(f"{where}: bad unit {entry['unit']!r}")
        if entry["better"] not in ("lower", "higher"):
            errors.append(f"{where}: bad direction {entry['better']!r}")
        if not isinstance(entry.get(extra), extra_type) or isinstance(
            entry.get(extra), bool
        ):
            errors.append(f"{where}: {extra} missing")

    for i, entry in enumerate(doc["end_to_end"]):
        metric(f"end_to_end[{i}]", entry, "bound", float)
        if not 0 <= entry.get("bound", -1) <= 0.25:
            errors.append(f"end_to_end[{i}]: bound outside [0, 0.25]")
    e2e_names = [m["name"] for m in doc["end_to_end"]]
    for i, entry in enumerate(doc["per_layer"]):
        metric(f"per_layer[{i}]", entry, "moves", dict)
        moves = entry.get("moves") or {}
        if moves.get("metric") not in e2e_names:
            errors.append(f"per_layer[{i}]: moves.metric not end-to-end")
        if moves.get("workload") not in catalog.WORKLOAD_NAMES:
            errors.append(f"per_layer[{i}]: moves.workload unknown")
    names = e2e_names + [m["name"] for m in doc["per_layer"]]
    if len(set(names)) != len(names):
        errors.append("a metric name is used twice")

    for name, by_kind in doc["workloads"].items():
        if name not in catalog.WORKLOAD_NAMES:
            errors.append(f"unknown workload {name!r}")
        timed = by_kind.get("timed")
        if not isinstance(timed, dict):
            errors.append(f"{name}: no timed run")
            continue
        for field in ("attempted", "failed", "samples", "passes"):
            if not isinstance(timed.get(field), int):
                errors.append(f"{name}.timed.{field}: expected int")
        for metric_name in e2e_names:
            value = timed.get("metrics", {}).get(metric_name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{name}.timed.metrics.{metric_name} missing")
            elif value <= 0:
                errors.append(f"{name}.timed.metrics.{metric_name} <= 0")
        env = timed.get("env", {})
        for field in ("nproc", "python", "numpy", "scipy", "blas",
                      "blas_threads", "loadavg_1m_start",
                      "loadavg_1m_end"):
            if field not in env:
                errors.append(f"{name}.timed.env.{field} missing")
    return errors


def _quick(out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "5",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    for name in catalog.WORKLOAD_NAMES:
        assert f"== {name} " in done.stdout
    for meta in catalog.END_TO_END:
        assert re.search(rf"{re.escape(meta.name)} +\S+ {meta.unit}\n",
                         done.stdout), meta.name
    assert "fail_frac=0 " in done.stdout or "fail_frac=0\n" in done.stdout
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("wallclock")
    return _quick(tmp / "a.json"), _quick(tmp / "b.json")


def test_quick_document_is_valid(quick_runs):
    for doc in quick_runs:
        assert validate_document(doc) == []
        assert set(doc["workloads"]) == set(catalog.WORKLOAD_NAMES)
        for by_kind in doc["workloads"].values():
            assert by_kind["timed"]["failed"] == 0
            assert by_kind["timed"]["env"]["blas_threads"] == "1"


def test_validator_rejects_broken_documents(quick_runs):
    doc = json.loads(json.dumps(quick_runs[0]))
    doc["per_layer"][0].pop("moves")
    doc["end_to_end"][0]["name"] = "has space"
    doc["workloads"]["lu-p64"]["timed"]["metrics"].pop("op_s_p50")
    errors = validate_document(doc)
    assert any("moves missing" in e for e in errors)
    assert any("bad name" in e for e in errors)
    assert any("op_s_p50 missing" in e for e in errors)


def test_simulated_statistics_repeat_exactly(quick_runs):
    first, second = quick_runs
    for name in catalog.WORKLOAD_NAMES:
        a = first["workloads"][name]["timed"]
        b = second["workloads"][name]["timed"]
        assert a["sim"] == b["sim"], name
        assert (
            a["metrics"]["sim_comm_bytes"] == b["metrics"]["sim_comm_bytes"]
        )
        assert a["attempted"] == b["attempted"]


def test_benchmark_json_matches_the_catalogue_and_the_contract():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert len(text.encode()) <= 64 * 1024
    doc = json.loads(text)
    assert doc == catalog.benchmark_json()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["paths"] == ["benchmarks/wallclock"]
    assert all(_PATH.match(p) and ".." not in p for p in doc["paths"])
    assert len(doc["command"]) <= 32
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = []
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert _UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(_NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_probe_is_catalogued_and_every_group_runs_somewhere():
    groups = {m.group for m in catalog.PER_LAYER if m.group}
    claimed = {g for w in catalog.WORKLOADS for g in w.probe_layers}
    assert groups == claimed
    for meta in catalog.PER_LAYER:
        assert meta.moves[0] in catalog.E2E_BY_NAME
        assert meta.moves[1] in catalog.WORKLOAD_NAMES
