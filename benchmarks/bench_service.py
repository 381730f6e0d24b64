"""E14 — serving-layer trajectory: ``BENCH_service.json``.

The service layer turns the solver stack into a system that serves
load; this benchmark freezes its behaviour under a fixed synthetic
workload — one closed-loop run — into a machine-readable artifact,
following the ``BENCH_timing.json`` pattern.  CI regenerates and
schema-validates it on every run, so queueing behaviour (admission
counts, cache effectiveness, tail latency) is tracked commit to
commit.

Each run's ``counts`` block is a pure function of the workload seed
(caching + in-flight coalescing make the number of jobs computed equal
to the number of distinct problems, however the event loop
interleaves); the ``observed`` block measures this machine today.

Also runnable standalone (the CI service-smoke job does exactly this)::

    python benchmarks/bench_service.py --out BENCH_service.json
    python benchmarks/bench_service.py --validate BENCH_service.json
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import tempfile

#: 2: the ``policy`` / ``policies`` keys left with the dispatch policies
#: (the service has one FIFO queue); ``runs`` holds the one run.
SCHEMA_VERSION = 2

#: Artifact schema, hand-rolled (no jsonschema dependency in the
#: container): field name -> required type(s), per run block.
_COUNT_FIELDS = {
    "requests": int,
    "completed": int,
    "rejected": int,
    "errors": int,
    "timeouts": int,
    "computed": int,
    "served_without_compute": int,
}
_LATENCY_FIELDS = ("p50", "p95", "p99", "mean", "max")


def _default_spec(requests: int = 60):
    from repro.service import WorkloadSpec

    return WorkloadSpec(requests=requests, sizes=(24, 32, 48), seed_pool=6)


def _config(workers: int = 2):
    from repro.service import ServiceConfig

    return ServiceConfig(workers=workers)


def service_runs(requests: int = 60, workers: int = 2) -> list[dict]:
    """The closed-loop workload, on a fresh scratch cache so hit
    counts are reproducible run to run."""
    from repro.harness.cache import SweepCache
    from repro.service import run_workload

    with tempfile.TemporaryDirectory(
        prefix="repro-bench-service-"
    ) as tmp:
        report = run_workload(
            _config(workers), _default_spec(requests), cache=SweepCache(tmp)
        )
    metrics = report.metrics
    return [
        {
            "counts": dict(metrics["counts"]),
            "observed": {
                "latency_ms": dict(metrics["latency_ms"]),
                "throughput_rps": metrics["throughput_rps"],
                "wall_s": metrics["wall_s"],
                "cache_hit_rate": metrics["cache_hit_rate"],
                "max_queue_depth": metrics["max_queue_depth"],
                "worker_executions": metrics["worker_executions"],
            },
        }
    ]


def build_artifact(
    runs: list[dict], requests: int = 60, workers: int = 2
) -> dict:
    """The BENCH_service.json document for the run."""
    from repro.documents import write

    return {
        "schema_version": SCHEMA_VERSION,
        "workload": write(_default_spec(requests)),
        "service": write(_config(workers)),
        "runs": runs,
    }


def strip_observed(doc: dict) -> dict:
    """The deterministic projection of an artifact: everything except
    each run's measured-wall-clock ``observed`` block.  Two runs of
    the same workload seed must agree on this byte for byte."""
    out = copy.deepcopy(doc)
    for run in out.get("runs", []):
        run.pop("observed", None)
    return out


def validate_artifact(doc: dict) -> list[str]:
    """Schema check; returns a list of violations (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version {doc.get('schema_version')!r} != "
            f"{SCHEMA_VERSION}"
        )
    for key in ("workload", "service"):
        if not isinstance(doc.get(key), dict):
            errors.append(f"missing or non-dict field {key!r}")
    if not isinstance(doc.get("runs"), list):
        errors.append("missing or non-list field 'runs'")
    if errors:
        return errors
    if not doc["runs"]:
        errors.append("no runs")
    for i, run in enumerate(doc["runs"]):
        counts = run.get("counts")
        if not isinstance(counts, dict):
            errors.append(f"runs[{i}].counts missing or non-dict")
            continue
        for field, typ in _COUNT_FIELDS.items():
            value = counts.get(field)
            if not isinstance(value, typ) or isinstance(value, bool):
                errors.append(
                    f"runs[{i}].counts.{field}: expected "
                    f"{typ.__name__}, got {value!r}"
                )
            elif value < 0:
                errors.append(f"runs[{i}].counts.{field}: negative")
        if not errors:
            accounted = (
                counts["completed"] + counts["rejected"]
                + counts["errors"] + counts["timeouts"]
            )
            if accounted != counts["requests"]:
                errors.append(
                    f"runs[{i}]: outcomes sum to {accounted}, not "
                    f"requests={counts['requests']}"
                )
            if (
                counts["computed"] + counts["served_without_compute"]
                != counts["completed"]
            ):
                errors.append(
                    f"runs[{i}]: computed + served_without_compute != "
                    f"completed"
                )
        observed = run.get("observed")
        if not isinstance(observed, dict):
            errors.append(f"runs[{i}].observed missing or non-dict")
            continue
        latency = observed.get("latency_ms")
        if not isinstance(latency, dict):
            errors.append(f"runs[{i}].observed.latency_ms non-dict")
        else:
            for field in _LATENCY_FIELDS:
                value = latency.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(
                        f"runs[{i}].observed.latency_ms.{field}: "
                        f"expected non-negative number, got {value!r}"
                    )
            if not errors and not (
                latency["p50"] <= latency["p95"] <= latency["p99"]
            ):
                errors.append(
                    f"runs[{i}]: latency percentiles not monotone"
                )
    return errors


# --------------------------------------------------------------------------
# pytest entry point
# --------------------------------------------------------------------------


def test_service_trajectory_artifact(benchmark, show):
    runs = benchmark.pedantic(service_runs, rounds=1, iterations=1)
    doc = build_artifact(runs)
    assert validate_artifact(doc) == []
    from repro.harness import format_table

    rows = [
        {
            "completed": run["counts"]["completed"],
            "computed": run["counts"]["computed"],
            "cached": run["counts"]["served_without_compute"],
            "p50_ms": run["observed"]["latency_ms"]["p50"],
            "p99_ms": run["observed"]["latency_ms"]["p99"],
            "rps": run["observed"]["throughput_rps"],
        }
        for run in doc["runs"]
    ]
    show(format_table(
        rows,
        [
            ("completed", "completed"),
            ("computed", "computed"),
            ("cached", "cache/coalesce"),
            ("p50_ms", "p50 [ms]"),
            ("p99_ms", "p99 [ms]"),
            ("rps", "req/s"),
        ],
        title="Serving trajectory (closed loop)",
    ))
    # the run serves the full workload, and caching means far fewer
    # computations than requests
    for run in doc["runs"]:
        counts = run["counts"]
        assert counts["completed"] == counts["requests"]
        assert counts["computed"] < counts["requests"]


# --------------------------------------------------------------------------
# standalone CLI (used by the CI service-smoke job)
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="generate / validate the BENCH_service.json artifact"
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="PATH",
                      help="run the workload and write the artifact")
    mode.add_argument("--validate", metavar="PATH",
                      help="schema-check an existing artifact")
    parser.add_argument("--requests", type=int, default=60)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    if args.validate:
        with open(args.validate) as fh:
            doc = json.load(fh)
        errors = validate_artifact(doc)
        if errors:
            for err in errors:
                print(f"INVALID: {err}", file=sys.stderr)
            return 1
        print(f"{args.validate}: valid")
        return 0

    runs = service_runs(requests=args.requests, workers=args.workers)
    doc = build_artifact(
        runs, requests=args.requests, workers=args.workers
    )
    errors = validate_artifact(doc)
    if errors:
        for err in errors:
            print(f"INVALID: {err}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote the serving run to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
