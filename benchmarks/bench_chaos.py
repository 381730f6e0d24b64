"""E15 — fault-injection trajectory: ``BENCH_chaos.json``.

The ``chaos-lu`` / ``chaos-qr`` sweeps factor under every canned fault
class (delay, drop, duplicate, reorder, bitflip, crash) and classify
each run against ground truth: *detected* (a typed error surfaced),
*recovered* (completed, residual within tolerance) or
*silent-corruption* (completed wrong).  This benchmark freezes the
per-class detection / recovery / silent-corruption rates — and a
digest of every run's canonical fault log — into a machine-readable
artifact, following the ``BENCH_service.json`` pattern.

Everything but each run's ``observed`` wall clock is a pure function
of the plan seeds: the injector draws every fault decision from a
keyed hash and the runtime schedules deliveries deterministically.
That projection is committed as ``BENCH_chaos.json`` at the repo root,
so a changed chaos outcome is a reviewed diff; ``--check-determinism``
executes the grid once and compares it with the committed file, and
``--write-reference`` rewrites it, keeping every committed residual the
check would accept, so the diff holds only what the change moved.

Also runnable standalone (the CI chaos-smoke job does exactly this)::

    python benchmarks/bench_chaos.py --check-determinism
    python benchmarks/bench_chaos.py --write-reference
    python benchmarks/bench_chaos.py --out /tmp/BENCH_chaos.json
    python benchmarks/bench_chaos.py --validate /tmp/BENCH_chaos.json

(``--out`` writes the full artifact, ``observed`` included: point it
at a scratch path, not at the committed projection.)
"""

from __future__ import annotations

import argparse
import copy
import difflib
import json
import math
import sys
from pathlib import Path

SCHEMA_VERSION = 1

#: The committed deterministic projection: ``strip_observed`` of
#: ``--out``, ``sort_keys``, ``indent=1``.
REFERENCE = Path(__file__).resolve().parents[1] / "BENCH_chaos.json"

#: Sweeps each benchmark run exercises (registry names).
CHAOS_SWEEPS = ("chaos-lu", "chaos-qr")

OUTCOMES = ("detected", "recovered", "silent-corruption")

#: Per-point fields carried into the artifact.  ``elapsed`` and other
#: wall-clock observables are deliberately absent — a point row must
#: be identical across replays of the same seed.
_POINT_FIELDS = (
    "fault_class", "fault_seed", "outcome", "detail", "residual",
    "n_injected", "fault_log_digest",
)


def chaos_runs(
    sweeps=CHAOS_SWEEPS, fault_seeds=(0, 1, 2)
) -> list[dict]:
    """Execute each chaos sweep uncached and summarise per class."""
    from repro.harness.specs import SPECS
    from repro.harness.sweep import run_sweep

    runs = []
    for name in sweeps:
        spec = SPECS[name](fault_seeds=tuple(fault_seeds))
        result = run_sweep(spec, workers=1)
        failed = [r for r in result.results if r.status != "ok"]
        if failed:
            first = failed[0]
            raise RuntimeError(
                f"{name}: {len(failed)} point(s) failed to classify; "
                f"first: {first.point.params}: {first.error}"
            )
        points = [
            {field: r.result[field] for field in _POINT_FIELDS}
            for r in result.results
        ]
        points.sort(
            key=lambda p: (p["fault_class"], p["fault_seed"])
        )
        rates: dict[str, dict] = {}
        for point in points:
            cls = rates.setdefault(
                point["fault_class"],
                {outcome: 0 for outcome in OUTCOMES} | {"points": 0},
            )
            cls[point["outcome"]] += 1
            cls["points"] += 1
        runs.append(
            {
                "sweep": name,
                "params": dict(spec.fixed),
                "rates": rates,
                "points": points,
                "observed": {"wall_s": result.elapsed_s},
            }
        )
    return runs


def build_artifact(runs: list[dict]) -> dict:
    """The BENCH_chaos.json document for a set of chaos sweep runs."""
    return {
        "schema_version": SCHEMA_VERSION,
        "sweeps": sorted(r["sweep"] for r in runs),
        "outcomes": list(OUTCOMES),
        "runs": sorted(runs, key=lambda r: r["sweep"]),
    }


def strip_observed(doc: dict) -> dict:
    """The deterministic projection of an artifact: everything except
    each run's measured-wall-clock ``observed`` block.  Two runs over
    the same plan seeds must agree on this byte for byte."""
    out = copy.deepcopy(doc)
    for run in out.get("runs", []):
        run.pop("observed", None)
    return out


def settle_residuals(fresh: dict, reference: dict) -> dict:
    """The projection of ``fresh`` with each point's ``residual``
    replaced by ``reference``'s for the same sweep, class and seed
    wherever the two agree to 1e-6 relative or 1e-12 absolute: BLAS
    builds differ in the last bits, and a residual at rounding level is
    nothing but those."""
    committed = {
        (run["sweep"], p["fault_class"], p["fault_seed"]): p["residual"]
        for run in reference.get("runs", [])
        for p in run["points"]
    }
    out = strip_observed(fresh)
    for run in out["runs"]:
        for point in run["points"]:
            a = point["residual"]
            b = committed.get(
                (run["sweep"], point["fault_class"], point["fault_seed"])
            )
            if None not in (a, b) and math.isclose(
                a, b, rel_tol=1e-6, abs_tol=1e-12
            ):
                point["residual"] = b
    return out


def diff_artifacts(fresh: dict, reference: dict) -> list[str]:
    """Unified diff of a fresh artifact against the committed one
    (empty = it reproduces it).  Outcomes, details, injection counts,
    rates and fault-log digests are compared exactly; ``residual`` to
    rounding level (:func:`settle_residuals`)."""
    fresh = settle_residuals(fresh, reference)
    reference = strip_observed(reference)

    def lines(doc: dict) -> list[str]:
        return json.dumps(doc, indent=1, sort_keys=True).splitlines()

    return list(difflib.unified_diff(
        lines(reference), lines(fresh),
        REFERENCE.name, "this execution", lineterm="",
    ))


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
    for key in ("sweeps", "outcomes", "runs"):
        if not isinstance(doc.get(key), list):
            errors.append(f"missing or non-list field {key!r}")
    if errors:
        return errors
    if not doc["runs"]:
        errors.append("no runs")
    for i, run in enumerate(doc["runs"]):
        sweep = run.get("sweep")
        if sweep not in doc["sweeps"]:
            errors.append(
                f"runs[{i}].sweep {sweep!r} not in the sweeps list"
            )
        points = run.get("points")
        if not isinstance(points, list) or not points:
            errors.append(f"runs[{i}].points missing or empty")
            continue
        counted: dict[str, dict[str, int]] = {}
        for j, point in enumerate(points):
            outcome = point.get("outcome")
            if outcome not in OUTCOMES:
                errors.append(
                    f"runs[{i}].points[{j}].outcome {outcome!r} "
                    f"not in {OUTCOMES}"
                )
                continue
            digest = point.get("fault_log_digest")
            injected = point.get("n_injected")
            if outcome == "detected":
                if digest is not None or injected is not None:
                    errors.append(
                        f"runs[{i}].points[{j}]: a detected point "
                        f"has no reachable fault log, yet carries one"
                    )
            else:
                if not isinstance(digest, str) or not digest:
                    errors.append(
                        f"runs[{i}].points[{j}].fault_log_digest: "
                        f"expected hex string, got {digest!r}"
                    )
                if not isinstance(injected, int) or injected < 0:
                    errors.append(
                        f"runs[{i}].points[{j}].n_injected: expected "
                        f"non-negative int, got {injected!r}"
                    )
            cls = counted.setdefault(
                str(point.get("fault_class")),
                {o: 0 for o in OUTCOMES},
            )
            cls[outcome] += 1
        rates = run.get("rates")
        if not isinstance(rates, dict):
            errors.append(f"runs[{i}].rates missing or non-dict")
            continue
        for fault_class, tallied in counted.items():
            stated = rates.get(fault_class)
            if not isinstance(stated, dict):
                errors.append(
                    f"runs[{i}].rates missing class {fault_class!r}"
                )
                continue
            for outcome in OUTCOMES:
                if stated.get(outcome) != tallied[outcome]:
                    errors.append(
                        f"runs[{i}].rates[{fault_class!r}].{outcome} "
                        f"= {stated.get(outcome)!r} but the points "
                        f"tally {tallied[outcome]}"
                    )
            if stated.get("points") != sum(tallied.values()):
                errors.append(
                    f"runs[{i}].rates[{fault_class!r}].points != "
                    f"its outcome tallies"
                )
    return errors


# --------------------------------------------------------------------------
# pytest entry point
# --------------------------------------------------------------------------


def test_chaos_trajectory_artifact(benchmark, show):
    runs = benchmark.pedantic(
        chaos_runs,
        kwargs={"fault_seeds": (0, 1)},
        rounds=1,
        iterations=1,
    )
    doc = build_artifact(runs)
    assert validate_artifact(doc) == []
    from repro.harness import format_table

    rows = [
        {
            "sweep": run["sweep"],
            "fault_class": fault_class,
            "detected": cls["detected"],
            "recovered": cls["recovered"],
            "silent": cls["silent-corruption"],
        }
        for run in doc["runs"]
        for fault_class, cls in sorted(run["rates"].items())
    ]
    show(format_table(
        rows,
        [
            ("sweep", "sweep"),
            ("fault_class", "fault class"),
            ("detected", "detected"),
            ("recovered", "recovered"),
            ("silent", "silent corruption"),
        ],
        title="Chaos trajectory (outcomes per fault class)",
    ))
    for run in doc["runs"]:
        # a plan whose rule never fired must leave the run clean
        for point in run["points"]:
            if point["n_injected"] == 0:
                assert point["outcome"] == "recovered"
        if run["sweep"] == "chaos-lu":
            # pure delays never corrupt values; lost messages must
            # surface as typed errors, never as silent corruption
            assert run["rates"]["delay"]["recovered"] \
                == run["rates"]["delay"]["points"]
            assert run["rates"]["drop"]["detected"] \
                == run["rates"]["drop"]["points"]


# --------------------------------------------------------------------------
# standalone CLI (used by the CI chaos-smoke job)
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="generate / validate the BENCH_chaos.json artifact"
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="PATH",
                      help="run the chaos sweeps and write the artifact")
    mode.add_argument("--validate", metavar="PATH",
                      help="schema-check an existing artifact")
    mode.add_argument("--check-determinism", action="store_true",
                      help="execute the grid and require the fault "
                           "logs and outcomes of the committed "
                           "BENCH_chaos.json")
    mode.add_argument("--write-reference", action="store_true",
                      help="execute the grid and rewrite the committed "
                           "BENCH_chaos.json, keeping each residual "
                           "--check-determinism would accept")
    parser.add_argument(
        "--seeds", type=int, default=3,
        help="fault seeds per class (default 3)",
    )
    args = parser.parse_args(argv)
    fault_seeds = tuple(range(args.seeds))

    if args.validate:
        with open(args.validate) as fh:
            doc = json.load(fh)
        errors = validate_artifact(doc)
        if errors:
            for err in errors:
                print(f"INVALID: {err}", file=sys.stderr)
            return 1
        print(
            f"{args.validate}: valid ({len(doc['runs'])} sweeps, "
            f"{sum(len(r['points']) for r in doc['runs'])} points)"
        )
        return 0

    if args.check_determinism:
        fresh = build_artifact(chaos_runs(fault_seeds=fault_seeds))
        diffs = diff_artifacts(fresh, json.loads(REFERENCE.read_text()))
        if diffs:
            print(
                f"NON-DETERMINISTIC: this execution of the chaos grid "
                f"departs from the committed {REFERENCE.name}",
                file=sys.stderr,
            )
            for diff in diffs:
                print(f"  {diff}", file=sys.stderr)
            return 1
        n_points = sum(len(r["points"]) for r in fresh["runs"])
        print(
            f"deterministic: {n_points} chaos points reproduce the "
            f"committed {REFERENCE.name} (fault logs and outcomes)"
        )
        return 0

    doc = build_artifact(chaos_runs(fault_seeds=fault_seeds))
    errors = validate_artifact(doc)
    if errors:
        for err in errors:
            print(f"INVALID: {err}", file=sys.stderr)
        return 1
    out = args.out
    if args.write_reference:
        out = REFERENCE
        doc = settle_residuals(doc, json.loads(REFERENCE.read_text()))
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {sum(len(r['points']) for r in doc['runs'])} chaos "
        f"points to {out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
