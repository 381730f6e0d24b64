"""Wall-clock benchmark of the simulator: host time, layer by layer.

    python3 benchmarks/wallclock/run.py                 # whole suite
    python3 benchmarks/wallclock/run.py --quick         # smoke, < 25 s
    python3 benchmarks/wallclock/run.py --aa            # same code twice
    python3 benchmarks/wallclock/run.py --spread 10     # ten seeds
    python3 benchmarks/wallclock/run.py --workload lu-p64 --seed 3 \\
        --seconds 10 --trace 0                          # the driver's call

Every workload runs in its own fresh child process (``child.py``) with
the BLAS pools pinned to one thread.  A timed run (``--trace 0``)
reports the end-to-end metrics of ``BENCHMARK.json``; a traced run
(``--trace 1``, alias ``--traced``) reports the per-layer metrics.
With ``--workload`` the last line printed is the driver's JSON object.
README.md in this directory explains every name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402  (sibling module, after the path insert)

#: Fresh processes whose set-up time is measured per timed run; the
#: measuring child is one of them.
SETUP_SAMPLES = 3
_BLAS_PINS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def _child(workload: str, mode: str, seed: int, seconds: float,
           quick: bool = False) -> dict:
    """Run ``child.py`` once and return the document it prints."""
    workdir = HERE / ".work" / f"{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env.update({name: "1" for name in _BLAS_PINS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Anything the program puts in a temporary directory stays inside
    # the checkout, and goes when the child is done.
    env["TMPDIR"] = str(workdir)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--seconds", str(seconds), "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    if quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=170,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise ChildFailed(
            f"{workload} ({mode}) exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 quick: bool = False) -> dict:
    """One driver-style run: the measuring child plus, for a timed run,
    extra set-up-only children so ``setup_s`` is a median."""
    mode = "traced" if traced else "timed"
    doc = _child(workload, mode, seed, seconds, quick)
    setups = [doc["setup_s"]]
    if not (traced or quick):
        setups += [
            _child(workload, "setup", seed, seconds)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
    doc["setup_samples"] = setups
    if not traced:
        doc["metrics"]["setup_s"] = statistics.median(setups)
    return doc


def contract_line(doc: dict, traced: bool) -> str:
    """The driver's result object for one run."""
    names = catalog.PER_LAYER_BY_NAME if traced else catalog.E2E_BY_NAME
    return json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": doc["metrics"][name], "unit": meta.unit}
            for name, meta in names.items()
        },
    })


def print_environment(env: dict) -> None:
    print(
        f"environment: nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
        f"blas_threads={env['blas_threads']} "
        f"pinned_cpu={env['pinned_cpu']} loadavg_1m={env['loadavg_1m_start']:.2f}"
        f"->{env.get('loadavg_1m_end', float('nan')):.2f}"
    )
    if env["loadavg_1m_start"] > env["nproc"]:
        # Runnable rank threads count as load, so a run that follows a
        # thread-heavy one trips this on an otherwise idle machine.
        print(
            f"warning: 1-minute load average "
            f"{env['loadavg_1m_start']:.2f} at start exceeds nproc "
            f"{env['nproc']}; host times may be inflated"
        )


def print_run(doc: dict, traced: bool) -> None:
    names = catalog.PER_LAYER_BY_NAME if traced else catalog.E2E_BY_NAME
    kind = "per-layer (traced)" if traced else "end-to-end"
    print(
        f"== {doc['workload']} seed={doc['seed']} {kind}: "
        f"{doc['samples']} op samples in {doc['passes']} passes, "
        f"attempted={doc['attempted']} failed={doc['failed']} "
        f"fail_frac={doc['failed'] / doc['attempted']:.4g}"
    )
    for name, meta in names.items():
        value = doc["metrics"][name]
        if traced and not value:
            continue  # layer not on this workload's path
        print(f"   {name:<42} {value:>14.6g} {meta.unit}")
    for failure in doc.get("failures", []):
        print(f"   FAILED: {failure}")


def run_suite(args, seed: int, traced_too: bool) -> dict:
    """Every workload once (timed; traced too when asked)."""
    runs = {}
    for name in args.workloads:
        timed = run_workload(name, seed, args.seconds, False, args.quick)
        if not runs:
            print_environment(timed["env"])
        print_run(timed, traced=False)
        runs[name] = {"timed": timed}
        if traced_too:
            traced = run_workload(name, seed, args.seconds, True)
            print_run(traced, traced=True)
            runs[name]["traced"] = traced
    return runs


def document(runs: dict, seed: int) -> dict:
    """The ``--out`` document: names, bounds, ``moves`` and values."""
    return {
        "seed": seed,
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound, "definition": m.definition}
            for m in catalog.END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "moves": {"metric": m.moves[0], "workload": m.moves[1]}}
            for m in catalog.PER_LAYER
        ],
        "workloads": {
            name: {
                kind: {
                    key: run[key]
                    for key in (
                        "metrics", "attempted", "failed", "samples",
                        "passes", "sim", "setup_samples", "env",
                    )
                }
                for kind, run in by_kind.items()
            }
            for name, by_kind in runs.items()
        },
    }


def compare(a: dict, b: dict) -> list[dict]:
    """Rows ``{workload, metric, a, b, rel_diff, bound, ok}`` for two
    suite results; ``sim_*`` must be identical, the rest within bound."""
    rows = []
    for workload in a:
        for meta in catalog.END_TO_END:
            va = a[workload]["timed"]["metrics"][meta.name]
            vb = b[workload]["timed"]["metrics"][meta.name]
            rel = abs(va - vb) / max(abs(va), abs(vb))
            exact = meta.name.startswith("sim_")
            ok = va == vb if exact else rel <= meta.bound
            rows.append({
                "workload": workload, "metric": meta.name,
                "a": va, "b": vb, "rel_diff": rel,
                "bound": meta.bound, "ok": ok,
            })
            flag = "" if ok else "   <-- exceeds bound"
            print(
                f"   {workload:<20} {meta.name:<15} {va:>13.6g} "
                f"{vb:>13.6g}  diff {rel:7.2%}  bound "
                f"{meta.bound:.0%}{flag}"
            )
    return rows


def run_aa(args) -> int:
    print("-- A/A: the timed suite twice, same seed, same code")
    first = run_suite(args, args.seed, traced_too=False)
    second = run_suite(args, args.seed, traced_too=False)
    rows = compare(first, second)
    failed = sum(
        by_kind["timed"]["failed"]
        for runs in (first, second) for by_kind in runs.values()
    )
    _write(args.out or HERE / "results" / "aa.json",
           {"seed": args.seed, "rows": rows})
    bad = [row for row in rows if not row["ok"]]
    print(f"A/A: {len(rows) - len(bad)}/{len(rows)} metrics within bound")
    return 1 if bad or failed else 0


def run_spread(args) -> int:
    """What the driver does: N seeds per workload, quartile spread of
    every end-to-end metric as a share of its median."""
    print(f"-- spread over seeds {args.seed}..{args.seed + args.spread - 1}")
    values: dict = {}
    for offset in range(args.spread):
        runs = run_suite(args, args.seed + offset, traced_too=False)
        for workload, by_kind in runs.items():
            for name, value in by_kind["timed"]["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    value
                )
    rows, bad = [], 0
    for workload, by_metric in values.items():
        for meta in catalog.END_TO_END:
            series = by_metric[meta.name]
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            ok = meta.name == "setup_s" or spread <= meta.bound
            bad += not ok
            rows.append({
                "workload": workload, "metric": meta.name,
                "median": median, "spread": spread, "bound": meta.bound,
                "values": series,
            })
            third = "" if spread <= meta.bound / 3 else "  (> bound/3)"
            print(
                f"   {workload:<20} {meta.name:<15} median "
                f"{median:>13.6g}  spread {spread:7.2%}  bound "
                f"{meta.bound:.0%}{third}{'' if ok else '  <-- FAILS'}"
            )
    _write(args.out or HERE / "results" / "spread.json",
           {"seed": args.seed, "runs": args.spread, "rows": rows})
    return 1 if bad else 0


def _write(path, doc: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=catalog.WORKLOAD_NAMES,
                        help="run one workload and end with the "
                        "driver's JSON line (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS),
                        help="how long each timed run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="one op per workload, no warm-up, no "
                        "probes, no traced pass")
    parser.add_argument("--aa", action="store_true",
                        help="timed suite twice on one seed; fail if a "
                        "metric differs by more than its bound")
    parser.add_argument("--spread", type=int, metavar="N", default=0,
                        help="timed suite on N consecutive seeds; "
                        "quartile spread per metric, as the driver "
                        "computes it")
    parser.add_argument("--out", metavar="PATH",
                        help="where to write the result document "
                        "(default: benchmarks/wallclock/results/)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "algorithms" / "api.py").is_file():
        print(
            f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
            "the program in this checkout and does not run without it",
            file=sys.stderr,
        )
        return 2
    traced = bool(args.traced or args.trace)
    args.workloads = (
        [args.workload] if args.workload else list(catalog.WORKLOAD_NAMES)
    )
    try:
        if args.aa:
            return run_aa(args)
        if args.spread:
            return run_spread(args)
        if args.workload:
            doc = run_workload(
                args.workload, args.seed, args.seconds, traced, args.quick
            )
            print_environment(doc["env"])
            print_run(doc, traced)
            print(contract_line(doc, traced))
            return 0
        started = time.perf_counter()
        runs = run_suite(args, args.seed, traced_too=not args.quick)
        _write(args.out or HERE / "results" / "latest.json",
               document(runs, args.seed))
        failed = sum(
            run["failed"] for by_kind in runs.values()
            for run in by_kind.values()
        )
        print(f"suite finished in {time.perf_counter() - started:.1f} s, "
              f"{failed} failed ops")
        return 1 if failed else 0
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
