"""One workload in one fresh process; prints one JSON document.

Started by ``run.py`` with the BLAS pools pinned to one thread in the
environment (before numpy loads) and ``src/`` on ``PYTHONPATH``, so the
rank threads are the only parallelism and ``process_time`` belongs to
them.  The process also confines itself to one CPU: under the GIL one
rank thread runs at a time anyway, and with two CPUs to choose from
the kernel's placement of the rank threads makes the *same* op take
anywhere between 1x and 3x (GIL hand-offs across cores), run to run
and op to op - noise no bound could hold.  What the extra CPUs cost is
reported as a per-layer number (``smpi.runtime.allcpu_slowdown``)
instead.  Modes:

``setup``   import, build inputs, warm up, report ``setup_s``, exit.
``timed``   the same, then repeat passes for ``--seconds`` with no
            wrapper installed anywhere; report the end-to-end metrics.
``traced``  the same, then untraced reference passes, one pass under
            the span recorder, and this workload's layer probes;
            report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

#: Reference passes of a traced run stop after this many seconds.
_REF_SECONDS = 3.0


def _environment(cpus: set[int]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class _Tally:
    """Samples and failures accumulated over passes."""

    def __init__(self) -> None:
        self.op_seconds: list[float] = []
        self.failures: list[str] = []
        self.pass_walls: list[float] = []
        self.sim: dict | None = None
        self.last = None

    def add(self, result) -> None:
        self.last = result
        self.pass_walls.append(result.wall_s)
        self.op_seconds += result.op_seconds
        self.failures += result.failures
        if self.sim is None:
            self.sim = result.sim
        elif result.sim != self.sim:
            self.failures.append(
                f"simulated statistics changed between passes: "
                f"{self.sim} -> {result.sim}"
            )

    @property
    def passes(self) -> int:
        return len(self.pass_walls)

    @property
    def attempted(self) -> int:
        return len(self.op_seconds) + len(self.failures)


def _repeat(
    workload, seconds: float, min_passes: int = 1, **pass_args
) -> _Tally:
    """Passes until ``seconds`` are used: stop when the next pass would
    overshoot by more than half of itself."""
    tally = _Tally()
    start = time.perf_counter()
    while True:
        tally.add(workload.check_pass(workload.run_pass(**pass_args)))
        elapsed = time.perf_counter() - start
        if (
            tally.passes >= min_passes
            and elapsed + 0.5 * elapsed / tally.passes >= seconds
        ):
            return tally


def _timed_metrics(tally: _Tally) -> dict:
    samples = tally.op_seconds
    return {
        "op_s_p50": statistics.median(samples),
        "ops_per_s": len(samples) / sum(tally.pass_walls),
        "sim_comm_bytes": tally.sim["sim_comm_bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def _traced_metrics(workload, spec, seed, workdir, cpus) -> tuple[dict, _Tally]:
    import catalog
    import probes
    import spans

    tally = _repeat(workload, _REF_SECONDS, min_passes=2, small=True)
    reference_pass = tally.last
    ref_op_s = statistics.median(tally.pass_walls)
    ref_p95 = _percentile(tally.op_seconds, 95)

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        cpu0 = time.process_time()
        raw = workload.run_pass(small=True)
        cpu = time.process_time() - cpu0
    finally:
        spans.uninstall()
    traced = workload.check_pass(raw)
    tally.add(traced)

    metrics = {name: 0.0 for name in catalog.PER_LAYER_BY_NAME}
    totals = recorder.totals()
    for layer, (cpu_s, wall_s, calls) in totals.items():
        metrics[f"{layer}.cpu_s"] = cpu_s
        # The two clocks tick independently; a span that never waited
        # can read a few microseconds negative.
        metrics[f"{layer}.wait_s"] = max(wall_s - cpu_s, 0.0)
        metrics[f"{layer}.calls"] = calls
    metrics["op_s_p95"] = ref_p95
    metrics["trace_overhead_frac"] = traced.wall_s / ref_op_s - 1
    metrics["trace_cpu_coverage"] = (
        sum(slot[0] for slot in totals.values()) / cpu
    )
    if workload.ranks:
        # Rank threads live inside run_spmd, so their walls are held
        # against the span around it, not against the whole op (which
        # also assembles and verifies on the host thread).
        rank_wall = sum(
            slot[1] for slot in recorder.totals("rank").values()
        )
        metrics["trace_rank_wall_coverage"] = rank_wall / (
            workload.ranks * totals["smpi.runtime.spawn_join"][1]
        )
    metrics["models.model_err_frac"] = traced.sim.get("model_err_frac", 0.0)
    metrics["smpi.timing.sim_makespan_s"] = traced.sim.get(
        "sim_makespan_s", 0.0
    )
    # Rows of the sweep and the service carry bytes but no message
    # count; there the sends seen at the seam are the same number.
    metrics["smpi.volume.sim_messages"] = traced.sim.get(
        "sim_messages", metrics["smpi.runtime.send.calls"]
    )

    ctx = {
        "workload": workload,
        "seed": seed,
        "workdir": workdir,
        "ref_op_s": ref_op_s,
        "ref_pass": reference_pass,
        "cpus": cpus,
    }
    for group in spec.probe_layers:
        measured = probes.GROUPS[group](ctx)
        unknown = set(measured) - set(catalog.PER_LAYER_BY_NAME)
        if unknown:
            raise KeyError(f"probes not in the catalogue: {sorted(unknown)}")
        metrics.update(measured)
    return metrics, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True,
                        help="scratch directory; the parent owns it")
    args = parser.parse_args(argv)

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    env = _environment(cpus)
    import catalog
    import spans
    import workloads

    spec = next(w for w in catalog.WORKLOADS if w.name == args.workload)
    workload = workloads.build(args.workload)
    if workload.clients > env["nproc"]:
        print(
            f"refusing to run {args.workload}: {workload.clients} "
            f"concurrent clients but only {env['nproc']} CPUs",
            file=sys.stderr,
        )
        return 2
    workdir = Path(args.workdir)
    workload.prepare(args.seed, workdir, args.quick)
    if not args.quick:
        workload.warmup()
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading
    # at spawn and ours are on one axis: interpreter start and imports
    # are inside setup_s.
    setup_s = time.monotonic() - args.spawned_at
    doc = {"workload": args.workload, "mode": args.mode,
           "seed": args.seed, "setup_s": setup_s, "env": env}
    if spans.installed():
        raise RuntimeError("span wrappers present before the timed pass")
    if args.mode == "timed":
        tally = _repeat(workload, 0.0 if args.quick else args.seconds)
        doc["metrics"] = _timed_metrics(tally)
    elif args.mode == "traced":
        doc["metrics"], tally = _traced_metrics(
            workload, spec, args.seed, workdir, cpus
        )
    if args.mode != "setup":
        doc.update(
            attempted=tally.attempted,
            failed=len(tally.failures),
            failures=tally.failures[:5],
            samples=len(tally.op_seconds),
            passes=tally.passes,
            sim=tally.sim,
        )
    env["loadavg_1m_end"] = os.getloadavg()[0]
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
