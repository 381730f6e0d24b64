"""The benchmark's names: workloads, metrics, bounds, and what moves what.

``BENCHMARK.json`` at the repo root is this catalogue cut down to the
keys the driver's contract allows (``python3
benchmarks/wallclock/catalog.py`` prints it; ``test_wallclock.py``
checks the committed file against it).  What the contract has no key
for lives only here and in the ``--out`` document: the definition of
each metric, and ``moves`` — which end-to-end metric, on which
workload, a per-layer metric is expected to move.  ``moves`` was
written down before any optimisation; a later perf issue cites its
claim as ``metric`` on ``workload`` by these names.

Host time and simulated statistics are never mixed: every name that
starts with ``sim_`` (or ends in ``sim_makespan_s``) is a quantity of
the simulated machine and must repeat exactly for a fixed seed;
everything else is host time, memory or a count of host work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

RUN_SECONDS = 10
COMMAND = ["python3", "benchmarks/wallclock/run.py"]
PATHS = ["benchmarks/wallclock"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: layers whose probes this workload's traced run measures
    probe_layers: tuple[str, ...]


WORKLOADS = (
    Workload(
        "lu-p64",
        "64 rank threads, 45k small messages: smpi.runtime + smpi.volume "
        "dominate the CPU, kernels are ~5%; a runtime change shows here "
        "first",
        ("smpi.runtime", "smpi.collectives", "smpi.volume"),
    ),
    Workload(
        "lu-p8-bigblock",
        "same COnfLUX with the runtime nearly idle: kernels, GEMM and "
        "13 KB payload copies dominate; a runtime change should not "
        "move it, a kernel or copy change should",
        ("kernels",),
    ),
    Workload(
        "qr-p16-c4",
        "COnfQR drives Schedule25D and smpi differently: TSQR trees, "
        "chunked pane broadcasts over c=4 layers, compact-WY kernels; "
        "shows a gain tuned to COnfLUX traffic that costs the QR path",
        ("kernels.qr",),
    ),
    Workload(
        "lu-p16-clock-faults",
        "the send seam's other use: EventTrace recording, "
        "FaultInjector.process_send on every send and the simulate() "
        "replay, which the clean-path workloads bypass",
        ("smpi.timing", "faults"),
    ),
    Workload(
        "sweep-fig6a",
        "what a paper-reproduction user runs: the only workload covering "
        "scalapack2d / slate2d / candmc25d, run_experiment's model check "
        "and the result cache (cold pass, then warm replays)",
        ("models", "harness"),
    ),
    Workload(
        "service-zipf",
        "the serving user's view, closed loop with 2 clients: p50 is the "
        "cache-hit path, throughput is set by the 8% of requests that "
        "miss and queue behind a factorization",
        ("service",),
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "child start to first timed op: interpreter start, import repro, "
        "build inputs, one warm-up op; median over 3 fresh processes",
    ),
    EndToEnd(
        "op_s_p50", "s", "lower", 0.25,
        "median host seconds per timed op",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "correct ops completed / timed wall",
    ),
    EndToEnd(
        "sim_comm_bytes", "B", "lower", 0.05,
        "ledger total bytes of one op (sweep: summed over the grid; "
        "service: summed over the head request of each size) - the "
        "paper's quantity; exact for a fixed seed",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the measuring child",
    ),
)

#: span layers of the traced pass -> (end-to-end metric, workload) the
#: layer's cpu_s is expected to move.  Ranks are threads under the GIL,
#: so op wall ~ sum of layer cpu_s: a layer's share is the ceiling on
#: what speeding it up saves.
LAYERS = {
    "smpi.runtime.send": ("op_s_p50", "lu-p64"),
    "smpi.runtime.recv": ("op_s_p50", "lu-p64"),
    "smpi.runtime.spawn_join": ("op_s_p50", "lu-p64"),
    "smpi.runtime.other": ("op_s_p50", "lu-p64"),
    "smpi.collectives": ("op_s_p50", "lu-p64"),
    "smpi.volume": ("op_s_p50", "lu-p64"),
    "smpi.timing": ("op_s_p50", "lu-p16-clock-faults"),
    "faults": ("op_s_p50", "lu-p16-clock-faults"),
    "algorithms.schedule25d": ("op_s_p50", "lu-p64"),
    "algorithms.rank_self": ("op_s_p50", "lu-p8-bigblock"),
    "algorithms.verify": ("op_s_p50", "lu-p8-bigblock"),
    "algorithms.host": ("op_s_p50", "lu-p8-bigblock"),
    "kernels": ("op_s_p50", "lu-p8-bigblock"),
    "models": ("ops_per_s", "sweep-fig6a"),
    "harness": ("ops_per_s", "sweep-fig6a"),
    "service": ("ops_per_s", "service-zipf"),
}
SPAN_FIELDS = (("cpu_s", "s"), ("wait_s", "s"), ("calls", "count"))


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: tuple[str, str]
    #: probe group (a Workload.probe_layers entry); "" for numbers the
    #: traced pass itself produces
    group: str = ""


def _span_metrics() -> list[PerLayer]:
    out = []
    for layer, moves in LAYERS.items():
        for suffix, unit in SPAN_FIELDS:
            better = "higher" if suffix == "calls" else "lower"
            out.append(PerLayer(f"{layer}.{suffix}", unit, better, moves))
    return out


_P64 = ("op_s_p50", "lu-p64")
_BIG = ("op_s_p50", "lu-p8-bigblock")
_QR = ("op_s_p50", "qr-p16-c4")
_CLOCK = ("op_s_p50", "lu-p16-clock-faults")
_SWEEP = ("ops_per_s", "sweep-fig6a")
_HIT = ("op_s_p50", "service-zipf")
_MISS = ("ops_per_s", "service-zipf")

PER_LAYER = tuple(
    _span_metrics()
    + [
        # -- produced by the traced pass on every workload --------------
        # Tail of the untraced reference passes.  Demoted from the
        # end-to-end list: with a dozen samples it is the maximum, and
        # its spread between runs (20 %) sat too close to any bound.
        PerLayer("op_s_p95", "s", "lower", _MISS),
        PerLayer("trace_overhead_frac", "ratio", "lower", _P64),
        PerLayer("trace_cpu_coverage", "ratio", "higher", _P64),
        PerLayer("trace_rank_wall_coverage", "ratio", "higher", _P64),
        PerLayer("models.model_err_frac", "ratio", "lower",
                 ("sim_comm_bytes", "lu-p64")),
        PerLayer("smpi.timing.sim_makespan_s", "s", "lower", _CLOCK),
        PerLayer("smpi.volume.sim_messages", "count", "lower",
                 ("sim_comm_bytes", "lu-p64")),
        # -- probes: one layer in isolation ------------------------------
        PerLayer("smpi.runtime.spawn_join_us_per_rank", "us", "lower",
                 _P64, "smpi.runtime"),
        PerLayer("smpi.runtime.pingpong_msgs_per_s", "1/s", "higher",
                 _P64, "smpi.runtime"),
        PerLayer("smpi.runtime.fanin_msgs_per_s", "1/s", "higher",
                 _P64, "smpi.runtime"),
        PerLayer("smpi.runtime.allcpu_slowdown", "ratio", "lower",
                 _P64, "smpi.runtime"),
        PerLayer("smpi.collectives.bcast_p64_us", "us", "lower",
                 _P64, "smpi.collectives"),
        PerLayer("smpi.collectives.allreduce_p64_us", "us", "lower",
                 _P64, "smpi.collectives"),
        PerLayer("smpi.volume.record_ns", "ns", "lower",
                 _P64, "smpi.volume"),
        PerLayer("smpi.volume.record_contended_ns", "ns", "lower",
                 _P64, "smpi.volume"),
        PerLayer("smpi.runtime.send_mb_per_s", "MB/s", "higher",
                 _BIG, "kernels"),
        PerLayer("kernels.lu_blocked_gflops", "GFLOP/s", "higher",
                 _BIG, "kernels"),
        PerLayer("kernels.tournament_us", "us", "lower", _BIG, "kernels"),
        PerLayer("kernels.trsm_gflops", "GFLOP/s", "higher",
                 _BIG, "kernels"),
        PerLayer("kernels.gemm_gflops", "GFLOP/s", "higher",
                 _BIG, "kernels"),
        PerLayer("kernels.scipy_lu_n1024_s", "s", "lower",
                 _BIG, "kernels"),
        PerLayer("kernels.seq_slowdown", "ratio", "lower",
                 _BIG, "kernels"),
        PerLayer("kernels.tsqr_us", "us", "lower", _QR, "kernels.qr"),
        PerLayer("kernels.reconstruct_wy_us", "us", "lower",
                 _QR, "kernels.qr"),
        PerLayer("smpi.timing.replay_events_per_s", "1/s", "higher",
                 _CLOCK, "smpi.timing"),
        PerLayer("smpi.timing.trace_overhead_frac", "ratio", "lower",
                 _CLOCK, "smpi.timing"),
        PerLayer("faults.seam_overhead_frac", "ratio", "lower",
                 _CLOCK, "faults"),
        PerLayer("faults.decide_us", "us", "lower", _CLOCK, "faults"),
        PerLayer("models.predict_us", "us", "lower", _SWEEP, "models"),
        PerLayer("models.costmodel_us", "us", "lower", _SWEEP, "models"),
        PerLayer("harness.point_key_us", "us", "lower", _SWEEP, "harness"),
        PerLayer("harness.cache_put_us", "us", "lower", _SWEEP, "harness"),
        PerLayer("harness.cache_get_us", "us", "lower", _HIT, "harness"),
        PerLayer("harness.warm_point_us", "us", "lower",
                 _SWEEP, "harness"),
        PerLayer("harness.cold_overhead_ms_per_point", "ms", "lower",
                 _SWEEP, "harness"),
        PerLayer("harness.pool2_speedup", "ratio", "higher",
                 _SWEEP, "harness"),
        PerLayer("service.hit_latency_us", "us", "lower", _HIT, "service"),
        PerLayer("service.overhead_ms_per_miss", "ms", "lower",
                 _MISS, "service"),
        PerLayer("service.sampler_us_per_request", "us", "lower",
                 _MISS, "service"),
        PerLayer("service.cache_hit_rate", "ratio", "higher",
                 _MISS, "service"),
        PerLayer("service.max_queue_depth", "count", "lower",
                 _MISS, "service"),
        PerLayer("service.worker_executions", "count", "lower",
                 _MISS, "service"),
    ]
)

E2E_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def benchmark_json() -> dict:
    """The document committed as ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=1))
