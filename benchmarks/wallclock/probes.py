"""Layer probes: one public function of one layer, in isolation.

A probe answers "how fast is this layer on its own" with a micro
measurement that takes well under a second, so a later change to a
layer can be sized before the end-to-end numbers are re-measured.
Probes are grouped by the workload whose traced run reports them
(``catalog.Workload.probe_layers``); none of them is gated by a bound.
Every probe calls the program only through public names.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import threading
import time

import numpy as np
import scipy.linalg

from repro import kernels
from repro.faults import FaultInjector, canned_plan
from repro.harness import SweepCache
from repro.harness.cache import point_key
from repro.models import predict
from repro.models.costmodels import conflux_total_bytes
from repro.models.machines import resolve_machine
from repro.service import RequestSampler, WorkloadSpec
from repro.service.worker import run_factor_job
from repro.smpi import EventTrace, VolumeLedger, run_spmd, simulate


@contextlib.contextmanager
def _all_cpus(ctx):
    """Lift the child's one-CPU confinement for the enclosed block."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ctx["cpus"])
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def _median_seconds(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _per_call(fn, calls: int, reps: int = 3) -> float:
    """Median seconds per call of ``fn`` over ``reps`` batches."""

    def batch():
        for _ in range(calls):
            fn()

    return _median_seconds(batch, reps) / calls


# ----------------------------------------------------------------------
# smpi.runtime / smpi.collectives / smpi.volume   (lu-p64)
# ----------------------------------------------------------------------


def _noop(comm):
    return None


def _pingpong(comm, rounds):
    peer = 1 - comm.rank
    comm.barrier()
    start = time.perf_counter()
    for _ in range(rounds):
        if comm.rank == 0:
            comm.send(1.0, peer, 7)
            comm.recv(peer, 7)
        else:
            comm.recv(peer, 7)
            comm.send(1.0, peer, 7)
    return time.perf_counter() - start


def _fanin(comm, per_sender):
    """Everyone deposits ``per_sender`` tagged messages at rank 0, which
    then asks for them newest first: each receive scans past everything
    still pending."""
    if comm.rank:
        for tag in range(per_sender):
            comm.send(1.0, 0, tag)
    comm.barrier()
    if comm.rank:
        return 0.0
    start = time.perf_counter()
    for tag in reversed(range(per_sender)):
        for source in range(1, comm.size):
            comm.recv(source, tag)
    return time.perf_counter() - start


def _stream(comm, count, payload):
    comm.barrier()
    start = time.perf_counter()
    for _ in range(count):
        if comm.rank == 0:
            comm.send(payload, 1, 3)
        else:
            comm.recv(0, 3)
    comm.barrier()
    return time.perf_counter() - start


def _collective(comm, which, rounds):
    comm.barrier()
    start = time.perf_counter()
    for _ in range(rounds):
        if which == "bcast":
            comm.bcast(1.0 if comm.rank == 0 else None, root=0)
        else:
            comm.allreduce(1.0)
    comm.barrier()
    return time.perf_counter() - start


def runtime_probes(ctx) -> dict[str, float]:
    out = {}
    out["smpi.runtime.spawn_join_us_per_rank"] = (
        1e6 * _median_seconds(lambda: run_spmd(64, _noop), 5) / 64
    )
    rounds = 2000
    times, _ = run_spmd(2, _pingpong, rounds)
    out["smpi.runtime.pingpong_msgs_per_s"] = 2 * rounds / max(times)
    per_sender = 40
    times, _ = run_spmd(16, _fanin, per_sender)
    out["smpi.runtime.fanin_msgs_per_s"] = 15 * per_sender / times[0]
    # The same op with every CPU allowed again: > 1 is what handing
    # the GIL between cores costs over keeping the ranks on one CPU.
    workload = ctx["workload"]
    with _all_cpus(ctx):
        unpinned = statistics.median(
            workload.run_pass()[1] for _ in range(2)
        )
    out["smpi.runtime.allcpu_slowdown"] = unpinned / ctx["ref_op_s"]
    return out


def collectives_probes(ctx) -> dict[str, float]:
    rounds = 20
    out = {}
    for which in ("bcast", "allreduce"):
        times, _ = run_spmd(64, _collective, which, rounds)
        out[f"smpi.collectives.{which}_p64_us"] = (
            1e6 * max(times) / rounds
        )
    return out


def volume_probes(ctx) -> dict[str, float]:
    calls = 100_000
    ledger = VolumeLedger(2)

    def hammer(rank):
        for _ in range(calls):
            ledger.record_send(rank, 64)

    alone = _median_seconds(lambda: hammer(0), 3)

    def contended():
        threads = [
            threading.Thread(target=hammer, args=(rank,))
            for rank in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    both = _median_seconds(contended, 3)
    return {
        "smpi.volume.record_ns": 1e9 * alone / calls,
        "smpi.volume.record_contended_ns": 1e9 * both / (2 * calls),
    }


# ----------------------------------------------------------------------
# kernels   (lu-p8-bigblock, qr-p16-c4)
# ----------------------------------------------------------------------


def kernel_probes(ctx) -> dict[str, float]:
    rng = np.random.default_rng(ctx["seed"])
    out = {}
    payload = rng.standard_normal(32 * 1024)  # 256 KiB
    count = 200
    times, _ = run_spmd(2, _stream, count, payload)
    out["smpi.runtime.send_mb_per_s"] = (
        count * payload.nbytes / 1e6 / max(times)
    )
    n = 512
    a = rng.standard_normal((n, n))
    seconds = _median_seconds(
        lambda: kernels.lu_blocked_partial_pivot(a, block=64), 3
    )
    out["kernels.lu_blocked_gflops"] = (2 / 3) * n**3 / seconds / 1e9
    panel = rng.standard_normal((1024, 64))
    ids = np.arange(1024)
    out["kernels.tournament_us"] = 1e6 * _median_seconds(
        lambda: kernels.tournament_pivot_rows(panel, ids, 64, nchunks=4), 5
    )
    u = np.triu(rng.standard_normal((64, 64))) + 8 * np.eye(64)
    b = rng.standard_normal((2048, 64))
    seconds = _per_call(lambda: kernels.trsm_upper(u, b, side="right"), 20)
    out["kernels.trsm_gflops"] = 2048 * 64 * 64 / seconds / 1e9
    c = rng.standard_normal((n, n))
    seconds = _per_call(lambda: a @ c, 10)
    out["kernels.gemm_gflops"] = 2 * n**3 / seconds / 1e9
    big = rng.standard_normal((1024, 1024))
    baseline = _median_seconds(lambda: scipy.linalg.lu_factor(big), 5)
    out["kernels.scipy_lu_n1024_s"] = baseline
    out["kernels.seq_slowdown"] = ctx["ref_op_s"] / baseline
    return out


def qr_kernel_probes(ctx) -> dict[str, float]:
    rng = np.random.default_rng(ctx["seed"])
    blocks = [rng.standard_normal((64, 16)) for _ in range(4)]
    q1 = kernels.thin_q(*kernels.householder_qr(np.vstack(blocks))[:2])
    return {
        "kernels.tsqr_us": 1e6 * _per_call(lambda: kernels.tsqr(blocks), 20),
        "kernels.reconstruct_wy_us": 1e6
        * _per_call(lambda: kernels.reconstruct_wy(q1), 50),
    }


# ----------------------------------------------------------------------
# smpi.timing / faults   (lu-p16-clock-faults)
# ----------------------------------------------------------------------


def _ring_trace(nranks: int, rounds: int) -> EventTrace:
    trace = EventTrace(nranks)
    for _ in range(rounds):
        ids = [
            trace.record_send(rank, (rank + 1) % nranks, 1024, "ring")
            for rank in range(nranks)
        ]
        for rank in range(nranks):
            trace.record_recv((rank + 1) % nranks, ids[rank], "ring")
            trace.record_compute(rank, 1e4, "ring")
    return trace


def timing_probes(ctx) -> dict[str, float]:
    machine = resolve_machine("daint-xc50")
    trace = _ring_trace(64, 50)
    seconds = _median_seconds(lambda: simulate(trace, machine), 3)
    out = {"smpi.timing.replay_events_per_s": trace.n_events() / seconds}
    # The workload's op with the clock and the injector switched off
    # one at a time, interleaved so drift hits every variant alike.
    workload = ctx["workload"]
    variants = {
        "bare": {"machine": None, "faults": None},
        "clock": {"faults": None},
        "faults": {"machine": None},
    }
    seconds = {name: [] for name in variants}
    for _ in range(2):
        for name, overrides in variants.items():
            seconds[name].append(workload.run_pass(**overrides)[1])
    bare = statistics.median(seconds["bare"])
    out["smpi.timing.trace_overhead_frac"] = (
        statistics.median(seconds["clock"]) / bare - 1
    )
    out["faults.seam_overhead_frac"] = (
        statistics.median(seconds["faults"]) / bare - 1
    )
    return out


def faults_probes(ctx) -> dict[str, float]:
    injector = FaultInjector(canned_plan("delay", ctx["seed"]), 2)
    payload = np.zeros(8)
    seconds = _per_call(
        lambda: injector.process_send(
            0, 1, 0, 0, 5, "probe", payload, payload.nbytes
        ),
        5000,
    )
    return {"faults.decide_us": 1e6 * seconds}


# ----------------------------------------------------------------------
# models / harness   (sweep-fig6a)
# ----------------------------------------------------------------------


def models_probes(ctx) -> dict[str, float]:
    return {
        "models.predict_us": 1e6 * _per_call(
            lambda: predict("conflux", 4096, 64, machine="daint-xc50"), 200
        ),
        "models.costmodel_us": 1e6 * _per_call(
            lambda: conflux_total_bytes(256, 64, c=4, v=32, grid_rows=4),
            200,
        ),
    }


def harness_probes(ctx) -> dict[str, float]:
    workload = ctx["workload"]
    params = {"impl": "conflux", "n": 128, "p": 8, "seed": ctx["seed"]}
    row = run_factor_job(params)
    cache = SweepCache(ctx["workdir"] / "probe-cache")
    keys = [point_key("measured", {**params, "seed": i}, 1) for i in range(50)]
    out = {
        "harness.point_key_us": 1e6 * _per_call(
            lambda: point_key("measured", params, 1), 500
        )
    }
    start = time.perf_counter()
    for key in keys:
        cache.put(key, "measured", params, row, 0.1)
    out["harness.cache_put_us"] = (
        1e6 * (time.perf_counter() - start) / len(keys)
    )
    start = time.perf_counter()
    for key in keys:
        cache.get(key)
    out["harness.cache_get_us"] = (
        1e6 * (time.perf_counter() - start) / len(keys)
    )
    ref = ctx["ref_pass"]
    out["harness.warm_point_us"] = ref.extra["warm_point_us"]
    out["harness.cold_overhead_ms_per_point"] = ref.extra[
        "cold_overhead_ms_per_point"
    ]
    # Pool workers inherit the affinity, so the pool gets both CPUs;
    # the inline reference ran on one, as every timed pass does.  Never
    # more workers than CPUs: on a one-CPU machine the probe reads 0.
    if len(ctx["cpus"]) >= 2:
        with _all_cpus(ctx):
            pooled = workload.check_pass(
                workload.run_pass(small=True, workers=2)
            )
        out["harness.pool2_speedup"] = ref.wall_s / pooled.wall_s
    return out


# ----------------------------------------------------------------------
# service   (service-zipf)
# ----------------------------------------------------------------------


def service_probes(ctx) -> dict[str, float]:
    workload = ctx["workload"]
    ref = ctx["ref_pass"]
    out = {
        f"service.{name}": ref.extra[name]
        for name in (
            "hit_latency_us", "cache_hit_rate", "max_queue_depth",
            "worker_executions",
        )
    }
    spec = WorkloadSpec(requests=1000, seed=ctx["seed"])
    out["service.sampler_us_per_request"] = 1e6 * _median_seconds(
        lambda: RequestSampler(spec).request_stream(), 3
    ) / spec.requests
    # One client, (nearly) every request a miss, and a job that costs
    # nothing: what is left of a miss's latency is the service itself
    # - admission, dispatch, executor hand-off, cache write, response.
    row = run_factor_job({"impl": "conflux", "n": 32, "p": 4, "seed": 0})
    _, report, _ = workload.run_pass(
        job_runner=lambda params: row,
        requests=200, clients=1, seed_pool=64, zipf_s=0.01,
    )
    misses = [
        response.latency_s
        for response in report.responses
        if response.ok and not (response.cache_hit or response.coalesced)
    ]
    out["service.overhead_ms_per_miss"] = 1e3 * statistics.median(misses)
    return out


#: probe group (catalog.Workload.probe_layers entry) -> function
GROUPS = {
    "smpi.runtime": runtime_probes,
    "smpi.collectives": collectives_probes,
    "smpi.volume": volume_probes,
    "kernels": kernel_probes,
    "kernels.qr": qr_kernel_probes,
    "smpi.timing": timing_probes,
    "faults": faults_probes,
    "models": models_probes,
    "harness": harness_probes,
    "service": service_probes,
}
