"""The six workloads: inputs from the seed, one timed pass, its checks.

Runs inside the benchmark child (BLAS pinned, ``src/`` on the path).
All inputs are built here from ``--seed``; the program under test sees
only matrices, specs and request streams.  Every workload is a closed
loop with one caller, except ``service-zipf`` (two clients).

A *pass* is the unit the child repeats until ``--seconds`` is used up:
one ``factor()`` call, one cold sweep plus its warm replays, or one
request stream.  ``small=True`` asks for the reduced pass the traced
run uses (an 8-point sweep, 100 requests; a factor op has no smaller
form).  ``run_pass`` does the timed work and nothing else;
``check_pass`` runs afterwards (untimed, and after the span wrappers
are gone in a traced run) and turns the raw outcome into per-op
samples, simulated statistics and failures.

Sizing follows ISSUE 11's table; README.md in this directory lists the
two places it differs and why.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from pathlib import Path

import numpy as np

import repro.algorithms as algorithms
import repro.harness as harness
import repro.service as service
from repro.faults import canned_plan
from repro.harness.runner import model_for
from repro.harness.specs import fig6a_measured_spec

RESIDUAL_TOL = 1e-10
WARM_REPLAYS = 5


@dataclasses.dataclass
class PassResult:
    """Checked outcome of one pass."""

    #: host seconds of each op that completed correctly
    op_seconds: list[float]
    #: ops that raised, were refused, timed out or failed a check
    failures: list[str]
    #: timed wall of the pass (what ops_per_s divides by)
    wall_s: float
    #: simulated statistics; must repeat exactly across passes
    sim: dict[str, float]
    #: host-side extras for the per-layer report (never compared)
    extra: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.op_seconds) + len(self.failures)


class FactorWorkload:
    """``factor(algo, A_n, grid=..., v=...)``; one pass = one op."""

    def __init__(self, algo, n, grid, v, machine=None, fault_class=None):
        self.algo, self.n, self.grid, self.v = algo, n, tuple(grid), v
        self.machine, self.fault_class = machine, fault_class
        self.ranks = int(np.prod(grid))
        self.clients = 1

    def prepare(self, seed: int, workdir: Path, quick: bool) -> None:
        self.a = np.random.default_rng(seed).standard_normal(
            (self.n, self.n)
        )
        self.opts = {}
        if self.machine:
            self.opts["machine"] = self.machine
        if self.fault_class:
            self.opts["faults"] = canned_plan(self.fault_class, seed)

    def warmup(self) -> None:
        self.check_pass(self.run_pass())

    def run_pass(self, small: bool = False, **overrides):
        opts = {**self.opts, **overrides}
        start = time.perf_counter()
        try:
            # Looked up on the package at call time: the traced pass
            # replaces this name, the timed pass sees the original.
            result = algorithms.factor(
                self.algo, self.a, grid=self.grid, v=self.v, **opts
            )
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            result = exc
        return result, time.perf_counter() - start

    def check_pass(self, raw) -> PassResult:
        result, seconds = raw
        if isinstance(result, Exception):
            why = f"{type(result).__name__}: {result}"
            return PassResult([], [why], seconds, {})
        failures = []
        if algorithms.get_algorithm(self.algo).kind == "qr":
            residual, orth = algorithms.verify_qr_factors(
                self.a, result.lower, result.upper
            )
            if max(residual, orth) > RESIDUAL_TOL:
                failures.append(
                    f"QR residual {residual:.2e} / orthogonality "
                    f"{orth:.2e} > {RESIDUAL_TOL:g}"
                )
        else:
            check = algorithms.check_factors(
                self.a, result.lower, result.upper, result.perm,
                residual_tol=RESIDUAL_TOL,
            )
            if not check.ok:
                failures.append(check.describe())
        volume = result.volume
        if sum(volume.sent_bytes) != sum(volume.recv_bytes):
            failures.append(
                f"ledger sent {sum(volume.sent_bytes)} != received "
                f"{sum(volume.recv_bytes)}"
            )
        model = model_for(
            self.algo, self.n, self.ranks,
            {"grid": self.grid, "v": self.v},
        )
        sim = {
            "sim_comm_bytes": volume.total_bytes,
            "sim_messages": volume.total_messages,
            "model_err_frac": abs(volume.total_bytes - model) / model,
            "sim_makespan_s": (
                volume.timing.makespan if volume.timing else 0.0
            ),
        }
        if failures:
            return PassResult([], failures, seconds, sim)
        return PassResult([seconds], [], seconds, sim)


class SweepWorkload:
    """Figure 6a measured grid, inline: cold pass + warm replays.

    An op is one grid point of the cold pass, timed between progress
    callbacks (so cache writes and engine overhead count).  The warm
    replays are checked, not timed as ops.
    """

    ranks = 0
    clients = 1

    def __init__(self, n, p_values, small_points, quick_points):
        self.n, self.p_values = n, tuple(p_values)
        self.small_points, self.quick_points = small_points, quick_points

    def prepare(self, seed: int, workdir: Path, quick: bool) -> None:
        self.spec = fig6a_measured_spec(
            n=self.n, p_values=self.p_values, seed=seed
        )
        self.workdir = workdir
        self.max_points = self.quick_points if quick else None
        self._passes = 0

    def _fresh_cache(self) -> harness.SweepCache:
        self._passes += 1
        return harness.SweepCache(self.workdir / f"sweep-{self._passes}")

    def warmup(self) -> None:
        cache = self._fresh_cache()
        harness.run_sweep(
            self.spec, workers=1, cache=cache, max_points=self.quick_points
        )
        shutil.rmtree(cache.root, ignore_errors=True)

    def run_pass(self, small: bool = False, workers: int = 1):
        cache = self._fresh_cache()
        max_points = self.small_points if small else self.max_points
        marks = [time.perf_counter()]
        cold = harness.run_sweep(
            self.spec, workers=workers, cache=cache,
            max_points=max_points,
            progress=lambda _res: marks.append(time.perf_counter()),
        )
        cold_wall = time.perf_counter() - marks[0]
        warm_start = time.perf_counter()
        warm = [
            harness.run_sweep(
                self.spec, workers=1, cache=cache, max_points=max_points
            )
            for _ in range(WARM_REPLAYS)
        ]
        warm_wall = time.perf_counter() - warm_start
        shutil.rmtree(cache.root, ignore_errors=True)
        return cold, cold_wall, marks, warm, warm_wall

    def check_pass(self, raw) -> PassResult:
        cold, cold_wall, marks, warm, warm_wall = raw
        op_seconds, failures = [], []
        for res, begin, end in zip(cold.results, marks, marks[1:]):
            if res.ok and not res.from_cache:
                op_seconds.append(end - begin)
            else:
                failures.append(
                    f"{res.point.label()}: {res.status} {res.error or ''}"
                )
        rows = [res.result for res in cold.results if res.ok]
        for replay in warm:
            if replay.n_cached != replay.n_points or [
                res.result for res in replay.results
            ] != rows:
                failures.append(
                    f"warm replay: {replay.n_cached}/{replay.n_points} "
                    "hits or rows differ from the cold pass"
                )
        sim = {
            "sim_comm_bytes": sum(r["measured_bytes"] for r in rows),
            "model_err_frac": max(
                (
                    abs(r["measured_bytes"] - r["modeled_bytes"])
                    / r["modeled_bytes"]
                    for r in rows
                ),
                default=0.0,
            ),
        }
        points = max(cold.n_points, 1)
        extra = {
            "warm_point_us": 1e6 * warm_wall / (WARM_REPLAYS * points),
            "cold_overhead_ms_per_point": 1e3
            * (cold_wall - sum(r.elapsed_s for r in cold.results))
            / points,
        }
        return PassResult(op_seconds, failures, cold_wall, sim, extra)


class ServiceWorkload:
    """Zipf request stream against a fresh ``FactorService``.

    An op is one request; its seconds are the response's latency.  The
    stream is the program's own generator (``WorkloadSpec.seed``), so
    *which* requests it holds depends on the seed.  The skew (0.8) is
    mild enough that all 24 distinct problems show up in nearly every
    stream - the computed set, and so the throughput, is then a
    property of the program and not of the seed - and the simulated
    statistic is summed over the head request of each size (seed-pool
    index 0), which every stream contains.
    """

    ranks = 0
    clients = 2

    def __init__(self, requests, small_requests, quick_requests, **spec):
        self.requests = requests
        self.small_requests, self.quick_requests = (
            small_requests, quick_requests,
        )
        self.spec_fields = spec

    def prepare(self, seed: int, workdir: Path, quick: bool) -> None:
        self.spec = service.WorkloadSpec(
            mode="closed",
            requests=self.quick_requests if quick else self.requests,
            clients=self.clients,
            seed=seed,
            **self.spec_fields,
        )
        self.workdir = workdir
        self._passes = 0

    def _fresh_cache(self) -> harness.SweepCache:
        self._passes += 1
        return harness.SweepCache(self.workdir / f"service-{self._passes}")

    def _serve(self, spec, job_runner=None):
        cache = self._fresh_cache()
        start = time.perf_counter()
        try:
            report = service.run_workload(
                service.ServiceConfig(), spec, cache=cache,
                job_runner=job_runner,
            )
        except Exception as exc:  # noqa: BLE001 - a failed pass, counted
            report = exc
        wall = time.perf_counter() - start
        shutil.rmtree(cache.root, ignore_errors=True)
        return spec, report, wall

    def warmup(self) -> None:
        # One miss of the largest size and three repeats of it: the
        # same cost whatever the seed drew, through both paths.
        self._serve(dataclasses.replace(
            self.spec, requests=4, sizes=self.spec.sizes[-1:], seed_pool=1
        ))

    def run_pass(self, small: bool = False, job_runner=None, **overrides):
        spec = self.spec
        if small:
            spec = dataclasses.replace(spec, requests=self.small_requests)
        return self._serve(
            dataclasses.replace(spec, **overrides), job_runner
        )

    def check_pass(self, raw) -> PassResult:
        spec, report, wall = raw
        if isinstance(report, Exception):
            why = f"{type(report).__name__}: {report}"
            return PassResult([], [why] * spec.requests, wall, {})
        stream = service.RequestSampler(spec).request_stream()
        distinct = len({req.cache_key() for req in stream})
        op_seconds, failures = [], []
        head_rows = {}
        for response in report.responses:
            if not response.ok:
                failures.append(
                    f"{response.request.params()}: {response.status} "
                    f"{response.error or ''}"
                )
                continue
            op_seconds.append(response.latency_s)
            if response.request.seed == 0:
                head_rows[response.request.n] = response.result
        counts = report.metrics["counts"]
        if counts["completed"] != spec.requests:
            failures.append(
                f"completed {counts['completed']} != requests "
                f"{spec.requests}"
            )
        if counts["computed"] != distinct:
            failures.append(
                f"computed {counts['computed']} != {distinct} distinct "
                "requests in the stream"
            )
        if spec.requests >= self.requests and sorted(head_rows) != sorted(
            spec.sizes
        ):
            failures.append(
                f"head requests seen for sizes {sorted(head_rows)}, "
                f"expected {sorted(spec.sizes)}"
            )
        rows = list(head_rows.values())
        sim = {
            "sim_comm_bytes": sum(r["measured_bytes"] for r in rows),
            "model_err_frac": max(
                (
                    abs(r["measured_bytes"] - r["modeled_bytes"])
                    / r["modeled_bytes"]
                    for r in rows
                ),
                default=0.0,
            ),
        }
        hits = [
            r.latency_s for r in report.responses if r.ok and r.cache_hit
        ]
        extra = {
            "hit_latency_us": 1e6 * float(np.median(hits)) if hits else 0.0,
            "cache_hit_rate": report.metrics["cache_hit_rate"],
            "max_queue_depth": report.metrics["max_queue_depth"],
            "worker_executions": report.metrics["worker_executions"],
        }
        return PassResult(op_seconds, failures, wall, sim, extra)


def build(name: str):
    """A fresh workload object by its BENCHMARK.json name."""
    if name == "lu-p64":
        return FactorWorkload("conflux", 256, (4, 4, 4), 16)
    if name == "lu-p8-bigblock":
        return FactorWorkload("conflux", 1024, (2, 2, 2), 64)
    if name == "qr-p16-c4":
        return FactorWorkload("confqr", 256, (2, 2, 4), 16)
    if name == "lu-p16-clock-faults":
        return FactorWorkload(
            "conflux", 192, (4, 4, 1), 8,
            machine="daint-xc50", fault_class="delay",
        )
    if name == "sweep-fig6a":
        return SweepWorkload(
            128, (4, 8, 16, 32), small_points=8, quick_points=4
        )
    if name == "service-zipf":
        return ServiceWorkload(
            300, small_requests=100, quick_requests=40,
            sizes=(32, 48, 64, 96), seed_pool=6, zipf_s=0.8, impl="conflux", p=8,
        )
    raise KeyError(f"unknown workload {name!r}")
