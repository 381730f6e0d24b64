"""Synthetic workload generation: Zipf sizes, open/closed loops.

Serving-load papers describe request streams by two orthogonal
choices: the *popularity* distribution (what is asked for) and the
*arrival* process (when).  Here:

* problem sizes are Zipf-distributed over a small catalog — rank k
  drawn with probability proportional to 1/k^s, smallest size most
  popular (lots of small requests, a heavy tail of big ones), and
  seeds are drawn Zipf from a bounded pool so popular matrices repeat
  and exercise the content-addressed cache;
* ``closed`` mode runs a fixed number of concurrent clients, each
  issuing its next request when the previous response lands (load
  self-limits — the classic closed-loop benchmark); ``open`` mode
  fires requests at exponential inter-arrival gaps regardless of
  completions (arrival rate is external, so overload shows up as
  queue growth and rejections instead of slowdown).

The full request list is materialized up front from the workload seed:
two runs of the same :class:`WorkloadSpec` issue byte-identical
request streams, which is what makes the count side of
``BENCH_service.json`` reproducible.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass

from repro.documents import write
from repro.harness.cache import SweepCache
from repro.service.config import ServiceConfig
from repro.service.jobs import FactorRequest, ServiceResponse
from repro.service.server import FactorService

MODES = ("closed", "open")


@dataclass(frozen=True)
class WorkloadSpec:
    """One synthetic request stream.

    ``sizes`` is the problem-size catalog in *popularity order* (first
    = most popular); ``zipf_s`` the skew exponent; ``seed_pool`` how
    many distinct seeds each size draws from (smaller pool = more
    repeat matrices = higher cache hit rate).
    """

    mode: str = "closed"
    requests: int = 100
    clients: int = 4
    rate_rps: float = 100.0
    seed: int = 0
    zipf_s: float = 1.2
    sizes: tuple[int, ...] = (32, 48, 64, 96)
    seed_pool: int = 8
    impl: str = "conflux"
    p: int = 4

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; available: {MODES}"
            )
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if not 0 < self.rate_rps < math.inf:
            raise ValueError(
                f"rate_rps must be finite and > 0, got {self.rate_rps}"
            )
        if not math.isfinite(self.zipf_s):
            raise ValueError(f"zipf_s must be finite, got {self.zipf_s}")
        if not self.sizes:
            raise ValueError("sizes catalog must not be empty")
        if self.seed_pool < 1:
            raise ValueError(f"seed_pool must be >= 1, got {self.seed_pool}")


def zipf_weights(k: int, s: float) -> list[float]:
    """Normalized Zipf probabilities for ranks 1..k with exponent s."""
    if k < 1:
        raise ValueError(f"need at least one rank, got {k}")
    raw = [1.0 / (rank ** s) for rank in range(1, k + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class RequestSampler:
    """Deterministic request stream for one workload spec."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._size_weights = zipf_weights(len(spec.sizes), spec.zipf_s)
        self._seed_weights = zipf_weights(spec.seed_pool, spec.zipf_s)

    def draw(self) -> FactorRequest:
        (size,) = self._rng.choices(
            self.spec.sizes, weights=self._size_weights
        )
        (seed,) = self._rng.choices(
            range(self.spec.seed_pool), weights=self._seed_weights
        )
        return FactorRequest(
            impl=self.spec.impl, n=size, p=self.spec.p, seed=seed
        )

    def arrival_gaps_s(self, count: int) -> list[float]:
        """Open-loop inter-arrival gaps (exponential at ``rate_rps``),
        drawn from an independent stream so the request sequence is
        identical across modes."""
        rng = random.Random(f"{self.spec.seed}-arrivals")
        return [
            rng.expovariate(self.spec.rate_rps) for _ in range(count)
        ]

    def request_stream(self) -> list[FactorRequest]:
        return [self.draw() for _ in range(self.spec.requests)]


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one generated workload against one service config."""

    spec: WorkloadSpec
    config: ServiceConfig
    metrics: dict
    responses: tuple[ServiceResponse, ...]

    def to_dict(self) -> dict:
        return {
            "workload": write(self.spec),
            "service": write(self.config),
            "metrics": self.metrics,
        }

    def describe(self) -> str:
        counts = self.metrics["counts"]
        latency = self.metrics["latency_ms"]
        lines = [
            (
                f"{self.spec.mode}-loop: {counts['requests']} requests, "
                f"{self.spec.clients} clients, "
                f"{self.config.workers} workers"
            ),
            (
                f"  completed {counts['completed']} "
                f"(computed {counts['computed']}, served from "
                f"cache/coalesce {counts['served_without_compute']}), "
                f"rejected {counts['rejected']}, errors "
                f"{counts['errors']}, timeouts {counts['timeouts']}"
            ),
            (
                f"  latency  p50 {latency['p50']:.1f} ms   "
                f"p95 {latency['p95']:.1f} ms   "
                f"p99 {latency['p99']:.1f} ms   "
                f"(mean {latency['mean']:.1f}, max {latency['max']:.1f})"
            ),
            (
                f"  throughput {self.metrics['throughput_rps']:.1f} req/s "
                f"over {self.metrics['wall_s']:.2f} s"
            ),
            (
                f"  queue depth max {self.metrics['max_queue_depth']}, "
                f"cache hit rate {self.metrics['cache_hit_rate']:.1%}, "
                f"worker executions "
                f"{self.metrics['worker_executions']}"
            ),
        ]
        return "\n".join(lines)


async def run_closed_loop(
    service: FactorService, requests: list[FactorRequest], clients: int
) -> list[ServiceResponse]:
    """Fixed-concurrency clients draining a shared request list."""
    responses: list[ServiceResponse | None] = [None] * len(requests)
    next_index = 0

    async def client() -> None:
        nonlocal next_index
        while True:
            index = next_index
            if index >= len(requests):
                return
            next_index = index + 1
            responses[index] = await service.submit(requests[index])

    await asyncio.gather(*(client() for _ in range(min(clients, len(requests)))))
    return list(responses)


async def run_open_loop(
    service: FactorService,
    requests: list[FactorRequest],
    gaps_s: list[float],
) -> list[ServiceResponse]:
    """Exponential arrivals regardless of completions."""
    tasks: list[asyncio.Task] = []
    loop = asyncio.get_running_loop()
    for request, gap in zip(requests, gaps_s):
        await asyncio.sleep(gap)
        tasks.append(loop.create_task(service.submit(request)))
    return list(await asyncio.gather(*tasks))


async def run_workload_async(
    config: ServiceConfig,
    spec: WorkloadSpec,
    cache: SweepCache | None = None,
    job_runner=None,
) -> LoadReport:
    sampler = RequestSampler(spec)
    requests = sampler.request_stream()
    service = FactorService(config, cache=cache, job_runner=job_runner)
    async with service:
        start = time.perf_counter()
        if spec.mode == "closed":
            responses = await run_closed_loop(
                service, requests, spec.clients
            )
        else:
            responses = await run_open_loop(
                service, requests, sampler.arrival_gaps_s(len(requests))
            )
        wall_s = time.perf_counter() - start
        metrics = service.metrics_snapshot(wall_s)
    return LoadReport(
        spec=spec,
        config=config,
        metrics=metrics,
        responses=tuple(responses),
    )


def run_workload(
    config: ServiceConfig,
    spec: WorkloadSpec,
    cache: SweepCache | None = None,
    job_runner=None,
) -> LoadReport:
    """Synchronous entry point: generate the stream, serve it, report.

    The one-call form the CLI, the benchmark and most tests use.
    """
    return asyncio.run(
        run_workload_async(
            config, spec, cache=cache, job_runner=job_runner
        )
    )
