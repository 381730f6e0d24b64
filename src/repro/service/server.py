"""The asyncio factorization service: admission, one queue, caching.

One :class:`FactorService` fronts the :mod:`repro.algorithms` registry
with a bounded job queue.  A submitted request flows::

    submit ── cache hit? ──────────────────────────────▶ respond (O(1))
       │
       ├─ identical request in flight? ── join its future (coalesce)
       │
       ├─ depth >= queue_depth? ── reject + retry_after_s
       │
       └─ admit ▶ executor: FIFO, ``workers`` threads ▶ respond
                        │
                        ├─ ok: cache.put (guarded: a cache write
                        │  failure never kills a response)
                        └─ raised: ``error``, reported once

The thread pool's own FIFO is the one queue: it runs ``workers`` jobs
at a time in arrival order, so the depth admission control bounds is
the admitted jobs beyond those, and the event loop stays free for
admission and the TCP front-end while factorizations run.

The result cache is the harness's content-addressed
:class:`~repro.harness.cache.SweepCache` under the ``measured`` task's
keys: a problem factored by ``python -m repro sweep`` is already warm
for the service, and everything the service computes resumes future
sweeps.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro.harness.cache import SweepCache
from repro.service.config import ServiceConfig
from repro.service.jobs import (
    SERVICE_TASK,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    FactorRequest,
    ServiceResponse,
)
from repro.service.metrics import ServiceMetrics
from repro.service.worker import run_factor_job

#: Longest request line the TCP front-end reads (asyncio's default).
MAX_LINE_BYTES = 2**16
#: Fallback estimate of one job's service time before any completes.
_INITIAL_SERVICE_ESTIMATE_S = 0.05
#: EMA smoothing for the per-job service-time estimate.
_EMA_ALPHA = 0.2


class FactorService:
    """Asyncio admission in front of ``factor()`` on a thread pool.

    ``job_runner`` defaults to the real executor function; tests
    inject a stub to control service times without monkeypatching.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        cache: SweepCache | None = None,
        job_runner: Callable[[dict], dict] | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.cache = cache
        self.metrics = ServiceMetrics()
        self._job_runner = job_runner or run_factor_job
        #: jobs handed to the executor — the cache-hit contract ("a
        #: repeat matrix never reaches a worker") is asserted against
        #: this.
        self.worker_executions = 0
        self.cache_write_failures = 0
        #: one service-time EMA for every job: a rejected request
        #: waits for the whole backlog ahead of it, whatever its size.
        self._ema_service_s = _INITIAL_SERVICE_ESTIMATE_S
        #: cache key -> the task of every admitted, unfinished job.
        self._inflight: dict[str, asyncio.Task] = {}
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._executor is not None:
            raise RuntimeError("service already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )

    async def stop(self) -> None:
        """Let every admitted job complete, then release the threads."""
        if self._executor is None:
            return
        while self._inflight:
            await asyncio.gather(*self._inflight.values())
        self._executor.shutdown(wait=True)
        self._executor = None

    async def __aenter__(self) -> FactorService:
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # submission path
    # ------------------------------------------------------------------

    def _depth(self) -> int:
        """Admitted jobs waiting behind the ``workers`` that run."""
        return max(0, len(self._inflight) - self.config.workers)

    async def submit(self, request: FactorRequest) -> ServiceResponse:
        """Serve one request; never raises — failures come back as
        ``error`` / ``rejected`` / ``timeout`` responses."""
        if self._executor is None:
            raise RuntimeError("service not started (use 'async with')")
        t0 = time.perf_counter()
        key = request.cache_key()
        depth = self._depth()
        self.metrics.sample_queue_depth(depth)

        # 1. content-addressed cache: repeat matrices are O(1) hits
        #    that never touch the queue or a worker.
        if self.cache is not None:
            entry = self.cache.get(key)
            if entry is not None:
                response = ServiceResponse(
                    request=request,
                    status=STATUS_OK,
                    result=entry["result"],
                    cache_hit=True,
                    latency_s=time.perf_counter() - t0,
                )
                self.metrics.record(response)
                return response

        # 2. coalesce onto an identical in-flight request.
        pending = self._inflight.get(key)
        if pending is not None:
            return await self._await_outcome(
                request, pending, t0, coalesced=True
            )

        # 3. admission control: bounded queue, explicit rejection.
        if depth >= self.config.queue_depth:
            response = ServiceResponse(
                request=request,
                status=STATUS_REJECTED,
                error=(
                    f"queue full ({depth} jobs >= depth "
                    f"{self.config.queue_depth})"
                ),
                latency_s=time.perf_counter() - t0,
                retry_after_s=self.retry_after_s(depth),
            )
            self.metrics.record(response)
            return response

        # 4. admit: the executor runs jobs in arrival order.
        task = asyncio.get_running_loop().create_task(
            self._run(request, key)
        )
        self._inflight[key] = task
        return await self._await_outcome(
            request, task, t0, coalesced=False
        )

    async def _await_outcome(
        self,
        request: FactorRequest,
        future: asyncio.Future,
        t0: float,
        coalesced: bool,
    ) -> ServiceResponse:
        # Outcomes travel as (status, payload) tuples — a job's task
        # returns, never raises — so abandoned waiters never leave an
        # "exception was never retrieved" warning behind.
        wait_s = self.config.request_timeout_s
        if request.deadline_s is not None:
            wait_s = min(wait_s, request.deadline_s)
        try:
            status, payload = await asyncio.wait_for(
                asyncio.shield(future), wait_s
            )
        except asyncio.TimeoutError:
            response = ServiceResponse(
                request=request,
                status=STATUS_TIMEOUT,
                error=(
                    f"no result within {wait_s}s "
                    f"(the job keeps running and will populate the cache)"
                ),
                coalesced=coalesced,
                latency_s=time.perf_counter() - t0,
            )
            self.metrics.record(response)
            return response
        latency = time.perf_counter() - t0
        if status == STATUS_OK:
            response = ServiceResponse(
                request=request,
                status=STATUS_OK,
                result=payload,
                coalesced=coalesced,
                latency_s=latency,
            )
        else:
            response = ServiceResponse(
                request=request,
                status=STATUS_ERROR,
                error=payload,
                coalesced=coalesced,
                latency_s=latency,
            )
        self.metrics.record(response)
        return response

    def retry_after_s(self, depth: int) -> float:
        """Backoff hint: expected time to drain ``depth`` queued jobs.

        Priced at the one service-time EMA, not at the rejected
        request's own size: in a FIFO it waits for the jobs ahead of
        it, so a small request behind big ones must not retry early.
        """
        return max(
            0.01, (depth + 1) * self._ema_service_s / self.config.workers
        )

    # ------------------------------------------------------------------
    # executor side
    # ------------------------------------------------------------------

    async def _run(self, request: FactorRequest, key: str) -> tuple:
        """One admitted job: its ``(status, payload)`` outcome."""
        self.worker_executions += 1
        params = request.params()
        try:
            row, elapsed = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._timed_job, params
            )
        except Exception as exc:
            return STATUS_ERROR, f"{type(exc).__name__}: {exc}"
        finally:
            self._inflight.pop(key, None)
        self._ema_service_s = (
            (1 - _EMA_ALPHA) * self._ema_service_s + _EMA_ALPHA * elapsed
        )
        # Guarded exactly like the sweep engine's finish(): a cache
        # write failure (unserialisable payload, disk full) costs the
        # entry, never the response.
        if self.cache is not None:
            try:
                self.cache.put(key, SERVICE_TASK, params, row, elapsed)
            except Exception:
                self.cache_write_failures += 1
        return STATUS_OK, row

    def _timed_job(self, params: dict) -> tuple[dict, float]:
        # Timed on its own thread: the estimate is of service time,
        # not of the wait in the executor's queue.
        start = time.perf_counter()
        return self._job_runner(params), time.perf_counter() - start

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def metrics_snapshot(self, wall_s: float | None = None) -> dict:
        doc = self.metrics.snapshot(wall_s)
        doc["worker_executions"] = self.worker_executions
        doc["cache_write_failures"] = self.cache_write_failures
        doc["queue_depth"] = self._depth()
        return doc


# ----------------------------------------------------------------------
# TCP front-end: newline-delimited JSON over asyncio streams
# ----------------------------------------------------------------------


async def handle_connection(
    service: FactorService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: a JSON request object per line, a JSON
    response per line.  ``{"op": "metrics"}`` returns the live metrics
    snapshot instead of factoring."""
    async def reply(payload: dict) -> None:
        writer.write(json.dumps(payload, sort_keys=True).encode() + b"\n")
        await writer.drain()

    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Past the stream limit the reader has thrown away what
                # it had buffered, complete lines behind the long one
                # included: the stream cannot be resynchronised, so
                # answer once and close.
                await reply({
                    "status": "bad-request",
                    "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
                })
                return
            if not line:
                return
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                if isinstance(doc, dict) and doc.get("op") == "metrics":
                    payload = service.metrics_snapshot()
                else:
                    request = FactorRequest.from_dict(doc)
                    payload = (await service.submit(request)).to_dict()
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                payload = {"status": "bad-request", "error": str(exc)}
            await reply(payload)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def serve_tcp(
    service: FactorService, host: str = "127.0.0.1", port: int = 7077
) -> asyncio.base_events.Server:
    """Start the TCP front-end; returns the listening server (the
    caller owns its lifetime — ``server.close()`` to stop)."""

    async def handler(reader, writer):
        await handle_connection(service, reader, writer)

    return await asyncio.start_server(
        handler, host, port, limit=MAX_LINE_BYTES
    )
