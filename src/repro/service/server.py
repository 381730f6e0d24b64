"""The asyncio factorization service: admission, one queue, caching.

One :class:`FactorService` fronts the :mod:`repro.algorithms` registry
with a bounded job queue.  A submitted request flows::

    submit ── cache hit? ──────────────────────────────▶ respond (O(1))
       │
       ├─ identical request in flight? ── join its future (coalesce)
       │
       ├─ queue.qsize() >= queue_depth? ── reject + retry_after_s
       │
       └─ admit ▶ FIFO queue ▶ idle worker ▶ executor ▶ respond
                                   │
                                   ├─ ok: cache.put (guarded: a cache
                                   │  write failure never kills a
                                   │  response)
                                   └─ raised: ``error``, reported once

Workers are asyncio tasks that pull jobs from the one shared queue and
run each once on a thread pool — the event loop stays free for
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
    Job,
    ServiceResponse,
)
from repro.service.metrics import ServiceMetrics
from repro.service.worker import run_factor_job

#: Longest request line the TCP front-end reads (asyncio's default).
MAX_LINE_BYTES = 2**16
#: Sentinel a worker pulls from the queue when the service is stopping.
_SHUTDOWN = None
#: Fallback estimate of one job's service time before any completes.
_INITIAL_SERVICE_ESTIMATE_S = 0.05
#: EMA smoothing for the per-job service-time estimate.
_EMA_ALPHA = 0.2
#: Bound on the per-shape EMA table: a long-running service seeing a
#: stream of distinct shapes evicts the least-recently-updated entry
#: (which then falls back to the global EMA) instead of growing
#: without limit.
_EMA_SHAPE_CAP = 512


class FactorService:
    """Asyncio job queue in front of ``factor()``.

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
        #: jobs that reached a worker — the cache-hit contract ("a
        #: repeat matrix never reaches a worker") is asserted against
        #: this.
        self.worker_executions = 0
        self.cache_write_failures = 0
        self._ema_service_s = _INITIAL_SERVICE_ESTIMATE_S
        #: shape_key -> per-job service-time EMA; the global EMA above
        #: is only the cold-start fallback, so ``retry_after_s`` hints
        #: stay honest under mixed problem sizes.  LRU-bounded at
        #: ``_EMA_SHAPE_CAP`` entries (dict insertion order tracks
        #: recency: updates reinsert their key).
        self._ema_by_shape: dict[tuple, float] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._workers: list[asyncio.Task] = []
        #: admitted jobs not yet pulled by a worker, in arrival order;
        #: ``qsize()`` is the depth admission control bounds.
        self._queue: asyncio.Queue = asyncio.Queue()
        self._executor = None
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("service already started")
        loop = asyncio.get_running_loop()
        # A queue binds to the loop it first waits on: one per start.
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )
        self._workers = [
            loop.create_task(self._worker_loop())
            for _ in range(self.config.workers)
        ]
        self._started = True

    async def stop(self) -> None:
        if not self._started:
            return
        for _ in self._workers:
            self._queue.put_nowait(_SHUTDOWN)
        await asyncio.gather(*self._workers)
        self._executor.shutdown(wait=True)
        self._started = False

    async def __aenter__(self) -> FactorService:
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # submission path
    # ------------------------------------------------------------------

    async def submit(self, request: FactorRequest) -> ServiceResponse:
        """Serve one request; never raises — failures come back as
        ``error`` / ``rejected`` / ``timeout`` responses."""
        if not self._started:
            raise RuntimeError("service not started (use 'async with')")
        t0 = time.perf_counter()
        key = request.cache_key()
        self.metrics.sample_queue_depth(self._queue.qsize())

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
        depth = self._queue.qsize()
        if depth >= self.config.queue_depth:
            response = ServiceResponse(
                request=request,
                status=STATUS_REJECTED,
                error=(
                    f"queue full ({depth} jobs >= depth "
                    f"{self.config.queue_depth})"
                ),
                latency_s=time.perf_counter() - t0,
                retry_after_s=self.retry_after_s(
                    depth, shape=request.shape_key()
                ),
            )
            self.metrics.record(response)
            return response

        # 4. admit: idle workers pull in arrival order.
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        job = Job(request=request, key=key, future=future)
        self._queue.put_nowait(job)
        return await self._await_outcome(
            request, future, t0, coalesced=False
        )

    async def _await_outcome(
        self,
        request: FactorRequest,
        future: asyncio.Future,
        t0: float,
        coalesced: bool,
    ) -> ServiceResponse:
        # Outcomes travel as (status, payload) tuples — set_result
        # only — so abandoned waiters never leave an "exception was
        # never retrieved" warning behind.
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

    def retry_after_s(
        self, depth: int | None = None, shape: tuple | None = None
    ) -> float:
        """Backoff hint: expected time to drain the current queue.

        Keyed per ``shape_key`` when one is given — a rejected 24x24
        request is not told to wait as long as a 512x512 backlog would
        suggest; the global EMA is only the cold-start fallback.
        """
        if depth is None:
            depth = self._queue.qsize()
        estimate = self._ema_service_s
        if shape is not None:
            estimate = self._ema_by_shape.get(shape, estimate)
        per_worker = max(1, self.config.workers)
        return max(0.01, (depth + 1) * estimate / per_worker)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job is _SHUTDOWN:
                return
            self.worker_executions += 1
            shape = job.request.shape_key()
            start = time.perf_counter()
            try:
                row = await loop.run_in_executor(
                    self._executor, self._job_runner, job.request.params()
                )
            except Exception as exc:
                self._resolve(
                    job, STATUS_ERROR, f"{type(exc).__name__}: {exc}"
                )
                continue
            elapsed = time.perf_counter() - start
            self._ema_service_s = (
                (1 - _EMA_ALPHA) * self._ema_service_s
                + _EMA_ALPHA * elapsed
            )
            prior = self._ema_by_shape.pop(shape, elapsed)
            self._ema_by_shape[shape] = (
                (1 - _EMA_ALPHA) * prior + _EMA_ALPHA * elapsed
            )
            while len(self._ema_by_shape) > _EMA_SHAPE_CAP:
                self._ema_by_shape.pop(next(iter(self._ema_by_shape)))
            self._cache_put(job, row, elapsed)
            self._resolve(job, STATUS_OK, row)

    def _cache_put(self, job: Job, row: dict, elapsed_s: float) -> None:
        # Guarded exactly like the sweep engine's finish(): a cache
        # write failure (unserialisable payload, disk full) costs the
        # entry, never the response.
        if self.cache is None:
            return
        try:
            self.cache.put(
                job.key, SERVICE_TASK, job.request.params(), row, elapsed_s
            )
        except Exception:
            self.cache_write_failures += 1

    def _resolve(self, job: Job, status: str, payload) -> None:
        self._inflight.pop(job.key, None)
        if not job.future.done():
            job.future.set_result((status, payload))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def metrics_snapshot(self, wall_s: float | None = None) -> dict:
        doc = self.metrics.snapshot(wall_s)
        doc["worker_executions"] = self.worker_executions
        doc["cache_write_failures"] = self.cache_write_failures
        doc["queue_depth"] = self._queue.qsize()
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
