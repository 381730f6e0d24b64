"""Pluggable dispatch policies: how admitted jobs reach workers.

A policy receives admitted :class:`~repro.service.jobs.Job` envelopes
via :meth:`put` and hands each worker its next job via :meth:`get`.
Two policies ship:

``fifo``
    One shared queue, strict arrival order.  The baseline every
    queueing result is stated against.
``least-loaded``
    Per-worker queues; each job is routed to the worker with the
    fewest outstanding jobs (queued + in flight).  Avoids head-of-line
    blocking behind one slow job when service times are skewed.

``depth()`` reports jobs admitted but not yet handed to a worker; the
server's admission control bounds it by ``config.queue_depth``.
"""

from __future__ import annotations

import asyncio

from repro.service.jobs import Job

#: Sentinel a worker receives when the service is shutting down.
SHUTDOWN = None


class DispatchPolicy:
    """Interface between admission control and the worker loops."""

    name = "base"

    def __init__(self, nworkers: int) -> None:
        self.nworkers = nworkers
        self._pending = 0
        self._inflight = [0] * nworkers

    def depth(self) -> int:
        """Jobs admitted but not yet running (the admission bound)."""
        return self._pending

    def task_started(self, worker_id: int) -> None:
        self._inflight[worker_id] += 1

    def task_done(self, worker_id: int) -> None:
        self._inflight[worker_id] -= 1

    async def put(self, job: Job) -> None:
        raise NotImplementedError

    async def get(self, worker_id: int) -> Job | None:
        raise NotImplementedError

    async def shutdown(self) -> None:
        """Deliver one SHUTDOWN sentinel to every worker."""
        raise NotImplementedError


class FifoPolicy(DispatchPolicy):
    """One shared queue, strict arrival order."""

    name = "fifo"

    def __init__(self, nworkers: int) -> None:
        super().__init__(nworkers)
        self._queue: asyncio.Queue = asyncio.Queue()

    async def put(self, job: Job) -> None:
        self._pending += 1
        self._queue.put_nowait(job)

    async def get(self, worker_id: int) -> Job | None:
        job = await self._queue.get()
        if job is not SHUTDOWN:
            self._pending -= 1
        return job

    async def shutdown(self) -> None:
        for _ in range(self.nworkers):
            self._queue.put_nowait(SHUTDOWN)


class LeastLoadedPolicy(DispatchPolicy):
    """Route each job to the worker with the fewest outstanding jobs."""

    name = "least-loaded"

    def __init__(self, nworkers: int) -> None:
        super().__init__(nworkers)
        self._queues = [asyncio.Queue() for _ in range(nworkers)]

    def load(self, worker_id: int) -> int:
        return self._queues[worker_id].qsize() + self._inflight[worker_id]

    def pick_worker(self) -> int:
        return min(range(self.nworkers), key=self.load)

    async def put(self, job: Job) -> None:
        self._pending += 1
        self._queues[self.pick_worker()].put_nowait(job)

    async def get(self, worker_id: int) -> Job | None:
        job = await self._queues[worker_id].get()
        if job is not SHUTDOWN:
            self._pending -= 1
        return job

    async def shutdown(self) -> None:
        for queue in self._queues:
            queue.put_nowait(SHUTDOWN)


#: Public policy registry: ``ServiceConfig.policy`` names one of these.
DISPATCH_POLICIES: dict[str, type[DispatchPolicy]] = {
    FifoPolicy.name: FifoPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
}


def make_policy(name: str, nworkers: int) -> DispatchPolicy:
    try:
        cls = DISPATCH_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown dispatch policy {name!r}; available: "
            f"{sorted(DISPATCH_POLICIES)}"
        ) from None
    return cls(nworkers)
