"""Serving metrics: tail latency, throughput, queue depth, hit rates.

One :class:`ServiceMetrics` instance per service accumulates per-
request outcomes and queue-depth samples; :meth:`snapshot` reduces
them to a JSON-clean dict — the document the CLI report, the TCP
``metrics`` op and ``BENCH_service.json`` all share.

The counter fields of a snapshot are deterministic for a fixed
workload seed (caching plus in-flight coalescing make "how many jobs
actually computed" equal to the number of distinct problems, however
the event loop interleaves); the ``latency_ms`` / ``throughput_rps``
fields measure this machine today.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.service.jobs import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ServiceResponse,
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of unsorted values.

    Returns 0.0 for an empty sequence — metrics of an idle service
    read as zeros rather than NaNs.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math
    return float(ordered[int(rank) - 1])


class ServiceMetrics:
    """Mutable accumulator for one service instance."""

    def __init__(self) -> None:
        self.requests = 0
        self.completed = 0
        self.rejected = 0
        self.errors = 0
        self.timeouts = 0
        self.cache_hits = 0
        self.coalesced_hits = 0
        self.computed = 0
        self.latencies_s: list[float] = []
        #: queue depth seen by each request, kept as running totals.
        self.depth_samples = 0
        self.depth_sum = 0
        self.depth_max = 0

    def record(self, response: ServiceResponse) -> None:
        self.requests += 1
        if response.status == STATUS_OK:
            self.completed += 1
            self.latencies_s.append(response.latency_s)
            if response.cache_hit:
                self.cache_hits += 1
            elif response.coalesced:
                self.coalesced_hits += 1
            else:
                self.computed += 1
        elif response.status == STATUS_REJECTED:
            self.rejected += 1
        elif response.status == STATUS_TIMEOUT:
            self.timeouts += 1
        elif response.status == STATUS_ERROR:
            self.errors += 1
        else:  # pragma: no cover - statuses are closed
            raise ValueError(f"unknown response status {response.status!r}")

    def sample_queue_depth(self, depth: int) -> None:
        self.depth_samples += 1
        self.depth_sum += depth
        self.depth_max = max(self.depth_max, depth)

    def snapshot(self, wall_s: float | None = None) -> dict:
        """Reduce to the shared metrics document.

        ``counts`` holds the workload-deterministic integers; the
        remaining keys (latency percentiles, throughput) are measured
        wall-clock behaviour.
        """
        served_without_compute = self.cache_hits + self.coalesced_hits
        latencies_ms = [s * 1e3 for s in self.latencies_s]
        return {
            "counts": {
                "requests": self.requests,
                "completed": self.completed,
                "rejected": self.rejected,
                "errors": self.errors,
                "timeouts": self.timeouts,
                "computed": self.computed,
                "served_without_compute": served_without_compute,
            },
            "cache_hits": self.cache_hits,
            "coalesced_hits": self.coalesced_hits,
            "cache_hit_rate": (
                served_without_compute / self.completed
                if self.completed else 0.0
            ),
            "latency_ms": {
                "p50": percentile(latencies_ms, 50),
                "p95": percentile(latencies_ms, 95),
                "p99": percentile(latencies_ms, 99),
                "mean": (
                    sum(latencies_ms) / len(latencies_ms)
                    if latencies_ms else 0.0
                ),
                "max": max(latencies_ms, default=0.0),
            },
            "throughput_rps": (
                self.completed / wall_s if wall_s else 0.0
            ),
            "wall_s": wall_s if wall_s is not None else 0.0,
            "max_queue_depth": self.depth_max,
            "mean_queue_depth": (
                self.depth_sum / self.depth_samples
                if self.depth_samples else 0.0
            ),
        }
