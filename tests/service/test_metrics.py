"""Metrics math: percentiles, counters, snapshot invariants."""

import pytest

from repro.service.jobs import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    FactorRequest,
    ServiceResponse,
)
from repro.service.metrics import ServiceMetrics, percentile


def _response(status=STATUS_OK, latency_s=0.01, **kw):
    return ServiceResponse(
        request=FactorRequest(n=32),
        status=status,
        latency_s=latency_s,
        **kw,
    )


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_monotone_in_q(self):
        values = [0.4, 8.0, 2.5, 1.1, 9.9, 0.2, 5.0]
        qs = [0, 25, 50, 75, 90, 99, 100]
        results = [percentile(values, q) for q in qs]
        assert results == sorted(results)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], 101)

    def test_out_of_range_q_rejected_on_empty_input(self):
        """``q`` is checked before the empty-input shortcut."""
        for q in (150, -1):
            with pytest.raises(ValueError, match=r"\[0, 100\]"):
                percentile([], q)


class TestCounters:
    def test_each_status_lands_in_its_counter(self):
        metrics = ServiceMetrics()
        metrics.record(_response(STATUS_OK))
        metrics.record(_response(STATUS_REJECTED))
        metrics.record(_response(STATUS_ERROR))
        metrics.record(_response(STATUS_TIMEOUT))
        assert metrics.requests == 4
        assert metrics.completed == 1
        assert metrics.rejected == 1
        assert metrics.errors == 1
        assert metrics.timeouts == 1

    def test_completed_splits_by_how_it_was_served(self):
        metrics = ServiceMetrics()
        metrics.record(_response(cache_hit=True))
        metrics.record(_response(coalesced=True))
        metrics.record(_response())
        assert metrics.cache_hits == 1
        assert metrics.coalesced_hits == 1
        assert metrics.computed == 1

    def test_only_completions_contribute_latency(self):
        metrics = ServiceMetrics()
        metrics.record(_response(STATUS_OK, latency_s=0.5))
        metrics.record(_response(STATUS_REJECTED, latency_s=99.0))
        assert metrics.latencies_s == [0.5]


class TestSnapshot:
    def _loaded(self):
        metrics = ServiceMetrics()
        for latency in (0.010, 0.020, 0.030, 0.040):
            metrics.record(_response(latency_s=latency))
        metrics.record(_response(cache_hit=True, latency_s=0.001))
        metrics.record(_response(STATUS_REJECTED))
        metrics.sample_queue_depth(0)
        metrics.sample_queue_depth(3)
        metrics.sample_queue_depth(1)
        return metrics

    def test_counts_block_accounts_for_every_request(self):
        counts = self._loaded().snapshot(wall_s=1.0)["counts"]
        assert counts["requests"] == 6
        assert (
            counts["completed"] + counts["rejected"]
            + counts["errors"] + counts["timeouts"]
        ) == counts["requests"]
        assert (
            counts["computed"] + counts["served_without_compute"]
            == counts["completed"]
        )

    def test_latency_and_throughput(self):
        doc = self._loaded().snapshot(wall_s=2.0)
        assert doc["latency_ms"]["max"] == pytest.approx(40.0)
        assert doc["latency_ms"]["p50"] <= doc["latency_ms"]["p99"]
        assert doc["throughput_rps"] == pytest.approx(5 / 2.0)
        assert doc["max_queue_depth"] == 3
        assert doc["mean_queue_depth"] == pytest.approx(4 / 3)

    def test_hit_rate(self):
        doc = self._loaded().snapshot(wall_s=1.0)
        assert doc["cache_hit_rate"] == pytest.approx(1 / 5)

    def test_idle_service_reads_as_zeros(self):
        doc = ServiceMetrics().snapshot()
        assert doc["counts"]["requests"] == 0
        assert doc["latency_ms"]["p99"] == 0.0
        assert doc["throughput_rps"] == 0.0
        assert doc["cache_hit_rate"] == 0.0
        assert doc["wall_s"] == 0.0
