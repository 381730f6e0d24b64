"""Workload generation: Zipf weights, sampler determinism, loops."""

import pytest

from repro.documents import write
from repro.harness.cache import SweepCache
from repro.service import (
    STATUS_OK,
    RequestSampler,
    ServiceConfig,
    WorkloadSpec,
    run_workload,
    zipf_weights,
)


def fake_runner(params):
    return {"params": dict(params), "residual": 0.0}


class TestZipfWeights:
    def test_normalized(self):
        assert sum(zipf_weights(10, 1.2)) == pytest.approx(1.0)

    def test_strictly_decreasing(self):
        weights = zipf_weights(6, 1.2)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_higher_skew_concentrates_mass(self):
        flat = zipf_weights(5, 0.5)
        skewed = zipf_weights(5, 2.0)
        assert skewed[0] > flat[0]

    def test_needs_at_least_one_rank(self):
        with pytest.raises(ValueError, match="at least one rank"):
            zipf_weights(0, 1.2)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw, match",
        [
            ({"mode": "burst"}, "unknown mode"),
            ({"requests": 0}, "requests"),
            ({"clients": 0}, "clients"),
            ({"rate_rps": 0.0}, "rate_rps"),
            ({"sizes": ()}, "sizes"),
            ({"seed_pool": 0}, "seed_pool"),
        ],
    )
    def test_bad_specs_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            WorkloadSpec(**kw)

    @pytest.mark.parametrize("field", ["rate_rps", "zipf_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_and_skew_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            WorkloadSpec(**{field: value})

    def test_to_dict_round_trips_the_catalog(self):
        spec = WorkloadSpec(sizes=(24, 48))
        assert write(spec)["sizes"] == [24, 48]


class TestSamplerDeterminism:
    def test_same_seed_same_stream(self):
        spec = WorkloadSpec(requests=50, seed=7)
        a = RequestSampler(spec).request_stream()
        b = RequestSampler(spec).request_stream()
        assert a == b

    def test_different_seed_different_stream(self):
        a = RequestSampler(WorkloadSpec(requests=50, seed=0))
        b = RequestSampler(WorkloadSpec(requests=50, seed=1))
        assert a.request_stream() != b.request_stream()

    def test_arrival_gaps_deterministic_and_independent(self):
        spec = WorkloadSpec(requests=20, seed=3, rate_rps=200.0)
        sampler = RequestSampler(spec)
        gaps = sampler.arrival_gaps_s(20)
        assert gaps == RequestSampler(spec).arrival_gaps_s(20)
        assert all(g >= 0 for g in gaps)
        # drawing gaps does not perturb the request stream
        assert (
            sampler.request_stream()
            == RequestSampler(spec).request_stream()
        )

    def test_popular_sizes_dominate(self):
        spec = WorkloadSpec(
            requests=300, seed=0, zipf_s=1.5, sizes=(32, 48, 64, 96)
        )
        stream = RequestSampler(spec).request_stream()
        smallest = sum(1 for r in stream if r.n == 32)
        largest = sum(1 for r in stream if r.n == 96)
        assert smallest > largest

    def test_requests_carry_the_spec_problem_settings(self):
        spec = WorkloadSpec(requests=5, impl="lu25d", p=8)
        for request in RequestSampler(spec).request_stream():
            assert request.impl == "lu25d"
            assert request.p == 8
            assert request.n in spec.sizes
            assert 0 <= request.seed < spec.seed_pool


class TestRunWorkload:
    def test_closed_loop_serves_every_request(self, tmp_path):
        spec = WorkloadSpec(
            mode="closed", requests=20, clients=3, seed=0,
            sizes=(24, 32), seed_pool=3,
        )
        report = run_workload(
            ServiceConfig(workers=2), spec,
            cache=SweepCache(tmp_path), job_runner=fake_runner,
        )
        counts = report.metrics["counts"]
        assert counts["completed"] == spec.requests
        assert counts["rejected"] == 0
        assert counts["computed"] < spec.requests  # cache + coalesce
        assert len(report.responses) == spec.requests
        assert all(r.status == STATUS_OK for r in report.responses)

    def test_open_loop_overload_rejects_not_buffers(self, tmp_path):
        # Arrivals far above service capacity: the bounded queue must
        # shed load with explicit rejections.
        spec = WorkloadSpec(
            mode="open", requests=30, rate_rps=2000.0, seed=0,
            sizes=(32,), seed_pool=30,  # all distinct: no coalescing
        )
        import time

        def slow(params):
            time.sleep(0.02)
            return {"params": dict(params), "residual": 0.0}

        config = ServiceConfig(workers=1, queue_depth=2)
        report = run_workload(
            config, spec, cache=SweepCache(tmp_path), job_runner=slow,
        )
        counts = report.metrics["counts"]
        assert counts["rejected"] > 0
        assert counts["completed"] + counts["rejected"] == spec.requests
        assert report.metrics["max_queue_depth"] <= config.queue_depth

    def test_report_describe_mentions_the_headline_numbers(self, tmp_path):
        spec = WorkloadSpec(requests=10, seed=0, sizes=(24,), seed_pool=2)
        report = run_workload(
            ServiceConfig(workers=1), spec,
            cache=SweepCache(tmp_path), job_runner=fake_runner,
        )
        text = report.describe()
        assert "p50" in text and "p99" in text
        assert "throughput" in text
        assert "cache hit rate" in text
        doc = report.to_dict()
        assert doc["workload"]["requests"] == 10
        assert doc["metrics"]["counts"]["completed"] == 10
