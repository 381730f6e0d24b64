"""FactorService end-to-end: one queue, caching, coalescing, TCP.

A repeat matrix never reaches a worker; admitted jobs run on the
executor in arrival order and ``stop()`` lets every one of them
complete; overload produces explicit bounded-queue rejections whose
``retry_after_s`` prices the backlog ahead of the request, not the
request itself; a failed job is reported once; callers can bound their
own wait with ``deadline_s``; and a fixed workload seed reproduces the
same outcome counts.
"""

import asyncio
import json
import time

import pytest

from repro.harness.cache import SweepCache
from repro.service import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    FactorRequest,
    FactorService,
    ServiceConfig,
    serve_tcp,
)


def run(coro):
    return asyncio.run(coro)


def fake_runner(params):
    """Instant stand-in for run_factor_job: echoes the problem."""
    return {"params": dict(params), "residual": 0.0}


def slow_runner(delay_s):
    def runner(params):
        time.sleep(delay_s)
        return {"params": dict(params), "residual": 0.0}

    return runner


def failing_runner(params):
    raise RuntimeError("synthetic factorization failure")


class TestLifecycle:
    def test_submit_before_start_raises(self):
        async def go():
            service = FactorService(ServiceConfig())
            with pytest.raises(RuntimeError, match="not started"):
                await service.submit(FactorRequest(n=32))

        run(go())

    def test_double_start_raises(self):
        async def go():
            async with FactorService(
                ServiceConfig(), job_runner=fake_runner
            ) as service:
                with pytest.raises(RuntimeError, match="already started"):
                    await service.start()

        run(go())

    def test_stop_is_idempotent(self):
        async def go():
            service = FactorService(
                ServiceConfig(), job_runner=fake_runner
            )
            await service.start()
            await service.stop()
            await service.stop()

        run(go())


class TestFifo:
    """The one queue: arrival order in, every admitted job out."""

    def test_strict_arrival_order(self):
        ran = []

        def recording(params):
            ran.append(params["seed"])
            return {"params": dict(params)}

        async def go():
            async with FactorService(
                ServiceConfig(workers=1), job_runner=recording
            ) as service:
                responses = await asyncio.gather(
                    *(
                        service.submit(FactorRequest(n=32, seed=s))
                        for s in range(5)
                    )
                )
                assert all(r.status == STATUS_OK for r in responses)

        run(go())
        assert ran == [0, 1, 2, 3, 4]

    def test_stop_completes_every_admitted_job(self):
        ran = []

        def recording(params):
            time.sleep(0.02)
            ran.append(params["seed"])
            return {"params": dict(params)}

        async def go():
            service = FactorService(
                ServiceConfig(workers=2), job_runner=recording
            )
            await service.start()
            submits = [
                asyncio.ensure_future(
                    service.submit(FactorRequest(n=32, seed=s))
                )
                for s in range(5)
            ]
            await asyncio.sleep(0)  # every submit is admitted
            assert service.metrics_snapshot()["queue_depth"] == 3
            await asyncio.wait_for(service.stop(), 5.0)
            # stop() returned only after every admitted job ran
            assert sorted(ran) == [0, 1, 2, 3, 4]
            responses = await asyncio.gather(*submits)
            assert all(r.status == STATUS_OK for r in responses)
            assert service.metrics_snapshot()["queue_depth"] == 0

        run(go())


class TestCacheHit:
    def test_second_identical_request_never_reaches_a_worker(
        self, tmp_path
    ):
        async def go():
            cache = SweepCache(tmp_path)
            async with FactorService(
                ServiceConfig(workers=1), cache=cache,
                job_runner=fake_runner,
            ) as service:
                first = await service.submit(FactorRequest(n=32, seed=0))
                assert first.status == STATUS_OK
                assert not first.cache_hit
                assert service.worker_executions == 1

                second = await service.submit(FactorRequest(n=32, seed=0))
                assert second.status == STATUS_OK
                assert second.cache_hit
                # the worker count did not move: the hit was served
                # straight from the content-addressed cache.
                assert service.worker_executions == 1
                assert second.result == first.result

        run(go())

    def test_sweep_cache_entries_are_warm_for_the_service(self, tmp_path):
        # A point factored by the sweep harness under the 'measured'
        # task is already a service cache hit: same key space.
        from repro.harness.cache import point_key
        from repro.harness.sweep import task_schema_version

        async def go():
            cache = SweepCache(tmp_path)
            request = FactorRequest(impl="conflux", n=32, p=4, seed=0)
            key = point_key(
                "measured", request.params(),
                task_schema_version("measured"),
            )
            cache.put(
                key, "measured", request.params(),
                {"residual": 1e-16}, 0.01,
            )
            async with FactorService(
                ServiceConfig(workers=1), cache=cache,
                job_runner=fake_runner,
            ) as service:
                response = await service.submit(request)
                assert response.cache_hit
                assert service.worker_executions == 0

        run(go())

    @pytest.mark.parametrize("text", ["[]", '{"key": 1}'])
    def test_document_that_is_no_entry_is_computed(self, tmp_path, text):
        async def go():
            cache = SweepCache(tmp_path)
            request = FactorRequest(n=32)
            cache.put(
                request.cache_key(), "measured", request.params(), {}, 0.01
            ).write_text(text)
            async with FactorService(
                ServiceConfig(workers=1), cache=cache,
                job_runner=fake_runner,
            ) as service:
                response = await service.submit(request)
                assert response.status == STATUS_OK
                assert not response.cache_hit
                assert service.worker_executions == 1

        run(go())

    def test_cache_write_failure_never_kills_the_response(self, tmp_path):
        def unserialisable(params):
            return {"payload": {1, 2, 3}}  # sets are not JSON

        async def go():
            async with FactorService(
                ServiceConfig(workers=1), cache=SweepCache(tmp_path),
                job_runner=unserialisable,
            ) as service:
                response = await service.submit(FactorRequest(n=32))
                assert response.status == STATUS_OK
                assert service.cache_write_failures == 1

        run(go())


class TestCoalescing:
    def test_concurrent_identical_requests_compute_once(self):
        async def go():
            async with FactorService(
                ServiceConfig(workers=2),
                job_runner=slow_runner(0.05),
            ) as service:
                request = FactorRequest(n=32, seed=0)
                responses = await asyncio.gather(
                    *(service.submit(request) for _ in range(5))
                )
                assert all(r.status == STATUS_OK for r in responses)
                assert service.worker_executions == 1
                assert sum(r.coalesced for r in responses) == 4

        run(go())

    def test_distinct_requests_do_not_coalesce(self):
        async def go():
            async with FactorService(
                ServiceConfig(workers=2), job_runner=fake_runner
            ) as service:
                responses = await asyncio.gather(
                    *(
                        service.submit(FactorRequest(n=32, seed=s))
                        for s in range(3)
                    )
                )
                assert service.worker_executions == 3
                assert not any(r.coalesced for r in responses)

        run(go())


class TestOverload:
    def test_bounded_queue_rejects_with_retry_hint(self):
        async def go():
            config = ServiceConfig(
                workers=1, queue_depth=2, request_timeout_s=10.0
            )
            async with FactorService(
                config, job_runner=slow_runner(0.05)
            ) as service:
                requests = [FactorRequest(n=32, seed=s) for s in range(10)]
                responses = await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )
                rejected = [
                    r for r in responses if r.status == STATUS_REJECTED
                ]
                accepted = [r for r in responses if r.status == STATUS_OK]
                assert rejected, "overload must produce rejections"
                assert accepted, "some requests must still be served"
                assert len(rejected) + len(accepted) == len(requests)
                for r in rejected:
                    assert r.retry_after_s is not None
                    assert r.retry_after_s > 0
                    assert "queue full" in r.error
                # the queue never held more than its bound
                assert (
                    service.metrics_snapshot()["max_queue_depth"]
                    <= config.queue_depth
                )

        run(go())

    def test_rejected_requests_succeed_on_retry(self):
        async def go():
            config = ServiceConfig(workers=1, queue_depth=1)
            async with FactorService(
                config, job_runner=slow_runner(0.02)
            ) as service:
                requests = [FactorRequest(n=32, seed=s) for s in range(6)]
                responses = await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )
                retry = [
                    r.request for r in responses
                    if r.status == STATUS_REJECTED
                ]
                assert retry
                # drained queue: sequential retries are admitted now
                for request in retry[:2]:
                    second = await service.submit(request)
                    assert second.status == STATUS_OK

        run(go())


class TestFailureModes:
    def test_runner_exception_becomes_error_response(self):
        async def go():
            async with FactorService(
                ServiceConfig(workers=1), job_runner=failing_runner
            ) as service:
                response = await service.submit(FactorRequest(n=32))
                assert response.status == STATUS_ERROR
                assert "synthetic factorization failure" in response.error
                # the service stays healthy for the next request
                assert (
                    await service.submit(FactorRequest(n=48))
                ).status == STATUS_ERROR

        run(go())

    def test_block_of_the_wrong_family_is_an_error_not_retried(self):
        """The real job runner: ``nb=`` on a ``v=`` member used to run
        the default block under a second cache key.  Executed once."""
        request = FactorRequest(impl="conflux", n=32, p=4, nb=16)
        assert request.cache_key() != FactorRequest(
            impl="conflux", n=32, p=4
        ).cache_key()

        async def go():
            async with FactorService(ServiceConfig(workers=1)) as service:
                response = await service.submit(request)
                assert response.status == STATUS_ERROR
                assert response.error.startswith("ValueError: ")
                assert (
                    "conflux takes its block as v=, not nb="
                    in response.error
                )
                assert service.worker_executions == 1

        run(go())

    def test_slow_job_times_out_without_killing_the_worker(self):
        async def go():
            config = ServiceConfig(workers=1, request_timeout_s=0.02)
            async with FactorService(
                config, job_runner=slow_runner(0.2)
            ) as service:
                response = await service.submit(FactorRequest(n=32))
                assert response.status == STATUS_TIMEOUT
                assert "keeps running" in response.error

        run(go())


class TestServiceConfig:
    @pytest.mark.parametrize(
        "value", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_timeout_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="request_timeout_s"):
            ServiceConfig(request_timeout_s=value)


class TestDeadlines:
    def test_deadline_s_validation(self):
        with pytest.raises(ValueError):
            FactorRequest(n=32, deadline_s=0)
        with pytest.raises(ValueError):
            FactorRequest(n=32, deadline_s=-1.0)

    def test_deadline_is_not_part_of_the_cache_key(self):
        a = FactorRequest(n=32, deadline_s=1.0)
        b = FactorRequest(n=32, deadline_s=9.0)
        assert a.params() == b.params()
        assert a.cache_key() == b.cache_key()
        assert "deadline_s" not in a.params()

    def test_from_dict_accepts_deadline(self):
        request = FactorRequest.from_dict({"n": 32, "deadline_s": 0.5})
        assert request.deadline_s == 0.5

    def test_tight_deadline_times_out_before_request_timeout(self):
        async def go():
            config = ServiceConfig(workers=1, request_timeout_s=60.0)
            async with FactorService(
                config, job_runner=slow_runner(0.2)
            ) as service:
                start = time.monotonic()
                response = await service.submit(
                    FactorRequest(n=32, deadline_s=0.02)
                )
                elapsed = time.monotonic() - start
            assert response.status == STATUS_TIMEOUT
            assert elapsed < 1.0

        run(go())


class TestRetryAfter:
    def test_hint_prices_the_queue_not_the_request(self):
        slow_s = 0.05

        def runner(params):
            time.sleep(slow_s if params["n"] == 64 else 0.0)
            return {"params": dict(params)}

        async def go():
            config = ServiceConfig(workers=1, queue_depth=2)
            async with FactorService(config, job_runner=runner) as service:
                # A fast job has run, so its own cost is known ...
                await service.submit(FactorRequest(n=16, seed=0))
                # ... then ten slow jobs, which leave the estimate
                # within 0.8**10 < 0.15 of a slow job's cost, wherever
                # it started ...
                for seed in range(10):
                    await service.submit(FactorRequest(n=64, seed=seed))
                # ... and a slow backlog fills the queue.
                backlog = [
                    asyncio.ensure_future(
                        service.submit(FactorRequest(n=64, seed=s))
                    )
                    for s in range(20, 23)
                ]
                await asyncio.sleep(0)
                depth = service.metrics_snapshot()["queue_depth"]
                assert depth == config.queue_depth
                fast = await service.submit(FactorRequest(n=16, seed=1))
                assert fast.status == STATUS_REJECTED
                # the fast request waits for the slow jobs ahead of it
                assert fast.retry_after_s >= 0.85 * (depth + 1) * slow_s
                assert all(
                    r.status == STATUS_OK
                    for r in await asyncio.gather(*backlog)
                )

        run(go())


class TestDeterministicCounts:
    def test_same_workload_seed_same_counts(self, tmp_path):
        # The smoke half of the BENCH_service determinism story at
        # service level: identical request streams produce identical
        # outcome counters whatever the interleaving.
        from repro.service import WorkloadSpec, run_workload_async

        spec = WorkloadSpec(
            mode="closed", requests=30, clients=4, seed=0,
            sizes=(24, 32), seed_pool=4,
        )

        async def one(subdir):
            config = ServiceConfig(workers=2)
            report = await run_workload_async(
                config, spec, cache=SweepCache(tmp_path / subdir),
                job_runner=fake_runner,
            )
            return report.metrics["counts"]

        counts_a = run(one("a"))
        counts_b = run(one("b"))
        assert counts_a == counts_b
        assert counts_a["completed"] == spec.requests
        assert counts_a["computed"] < spec.requests


class TestTcpFrontend:
    def test_request_metrics_and_bad_input_over_tcp(self):
        async def go():
            async with FactorService(
                ServiceConfig(workers=1), job_runner=fake_runner
            ) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    try:
                        # 1. a factorization request
                        writer.write(
                            json.dumps({"n": 32, "seed": 1}).encode()
                            + b"\n"
                        )
                        await writer.drain()
                        reply = json.loads(await reader.readline())
                        assert reply["status"] == STATUS_OK
                        assert reply["request"]["n"] == 32

                        # 2. the metrics op
                        writer.write(b'{"op": "metrics"}\n')
                        await writer.drain()
                        metrics = json.loads(await reader.readline())
                        assert metrics["counts"]["completed"] == 1

                        # 3. malformed input gets a structured error,
                        #    not a dropped connection
                        writer.write(b"this is not json\n")
                        await writer.drain()
                        bad = json.loads(await reader.readline())
                        assert bad["status"] == "bad-request"

                        # 4. unknown fields are rejected the same way
                        writer.write(b'{"n": 32, "blocksize": 9}\n')
                        await writer.drain()
                        bad = json.loads(await reader.readline())
                        assert bad["status"] == "bad-request"
                        assert "unknown request fields" in bad["error"]

                        # 5. ... and so is a value of the wrong type
                        #    (n = 32.7 used to be served as n = 32)
                        writer.write(b'{"n": 32.7}\n')
                        await writer.drain()
                        bad = json.loads(await reader.readline())
                        assert bad["status"] == "bad-request"
                        assert "request field 'n'" in bad["error"]
                    finally:
                        writer.close()
                        await writer.wait_closed()
                finally:
                    server.close()
                    await server.wait_closed()

        run(go())


    def test_over_long_request_line_is_a_bad_request_then_close(self):
        # Past the 64 KiB stream limit readline() raises; that used to
        # kill the handler task (traceback in the server log, bare EOF
        # for the client).
        async def go():
            async with FactorService(
                ServiceConfig(workers=1), job_runner=fake_runner
            ) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    try:
                        # already waiting when the reply lands, so a
                        # reset that follows the close cannot beat it
                        reply = asyncio.ensure_future(reader.readline())
                        writer.write(
                            json.dumps({"impl": "x" * 100_000}).encode()
                            + b"\n"
                        )
                        bad = json.loads(
                            await asyncio.wait_for(reply, 5.0)
                        )
                        assert bad["status"] == "bad-request"
                        assert "65536 bytes" in bad["error"]
                        # ... then the server hangs up
                        try:
                            rest = await asyncio.wait_for(
                                reader.read(), 5.0
                            )
                        except ConnectionError:
                            rest = b""
                        assert rest == b""
                        assert service.worker_executions == 0
                    finally:
                        writer.close()
                        try:
                            await writer.wait_closed()
                        except ConnectionError:
                            pass
                finally:
                    server.close()
                    await server.wait_closed()

        run(go())


class TestRealFactorization:
    def test_service_serves_a_real_conflux_factorization(self, tmp_path):
        # No stub runner: the default executor path runs the actual
        # registry 'measured' task end to end.
        async def go():
            async with FactorService(
                ServiceConfig(workers=1),
                cache=SweepCache(tmp_path),
            ) as service:
                response = await service.submit(
                    FactorRequest(impl="conflux", n=24, p=4, seed=0)
                )
                assert response.status == STATUS_OK
                assert response.result["impl"] == "conflux"
                assert response.result["residual"] < 1e-10

        run(go())
