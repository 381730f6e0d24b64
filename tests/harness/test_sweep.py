"""Tests for the parallel sweep engine (specs, cache, execution)."""

import dataclasses
import json

import pytest

from repro.harness.cache import SweepCache, point_key
from repro.harness.specs import (
    SPECS,
    block_size_spec,
    named_spec,
    table2_measured_spec,
)
from repro.harness.sweep import (
    _TASK_SCHEMA,
    _TASKS,
    SweepError,
    SweepPoint,
    SweepSpec,
    _pool_context,
    run_sweep,
    task,
)

CALL_LOG: list[dict] = []


def unregister_task(name: str) -> None:
    """Remove a task a test registered."""
    _TASKS.pop(name, None)
    _TASK_SCHEMA.pop(name, None)


@pytest.fixture
def scratch_task():
    """Register a disposable task that logs its invocations."""
    CALL_LOG.clear()

    @task("_scratch", schema_version=1)
    def scratch(
        x: int,
        boom_on: int | None = None,
        trip_file: str | None = None,
    ) -> dict:
        # two fault injectors: ``boom_on`` encodes the fault in the
        # point params; ``trip_file`` is environmental (same cache key
        # with and without the fault), which is what resume semantics
        # are about.
        CALL_LOG.append({"x": x})
        if boom_on is not None and x == boom_on:
            raise ValueError(f"boom at x={x}")
        if trip_file is not None:
            import pathlib

            trip = pathlib.Path(trip_file)
            if trip.exists() and int(trip.read_text()) == x:
                raise ValueError(f"boom at x={x}")
        return {"x": x, "y": x * x}

    yield "_scratch"
    unregister_task("_scratch")


def scratch_spec(xs=(1, 2, 3), boom_on=None) -> SweepSpec:
    fixed = {} if boom_on is None else {"boom_on": boom_on}
    return SweepSpec(
        name="scratch", task="_scratch", axes={"x": list(xs)},
        fixed=fixed,
    )


class TestSpecEnumeration:
    def test_cartesian_order_is_deterministic(self):
        spec = SweepSpec(
            name="s", task="_t",
            axes={"a": [1, 2], "b": ["x", "y"]},
        )
        combos = [
            (p.params["a"], p.params["b"]) for p in spec.points()
        ]
        assert combos == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]

    def test_fixed_derive_and_filters(self):
        spec = SweepSpec(
            name="s", task="_t",
            axes={"p": [4, 8, 16]},
            fixed={"seed": 7},
            derive=lambda d: {**d, "n": 10 * d["p"]},
        )
        points = spec.points()
        assert [p.params["p"] for p in points] == [4, 8, 16]
        assert all(p.params["seed"] == 7 for p in points)
        assert [p.params["n"] for p in points] == [40, 80, 160]

    def test_non_json_params_rejected(self):
        spec = SweepSpec(
            name="s", task="_t", axes={"x": [object()]},
        )
        with pytest.raises(TypeError, match="JSON-serialisable"):
            spec.points()

    def test_every_named_spec_enumerates(self):
        for name in SPECS:
            points = named_spec(name).points()
            assert points, name
            # identity must be hashable data for the cache
            for point in points[:2]:
                assert point.cache_key()

    def test_unknown_named_spec(self):
        with pytest.raises(KeyError, match="table2"):
            named_spec("nope")


class TestCacheKeys:
    def test_key_ignores_param_order_and_tuples(self):
        assert point_key("t", {"a": 1, "b": [2, 3]}) == point_key(
            "t", {"b": [2, 3], "a": 1}
        )

    def test_key_varies_with_params_task_and_schema(self):
        base = point_key("t", {"a": 1})
        assert point_key("t", {"a": 2}) != base
        assert point_key("u", {"a": 1}) != base
        assert point_key("t", {"a": 1}, schema_version=2) != base

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = point_key("t", {"a": 1})
        path = cache.put(key, "t", {"a": 1}, {"ok": 1}, 0.1)
        assert cache.get(key)["result"] == {"ok": 1}
        path.write_text("{truncated")
        assert cache.get(key) is None

    @pytest.mark.parametrize("text", ["[]", '{"key": 1}', "3", "null"])
    def test_document_that_is_no_entry_reads_as_miss(self, tmp_path, text):
        cache = SweepCache(tmp_path)
        key = point_key("t", {"a": 1})
        cache.put(key, "t", {"a": 1}, {"ok": 1}, 0.1).write_text(text)
        assert cache.get(key) is None
        assert cache.entries() == []

    def test_stats_and_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put(point_key("t", {"a": 1}), "t", {"a": 1}, {}, 0.5)
        cache.put(point_key("t", {"a": 2}), "t", {"a": 2}, {}, 0.25)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["by_task"] == {"t": 2}
        assert stats["compute_seconds_saved"] == pytest.approx(0.75)
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0


class TestCacheSemantics:
    def test_hit_skips_recompute_and_preserves_rows(
        self, tmp_path, scratch_task
    ):
        cache = SweepCache(tmp_path)
        first = run_sweep(scratch_spec(), cache=cache)
        assert first.n_computed == 3 and first.n_cached == 0
        assert len(CALL_LOG) == 3

        second = run_sweep(scratch_spec(), cache=cache)
        assert second.n_cached == 3 and second.n_computed == 0
        assert len(CALL_LOG) == 3  # zero new task invocations
        assert second.rows() == first.rows()

    def test_force_recomputes_despite_cache(self, tmp_path, scratch_task):
        cache = SweepCache(tmp_path)
        run_sweep(scratch_spec(), cache=cache)
        CALL_LOG.clear()
        forced = run_sweep(scratch_spec(), cache=cache, force=True)
        assert forced.n_computed == 3
        assert len(CALL_LOG) == 3

    def test_changed_param_is_a_miss(self, tmp_path, scratch_task):
        cache = SweepCache(tmp_path)
        run_sweep(scratch_spec(xs=(1, 2)), cache=cache)
        CALL_LOG.clear()
        widened = run_sweep(scratch_spec(xs=(1, 2, 5)), cache=cache)
        assert widened.n_cached == 2 and widened.n_computed == 1
        assert [c["x"] for c in CALL_LOG] == [5]

    @pytest.mark.parametrize("text", ["[]", '{"key": 1}'])
    def test_document_that_is_no_entry_is_recomputed(
        self, tmp_path, scratch_task, text
    ):
        cache = SweepCache(tmp_path)
        point = scratch_spec().points()[0]
        path = cache.put(point.cache_key(), "_scratch", point.params, {}, 0)
        path.write_text(text)
        res = run_sweep(scratch_spec(), cache=cache)
        assert res.n_computed == 3 and res.n_failed == 0
        assert cache.get(point.cache_key())["result"] == {"x": 1, "y": 1}

    def test_max_points_truncates(self, scratch_task):
        res = run_sweep(scratch_spec(), max_points=2)
        assert res.n_points == 2

    def test_negative_max_points_rejected(self, scratch_task):
        """-1 used to slice a point off the end and report success."""
        CALL_LOG.clear()
        with pytest.raises(ValueError, match="max_points must be >= 0"):
            run_sweep(scratch_spec(), max_points=-1)
        assert CALL_LOG == []
        assert run_sweep(scratch_spec(), max_points=0).n_points == 0


class TestPointLabels:
    def test_label_shows_every_param(self):
        point = SweepPoint(
            task="measured",
            params={"impl": "conflux", "n": 64, "p": 4, "seed": 3},
        )
        label = point.label()
        assert label.startswith("measured(impl=conflux, n=64, p=4")
        assert "seed=3" in label

    def test_points_differing_only_by_seed_get_distinct_labels(self):
        # Regression: seed was on a hard-coded skip list, so two points
        # differing only by seed rendered identical labels in logs and
        # failure reports.
        a = SweepPoint(task="t", params={"n": 64, "seed": 0})
        b = SweepPoint(task="t", params={"n": 64, "seed": 1})
        assert a.label() != b.label()

    def test_label_mentions_each_param_once(self):
        point = SweepPoint(
            task="t",
            params={"impl": "x", "n": 8, "p": 2, "v": 4, "seed": 7},
        )
        label = point.label()
        for key in point.params:
            assert label.count(f"{key}=") == 1


class TestPoolContext:
    def test_prefers_fork_without_helper_threads(self):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        # the test process itself should be thread-free here; if some
        # other test leaked a thread this still documents the intent
        import threading

        helpers = [
            t for t in threading.enumerate()
            if t is not threading.main_thread() and t.is_alive()
        ]
        if helpers:
            pytest.skip(f"leaked helper threads present: {helpers}")
        assert _pool_context().get_start_method() == "fork"

    def test_live_thread_falls_back_to_non_fork(self):
        # Regression: forking after the thread-based smpi runtime has
        # started threads is deadlock-prone (and deprecated on 3.12+).
        import threading

        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        helper.start()
        try:
            assert _pool_context().get_start_method() != "fork"
        finally:
            release.set()
            helper.join()

    def test_pool_sweep_completes_with_live_thread(self, tmp_path):
        # End to end: a sweep over the pool must work while a helper
        # thread is alive (spawn/forkserver path).
        import threading

        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        helper.start()
        try:
            spec = named_spec("table2-models")
            res = run_sweep(spec, workers=2, max_points=2)
            assert res.n_points == 2 and res.n_failed == 0
        finally:
            release.set()
            helper.join()

    def test_non_fork_pool_reports_a_parent_only_task(self, scratch_task):
        """A forkserver or spawn worker registers only the built-in
        tasks: each point of a task registered in this process alone
        comes back as an error naming the task, and the sweep returns."""
        import threading

        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        helper.start()
        try:
            assert _pool_context().get_start_method() != "fork"
            res = run_sweep(scratch_spec(xs=(1, 2)), workers=2)
        finally:
            release.set()
            helper.join(timeout=5)
        assert not helper.is_alive()
        assert res.n_points == 2 and res.n_failed == 2
        for failure in res.failures():
            assert "unknown sweep task '_scratch'" in failure.error


class TestFinishRobustness:
    @pytest.fixture
    def unserialisable_task(self):
        @task("_unserialisable", schema_version=1)
        def unserialisable(x: int) -> dict:
            # a set cannot be JSON-encoded: cache.put will raise
            return {"x": x, "payload": {1, 2} if x == 2 else x}

        yield "_unserialisable"
        unregister_task("_unserialisable")

    def test_cache_put_failure_is_recorded_not_raised(
        self, tmp_path, unserialisable_task
    ):
        cache = SweepCache(tmp_path)
        spec = SweepSpec(
            name="s", task="_unserialisable", axes={"x": [1, 2, 3]},
        )
        res = run_sweep(spec, cache=cache)  # must not raise
        assert res.n_failed == 1 and res.n_points - res.n_failed == 2
        failure = res.failures()[0]
        assert failure.point.params["x"] == 2
        assert "cache.put failed" in failure.error
        # the computed payload is retained on the point result even
        # though it could not be cached
        assert failure.result["x"] == 2
        # the two good points were cached normally
        assert cache.stats()["entries"] == 2

    def test_raising_progress_callback_does_not_unwind(self, scratch_task):
        def progress(res):
            if res.point.params["x"] == 2:
                raise RuntimeError("observer crashed")

        res = run_sweep(scratch_spec(), progress=progress)
        assert res.n_points == 3
        assert res.n_failed == 1
        failure = res.failures()[0]
        assert "progress callback failed" in failure.error
        assert "observer crashed" in failure.error
        # the other points are untouched
        assert [r.status for r in res.results] == ["ok", "error", "ok"]

    def test_dead_pool_worker_is_its_points_error(self, tmp_path):
        # os._exit is what the OOM killer or a segfault looks like
        # from outside: the pool breaks, the dying point's future (and
        # whatever the broken pool never ran) raises.  That used to
        # unwind run_sweep and return nothing.
        import os

        if _pool_context().get_start_method() != "fork":
            pytest.skip("a closure task reaches pool workers by fork only")

        @task("_dies", schema_version=1)
        def dies(x: int) -> dict:
            if x == 2:
                os._exit(3)
            return {"x": x}

        cache = SweepCache(tmp_path)
        spec = SweepSpec(
            name="s", task="_dies", axes={"x": [1, 2, 3, 4]},
        )
        try:
            res = run_sweep(spec, workers=2, cache=cache)  # no raise
        finally:
            unregister_task("_dies")
        assert [r.point.params["x"] for r in res.results] == [1, 2, 3, 4]
        assert res.results[1].status == "error"
        for failure in res.failures():
            assert "BrokenProcessPool: " in failure.error
        # which other points the broken pool took down is timing; what
        # finished is kept and cached
        assert res.n_points == 4
        assert cache.stats()["entries"] == res.n_points - res.n_failed
        assert res.rows(strict=False) == [
            {"x": r.point.params["x"]} for r in res.results if r.ok
        ]


class TestFailureAndResume:
    def test_failure_is_captured_not_raised(self, scratch_task):
        res = run_sweep(scratch_spec(boom_on=2))
        assert res.n_failed == 1 and res.n_points - res.n_failed == 2
        failure = res.failures()[0]
        assert "boom at x=2" in failure.error
        assert res.rows(strict=False) == [
            {"x": 1, "y": 1}, {"x": 3, "y": 9},
        ]
        with pytest.raises(SweepError, match="boom at x=2"):
            res.rows()

    def test_resume_after_partial_failure(self, tmp_path, scratch_task):
        cache = SweepCache(tmp_path / "cache")
        trip = tmp_path / "trip"
        trip.write_text("2")
        spec = SweepSpec(
            name="scratch", task="_scratch",
            axes={"x": [1, 2, 3]}, fixed={"trip_file": str(trip)},
        )
        broken = run_sweep(spec, cache=cache)
        assert broken.n_failed == 1 and broken.n_computed == 2

        # the failed point was not cached: re-running the identical
        # spec after the environmental fault clears resumes — hits for
        # the two completed points, one fresh run for the failed one
        trip.unlink()
        CALL_LOG.clear()
        resumed = run_sweep(spec, cache=cache)
        assert resumed.n_cached == 2 and resumed.n_computed == 1
        assert [c["x"] for c in CALL_LOG] == [2]
        assert resumed.n_failed == 0
        assert [r["x"] for r in resumed.rows()] == [1, 2, 3]

    def test_failed_points_keep_result_ordering(self, scratch_task):
        res = run_sweep(scratch_spec(xs=(3, 1, 2), boom_on=1))
        assert [r.point.params["x"] for r in res.results] == [3, 1, 2]
        assert [r.status for r in res.results] == ["ok", "error", "ok"]


class TestParallelExecution:
    def test_worker_pool_matches_inline_results(self, tmp_path):
        spec = dataclasses.replace(
            table2_measured_spec(
                points=((48, 4),), impls=("conflux", "scalapack2d")
            ),
            fixed={"seed": 11},
        )
        inline = run_sweep(spec, workers=0)
        pooled = run_sweep(spec, workers=2)
        assert inline.rows() == pooled.rows()

    def test_pool_failure_capture_and_cache(self, tmp_path):
        cache = SweepCache(tmp_path)
        spec = dataclasses.replace(
            table2_measured_spec(
                points=((48, 4), (64, 4)), impls=("magma", "conflux")
            ),
            fixed={"seed": 11},
        )
        res = run_sweep(spec, workers=3, cache=cache)
        # unknown implementation fails per-point, conflux points succeed
        assert res.n_failed == 2 and res.n_points - res.n_failed == 2
        assert all("magma" in f.error for f in res.failures())
        resumed = run_sweep(spec, workers=3, cache=cache)
        assert resumed.n_cached == 2
        assert resumed.n_computed == 0 and resumed.n_failed == 2


class TestLayering:
    def test_a_sweep_loads_no_service_module_and_no_asyncio(self):
        # The harness sits below the service: a sweep (and every pool
        # worker's first point) used to import all of repro.service and
        # asyncio to learn that retries=0 means no retry.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro.harness

        src = str(Path(repro.harness.__file__).resolve().parents[2])
        code = (
            "import dataclasses, sys\n"
            "from repro.harness.specs import fig7_spec\n"
            "from repro.harness.sweep import run_sweep\n"
            "res = run_sweep(dataclasses.replace("
            "fig7_spec(), axes={'n': [4096], 'p': [64]}))\n"
            "assert res.n_points == 1 and not res.n_failed, res.summary()\n"
            "print(sorted(m for m in sys.modules if m == 'asyncio' "
            "or m.startswith(('asyncio.', 'repro.service'))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestSpecsMatchRunner:
    def test_block_size_spec_rows_match_direct_run(self):
        res = run_sweep(block_size_spec(v_values=(4,)))
        row = res.rows()[0]
        assert row["v"] == 4 and row["steps"] == 32
        assert row["total_bytes"] > 0
        assert row["bcast_a00"] > 0 and row["tournament"] > 0

    def test_cached_entry_is_plain_json(self, tmp_path, scratch_task):
        cache = SweepCache(tmp_path)
        run_sweep(scratch_spec(xs=(1,)), cache=cache)
        (entry,) = cache.entries()
        # the file itself round-trips as documented in DESIGN.md
        assert json.loads(json.dumps(entry)) == entry
        assert entry["task"] == "_scratch"
        assert entry["params"] == {"x": 1}
        assert entry["result"] == {"x": 1, "y": 1}
