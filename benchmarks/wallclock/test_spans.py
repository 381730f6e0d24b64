"""The span recorder's arithmetic, and that uninstall really uninstalls.

Run with ``python -m pytest benchmarks/wallclock/test_spans.py`` from
the repo root (``pythonpath = src`` comes from pyproject.toml).
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

import spans

_TICK = 0.02


def _burn(seconds: float) -> None:
    """Hold the CPU (and the GIL) for ``seconds`` of thread CPU time."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def _layers(recorder, prefix=""):
    return {
        layer: {"cpu": cpu, "wall": wall, "calls": calls}
        for layer, (cpu, wall, calls) in recorder.totals(prefix).items()
    }


def test_self_times_sum_to_the_parent_span():
    recorder = spans.Recorder()
    leaf = recorder.wrap("leaf", lambda: _burn(_TICK))

    def middle():
        _burn(_TICK)
        leaf()
        leaf()

    middle = recorder.wrap("middle", middle)

    def outer():
        _burn(_TICK)
        middle()
        time.sleep(_TICK)

    wall0, cpu0 = time.perf_counter(), time.thread_time()
    recorder.wrap("outer", outer)()
    wall, cpu = time.perf_counter() - wall0, time.thread_time() - cpu0

    got = _layers(recorder)
    assert {k: v["calls"] for k, v in got.items()} == {
        "outer": 1, "middle": 1, "leaf": 2,
    }
    # Nothing is counted twice and nothing is lost: the self times of
    # the whole tree are the top span, which is all this thread did.
    assert sum(v["wall"] for v in got.values()) == pytest.approx(
        wall, abs=2e-3
    )
    assert sum(v["cpu"] for v in got.values()) == pytest.approx(
        cpu, abs=2e-3
    )
    assert got["leaf"]["cpu"] == pytest.approx(2 * _TICK, abs=5e-3)
    assert got["middle"]["cpu"] == pytest.approx(_TICK, abs=5e-3)
    assert got["outer"]["cpu"] == pytest.approx(_TICK, abs=5e-3)
    # The sleep is outer's own wait: wall without CPU.
    assert got["outer"]["wall"] - got["outer"]["cpu"] == pytest.approx(
        _TICK, abs=1e-2
    )


def test_exception_still_closes_the_span():
    recorder = spans.Recorder()

    def boom():
        raise KeyError("x")

    outer = recorder.wrap("outer", lambda: recorder.wrap("boom", boom)())
    with pytest.raises(KeyError):
        outer()
    assert {k: v["calls"] for k, v in _layers(recorder).items()} == {
        "outer": 1, "boom": 1,
    }
    # The stack unwound: a later span is a root again, not a child.
    recorder.wrap("after", lambda: _burn(_TICK))()
    assert _layers(recorder)["outer"]["cpu"] < _TICK / 2


def test_threads_attribute_to_their_own_stacks():
    recorder = spans.Recorder()
    sleeper = recorder.wrap("sleeper", lambda: time.sleep(3 * _TICK))
    burner = recorder.wrap("burner", lambda: _burn(3 * _TICK))
    # A span open on the main thread while both workers run must not
    # become their parent.
    main_span_seen = {}

    def main_body():
        threads = [
            threading.Thread(target=sleeper, name="rank0"),
            threading.Thread(target=burner, name="other"),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        main_span_seen["alive"] = [t.is_alive() for t in threads]

    recorder.wrap("main", main_body)()
    assert main_span_seen["alive"] == [False, False]
    got = _layers(recorder)
    assert got["sleeper"]["cpu"] < _TICK / 2
    assert got["sleeper"]["wall"] >= 3 * _TICK * 0.9
    assert got["burner"]["cpu"] == pytest.approx(3 * _TICK, abs=5e-3)
    # main waited for both; none of the workers' time was subtracted
    # from it as if they were its children.
    assert got["main"]["wall"] >= 3 * _TICK * 0.9
    assert got["main"]["cpu"] < _TICK
    # Per-thread totals select by thread name.
    assert set(_layers(recorder, "rank")) == {"sleeper"}


def test_coroutine_spans_time_each_resumption():
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda: _burn(_TICK))

    async def request(fail: bool):
        _burn(_TICK)
        await asyncio.sleep(3 * _TICK)
        inner()
        if fail:
            raise ValueError("refused")
        return "ok"

    wrapped = recorder.wrap("request", request)

    async def main():
        results = await asyncio.gather(
            wrapped(False), wrapped(False), wrapped(True),
            return_exceptions=True,
        )
        return results

    results = asyncio.run(main())
    assert results[:2] == ["ok", "ok"]
    assert isinstance(results[2], ValueError)
    got = _layers(recorder)
    assert got["request"]["calls"] == 3
    assert got["inner"]["calls"] == 3
    # CPU is each coroutine's own burn, not its neighbours' and not
    # its child's, although all three interleave on one thread.
    assert got["request"]["cpu"] == pytest.approx(3 * _TICK, abs=1e-2)
    assert got["inner"]["cpu"] == pytest.approx(3 * _TICK, abs=1e-2)
    # Wall includes the suspended stretch of every request.
    assert got["request"]["wall"] >= 3 * (3 * _TICK) * 0.9


def _snapshot():
    return [
        (owner, name, spans._raw(owner, name))
        for _layer, owner, name in spans.targets()
    ]


def test_install_wraps_every_target_and_uninstall_restores_them():
    before = _snapshot()
    assert len(before) > 100
    layers = {layer for layer, _, _ in spans.targets()}
    import catalog

    assert layers | {"algorithms.rank_self"} == set(catalog.LAYERS)

    recorder = spans.Recorder()
    count = spans.install(recorder)
    try:
        assert count == len(before)
        with pytest.raises(RuntimeError):
            spans.install(recorder)
        for owner, name, original in before:
            current = spans._raw(owner, name)
            assert current is not original, (owner, name)
            assert current.__wrapped__ is not None
    finally:
        spans.uninstall()
    assert spans.installed() == []
    for owner, name, original in before:
        assert spans._raw(owner, name) is original, (owner, name)


def test_traced_factor_fills_the_layers_and_untraced_factor_adds_nothing():
    import repro.algorithms as algorithms

    a = np.random.default_rng(0).standard_normal((32, 32))

    def run():
        return algorithms.factor(
            "conflux", a, grid=(2, 2, 2), v=4, machine="daint-xc50"
        )

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        traced = run()
    finally:
        spans.uninstall()
    got = _layers(recorder)
    for layer in (
        "smpi.runtime.send", "smpi.runtime.recv", "smpi.runtime.spawn_join",
        "smpi.collectives", "smpi.volume", "smpi.timing",
        "algorithms.schedule25d", "algorithms.rank_self",
        "algorithms.verify", "algorithms.host", "kernels",
    ):
        assert got[layer]["calls"] > 0, layer
    assert got["algorithms.rank_self"]["calls"] == 8
    assert got["smpi.runtime.send"]["calls"] == traced.volume.total_messages
    assert set(_layers(recorder, "rank")) >= {"algorithms.rank_self"}
    assert "algorithms.host" not in _layers(recorder, "rank")

    # The timed pass provably runs unpatched code: with the wrappers
    # gone the same call leaves the recorder untouched, and tracing
    # changed no simulated statistic.
    frozen = recorder.totals()
    plain = run()
    assert recorder.totals() == frozen
    assert plain.volume.total_bytes == traced.volume.total_bytes
    assert plain.volume.total_messages == traced.volume.total_messages
    assert plain.volume.timing.makespan == traced.volume.timing.makespan
    np.testing.assert_array_equal(plain.upper, traced.upper)
