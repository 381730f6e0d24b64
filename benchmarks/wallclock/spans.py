"""Span recorder for the traced pass: layers measured from outside.

The benchmark owns its tracing: nothing under ``src/`` knows about it.
:func:`install` replaces public functions of each layer (class
attributes, or the name as imported into the calling module) with
wrappers that record one span per call; :func:`uninstall` puts the
original objects back, and the timed pass runs only when nothing is
installed — so end-to-end numbers never include a wrapper.

A span records wall (``perf_counter``) and CPU (``thread_time``) of one
call on one thread.  Each thread keeps its own span stack, so a span's
*self* time is its own duration minus the part its child spans cover,
and self times of everything under a top-level span sum exactly to
that span.  Ranks are threads: a rank function's span is the top of
its thread's stack, and the sends, receives and kernels it calls are
its children.  ``wait = wall_self - cpu_self`` is time the thread held
no CPU inside the layer: blocked on a message, or queueing for the GIL.

Coroutine functions (``FactorService.submit``) are stepped: every
resumption between two awaits is timed as one synchronous segment on
the loop thread, so CPU stays attributable while other tasks
interleave; the span's wall runs from first resumption to completion.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import types
from time import perf_counter, thread_time

_CPU, _WALL, _CALLS = 0, 1, 2


class Recorder:
    """Per-thread span stacks and per-(thread, layer) self-time totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread name, {layer: [cpu_self, wall_self, calls]})
        self.threads: list[tuple[str, dict[str, list[float]]]] = []

    def _state(self):
        local = self._local
        try:
            return local.stack, local.acc
        except AttributeError:
            local.stack, local.acc = [], {}
            with self._lock:
                self.threads.append(
                    (threading.current_thread().name, local.acc)
                )
            return local.stack, local.acc

    def _close(self, stack, acc, layer, frame, wall, cpu, calls=1):
        """Pop ``frame``; book self time, hand totals to the parent."""
        stack.pop()
        if stack:
            stack[-1][_WALL] += wall
            stack[-1][_CPU] += cpu
        slot = acc.get(layer)
        if slot is None:
            slot = acc[layer] = [0.0, 0.0, 0]
        slot[_CPU] += cpu - frame[_CPU]
        slot[_WALL] += wall - frame[_WALL]
        slot[_CALLS] += calls

    def wrap(self, layer: str, fn):
        """``fn`` with one span per call attributed to ``layer``."""
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(layer, fn)
        state, close = self._state, self._close

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack, acc = state()
            frame = [0.0, 0.0]  # children's cpu, wall
            stack.append(frame)
            wall0, cpu0 = perf_counter(), thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu, wall = thread_time() - cpu0, perf_counter() - wall0
                close(stack, acc, layer, frame, wall, cpu)

        return span

    def _wrap_async(self, layer: str, fn):
        recorder = self

        @functools.wraps(fn)
        async def span(*args, **kwargs):
            return await _Stepped(recorder, layer, fn(*args, **kwargs))

        return span

    def totals(self, thread_prefix: str = "") -> dict[str, list[float]]:
        """Self-time totals per layer over threads whose name starts
        with ``thread_prefix``: ``{layer: [cpu_s, wall_s, calls]}``."""
        out: dict[str, list[float]] = {}
        with self._lock:
            threads = list(self.threads)
        for name, acc in threads:
            if not name.startswith(thread_prefix):
                continue
            for layer, (cpu, wall, calls) in list(acc.items()):
                slot = out.setdefault(layer, [0.0, 0.0, 0])
                slot[_CPU] += cpu
                slot[_WALL] += wall
                slot[_CALLS] += calls
        return out


class _Stepped:
    """Awaitable driving a coroutine one resumption at a time."""

    def __init__(self, recorder: Recorder, layer: str, coro) -> None:
        self._recorder, self._layer, self._coro = recorder, layer, coro

    def __await__(self):
        recorder, layer = self._recorder, self._layer
        gen = self._coro.__await__()
        began = perf_counter()
        stepped = 0.0
        step, value, calls = gen.send, None, 1
        while True:
            stack, acc = recorder._state()
            frame = [0.0, 0.0]
            stack.append(frame)
            wall0, cpu0 = perf_counter(), thread_time()
            outcome = None
            try:
                yielded = step(value)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                outcome = exc
            now = perf_counter()
            recorder._close(
                stack, acc, layer, frame, now - wall0,
                thread_time() - cpu0, calls,
            )
            stepped += now - wall0
            calls = 0
            if outcome is not None:
                # Suspended stretches (awaiting the executor) are the
                # span's own wait; they were on no thread's stack, so
                # no parent span is charged for them.
                acc[layer][_WALL] += (now - began) - stepped
                if isinstance(outcome, StopIteration):
                    return outcome.value
                raise outcome
            try:
                value = yield yielded
                step = gen.send
            except BaseException as exc:  # noqa: BLE001 - thrown into coro
                value, step = exc, gen.throw


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------

_COMM_OTHER = ("compute", "barrier", "split", "sendrecv")
_COMM_COLLECTIVES = (
    "bcast", "reduce", "allreduce", "gather", "allgather", "scatter",
    "alltoall", "reduce_scatter",
)
_LEDGER = (
    "record_send", "record_recv", "push_phase", "pop_phase",
    "current_phase", "snapshot",
)
_TRACE = ("record_send", "record_recv", "record_compute", "record_sync")
_VERIFY = ("check_factors", "verify_factors", "verify_qr_factors")


def _public_functions(cls) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if isinstance(value, types.FunctionType)
        and not name.startswith("_")
    ]


def _repro_modules(prefix: str = "repro") -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None
        and (name == prefix or name.startswith(prefix + "."))
    ]


def _importers(fn, prefix: str = "repro"):
    """(module, name) for every loaded module global that *is* ``fn``:
    a ``from x import fn`` binds the object, so each importer's own
    name has to be replaced for its calls to be seen."""
    for mod in _repro_modules(prefix):
        for name, value in list(vars(mod).items()):
            if value is fn:
                yield mod, name


def targets() -> list[tuple[str, object, str]]:
    """Every ``(layer, owner, attribute)`` the traced pass wraps.

    ``owner`` is a class, a module or a dict.  The list is computed
    from the live modules (``__all__``, identity of imported names),
    so a function added to a layer is traced without editing this file.
    """
    import repro.algorithms
    import repro.algorithms.base as base
    import repro.faults
    import repro.harness
    import repro.harness.runner as runner
    import repro.harness.specs  # noqa: F401  (registers the tasks)
    import repro.harness.sweep as sweep
    import repro.kernels
    import repro.service
    import repro.service.worker as worker
    import repro.smpi.timing as timing
    from repro.algorithms.api import factor
    from repro.algorithms.schedule25d import Schedule25D
    from repro.harness.cache import SweepCache
    from repro.kernels.tsqr import TsqrFactors, WyFactors
    from repro.service.server import FactorService
    from repro.smpi.runtime import Comm, run_spmd
    from repro.smpi.volume import VolumeLedger

    out: list[tuple[str, object, str]] = []

    def methods(layer, cls, names):
        out.extend((layer, cls, name) for name in names)

    def everywhere(layer, fn, prefix="repro"):
        out.extend(
            (layer, mod, name) for mod, name in _importers(fn, prefix)
        )

    methods("smpi.runtime.send", Comm, ("send",))
    methods("smpi.runtime.recv", Comm, ("recv_status",))
    methods("smpi.runtime.other", Comm, _COMM_OTHER)
    methods("smpi.collectives", Comm, _COMM_COLLECTIVES)
    methods("smpi.volume", VolumeLedger, _LEDGER)
    methods("smpi.timing", timing.EventTrace, _TRACE)
    everywhere("smpi.timing", timing.simulate)
    methods("faults", repro.faults.FaultInjector, ("process_send",))
    methods(
        "algorithms.schedule25d", Schedule25D,
        _public_functions(Schedule25D),
    )
    # run_spmd is wrapped specially (see install): the span is the
    # spawn/join cost, and the rank function it is handed becomes
    # ``algorithms.rank_self``.
    everywhere("smpi.runtime.spawn_join", run_spmd)
    everywhere("algorithms.host", factor)
    for name in _VERIFY:
        everywhere("algorithms.verify", getattr(base, name))
    # Kernels as the algorithms call them: by the names imported into
    # repro.algorithms.*, plus the factor objects' own methods.
    kernel_fns = {
        id(value): value
        for mod in _repro_modules("repro.kernels")
        for value in vars(mod).values()
        if isinstance(value, types.FunctionType)
        and value.__module__.startswith("repro.kernels")
    }
    for fn in kernel_fns.values():
        everywhere("kernels", fn, prefix="repro.algorithms")
    for cls in (TsqrFactors, WyFactors):
        methods("kernels", cls, _public_functions(cls))
    everywhere("models", runner.model_for)
    methods("harness", SweepCache, ("get", "put"))
    everywhere("harness", sweep.run_sweep)
    everywhere("harness", runner.run_experiment)
    out.append(("harness", sweep._TASKS, "measured"))
    methods("service", FactorService, ("submit",))
    everywhere("service", worker.run_factor_job)
    return out


def _raw(owner, name):
    """The stored object, bypassing descriptor binding."""
    return owner[name] if isinstance(owner, dict) else vars(owner)[name]


def _store(owner, name, value) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


#: (owner, name, original) of everything currently replaced.
_installed: list[tuple[object, str, object]] = []


def installed() -> list[tuple[object, str, object]]:
    return list(_installed)


def install(recorder: Recorder) -> int:
    """Wrap every target; returns how many names were replaced."""
    if _installed:
        raise RuntimeError("spans already installed")
    from repro.smpi.runtime import run_spmd

    def spawn_join(original):
        def with_rank_spans(nranks, fn, *args, **kwargs):
            return original(
                nranks,
                recorder.wrap("algorithms.rank_self", fn),
                *args,
                **kwargs,
            )

        return functools.wraps(original)(with_rank_spans)

    wrapped: dict[int, object] = {}
    for layer, owner, name in targets():
        original = _raw(owner, name)
        replacement = wrapped.get(id(original))
        if replacement is None:
            inner = spawn_join(original) if original is run_spmd else original
            replacement = wrapped[id(original)] = recorder.wrap(layer, inner)
        _installed.append((owner, name, original))
        _store(owner, name, replacement)
    return len(_installed)


def uninstall() -> None:
    """Restore every replaced name to the original object."""
    while _installed:
        owner, name, original = _installed.pop()
        _store(owner, name, original)
