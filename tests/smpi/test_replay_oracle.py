"""``simulate`` against a reference replay, float for float.

``reference_simulate`` below is the replay as first written: one heap
pop and one push per event, link arithmetic through
``LinkGraph.transfer`` and phase charges through a closure.  The
shipped replay keeps running the rank it just advanced while that rank
is still the heap minimum and does the crossbar arithmetic inline; the
event order and every floating-point operation must be the same, so
its :class:`TimingReport` equals the reference's field for field with
exact float equality — on seeded random traces under a crossbar, a
shared bus and the zero-cost machine, and on the traces of every
pinned clock point.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest

import repro.smpi.timing as timing
from repro.models.machines import resolve_machine
from repro.smpi.network import LinkGraph
from repro.smpi.timing import EventTrace, TimingReport, simulate
from tests.algorithms.clock_pins import (
    PIN_MACHINE,
    PINNED_POINTS,
    collect_clock,
    point_key,
)


def reference_simulate(
    trace: EventTrace, machine, blocked: list | None = None
) -> TimingReport:
    """The reference replay; appends each receive that had to wait
    for its send's replay to ``blocked``."""
    nranks = trace.nranks
    net = LinkGraph(
        nranks, machine.alpha, machine.beta, topology=machine.topology
    )
    gamma = machine.gamma_flops

    clocks = [0.0] * nranks
    cursors = [0] * nranks
    compute_s = [0.0] * nranks
    overhead_s = [0.0] * nranks
    wait_s = [0.0] * nranks
    phase_s: dict[str, float] = {}
    finished = [False] * nranks
    arrivals: dict[tuple[int, int], float] = {}
    waiting_recv: dict[tuple[int, int], tuple] = {}
    sync_slots: dict[tuple, list[tuple]] = {}

    def charge(phase, seconds):
        if phase is not None and seconds > 0:
            phase_s[phase] = phase_s.get(phase, 0.0) + seconds

    heap = [(0.0, r) for r in range(nranks)]
    heapq.heapify(heap)

    while heap:
        clock, rank = heapq.heappop(heap)
        if finished[rank]:
            continue
        lane = trace.events[rank]
        if cursors[rank] >= len(lane):
            finished[rank] = True
            clocks[rank] = clock
            continue
        ev = lane[cursors[rank]]
        cursors[rank] += 1
        kind = ev[0]

        if kind == "send":
            _, dst, nbytes, seq, phase, delay_s = ev
            arrival = net.transfer(rank, dst, nbytes, ready=clock)
            if delay_s:
                arrival += delay_s
            send_id = (rank, seq)
            waiter = waiting_recv.pop(send_id, None)
            if waiter is None:
                arrivals[send_id] = arrival
            else:
                w_rank, w_clock, w_phase = waiter
                waited = max(0.0, arrival - w_clock)
                wait_s[w_rank] += waited
                charge(w_phase, waited)
                heapq.heappush(heap, (max(w_clock, arrival), w_rank))
            overhead_s[rank] += machine.alpha
            charge(phase, machine.alpha)
            clock += machine.alpha
            heapq.heappush(heap, (clock, rank))

        elif kind == "recv":
            _, send_id, phase = ev
            if send_id in arrivals:
                arrival = arrivals.pop(send_id)
                waited = max(0.0, arrival - clock)
                wait_s[rank] += waited
                charge(phase, waited)
                heapq.heappush(heap, (max(clock, arrival), rank))
            else:
                waiting_recv[send_id] = (rank, clock, phase)
                if blocked is not None:
                    blocked.append(send_id)

        elif kind == "compute":
            _, flops, phase = ev
            seconds = 0.0 if math.isinf(gamma) else flops / gamma
            compute_s[rank] += seconds
            charge(phase, seconds)
            heapq.heappush(heap, (clock + seconds, rank))

        else:
            _, key, expected, phase = ev
            slot = sync_slots.setdefault(key, [])
            slot.append((rank, clock, phase))
            if len(slot) == expected:
                del sync_slots[key]
                release = max(c for _, c, _ in slot)
                for s_rank, s_clock, s_phase in slot:
                    waited = release - s_clock
                    wait_s[s_rank] += waited
                    charge(s_phase, waited)
                    heapq.heappush(heap, (release, s_rank))

    stuck = [r for r in range(nranks) if not finished[r]]
    if stuck:
        raise RuntimeError(f"timing replay deadlocked: ranks {stuck}")
    makespan = max(clocks) if clocks else 0.0
    return TimingReport(
        nranks=nranks,
        machine=machine.name,
        rank_seconds=tuple(clocks),
        compute_seconds=tuple(compute_s),
        overhead_seconds=tuple(overhead_s),
        wait_seconds=tuple(wait_s),
        phase_seconds=phase_s,
        link_utilization=net.utilization(makespan),
    )


def _assert_same_report(got: TimingReport, expected: TimingReport) -> None:
    assert got == expected
    # == on the dicts ignores insertion order; the charges' order is
    # part of "the same operations in the same order"
    assert list(got.phase_seconds.items()) == list(
        expected.phase_seconds.items()
    )
    assert list(got.link_utilization.items()) == list(
        expected.link_utilization.items()
    )


_PHASES = (None, "panel", "reduce", "step/tournament")


def _random_trace(seed: int) -> EventTrace:
    """A consistent trace of a random program: events are appended in
    one global program order, a receive only after its send, and a
    sync for all its members at once, so the replay cannot deadlock —
    yet a receive's replay often comes before its send's, because the
    sender's clock is ahead."""
    rng = np.random.default_rng(seed)
    nranks = int(rng.integers(1, 7))
    trace = EventTrace(nranks)
    pending: list[list[tuple[int, int]]] = [[] for _ in range(nranks)]
    nsyncs = 0
    for _ in range(int(rng.integers(20, 160))):
        op = rng.random()
        rank = int(rng.integers(nranks))
        phase = _PHASES[rng.integers(len(_PHASES))]
        if op < 0.4:
            dst = int(rng.integers(nranks))
            nbytes = int(rng.choice([0, 8, 64, 4096, 1 << 20]))
            delay = float(rng.choice([0.0, 0.0, 1e-6, 3e-4]))
            send_id = trace.record_send(rank, dst, nbytes, phase, delay)
            pending[dst].append(send_id)
        elif op < 0.75:
            if pending[rank]:
                send_id = pending[rank].pop(
                    int(rng.integers(len(pending[rank])))
                )
                trace.record_recv(rank, send_id, phase)
        elif op < 0.93:
            flops = float(rng.choice([0.0, 1e3, 2.5e6, 1e9]))
            # a zero-flop block is never recorded by record_compute;
            # the replay must still take one if it finds it
            trace.events[rank].append(("compute", flops, phase))
        else:
            members = [
                r for r in range(nranks) if rng.random() < 0.7
            ] or [rank]
            key = ("sync", nsyncs)
            nsyncs += 1
            for member in members:
                trace.record_sync(member, key, len(members), phase)
    return trace


_MACHINES = ("daint-xc50", "ethernet-bus", "ideal", "laptop-sim")


@pytest.mark.parametrize("machine", _MACHINES)
@pytest.mark.parametrize("seed", range(40))
def test_random_traces_replay_as_the_reference(seed, machine):
    trace = _random_trace(seed)
    resolved = resolve_machine(machine)
    _assert_same_report(
        simulate(trace, resolved), reference_simulate(trace, resolved)
    )


def test_random_traces_post_receives_before_and_after_their_send():
    blocked, received = [], 0
    for seed in range(40):
        trace = _random_trace(seed)
        received += sum(
            ev[0] == "recv" for lane in trace.events for ev in lane
        )
        reference_simulate(trace, resolve_machine("daint-xc50"), blocked)
    assert 0 < len(blocked) < received


@pytest.mark.parametrize(
    "point", PINNED_POINTS, ids=[point_key(*p) for p in PINNED_POINTS]
)
def test_pinned_point_traces_replay_as_the_reference(point, monkeypatch):
    captured = []

    def capture(trace, machine):
        captured.append((trace, machine))
        return simulate(trace, machine)

    monkeypatch.setattr(timing, "simulate", capture)
    collect_clock(*point)
    (trace, machine), = captured
    assert machine.name == PIN_MACHINE
    for name in (PIN_MACHINE, "ethernet-bus"):
        resolved = resolve_machine(name)
        _assert_same_report(
            simulate(trace, resolved), reference_simulate(trace, resolved)
        )
