"""Discrete-event α-β clock for the simulated runtime.

The volume ledger answers *how many bytes*; this module answers *how
long*.  It works in two stages, so that predicted time is a function
of the program and the machine, not of the order the host ran ranks in:

1. **Trace.** While a run executes, each rank appends its communication
   events — sends, receives, compute blocks, rendezvous syncs — to its
   own :class:`EventTrace` lane (rank-private, so no locking and no
   cross-rank ordering is recorded).  Each send gets a rank-local
   sequence number; the matching receive records the same
   ``(sender, seq)`` id, so the replay pairs each receive with the
   very send it took, a duplicated or reordered copy included.

2. **Replay.** After the run, :func:`simulate` replays the
   trace on a deterministic event loop: a min-heap of ``(clock, rank)``
   processes one event per step, ties broken by rank id.  Sends place
   transfers on the machine's :class:`~repro.smpi.network.LinkGraph`
   in global clock order (so contention queues are reproducible),
   receives block until the matched transfer's arrival, compute blocks
   advance the local clock by flops/γ, and syncs align every
   participant to the latest arrival.  Identical schedule + identical
   machine ⇒ identical predicted times, bit for bit, regardless of the
   order in which the ranks recorded.

Cost model per event (machine parameters α, β, γ):

==========  =============================================================
send        sender busy for α (injection overhead); the message then
            occupies its link path for α + β·bytes (latency + serial
            transfer), queuing FIFO behind earlier transfers
recv        blocks until the matched transfer arrives; blocked time is
            *wait* attributed to the receive-side phase
compute     advances the local clock by flops / γ (overlaps with any
            in-flight transfers — communication is offloaded)
sync        barrier semantics: every participant resumes at the max of
            their entry clocks (metadata volume is zero, as in the
            ledger)
==========  =============================================================

The zero-latency / infinite-bandwidth / infinite-γ limit (the ``ideal``
preset) therefore predicts exactly zero seconds while leaving the byte
ledger untouched — the property test that pins the clock to the volume
model.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.smpi.network import LinkGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.models.machines import Machine

#: event-kind tags (tuple slot 0 of every trace event)
_SEND, _RECV, _COMPUTE, _SYNC = "send", "recv", "compute", "sync"


class EventTrace:
    """Per-rank event log recorded during an SPMD run.

    Every method is called on behalf of the owning rank only and touches
    only that rank's lane, so recording needs no synchronization and
    adds no cross-rank ordering of its own — ordering is reconstructed
    from clocks at replay time.
    """

    __slots__ = ("nranks", "events", "_send_seq")

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self.events: list[list[tuple]] = [[] for _ in range(nranks)]
        self._send_seq = [0] * nranks

    def record_send(
        self,
        rank: int,
        dst: int,
        nbytes: int,
        phase: str | None,
        delay_s: float = 0.0,
    ) -> tuple[int, int]:
        """Log a send; returns its ``(rank, seq)`` message id.

        ``delay_s`` is extra in-flight latency charged to this one
        message at replay time — the hook the fault injector uses to
        make injected delays visible in predicted per-rank seconds.
        """
        seq = self._send_seq[rank]
        self._send_seq[rank] = seq + 1
        self.events[rank].append(
            (_SEND, dst, nbytes, seq, phase, delay_s)
        )
        return (rank, seq)

    def record_recv(
        self, rank: int, send_id: tuple[int, int], phase: str | None
    ) -> None:
        self.events[rank].append((_RECV, send_id, phase))

    def record_compute(
        self, rank: int, flops: float, phase: str | None
    ) -> None:
        if flops > 0:
            self.events[rank].append((_COMPUTE, float(flops), phase))

    def record_sync(
        self, rank: int, key: tuple, expected: int, phase: str | None
    ) -> None:
        self.events[rank].append((_SYNC, key, expected, phase))

    def n_events(self) -> int:
        return sum(len(lane) for lane in self.events)


@dataclass(frozen=True)
class TimingReport:
    """Predicted wall-clock of one simulated run under one machine.

    All times in seconds.  Per-rank tuples are indexed by world rank:

    ``rank_seconds``
        Each rank's finish time (its critical path through the replay).
    ``compute_seconds`` / ``overhead_seconds`` / ``wait_seconds``
        Exclusive decomposition of each rank's busy/blocked time:
        flops/γ spent computing, α-per-send injection overhead, and
        time blocked in receives or syncs.  The remainder of
        ``rank_seconds`` is idle-free by construction (the replay never
        advances a clock without one of these three causes or a
        transfer arrival).
    ``phase_seconds``
        Time attributed to ledger phases (send overhead and compute at
        the issuing site, blocked time at the receiving site) — the
        per-phase *time* breakdown mirroring the ledger's per-phase
        bytes.  Nested scopes attribute exclusively, same as the byte
        ledger.
    """

    nranks: int
    machine: str
    rank_seconds: tuple[float, ...]
    compute_seconds: tuple[float, ...]
    overhead_seconds: tuple[float, ...]
    wait_seconds: tuple[float, ...]
    phase_seconds: dict[str, float] = field(default_factory=dict)
    link_utilization: dict[str, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Predicted wall-clock: the slowest rank's finish time."""
        return max(self.rank_seconds) if self.rank_seconds else 0.0

    @property
    def total_compute_seconds(self) -> float:
        return sum(self.compute_seconds)

    @property
    def total_comm_seconds(self) -> float:
        """Send overhead + blocked time, summed over ranks."""
        return sum(self.overhead_seconds) + sum(self.wait_seconds)


def simulate(trace: EventTrace, machine: "Machine") -> TimingReport:
    """Replay a recorded trace under ``machine``'s α-β-γ parameters.

    Deterministic: the only state is the trace (whose lanes are in
    program order) and the machine; the event loop breaks clock ties by
    rank id.  The rank just replayed keeps the floor while its
    ``(clock, rank)`` is still the heap minimum — the entry the loop
    would pop next anyway — so a run of one rank's events costs no heap
    operation, and a crossbar transfer is priced inline with
    :meth:`LinkGraph.transfer`'s operations in its order: the events
    and every float are those of one pop and one push per event.
    """
    nranks = trace.nranks
    alpha, beta = machine.alpha, machine.beta
    charge_alpha = alpha > 0
    net = LinkGraph(nranks, alpha, beta, topology=machine.topology)
    crossbar = machine.topology == "crossbar"
    tx, rx = net.tx, net.rx
    gamma = machine.gamma_flops
    free_compute = math.isinf(gamma)

    clocks = [0.0] * nranks
    cursors = [0] * nranks
    compute_s = [0.0] * nranks
    overhead_s = [0.0] * nranks
    wait_s = [0.0] * nranks
    phase_s: dict[str, float] = {}
    finished = [False] * nranks

    #: send_id -> arrival time, for sends already replayed
    arrivals: dict[tuple[int, int], float] = {}
    #: send_id -> (rank, clock-at-block, phase) for blocked receivers
    waiting_recv: dict[tuple[int, int], tuple[int, float, str | None]] = {}
    #: sync key -> list of (rank, clock-at-entry, phase)
    sync_slots: dict[tuple, list[tuple[int, float, str | None]]] = {}

    heap: list[tuple[float, int]] = [(0.0, r) for r in range(nranks)]
    heapq.heapify(heap)
    heappop, heappush, heapreplace = (
        heapq.heappop, heapq.heappush, heapq.heapreplace
    )

    while heap:
        clock, rank = heappop(heap)
        if finished[rank]:  # a stale entry
            continue
        lane = trace.events[rank]
        end_of_lane = len(lane)
        i = cursors[rank]
        while True:
            if i == end_of_lane:
                finished[rank] = True
                clocks[rank] = clock
                break
            ev = lane[i]
            i += 1
            kind = ev[0]

            if kind == _SEND:
                _, dst, nbytes, seq, phase, delay_s = ev
                if dst == rank:
                    arrival = clock
                elif crossbar:
                    out_link, in_link = tx[rank], rx[dst]
                    start = clock
                    if out_link.next_free > start:
                        start = out_link.next_free
                    if in_link.next_free > start:
                        start = in_link.next_free
                    arrival = start + alpha + beta * nbytes
                    out_link.next_free = arrival
                    out_link.busy_seconds += arrival - start
                    in_link.next_free = arrival
                    in_link.busy_seconds += arrival - start
                else:
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
                    if w_phase is not None and waited > 0:
                        phase_s[w_phase] = phase_s.get(w_phase, 0.0) + waited
                    heappush(heap, (max(w_clock, arrival), w_rank))
                overhead_s[rank] += alpha
                if phase is not None and charge_alpha:
                    phase_s[phase] = phase_s.get(phase, 0.0) + alpha
                clock += alpha

            elif kind == _RECV:
                _, send_id, phase = ev
                arrival = arrivals.pop(send_id, None)
                if arrival is None:
                    # Matching send not replayed yet: block; the send's
                    # replay (above) re-queues us at the arrival time.
                    waiting_recv[send_id] = (rank, clock, phase)
                    break
                # a wait of max(0, arrival - clock); one of 0 adds 0.0
                if arrival > clock:
                    waited = arrival - clock
                    wait_s[rank] += waited
                    if phase is not None:
                        phase_s[phase] = phase_s.get(phase, 0.0) + waited
                    clock = arrival

            elif kind == _COMPUTE:
                _, flops, phase = ev
                seconds = 0.0 if free_compute else flops / gamma
                compute_s[rank] += seconds
                if phase is not None and seconds > 0:
                    phase_s[phase] = phase_s.get(phase, 0.0) + seconds
                clock += seconds

            else:  # _SYNC
                _, key, expected, phase = ev
                slot = sync_slots.setdefault(key, [])
                slot.append((rank, clock, phase))
                if len(slot) == expected:
                    del sync_slots[key]
                    release = max(c for _, c, _ in slot)
                    for s_rank, s_clock, s_phase in slot:
                        waited = release - s_clock
                        wait_s[s_rank] += waited
                        if s_phase is not None and waited > 0:
                            phase_s[s_phase] = (
                                phase_s.get(s_phase, 0.0) + waited
                            )
                        heappush(heap, (release, s_rank))
                # else: block until the last participant arrives.
                break

            now = (clock, rank)
            if heap and heap[0] < now:
                # hand over: push this rank, pop the minimum, in one step
                cursors[rank] = i
                clock, rank = heapreplace(heap, now)
                while finished[rank]:  # a stale entry
                    clock, rank = heappop(heap)
                lane = trace.events[rank]
                end_of_lane = len(lane)
                i = cursors[rank]
        cursors[rank] = i

    stuck = [r for r in range(nranks) if not finished[r]]
    if stuck:
        raise RuntimeError(
            f"timing replay deadlocked: ranks {stuck} blocked "
            f"({len(waiting_recv)} unmatched recvs, "
            f"{len(sync_slots)} open syncs) — trace is inconsistent"
        )

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
