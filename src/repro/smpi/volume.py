"""Communication-volume accounting.

The paper's evaluation metric is the aggregate number of bytes sent over
the network, captured with the Score-P instrumentation library.  The
:class:`VolumeLedger` reproduces those counters for the simulated runtime:
per-rank sent/received bytes and message counts, optionally attributed to
named *phases* (e.g. ``"tournament"``, ``"scatter_A10"``) so benchmarks
can break a run down by algorithm step, as Lemma 10 does analytically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smpi.timing import TimingReport


@dataclass(frozen=True)
class VolumeReport:
    """Immutable snapshot of a finished run's communication volume.

    Attributes
    ----------
    nranks:
        Number of ranks that participated.
    sent_bytes:
        Tuple of bytes sent, indexed by rank.
    recv_bytes:
        Tuple of bytes received, indexed by rank.
    messages:
        Tuple of message counts (sends), indexed by rank.
    phase_bytes:
        Mapping ``phase name -> total bytes sent`` across all ranks.
        Nested phase scopes attribute *exclusively*: bytes sent inside
        ``with comm.phase("outer"): with comm.phase("inner")`` count
        under ``"outer/inner"`` only, never double under ``"outer"``.
    phase_self_bytes:
        Mapping ``phase name -> bytes`` ranks handed themselves without
        a message; beside ``total_bytes``, never inside it.
    timing:
        Predicted-time report when the run was given a machine spec
        (``run_spmd(..., machine=...)``); ``None`` for volume-only runs.
    faults:
        Canonical fault-injection log (``repro.faults``) when the run
        was armed with ``run_spmd(..., faults=...)``; ``None`` for
        clean runs.  JSON-clean dict with ``plan`` / ``n_injected`` /
        ``by_action`` / ``events`` keys, identical across replays of
        the same seeded plan.
    """

    nranks: int
    sent_bytes: tuple[int, ...]
    recv_bytes: tuple[int, ...]
    messages: tuple[int, ...]
    phase_bytes: dict[str, int] = field(default_factory=dict)
    phase_messages: dict[str, int] = field(default_factory=dict)
    phase_self_bytes: dict[str, int] = field(default_factory=dict)
    timing: "TimingReport | None" = None
    faults: dict | None = None

    @property
    def total_bytes(self) -> int:
        """Aggregate bytes sent over the (simulated) network."""
        return sum(self.sent_bytes)

    @property
    def total_messages(self) -> int:
        return sum(self.messages)

    @property
    def per_rank_bytes(self) -> float:
        """Average bytes sent per rank ("communication volume per node")."""
        return self.total_bytes / self.nranks if self.nranks else 0.0


class VolumeLedger:
    """Per-rank byte counters for one SPMD run.

    Every lane is rank-private — counters, scope stack and per-phase
    totals are indexed by rank and written only on behalf of that
    rank — so the ledger needs no lock however its writers are
    threaded; :meth:`snapshot` merges the lanes once, in rank order.
    Sends are counted at the sender (this matches Score-P's "bytes
    sent" metric the paper aggregates); receives are tracked as a
    cross-check — in a closed system total sent must equal total
    received, and the test suite asserts this invariant.
    """

    def __init__(self, nranks: int) -> None:
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        # Per rank, one entry per open scope: the ``"/"``-joined path
        # sends inside it are attributed to.  A ``None`` entry suspends
        # attribution for its scope.
        self._phase_paths: list[list[str | None]] = [
            [] for _ in range(nranks)
        ]
        self.reset()

    def push_phase(self, rank: int, phase: str | None) -> None:
        """Enter a phase scope on this rank (``None`` = unattributed)."""
        paths = self._phase_paths[rank]
        if phase is not None and paths and paths[-1] is not None:
            phase = f"{paths[-1]}/{phase}"
        paths.append(phase)

    def pop_phase(self, rank: int) -> None:
        self._phase_paths[rank].pop()

    def current_phase(self, rank: int) -> str | None:
        """Attribution label for the rank's current scope.

        Nested scopes form a ``"/"``-joined path (``"outer/inner"``),
        which makes per-phase totals *exclusive* by construction: a
        byte lands under exactly one path key, so summing phase_bytes
        never double counts.  A ``None`` scope suspends attribution;
        the path restarts after the innermost ``None``.  The path is
        built once, when the scope is entered.
        """
        paths = self._phase_paths[rank]
        return paths[-1] if paths else None

    def record_send(self, rank: int, nbytes: int) -> None:
        self.record_sends(rank, nbytes, 1)

    def record_sends(self, rank: int, nbytes: int, count: int) -> None:
        """Record ``count`` messages of ``nbytes`` bytes in total, all
        sent by ``rank`` in its current phase scope."""
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        self._sent[rank] += nbytes
        self._msgs[rank] += count
        phase = self.current_phase(rank)
        if phase is not None:
            totals = self._phases[rank].setdefault(phase, [0, 0])
            totals[0] += nbytes
            totals[1] += count

    def record_recv(self, rank: int, nbytes: int) -> None:
        self._recv[rank] += nbytes

    def record_self(self, rank: int, nbytes: int) -> None:
        """Book ``nbytes`` that ``rank`` handed itself in its current
        phase scope: no message, so no wire counter moves."""
        phase = self.current_phase(rank)
        if phase is not None:
            lane = self._self[rank]
            lane[phase] = lane.get(phase, 0) + nbytes

    def snapshot(self) -> VolumeReport:
        phase_bytes: dict[str, int] = {}
        phase_msgs: dict[str, int] = {}
        for lane in self._phases:
            for phase, (nbytes, msgs) in lane.items():
                phase_bytes[phase] = phase_bytes.get(phase, 0) + nbytes
                phase_msgs[phase] = phase_msgs.get(phase, 0) + msgs
        phase_self: dict[str, int] = {}
        for lane in self._self:
            for phase, nbytes in lane.items():
                phase_self[phase] = phase_self.get(phase, 0) + nbytes
        return VolumeReport(
            nranks=self.nranks,
            sent_bytes=tuple(self._sent),
            recv_bytes=tuple(self._recv),
            messages=tuple(self._msgs),
            phase_bytes=phase_bytes,
            phase_messages=phase_msgs,
            phase_self_bytes=phase_self,
        )

    def reset(self) -> None:
        """Zero every counter; phase scopes stay as they are."""
        self._sent = [0] * self.nranks
        self._recv = [0] * self.nranks
        self._msgs = [0] * self.nranks
        #: per rank: phase path -> [bytes sent, messages sent]
        self._phases: list[dict[str, list[int]]] = [
            {} for _ in range(self.nranks)
        ]
        self._self: list[dict[str, int]] = [{} for _ in range(self.nranks)]
