"""Run-to-block SPMD runtime.

Every rank of a simulated job runs the same Python function,
communicating exclusively through :class:`Comm`.  ``send``/``recv``
move arbitrary Python payloads (numpy arrays are the common case and
are copied on send, so rank-local mutation semantics match a
distributed-memory machine).

``send`` is buffered-asynchronous (it deposits the message into the
destination's mailbox and returns); ``recv`` names its source and tag
and blocks until a message on that channel arrives.  There are no
wildcards: every receive is one exact ``(context, source, tag)``
lookup, and each channel is FIFO.  A run is therefore a Kahn process
network — what each rank receives, and so what it computes and sends,
does not depend on the order in which ranks are run.

``send_each`` / ``recv_each`` are their plural forms, for a plan that
moves many small pieces under one tag.  They are message-for-message
equal to the singular ones: ``send_each(((d, dest), ...), tag)`` makes
exactly the messages the same ``send`` calls in that order would —
same payload copies, per-channel mailbox order, ledger totals,
trace events and fault decisions — through the one implementation
both share.  Only a traced run passes every piece through ``send``;
an untraced call, clean or faulted, is one batch, which the injector
of a faulted run still decides message by message, in order, and the
ledger books once.
``recv_each(sources, tag)`` is a lazy iterator of one ``recv`` per
source, so a caller that checks each piece raises before the next
receive is taken, exactly as a loop of ``recv`` calls would.

Whatever the form and whatever the run (clean, traced or faulted),
every message is filed by one routine, :meth:`_Scheduler.deliver`,
which takes a whole batch — all of a ``_post``'s messages at once —
and taken by one, :meth:`_Scheduler.take`, one lookup of the exact
``(context, source, tag)``.
Every payload is still copied, and every byte still booked through the
ledger's methods.

Each rank has a thread of its own, so rank programs are ordinary
blocking code, but only the rank holding the run's baton executes (see
:class:`_Scheduler`): it keeps the baton until it blocks or returns,
and the next rank is taken from a FIFO queue.  The interleaving is
therefore a function of the program, not of the OS, and a lost message
is not inferred from a timeout: the moment no rank can run while some
are blocked, each blocked rank raises :class:`DeadlockError`.

Communicator metadata operations (``split``, ``barrier``) are
implemented through an in-process rendezvous board rather than messages;
they carry no payload bytes, matching the paper's volume accounting which
counts only data traffic.
"""

from __future__ import annotations

import copy
import pickle
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.smpi.volume import VolumeLedger, VolumeReport

#: The wall budget of a run, in seconds, when its caller names none.
DEFAULT_TIMEOUT_S = 600.0


class SmpiError(RuntimeError):
    """Base class for simulated-MPI failures."""


class DeadlockError(SmpiError):
    """A rank is blocked on something no rank is left to provide, or
    the run outlived its wall budget."""


class UndeliveredMessages(SmpiError):
    """Every rank returned, but a mailbox still holds a message that
    no receive will ever take; the text carries the census."""


class RankFailure(SmpiError):
    """One or more ranks raised; carries the first underlying error."""

    def __init__(self, failures: list[tuple[int, BaseException]]) -> None:
        self.failures = failures
        first_rank, first_exc = failures[0]
        super().__init__(
            f"{len(failures)} rank(s) failed; first: rank {first_rank}: "
            f"{type(first_exc).__name__}: {first_exc}"
        )


def payload_nbytes(obj: Any) -> int:
    """Wire size of a message payload in bytes.

    numpy arrays count their buffer size (8 B per float64 element — the
    same accounting as the paper's Table 2 models, which are "scaled by
    the element size (8 bytes)").  Scalars count their natural width,
    byte buffers (``bytes``, ``bytearray``, ``memoryview``) their byte
    length; containers count the sum of their elements.  Anything
    exotic falls back to its pickle length.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, np.generic):
        return obj.itemsize
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float, complex)):
        return 8 if not isinstance(obj, complex) else 16
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return memoryview(obj).nbytes
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _copy_payload(obj: Any) -> Any:
    """Copy a payload so sender-side mutation cannot leak to the receiver.

    This is what makes the shared-address-space simulator behave like a
    distributed-memory machine.  A mutable byte buffer arrives as a
    ``bytearray`` of its own, a ``memoryview`` as the ``bytes`` it views
    (a view of the sender's memory cannot travel).
    """
    if isinstance(obj, np.ndarray):
        return np.array(obj, copy=True)
    if obj is None or isinstance(obj, (int, float, complex, str, bytes, bool)):
        return obj
    if isinstance(obj, bytearray):
        return bytearray(obj)
    if isinstance(obj, memoryview):
        return obj.tobytes()
    if isinstance(obj, np.generic):
        return obj
    if isinstance(obj, tuple):
        return tuple(_copy_payload(x) for x in obj)
    if isinstance(obj, list):
        return [_copy_payload(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return copy.deepcopy(obj)


class _Message:
    __slots__ = ("key", "data", "nbytes", "send_id")

    def __init__(
        self, key: tuple[int, int, int], data: Any, nbytes: int
    ) -> None:
        #: (context, source, tag): the channel the message is filed
        #: under and taken from
        self.key = key
        self.data = data
        self.nbytes = nbytes
        # (sender world rank, sender-local sequence number) when an
        # event trace is recording; lets the receive side log exactly
        # which send it took, duplicates and reordered copies included.
        self.send_id = None


class _Scheduler:
    """State shared by every rank of one SPMD run, and the baton.

    Exactly one rank executes at a time.  The rank holding the baton
    runs until it *blocks* — a receive whose channel is empty,
    a rendezvous (``split``/``barrier``) not everyone has
    reached — or returns; only there is the baton handed on, to the
    head of the FIFO ``runnable`` queue.  A send never yields: it
    files the message and, if the destination is blocked on a receive
    of its channel, queues the destination.  Everything below is
    therefore touched by one thread at a time and needs no lock.  The only
    synchronisation is one gate per rank and one for ``run_spmd``'s
    caller: a lock its owner sleeps on until it is handed the baton.

    No runnable rank while some rank is blocked *is* a deadlock — no
    event is left that could unblock anyone — so it is reported on the
    spot: every blocked rank is queued, in rank order, to raise a
    :class:`DeadlockError` carrying the same census.
    """

    def __init__(
        self, nranks: int, trace: Any = None, faults: Any = None
    ) -> None:
        self.ledger = VolumeLedger(nranks)
        #: repro.smpi.timing.EventTrace when the run predicts time
        self.trace = trace
        #: repro.faults.FaultInjector for chaos runs (None = clean run)
        self.faults = faults
        #: per world rank: (context, source, tag) -> FIFO of messages
        self.mail: list[dict[tuple[int, int, int], deque[_Message]]] = [
            {} for _ in range(nranks)
        ]
        #: rendezvous key -> contributions by group rank, arrival order
        self.slots: dict[Any, dict[int, Any]] = {}
        #: world rank -> (context, source, tag) its blocked receive wants
        self.receiving: dict[int, tuple[int, int, int]] = {}
        #: world rank -> (key, group size) of the rendezvous it waits in
        self.meeting: dict[int, tuple[Any, int]] = {}
        self.runnable: deque[int] = deque(range(nranks))
        #: the baton holder (None before the start and after the end)
        self.running: int | None = None
        #: world rank -> text of the DeadlockError it raises on waking
        self.doomed: dict[int, str] = {}
        #: why the run was cut short, once the caller's budget is spent
        self.expired: str | None = None
        self.gates = [threading.Lock() for _ in range(nranks)]
        self.done = threading.Lock()
        for gate in (*self.gates, self.done):
            gate.acquire()
        self._next_context = 1  # 0 is COMM_WORLD

    def allocate_contexts(self, count: int) -> int:
        """Reserve ``count`` consecutive context ids; return the first."""
        first = self._next_context
        self._next_context += count
        return first

    # ------------------------------------------------------------------
    # the baton
    # ------------------------------------------------------------------
    def hand_on(self) -> None:
        """Pass the baton to the next runnable rank, or to the caller
        when every rank has returned.  Called by the holder as it
        blocks or returns (and once by the caller, to start rank 0)."""
        if (self.receiving or self.meeting) and (
            self.expired or not self.runnable
        ):
            self._doom_blocked()
        if self.runnable:
            self.running = self.runnable.popleft()
            self.gates[self.running].release()
        else:
            self.running = None
            self.done.release()

    def _block(self, rank: int) -> None:
        """Give up the baton until ``rank`` is runnable again."""
        self.hand_on()
        self.gates[rank].acquire()
        reason = self.doomed.pop(rank, None)
        if reason is not None:
            raise DeadlockError(reason)

    def _doom_blocked(self) -> None:
        """Queue every blocked rank to raise a :class:`DeadlockError`:
        its own coordinates, then the census all of them share."""
        why = self.expired or "no rank is left to run"
        heads: dict[int, str] = {}
        lines = ["blocked ranks:"]
        for rank in sorted(self.receiving.keys() | self.meeting.keys()):
            if rank in self.receiving:
                context, source, tag = self.receiving[rank]
                coords = f"(source={source}, tag={tag}, context={context})"
                heads[rank] = f"recv{coords} unmatched"
                lines.append(f"  rank {rank}: awaiting {coords}")
            else:
                key, expected = self.meeting[rank]
                heads[rank] = (
                    f"rendezvous {key!r} stuck at "
                    f"{len(self.slots[key])}/{expected}"
                )
                lines.append(f"  rank {rank}: in {heads[rank]}")
        census = "\n".join(lines + self._mailbox_census())
        for rank, head in heads.items():
            self.doomed[rank] = f"{head}: {why}\n{census}"
            self.runnable.append(rank)
        # Every contributor of every open slot was blocked in it.
        self.receiving.clear()
        self.meeting.clear()
        self.slots.clear()

    def _mailbox_census(self) -> list[str]:
        """What sits undelivered in every mailbox — next to what the
        blocked ranks await, usually enough to see *which* message
        went missing."""
        lines = ["mailbox census:"]
        for rank, box in enumerate(self.mail):
            pending = sorted(
                (source, tag, context)
                for (context, source, tag), queue in box.items()
                for _ in queue
            )
            if pending:
                shown = ", ".join(
                    f"(source={s}, tag={t}, context={c})"
                    for s, t, c in pending[:8]
                )
                extra = (
                    f" … +{len(pending) - 8} more"
                    if len(pending) > 8 else ""
                )
                lines.append(
                    f"  rank {rank}: {len(pending)} undelivered: "
                    f"{shown}{extra}"
                )
        if len(lines) == 1:
            lines.append("  (all mailboxes empty)")
        return lines

    # ------------------------------------------------------------------
    # the three blocking points' state
    # ------------------------------------------------------------------
    def deliver(self, batch: Iterable[tuple[int, _Message]]) -> None:
        """The one filing routine: file each ``(dest, msg)`` of
        ``batch``, in order, in world rank ``dest``'s mailbox, and
        queue a destination blocked on a receive of its channel."""
        mail, receiving = self.mail, self.receiving
        for dest, msg in batch:
            key = msg.key
            box = mail[dest]
            queue = box.get(key)
            if queue is None:
                queue = box[key] = deque()
            queue.append(msg)
            if receiving.get(dest) == key:
                del receiving[dest]
                self.runnable.append(dest)

    def take(
        self, rank: int, context: int, source: int, tag: int
    ) -> _Message:
        """The one taking routine: the oldest message on channel
        ``(context, source, tag)`` of world rank ``rank``'s mailbox,
        blocking until there is one."""
        key = (context, source, tag)
        box = self.mail[rank]
        queue = box.get(key)
        while queue is None:
            self.receiving[rank] = key
            self._block(rank)
            queue = box.get(key)
        msg = queue.popleft()
        if not queue:
            del box[key]
        return msg

    def exchange(self, comm: "Comm", key: Any, value: Any) -> dict[int, Any]:
        """Deposit ``value`` under ``key`` and return every member's
        contribution once all of ``comm``'s group have arrived."""
        contrib = self.slots.setdefault(key, {})
        contrib[comm._rank] = value
        if len(contrib) < len(comm._group):
            self.meeting[comm._world_rank] = (key, len(comm._group))
            self._block(comm._world_rank)
        else:
            del self.slots[key]
            for rank in contrib:
                if rank != comm._rank:
                    peer = comm._group[rank]
                    del self.meeting[peer]
                    self.runnable.append(peer)
        return contrib


class _PhaseScope:
    """Push/pop one entry of the rank's phase-scope stack.

    Nesting is supported and attributes *exclusively*: traffic inside
    the inner scope lands under the ``"outer/inner"`` path key only
    (see :meth:`VolumeLedger.current_phase`), so per-phase totals never
    double count.
    """

    def __init__(self, comm: "Comm", name: str | None) -> None:
        self._comm = comm
        self._name = name

    def __enter__(self) -> "Comm":
        self._comm._sched.ledger.push_phase(
            self._comm._world_rank, self._name
        )
        return self._comm

    def __exit__(self, *exc: Any) -> None:
        self._comm._sched.ledger.pop_phase(self._comm._world_rank)


class Comm:
    """A communicator: an ordered group of ranks sharing a message context.

    The world communicator is handed to the rank function by
    :func:`run_spmd`; sub-communicators come from :meth:`split` (the
    analogue of ``MPI_Comm_split``) and address peers by *group-local*
    rank, exactly like MPI.
    """

    def __init__(
        self,
        sched: _Scheduler,
        context_id: int,
        group: Sequence[int],
        world_rank: int,
    ) -> None:
        self._sched = sched
        self._context_id = context_id
        self._group = tuple(group)
        self._world_rank = world_rank
        self._rank = self._group.index(world_rank)
        self._meta_counter = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank within the communicator's group."""
        return self._rank

    @property
    def size(self) -> int:
        return len(self._group)

    @property
    def world_rank(self) -> int:
        """Rank in the world communicator (useful for debugging)."""
        return self._world_rank

    @property
    def group(self) -> tuple[int, ...]:
        """World ranks of the group, in group order."""
        return self._group

    def phase(self, name: str | None) -> _PhaseScope:
        """Context manager attributing sent bytes to a named phase."""
        return _PhaseScope(self, name)

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, data: Any, dest: int, tag: int = 0) -> None:
        """Buffered asynchronous send of a generic payload.

        This is the per-message seam.  When the run carries a fault
        injector, the injector may retime, drop, duplicate, hold back
        or corrupt the outgoing message (or crash this rank).  The
        ledger and timing trace record what is *actually delivered*,
        so byte accounting and predicted time follow the faulty
        execution.
        """
        self._post(((data, dest),), tag)

    def send_each(
        self, pieces: Sequence[tuple[Any, int]], tag: int = 0
    ) -> None:
        """Send each ``(payload, dest)`` of ``pieces``, in order, as its
        own message under ``tag`` — message for message what the same
        :meth:`send` calls would make.

        Every ``dest`` is range-checked before the first message
        leaves, so a bad one raises with nothing delivered or
        recorded.  An untraced call — clean or faulted — is one
        :meth:`_post` of the whole batch (the injector still decides
        message by message, in order); on a traced run every piece goes
        through :meth:`send`, the per-message seam.
        """
        if self._sched.trace is None:
            self._post(pieces, tag)
            return
        for _, dest in pieces:
            self._check_dest(dest)
        for data, dest in pieces:
            self.send(data, dest, tag)

    def record_self(self, nbytes: int) -> None:
        """Book ``nbytes`` this rank hands itself in its current phase,
        where a plan keeps a piece instead of sending it."""
        self._sched.ledger.record_self(self._world_rank, nbytes)

    def _check_dest(self, dest: int) -> None:
        if not 0 <= dest < len(self._group):
            raise ValueError(
                f"dest {dest} out of range for communicator of size "
                f"{len(self._group)}"
            )

    def _post(self, pieces: Sequence[tuple[Any, int]], tag: int) -> None:
        """The one send implementation behind :meth:`send` and
        :meth:`send_each`: size and copy every payload, then file the
        messages in order through :meth:`_Scheduler.deliver`, the
        call's whole batch at once.

        On a faulted run the injector decides each message in order,
        and there is one :class:`_Message` per delivered instance: the
        piece's own when no rule fired (the injector returns ``None``),
        one per :class:`~repro.faults.Delivery` otherwise.  What a
        crash cuts short is still filed and booked: every message
        decided before it."""
        group, size = self._group, len(self._group)
        context, source = self._context_id, self._rank
        key = (context, source, tag)
        out, total = [], 0
        for data, dest in pieces:
            if not 0 <= dest < size:
                self._check_dest(dest)
            if isinstance(data, np.ndarray):
                nbytes = data.nbytes
                data = np.array(data, copy=True)
            else:
                nbytes = payload_nbytes(data)
                data = _copy_payload(data)
            total += nbytes
            out.append((group[dest], _Message(key, data, nbytes)))
        if not out:
            return
        sched, me = self._sched, self._world_rank
        injector, trace, ledger = sched.faults, sched.trace, sched.ledger
        phase = ledger.current_phase(me)
        if injector is None:
            ledger.record_sends(me, total, len(out))
            if trace is not None:
                for dst, msg in out:
                    msg.send_id = trace.record_send(me, dst, msg.nbytes, phase)
            sched.deliver(out)
            return
        sent, total = [], 0
        try:
            for dst, msg in out:
                made = injector.process_send(
                    me, dst, context, source, tag, phase, msg.data,
                    msg.nbytes,
                )
                if made is None:
                    total += msg.nbytes
                    if trace is not None:
                        msg.send_id = trace.record_send(
                            me, dst, msg.nbytes, phase
                        )
                    sent.append((dst, msg))
                    continue
                for d in made:
                    faulted = _Message(
                        (d.context, d.source, d.tag), d.payload, d.nbytes
                    )
                    total += d.nbytes
                    if trace is not None:
                        faulted.send_id = trace.record_send(
                            me, dst, d.nbytes, phase, delay_s=d.delay_s
                        )
                    sent.append((dst, faulted))
        finally:
            if sent:
                ledger.record_sends(me, total, len(sent))
                sched.deliver(sent)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive of the next message from ``source`` under
        ``tag``; returns the payload."""
        data, _, _ = self.recv_status(source, tag)
        return data

    def recv_status(self, source: int, tag: int = 0) -> tuple[Any, int, int]:
        """Blocking receive; returns ``(payload, source, tag)``."""
        msg = self._take(source, tag)
        _, msg_source, msg_tag = msg.key
        return msg.data, msg_source, msg_tag

    def recv_each(self, sources: Iterable[int], tag: int) -> Iterator[Any]:
        """Lazily receive one payload from each of ``sources``, in
        order: each receive is taken (and may block) only when the
        caller asks for the next piece, so a caller that rejects a
        piece leaves every later message in the mailbox."""
        for source in sources:
            yield self._take(source, tag).data

    def _take(self, source: int, tag: int) -> _Message:
        """The one blocking receive behind every public form."""
        if not 0 <= source < len(self._group):
            raise ValueError(
                f"source {source} out of range for communicator of size "
                f"{len(self._group)}"
            )
        sched, me = self._sched, self._world_rank
        msg = sched.take(me, self._context_id, source, tag)
        sched.ledger.record_recv(me, msg.nbytes)
        trace = sched.trace
        if trace is not None and msg.send_id is not None:
            trace.record_recv(me, msg.send_id, sched.ledger.current_phase(me))
        return msg

    def sendrecv(
        self,
        senddata: Any,
        dest: int,
        source: int | None = None,
        sendtag: int = 0,
        recvtag: int | None = None,
    ) -> Any:
        """Combined exchange; safe because sends are buffered."""
        if source is None:
            source = dest
        if recvtag is None:
            recvtag = sendtag
        self.send(senddata, dest, sendtag)
        return self.recv(source, recvtag)

    # ------------------------------------------------------------------
    # metadata collectives (zero volume)
    # ------------------------------------------------------------------
    def _meta_key(self, op: str) -> tuple:
        self._meta_counter += 1
        return (self._context_id, op, self._meta_counter)

    def _trace_sync(self, key: tuple) -> None:
        """Log a rendezvous as a sync point for the timing replay.

        The key is identical on every participating rank (same context,
        op and per-comm counter), so the replay can align the whole
        group's clocks; metadata ops stay zero-volume in the ledger.
        """
        trace = self._sched.trace
        if trace is not None:
            trace.record_sync(
                self._world_rank,
                key,
                self.size,
                self._sched.ledger.current_phase(self._world_rank),
            )

    def compute(self, flops: float) -> None:
        """Account ``flops`` of local work for the timing model.

        A no-op for volume-only runs; under ``run_spmd(machine=...)``
        the replay advances this rank's clock by flops/γ, overlapping
        the work with any in-flight transfers (compute/communication
        overlap).
        """
        if flops < 0:
            raise ValueError(f"negative flop count: {flops}")
        trace = self._sched.trace
        if trace is not None:
            trace.record_compute(
                self._world_rank,
                flops,
                self._sched.ledger.current_phase(self._world_rank),
            )

    def barrier(self) -> None:
        """Synchronize all ranks of this communicator (zero data volume)."""
        key = self._meta_key("barrier")
        self._trace_sync(key)
        self._sched.exchange(self, key, None)

    def split(
        self, color: int | None, key: int | None = None
    ) -> "Comm | None":
        """Partition the communicator by ``color``; order groups by
        ``(key, rank)``.  Ranks passing ``color=None`` get ``None`` back
        (the MPI_UNDEFINED idiom used to disable ranks — the paper's
        Processor Grid Optimization relies on this)."""
        if key is None:
            key = self._rank
        meta_key = self._meta_key("split")
        self._trace_sync(meta_key)
        contrib = self._sched.exchange(self, meta_key, (color, key))
        colors = sorted(
            {c for c, _ in contrib.values() if c is not None}
        )
        if not colors:
            return None
        # Deterministic context allocation: rank 0 of the parent group
        # reserves one context per color and shares the base id, so every
        # member (including color=None ranks) computes identical ids.
        first_ctx = self._shared_context_base(len(colors))
        my_color, _ = contrib[self._rank]
        if my_color is None:
            return None
        color_index = colors.index(my_color)
        members = sorted(
            (k, r) for r, (c, k) in contrib.items() if c == my_color
        )
        group = tuple(self._group[r] for _, r in members)
        return Comm(
            self._sched, first_ctx + color_index, group, self._world_rank
        )

    def _shared_context_base(self, count: int) -> int:
        """All group members must obtain the *same* base id; rank 0
        allocates and shares it through the rendezvous board."""
        key = self._meta_key("ctxbase")
        self._trace_sync(key)
        value = None
        if self._rank == 0:
            value = self._sched.allocate_contexts(count)
        return self._sched.exchange(self, key, value)[0]

    # ------------------------------------------------------------------
    # data collectives — implemented in collectives.py, re-exported as
    # methods so rank programs call them on the communicator.
    # ------------------------------------------------------------------
    def bcast(self, data: Any, root: int = 0) -> Any:
        from repro.smpi import collectives

        return collectives.bcast(self, data, root)

    def reduce(
        self,
        data: Any,
        root: int = 0,
        op: Callable[[Any, Any], Any] | None = None,
    ) -> Any:
        from repro.smpi import collectives

        return collectives.reduce(self, data, root, op)

    def allreduce(
        self, data: Any, op: Callable[[Any, Any], Any] | None = None
    ) -> Any:
        from repro.smpi import collectives

        return collectives.allreduce(self, data, op)

    def gather(self, data: Any, root: int = 0) -> list[Any] | None:
        from repro.smpi import collectives

        return collectives.gather(self, data, root)

    def allgather(self, data: Any) -> list[Any]:
        from repro.smpi import collectives

        return collectives.allgather(self, data)

    def scatter(self, chunks: Sequence[Any] | None, root: int = 0) -> Any:
        from repro.smpi import collectives

        return collectives.scatter(self, chunks, root)

    def alltoall(self, chunks: Sequence[Any]) -> list[Any]:
        from repro.smpi import collectives

        return collectives.alltoall(self, chunks)

    def reduce_scatter(
        self,
        chunks: Sequence[Any],
        op: Callable[[Any, Any], Any] | None = None,
    ) -> Any:
        from repro.smpi import collectives

        return collectives.reduce_scatter(self, chunks, op)


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = DEFAULT_TIMEOUT_S,
    machine: Any = None,
    faults: Any = None,
) -> tuple[list[Any], VolumeReport]:
    """Run ``fn(comm, *args)`` on ``nranks`` ranks, one at a time.

    Returns ``(results, volume_report)`` where ``results[r]`` is rank r's
    return value.  If any rank raises, a :class:`RankFailure` carrying
    every failure, sorted by rank, is raised after all ranks have
    stopped.  A lost message needs no timeout to surface: the blocked
    ranks raise :class:`DeadlockError` with a census as soon as no rank
    can run (see :class:`_Scheduler`).  A run that ends with a message
    nobody received raises :class:`UndeliveredMessages`.

    ``timeout`` is the run's wall budget in seconds: ``> 0``, or
    ``inf`` for none (``ValueError`` otherwise, NaN included).  It
    bounds what deadlock detection cannot — a rank that computes
    without ever blocking: when it is spent the call raises a
    :class:`RankFailure` whose :class:`DeadlockError` names the rank
    still running, and every other rank raises at its next turn.

    ``machine`` (a :class:`~repro.models.machines.Machine`, preset name
    or spec path) switches on the discrete-event clock: the run records
    an event trace and the returned report carries a
    :class:`~repro.smpi.timing.TimingReport` in ``report.timing`` —
    predicted per-rank wall-clock under that machine's α-β-γ model.
    Byte accounting is identical with or without a machine.

    ``faults`` (a :class:`~repro.faults.FaultPlan`, plan dict, or JSON
    path) arms deterministic fault injection on the send seam; the
    returned report carries the canonical fault log in
    ``report.faults``.
    """
    if nranks <= 0:
        raise ValueError(f"nranks must be positive, got {nranks}")
    if not timeout > 0:
        raise ValueError(f"timeout must be > 0, got {timeout!r}")
    trace = None
    resolved = None
    if machine is not None:
        from repro.models.machines import resolve_machine
        from repro.smpi.timing import EventTrace

        resolved = resolve_machine(machine)
        trace = EventTrace(nranks)
    injector = None
    if faults is not None:
        from repro.faults import FaultInjector, resolve_faults

        plan = resolve_faults(faults)
        if plan is not None and plan.rules:
            injector = FaultInjector(plan, nranks)
    sched = _Scheduler(nranks, trace=trace, faults=injector)
    results: list[Any] = [None] * nranks
    failures: list[tuple[int, BaseException]] = []

    def _worker(rank: int) -> None:
        comm = Comm(sched, 0, tuple(range(nranks)), rank)
        sched.gates[rank].acquire()
        try:
            results[rank] = fn(comm, *args)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failures.append((rank, exc))
        finally:
            sched.hand_on()

    threads = [
        threading.Thread(
            target=_worker, args=(r,), daemon=True, name=f"rank{r}"
        )
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    sched.hand_on()
    if not sched.done.acquire(timeout=min(timeout, threading.TIMEOUT_MAX)):
        # The one place the wall budget is enforced.  Ranks blocked now
        # or later raise at their next turn; the running one cannot be
        # interrupted, so it is reported here and its thread left behind.
        sched.expired = f"the run's wall budget ({timeout:g}s) is spent"
        running = sched.running
        if running is not None:
            stuck = DeadlockError(
                f"rank {running} still running: {sched.expired}"
            )
            raise RankFailure(sorted(
                [*failures, (running, stuck)], key=lambda f: f[0]
            ))
    for t in threads:
        t.join()
    if injector is not None:
        injector.finish()
    if failures:
        failures.sort(key=lambda f: f[0])
        raise RankFailure(failures)
    if any(sched.mail):
        raise UndeliveredMessages(
            "run ended with undelivered messages\n"
            + "\n".join(sched._mailbox_census())
        )
    report = sched.ledger.snapshot()
    if trace is not None or injector is not None:
        import dataclasses

        updates: dict[str, Any] = {}
        if trace is not None:
            from repro.smpi.timing import simulate

            updates["timing"] = simulate(trace, resolved)
        if injector is not None:
            updates["faults"] = injector.report()
        report = dataclasses.replace(report, **updates)
    return results, report
