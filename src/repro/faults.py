"""Deterministic fault injection for the simulated runtime.

A distributed run meets slow links, lost messages and dying ranks.
This module lets the simulated runtime *manufacture* those failures
deterministically, so every outcome — a typed error, a tolerated
fault, a run that completes wrong — is pinned by tests instead of
discovered in production.

A :class:`FaultPlan` is a seed plus an ordered tuple of
:class:`FaultRule` s.  Each rule matches messages at the send seam of
:meth:`repro.smpi.runtime.Comm.send` (by sender, destination, tag,
ledger phase path, or schedule step) and fires one action:

==========  ==========================================================
delay       deliver normally, but charge ``delay_s`` extra seconds to
            the message's network transfer in the discrete-event clock
            (the payload is untouched, so delay-only plans produce
            bit-identical factors with strictly larger predicted wait)
drop        the message never arrives (neither the byte ledger nor the
            clock records it — accounting follows *delivered* traffic,
            so the closed-system sent == recv invariant still holds)
duplicate   a second, byte-identical copy, with a payload buffer of its
            own, is delivered after the first
reorder     the message is held back and released behind the sender's
            *next* message on the same (src, dst) channel
bitflip     one deterministically-chosen bit of one numpy payload
            buffer is inverted before delivery
crash       the sending rank raises :class:`RankCrashed`, which
            :func:`~repro.smpi.runtime.run_spmd` aggregates into
            :class:`~repro.smpi.runtime.RankFailure`
==========  ==========================================================

**Determinism.**  A decision routed through a shared sequential RNG
would depend on the order in which ranks reach the seam, so the fault
log would change with the runtime's scheduling rule.  Instead, every
probabilistic choice is a pure hash of
``(plan seed, rule index, src, dst, tag, channel sequence number)``,
where the channel sequence number counts the sender's messages to that
destination — program order on the sending rank, independent of
interleaving.  Match counters (``after`` / ``max_fires``) are likewise
kept per ``(rule, src, dst)`` channel.  Replaying the same plan over
the same schedule therefore fires the same faults on the same
messages, byte for byte, and the fault log (canonically sorted on
snapshot) compares equal across runs.

That per-channel state is compiled once, on a channel's first message:
the rules whose ``rank`` / ``peer`` can match it, their ``after`` /
``max_fires`` counters, and for each a blake2b state already fed the
``"{seed}:{rule}:{src}:{dst}:"`` prefix of the hash key, which a draw
copies and finishes with ``"{tag}:{seq}:{salt}"`` — the same digest as
hashing the whole key, so the same faults fire.  For a message no
rule fires on, with nothing held on its channel, ``process_send``
returns ``None`` ("delivered as sent"): the message costs the channel
lookup, the remaining filters and its draws, and builds nothing.
"""

from __future__ import annotations

import fnmatch
import hashlib
import math
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.documents import load, read, write
from repro.smpi.runtime import SmpiError, _copy_payload

#: Recognised ``FaultRule.action`` values.
ACTIONS = ("delay", "drop", "duplicate", "reorder", "bitflip", "crash")

#: Tag stride used by the 2.5D schedule family to scope tags per step
#: (``Schedule25D.tag(base, t) = base + STEP_TAG_STRIDE * t``).  Kept
#: in sync with ``repro.algorithms.schedule25d.TAG_STRIDE`` by a test,
#: not an import, so fault injection never pulls in the algorithm layer.
STEP_TAG_STRIDE = 8


class RankCrashed(SmpiError):
    """A fault rule terminated the sending rank mid-run."""


class FaultPlanError(ValueError):
    """A fault plan or rule failed validation."""


@dataclass(frozen=True)
class FaultRule:
    """One declarative match-and-fire rule.

    Match fields (``None`` = wildcard):

    ``rank``
        Sending world rank (the rank that executes the action).
    ``peer``
        Destination world rank.
    ``tag``
        Exact message tag.
    ``phase``
        :mod:`fnmatch` pattern over the sender's ledger phase path
        (e.g. ``"step/tournament*"``).
    ``step``
        Schedule step for tag-strided 2.5D schedules
        (``tag // STEP_TAG_STRIDE``).

    Firing controls:

    ``probability``
        Chance a matching message fires, decided by the plan's pure
        hash stream (1.0 = always).
    ``after``
        Skip the first ``after`` matching messages *per (src, dst)
        channel* before the rule becomes eligible.
    ``max_fires``
        Cap on fires *per (src, dst) channel* (``None`` = unlimited).
    """

    action: str
    rank: int | None = None
    peer: int | None = None
    tag: int | None = None
    phase: str | None = None
    step: int | None = None
    probability: float = 1.0
    delay_s: float = 0.0
    after: int = 0
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise FaultPlanError(
                f"unknown action {self.action!r}; expected one of "
                f"{', '.join(ACTIONS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"probability {self.probability} outside [0, 1]"
            )
        if not 0 <= self.delay_s < math.inf:
            raise FaultPlanError(
                f"delay_s must be finite and >= 0, got {self.delay_s}"
            )
        if self.action == "delay" and self.delay_s == 0:
            raise FaultPlanError("delay action requires delay_s > 0")
        if self.after < 0:
            raise FaultPlanError(f"negative after: {self.after}")
        if self.max_fires is not None and self.max_fires <= 0:
            raise FaultPlanError(
                f"max_fires must be positive, got {self.max_fires}"
            )

    def matches(
        self, src: int, dst: int, tag: int, phase: str | None
    ) -> bool:
        if self.rank is not None and src != self.rank:
            return False
        if self.peer is not None and dst != self.peer:
            return False
        if self.tag is not None and tag != self.tag:
            return False
        if self.step is not None and tag // STEP_TAG_STRIDE != self.step:
            return False
        if self.phase is not None:
            if phase is None or not fnmatch.fnmatchcase(phase, self.phase):
                return False
        return True

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return read(cls, data, "rule", FaultPlanError)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable set of fault rules."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise FaultPlanError(f"seed must be int, got {self.seed!r}")
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise FaultPlanError(
                    f"rules must be FaultRule instances, got {rule!r}"
                )

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Read a plan document; each of its ``rules`` is read as a
        rule document (:meth:`FaultRule.from_dict`)."""
        return read(cls, data, "plan", FaultPlanError)


def resolve_faults(obj: Any) -> FaultPlan | None:
    """Coerce ``None`` / plan / dict / JSON path into a FaultPlan."""
    if obj is None:
        return None
    if isinstance(obj, FaultPlan):
        return obj
    if isinstance(obj, dict):
        return FaultPlan.from_dict(obj)
    if isinstance(obj, (str, Path)):
        return load(FaultPlan, obj, "plan", FaultPlanError)
    raise FaultPlanError(
        f"cannot interpret {type(obj).__name__} as a fault plan"
    )


def canned_plan(fault_class: str, seed: int = 0) -> FaultPlan:
    """A one-rule plan exercising one fault class — the vocabulary of
    the ``chaos-*`` sweeps and ``BENCH_chaos.json``."""
    defaults = {
        "delay": 0.25,
        "drop": 0.02,
        "duplicate": 0.05,
        "reorder": 0.05,
        "bitflip": 0.02,
        "crash": 1.0,
    }
    if fault_class not in ACTIONS:
        raise FaultPlanError(
            f"unknown fault class {fault_class!r}; expected one of "
            f"{', '.join(ACTIONS)}"
        )
    prob = defaults[fault_class]
    if fault_class == "crash":
        # Kill rank 1 on its fourth message to any single peer.
        rule = FaultRule(
            action="crash", rank=1, after=3, max_fires=1,
            probability=prob,
        )
    else:
        rule = FaultRule(
            action=fault_class,
            probability=prob,
            delay_s=5e-4 if fault_class == "delay" else 0.0,
        )
    return FaultPlan(
        rules=(rule,), seed=seed, name=f"canned-{fault_class}"
    )


@dataclass(frozen=True)
class Delivery:
    """One message instance leaving the injection seam."""

    payload: Any
    nbytes: int
    context: int
    source: int          # sender's group rank in `context`
    tag: int
    delay_s: float = 0.0
    duplicate: bool = False


class _ChannelRule:
    """One rule as one ``(src, dst)`` channel sees it: the rule, its
    per-channel counters, and its hash state for that channel."""

    __slots__ = ("idx", "rule", "filtered", "seen", "fires", "_prefix")

    def __init__(
        self, idx: int, rule: FaultRule, seed: int, src: int, dst: int
    ) -> None:
        self.idx = idx
        self.rule = rule
        #: whether tag / step / phase still have to be checked per message
        self.filtered = (
            rule.tag is not None or rule.step is not None
            or rule.phase is not None
        )
        self.seen = 0
        self.fires = 0
        self._prefix = hashlib.blake2b(
            f"{seed}:{idx}:{src}:{dst}:".encode("ascii"), digest_size=8
        )

    def unit(self, tag: int, seq: int, salt: bytes = b"") -> float:
        """A uniform [0, 1) draw that depends only on the plan seed and
        the message's deterministic coordinates."""
        h = self._prefix.copy()
        h.update(b"%d:%d:%s" % (tag, seq, salt))
        return int.from_bytes(h.digest(), "big") / 2.0**64


class _Channel:
    """The injector's state for one ``(src, dst)`` world-rank channel."""

    __slots__ = ("seq", "rules", "held")

    def __init__(self, rules: list[_ChannelRule]) -> None:
        #: messages sent on the channel so far
        self.seq = 0
        self.rules = rules
        #: deliveries held back by reorder rules
        self.held: list[Delivery] = []


class FaultInjector:
    """Per-run instantiation of a :class:`FaultPlan`.

    Thread-safe (it is also driven directly, outside ``run_spmd``); all
    decisions are pure hashes (see module docstring), so the injector's
    observable behaviour — which messages fire which rules — is
    independent of the order in which ranks send.
    """

    def __init__(self, plan: FaultPlan, nranks: int) -> None:
        self.plan = plan
        self.nranks = nranks
        self._lock = threading.Lock()
        #: (src, dst) -> that channel's compiled share of the plan
        self._channels: dict[tuple[int, int], _Channel] = {}
        self._events: list[dict] = []
        self._lost = 0

    def _channel(self, src: int, dst: int) -> _Channel:
        """Compile the plan for channel ``(src, dst)`` on first use."""
        chan = _Channel([
            _ChannelRule(idx, rule, self.plan.seed, src, dst)
            for idx, rule in enumerate(self.plan.rules)
            if rule.rank in (None, src) and rule.peer in (None, dst)
        ])
        self._channels[src, dst] = chan
        return chan

    def _log(
        self, rule_idx: int, action: str, src: int, dst: int, tag: int,
        seq: int, phase: str | None, detail: str = "",
    ) -> None:
        self._events.append(
            {
                "rule": rule_idx,
                "action": action,
                "src": src,
                "dst": dst,
                "tag": tag,
                "seq": seq,
                "phase": phase,
                "detail": detail,
            }
        )

    # ------------------------------------------------------------------
    # the send seam
    # ------------------------------------------------------------------
    def process_send(
        self,
        src: int,
        dst: int,
        context: int,
        source: int,
        tag: int,
        phase: str | None,
        payload: Any,
        nbytes: int,
    ) -> list[Delivery] | None:
        """Apply the plan to one send; returns the deliveries to make,
        or ``None`` when no rule fired and nothing was held on the
        channel — the message is then delivered as sent.

        ``src`` / ``dst`` are world ranks (the channel identity);
        ``source`` is the sender's group rank inside ``context`` (what
        the receiver's matching sees).  Raises :class:`RankCrashed`
        when a crash rule fires.
        """
        with self._lock:
            chan = self._channels.get((src, dst))
            if chan is None:
                chan = self._channel(src, dst)
            seq = chan.seq
            chan.seq = seq + 1

            # [payload, delay_s, duplicate] per instance, once a rule fires
            copies: list[list] | None = None
            held_back = False
            for cr in chan.rules:
                rule = cr.rule
                if cr.filtered and not rule.matches(src, dst, tag, phase):
                    continue
                seen = cr.seen
                cr.seen = seen + 1
                if seen < rule.after:
                    continue
                if rule.max_fires is not None and cr.fires >= rule.max_fires:
                    continue
                if (
                    rule.probability < 1.0
                    and cr.unit(tag, seq) >= rule.probability
                ):
                    continue
                cr.fires += 1
                if copies is None:
                    copies = [[payload, 0.0, False]]

                idx, action = cr.idx, rule.action
                if action == "crash":
                    self._log(
                        idx, "crash", src, dst, tag, seq, phase,
                        f"rank {src} crashed before message {seq} "
                        f"to rank {dst}",
                    )
                    raise RankCrashed(
                        f"rank {src} crashed by fault rule {idx} "
                        f"(seed {self.plan.seed}) before sending "
                        f"message {seq} to rank {dst}"
                    )
                if action == "drop":
                    copies = []
                    self._log(idx, "drop", src, dst, tag, seq, phase)
                elif action == "delay":
                    for c in copies:
                        c[1] += rule.delay_s
                    self._log(
                        idx, "delay", src, dst, tag, seq, phase,
                        f"+{rule.delay_s:g}s",
                    )
                elif action == "duplicate":
                    # a copy of its own: what one receiver writes into
                    # its payload must not show in the other's
                    copies += [
                        [_copy_payload(p), delay_s, True]
                        for p, delay_s, _ in copies
                    ]
                    self._log(
                        idx, "duplicate", src, dst, tag, seq, phase
                    )
                elif action == "bitflip":
                    for c in copies:
                        self._flip_bit(c[0], cr, src, dst, tag, seq)
                elif action == "reorder":
                    held_back = True
                    self._log(idx, "reorder", src, dst, tag, seq, phase)

            if copies is None:
                if not chan.held:
                    return None
                copies = [[payload, 0.0, False]]
            deliveries = [
                Delivery(p, nbytes, context, source, tag, delay_s, dup)
                for p, delay_s, dup in copies
            ]
            if held_back and deliveries:
                chan.held.extend(deliveries)
                return []
            # Flush anything a reorder rule held on this channel: it is
            # delivered *behind* the current message, i.e. out of order.
            if chan.held:
                deliveries += chan.held
                chan.held = []
            return deliveries

    def _flip_bit(
        self, payload: Any, cr: _ChannelRule, src: int, dst: int,
        tag: int, seq: int,
    ) -> None:
        """Invert one deterministic bit of one ndarray in ``payload``."""
        arrays: list[np.ndarray] = []

        def collect(obj: Any) -> None:
            if isinstance(obj, np.ndarray) and obj.size > 0:
                arrays.append(obj)
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    collect(item)
            elif isinstance(obj, dict):
                for value in obj.values():
                    collect(value)

        collect(payload)
        if not arrays:
            self._log(
                cr.idx, "bitflip", src, dst, tag, seq, None,
                "no ndarray in payload; flip skipped",
            )
            return
        a = arrays[int(cr.unit(tag, seq, b"arr") * len(arrays))]
        nbits = a.nbytes * 8
        bit = int(cr.unit(tag, seq, b"bit") * nbits)
        # Flip through a memory-sharing view: reshape(-1) silently
        # *copies* F-contiguous arrays, which would corrupt a temporary
        # and leave the delivered payload pristine while the log claims
        # a flip.  ravel(order="K") views any contiguous layout; the
        # rare non-contiguous payload falls back to an element rewrite.
        flat = a.ravel(order="K")
        if np.shares_memory(flat, a):
            flat.view(np.uint8)[bit // 8] ^= np.uint8(1 << (bit % 8))
        else:
            itembits = a.itemsize * 8
            raw = bytearray(a.flat[bit // itembits].tobytes())
            raw[(bit % itembits) // 8] ^= 1 << (bit % 8)
            a.flat[bit // itembits] = np.frombuffer(
                bytes(raw), dtype=a.dtype
            )[0]
        self._log(
            cr.idx, "bitflip", src, dst, tag, seq, None,
            f"bit {bit} of {a.nbytes}-byte buffer",
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Account messages still held by reorder rules at run end
        (the receivers are gone; they count as lost)."""
        with self._lock:
            for src, dst in sorted(self._channels):
                chan = self._channels[src, dst]
                for d in chan.held:
                    self._log(
                        -1, "reorder-lost", src, dst, d.tag, -1, None,
                        "held message never released",
                    )
                    self._lost += 1
                chan.held = []

    def snapshot(self) -> list[dict]:
        """Canonically-sorted fault log; identical across replays of
        the same plan over the same schedule."""
        with self._lock:
            return sorted(
                (dict(ev) for ev in self._events),
                key=lambda ev: (
                    ev["src"], ev["dst"], ev["seq"], ev["rule"],
                    ev["action"],
                ),
            )

    def report(self) -> dict:
        """JSON-clean summary attached to the run's VolumeReport."""
        events = self.snapshot()
        by_action: dict[str, int] = {}
        for ev in events:
            by_action[ev["action"]] = by_action.get(ev["action"], 0) + 1
        return {
            "plan": write(self.plan),
            "n_injected": len(events),
            "by_action": by_action,
            "lost_in_reorder": self._lost,
            "events": events,
        }
