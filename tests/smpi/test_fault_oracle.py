"""``FaultInjector.process_send`` against a reference decision stream.

``ReferenceInjector`` below is the injector as first written: every
rule re-matched on every message, one blake2b over the whole key per
draw, one ``Delivery`` per message and a ``dataclasses.replace`` per
action.  The shipped injector compiles its plan per ``(src, dst)``
channel and builds nothing for a message no rule fires on; seeded
multi-rule plans must still yield the same deliveries (payload bytes,
``nbytes``, context, source, tag, ``delay_s``, ``duplicate``), the same
crashes and the same ``snapshot()``, message for message.

The one deliberate difference is not exercised here: the reference
shares one payload buffer between a message and its duplicate, so a
``bitflip`` rule after a ``duplicate`` rule flips the shared bit twice.
The plans below put every ``bitflip`` before every ``duplicate``; the
fix has its own regression tests in ``test_faults.py``.
"""

from __future__ import annotations

import fnmatch
import hashlib
import threading
from dataclasses import replace
from typing import Any

import numpy as np
import pytest

from repro.faults import (
    ACTIONS,
    STEP_TAG_STRIDE,
    Delivery,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RankCrashed,
)


def _matches(rule, src, dst, tag, phase) -> bool:
    if rule.rank is not None and src != rule.rank:
        return False
    if rule.peer is not None and dst != rule.peer:
        return False
    if rule.tag is not None and tag != rule.tag:
        return False
    if rule.step is not None and tag // STEP_TAG_STRIDE != rule.step:
        return False
    if rule.phase is not None:
        if phase is None or not fnmatch.fnmatchcase(phase, rule.phase):
            return False
    return True


class ReferenceInjector:
    """The per-message reference: one full pass over the plan per send."""

    def __init__(self, plan: FaultPlan, nranks: int) -> None:
        self.plan = plan
        self.nranks = nranks
        self._lock = threading.Lock()
        self._channel_seq: dict[tuple[int, int], int] = {}
        self._matches: dict[tuple[int, int, int], int] = {}
        self._fires: dict[tuple[int, int, int], int] = {}
        self._held: dict[tuple[int, int], list[Delivery]] = {}
        self._events: list[dict] = []
        self._lost = 0

    def _unit(self, rule_idx, src, dst, tag, seq, salt=""):
        key = (
            f"{self.plan.seed}:{rule_idx}:{src}:{dst}:{tag}:{seq}:{salt}"
        )
        digest = hashlib.blake2b(
            key.encode("ascii"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def _log(self, rule_idx, action, src, dst, tag, seq, phase, detail=""):
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

    def process_send(
        self, src, dst, context, source, tag, phase, payload, nbytes
    ):
        with self._lock:
            chan = (src, dst)
            seq = self._channel_seq.get(chan, 0)
            self._channel_seq[chan] = seq + 1

            deliveries = [
                Delivery(payload, nbytes, context, source, tag)
            ]
            held_back = False
            for idx, rule in enumerate(self.plan.rules):
                if not _matches(rule, src, dst, tag, phase):
                    continue
                mkey = (idx, src, dst)
                seen = self._matches.get(mkey, 0)
                self._matches[mkey] = seen + 1
                if seen < rule.after:
                    continue
                if (
                    rule.max_fires is not None
                    and self._fires.get(mkey, 0) >= rule.max_fires
                ):
                    continue
                if (
                    rule.probability < 1.0
                    and self._unit(idx, src, dst, tag, seq)
                    >= rule.probability
                ):
                    continue
                self._fires[mkey] = self._fires.get(mkey, 0) + 1

                if rule.action == "crash":
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
                if rule.action == "drop":
                    deliveries = []
                    self._log(idx, "drop", src, dst, tag, seq, phase)
                elif rule.action == "delay":
                    deliveries = [
                        replace(d, delay_s=d.delay_s + rule.delay_s)
                        for d in deliveries
                    ]
                    self._log(
                        idx, "delay", src, dst, tag, seq, phase,
                        f"+{rule.delay_s:g}s",
                    )
                elif rule.action == "duplicate":
                    deliveries = deliveries + [
                        replace(d, duplicate=True) for d in deliveries
                    ]
                    self._log(
                        idx, "duplicate", src, dst, tag, seq, phase
                    )
                elif rule.action == "bitflip":
                    deliveries = [
                        self._flip_bit(d, idx, src, dst, tag, seq)
                        for d in deliveries
                    ]
                elif rule.action == "reorder":
                    held_back = True
                    self._log(idx, "reorder", src, dst, tag, seq, phase)

            if held_back and deliveries:
                self._held.setdefault(chan, []).extend(deliveries)
                return []
            held = self._held.pop(chan, None)
            if held:
                deliveries = deliveries + held
            return deliveries

    def _flip_bit(self, d, rule_idx, src, dst, tag, seq):
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

        collect(d.payload)
        if not arrays:
            self._log(
                rule_idx, "bitflip", src, dst, tag, seq, None,
                "no ndarray in payload; flip skipped",
            )
            return d
        a = arrays[
            int(self._unit(rule_idx, src, dst, tag, seq, "arr")
                * len(arrays))
        ]
        nbits = a.nbytes * 8
        bit = int(
            self._unit(rule_idx, src, dst, tag, seq, "bit") * nbits
        )
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
            rule_idx, "bitflip", src, dst, tag, seq, None,
            f"bit {bit} of {a.nbytes}-byte buffer",
        )
        return d

    def finish(self) -> None:
        with self._lock:
            for (src, dst), held in sorted(self._held.items()):
                for d in held:
                    self._log(
                        -1, "reorder-lost", src, dst, d.tag, -1, None,
                        "held message never released",
                    )
                    self._lost += 1
            self._held.clear()

    def snapshot(self) -> list[dict]:
        with self._lock:
            return sorted(
                (dict(ev) for ev in self._events),
                key=lambda ev: (
                    ev["src"], ev["dst"], ev["seq"], ev["rule"],
                    ev["action"],
                ),
            )


_PHASES = (None, "step/tournament", "step/panel_a10", "reduce_column")
_GLOBS = ("step/*", "*panel*", "reduce_*", "step/tournament")


def _random_rule(rng: np.random.Generator, nranks: int) -> FaultRule:
    action = ACTIONS[rng.integers(len(ACTIONS))]
    if action == "crash" and rng.random() < 0.5:
        action = "reorder"

    def maybe(value):
        return value if rng.random() < 0.35 else None

    return FaultRule(
        action=action,
        rank=maybe(int(rng.integers(nranks))),
        peer=maybe(int(rng.integers(nranks))),
        tag=maybe(int(rng.integers(24))),
        step=maybe(int(rng.integers(3))),
        phase=maybe(str(rng.choice(_GLOBS))),
        probability=(
            1.0 if rng.random() < 0.3
            else float(rng.uniform(0.05, 0.95))
        ),
        delay_s=(
            float(rng.uniform(1e-6, 1e-3)) if action == "delay" else 0.0
        ),
        after=int(rng.integers(3)) if rng.random() < 0.4 else 0,
        max_fires=(
            int(rng.integers(1, 4)) if rng.random() < 0.4 else None
        ),
    )


def _random_plan(seed: int, nranks: int) -> FaultPlan:
    rng = np.random.default_rng(seed)
    rules = [
        _random_rule(rng, nranks)
        for _ in range(int(rng.integers(1, 6)))
    ]
    # bitflips ahead of duplicates: see the module docstring
    rules.sort(key=lambda r: r.action == "duplicate")
    return FaultPlan(rules=tuple(rules), seed=int(rng.integers(1000)))


def _payload(kind: int, rng_state: int) -> Any:
    """A fresh payload of one of six shapes (built twice per message,
    once for each injector, since a bitflip mutates it in place)."""
    rng = np.random.default_rng(rng_state)
    if kind == 0:
        return rng.standard_normal(int(rng.integers(1, 6)))
    if kind == 1:
        return np.asfortranarray(rng.standard_normal((3, 2)))
    if kind == 2:
        return (rng.standard_normal(2), 7, rng.integers(0, 9, size=3))
    if kind == 3:
        return "pivot rows"
    if kind == 4:
        return None
    return [rng.standard_normal(4)[::2], {"v": rng.standard_normal(1)}]


def _fingerprint(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        # C-order bytes whatever the layout: a duplicate of a strided
        # view is its own contiguous copy, with the same values
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (tuple, list)):
        return (type(obj).__name__, [_fingerprint(x) for x in obj])
    if isinstance(obj, dict):
        return ("dict", {k: _fingerprint(v) for k, v in obj.items()})
    return ("value", repr(obj))


def _as_list(out, payload, nbytes, context, source, tag):
    """The deliveries a ``process_send`` result stands for: ``None``
    is the message delivered as sent."""
    if out is None:
        return [Delivery(payload, nbytes, context, source, tag)]
    return list(out)


def _view(deliveries) -> list[tuple]:
    return [
        (
            _fingerprint(d.payload), d.nbytes, d.context, d.source, d.tag,
            d.delay_s, d.duplicate,
        )
        for d in deliveries
    ]


def _drive(injector, seed: int, nranks: int, nmsgs: int) -> list:
    """Send ``nmsgs`` seeded messages; the observable outcome of each."""
    rng = np.random.default_rng(10_000 + seed)
    crashed: set[int] = set()
    outcomes = []
    for _ in range(nmsgs):
        src = int(rng.integers(nranks))
        dst = int(rng.integers(nranks))
        tag = int(rng.integers(24))
        phase = _PHASES[rng.integers(len(_PHASES))]
        kind = int(rng.integers(6))
        state = int(rng.integers(2**31))
        if src in crashed:
            continue
        payload = _payload(kind, state)
        nbytes = 8 * (kind + 1)
        context, source = int(rng.integers(3)), src
        try:
            out = injector.process_send(
                src, dst, context, source, tag, phase, payload, nbytes
            )
        except RankCrashed as exc:
            crashed.add(src)
            outcomes.append(("crash", str(exc)))
            continue
        outcomes.append(
            _view(_as_list(out, payload, nbytes, context, source, tag))
        )
    injector.finish()
    return outcomes


@pytest.mark.parametrize("seed", range(60))
def test_seeded_plans_decide_as_the_reference(seed):
    nranks = 3 + seed % 3
    plan = _random_plan(seed, nranks)
    ref = ReferenceInjector(plan, nranks)
    got = FaultInjector(plan, nranks)
    expected = _drive(ref, seed, nranks, 240)
    assert _drive(got, seed, nranks, 240) == expected
    assert got.snapshot() == ref.snapshot()


def test_the_seeded_plans_cover_every_action_and_filter():
    """The oracle above is only as good as its plans: across its seeds
    every action fires, and every filter and counter is set."""
    fired: set[str] = set()
    fields: set[str] = set()
    for seed in range(60):
        nranks = 3 + seed % 3
        plan = _random_plan(seed, nranks)
        for rule in plan.rules:
            fields |= {
                name for name in (
                    "rank", "peer", "tag", "phase", "step", "max_fires"
                )
                if getattr(rule, name) is not None
            }
            if rule.after:
                fields.add("after")
            if rule.probability < 1.0:
                fields.add("probability")
        injector = FaultInjector(plan, nranks)
        _drive(injector, seed, nranks, 240)
        fired |= {ev["action"] for ev in injector.snapshot()}
    assert fired >= set(ACTIONS) | {"reorder-lost"}
    assert fields == {
        "rank", "peer", "tag", "phase", "step", "max_fires", "after",
        "probability",
    }


def test_reorder_flush_and_drop_on_one_channel():
    """A held message is released behind the channel's next message,
    also when that next message is itself dropped."""
    plan = FaultPlan(
        rules=(
            FaultRule(action="reorder", tag=1),
            FaultRule(action="drop", tag=2),
            FaultRule(action="delay", tag=3, delay_s=2e-4),
        ),
        seed=5,
    )
    for injector in (ReferenceInjector(plan, 2), FaultInjector(plan, 2)):
        sent = []
        for tag in (1, 1, 2, 0, 1, 3, 3):
            payload = np.full(2, float(tag))
            out = injector.process_send(
                0, 1, 0, 0, tag, None, payload, payload.nbytes
            )
            sent.append(
                [
                    (d.tag, d.delay_s)
                    for d in _as_list(
                        out, payload, payload.nbytes, 0, 0, tag
                    )
                ]
            )
        injector.finish()
        assert sent == [
            [], [], [(1, 0.0), (1, 0.0)], [(0, 0.0)], [],
            [(3, 2e-4), (1, 0.0)], [(3, 2e-4)],
        ]
        assert [ev["action"] for ev in injector.snapshot()] == [
            "reorder", "reorder", "drop", "reorder", "delay", "delay",
        ]
