"""Retry, backoff, and circuit-breaking primitives for the service.

The fault-injection layer (:mod:`repro.faults`) manufactures the
failures — deadlocks, crashed ranks, timeouts; this module is how the
serving layer survives them:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (a pure hash of the retry key and attempt
  number, so a replayed chaos workload backs off identically).
* :class:`CircuitBreaker` — per-key (the service keys on
  ``FactorRequest.shape_key()``) consecutive-failure breaker: after
  ``threshold`` consecutive failures the key opens and requests are
  shed to explicit rejections until ``cooldown_s`` passes; the next
  request is the half-open trial that closes the circuit on success
  or re-opens it on failure.
* :func:`is_transient` — the shared classification of which failures
  are worth retrying (lost-message deadlocks, rank failures, executor
  plumbing) versus deterministic ones (a singular matrix will not
  factor better the second time).
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.smpi.runtime import DeadlockError, RankFailure

#: Exception types that plausibly succeed on retry: deadlocks from
#: lost messages, aggregated rank failures (which is how
#: injected crashes and deadlocks surface from ``run_spmd``), and
#: executor/transport plumbing errors.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    DeadlockError,
    RankFailure,
    TimeoutError,
    ConnectionError,
)

#: Name-based fallback for errors that crossed a process boundary (a
#: pickled-and-reraised exception may not be the original type) or that
#: arrive as formatted strings (sweep rows record
#: ``"TypeName: message"``).
TRANSIENT_ERROR_NAMES = (
    "DeadlockError",
    "RankFailure",
    "RankCrashed",
    "TimeoutError",
    "ConnectionError",
    "BrokenProcessPool",
    "BrokenExecutor",
)


def is_transient(exc: BaseException) -> bool:
    """Whether a failure is worth retrying."""
    if isinstance(exc, TRANSIENT_ERRORS):
        return True
    return type(exc).__name__ in TRANSIENT_ERROR_NAMES


def is_transient_error_string(error: str | None) -> bool:
    """Classify a ``"TypeName: message"`` failure string (the sweep
    harness's per-point error format).  The type may be module
    qualified (``repro.smpi.runtime.DeadlockError``) — traceback
    formatting qualifies non-builtin exceptions."""
    if not error:
        return False
    name = error.split(":", 1)[0].strip().rsplit(".", 1)[-1]
    return name in TRANSIENT_ERROR_NAMES


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay_s(attempt, key)`` for attempt 1, 2, ... is
    ``backoff_s * multiplier**(attempt-1)`` capped at ``max_backoff_s``,
    scaled by a jitter factor in ``[1 - jitter, 1 + jitter]`` drawn
    from a pure hash of ``(key, attempt)`` — reproducible, but
    decorrelated across keys so retry storms do not synchronize.
    """

    max_retries: int = 0
    backoff_s: float = 0.02
    multiplier: float = 2.0
    jitter: float = 0.1
    max_backoff_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s <= 0:
            raise ValueError(
                f"backoff_s must be > 0, got {self.backoff_s}"
            )
        if self.multiplier < 1:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0 <= self.jitter < 1:
            raise ValueError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        if self.max_backoff_s < self.backoff_s:
            raise ValueError(
                "max_backoff_s must be >= backoff_s"
            )

    def delay_s(self, attempt: int, key: str = "") -> float:
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        base = min(
            self.backoff_s * self.multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        if not self.jitter:
            return base
        digest = hashlib.blake2b(
            f"{key}:{attempt}".encode(), digest_size=8
        ).digest()
        unit = int.from_bytes(digest, "big") / 2.0**64
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))


#: Circuit states as reported by :meth:`CircuitBreaker.state`.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """Per-key consecutive-failure circuit breaker (thread-safe).

    ``allow(key)`` returns ``(allowed, retry_after_s)``; callers turn a
    ``False`` into an explicit rejection carrying the hint.  The
    half-open state admits exactly one trial request per cooldown
    expiry; its outcome (reported via ``record_success`` /
    ``record_failure``) closes or re-opens the circuit.
    """

    def __init__(
        self,
        threshold: int,
        cooldown_s: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(
                f"threshold must be >= 1, got {threshold}"
            )
        if cooldown_s <= 0:
            raise ValueError(
                f"cooldown_s must be > 0, got {cooldown_s}"
            )
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> [consecutive failures, opened_at | None, trial live?,
        #: last failure instant].  Only failures create slots (allow()
        #: never does), and closed slots whose failures went quiet for
        #: a cooldown are swept — otherwise a long-running service
        #: accumulates one slot per key that ever failed.
        self._slots: dict = {}
        self._last_sweep = clock()

    def _sweep(self, now: float) -> None:
        """Drop stale closed slots.  Caller holds the lock."""
        if now - self._last_sweep < self.cooldown_s:
            return
        self._last_sweep = now
        stale = [
            k for k, slot in self._slots.items()
            if slot[1] is None and now - slot[3] >= self.cooldown_s
        ]
        for k in stale:
            del self._slots[k]

    def state(self, key) -> str:
        with self._lock:
            slot = self._slots.get(key)
            if slot is None or slot[1] is None:
                return CLOSED
            if self._clock() - slot[1] >= self.cooldown_s:
                return HALF_OPEN
            return HALF_OPEN if slot[2] else OPEN

    def allow(self, key) -> tuple[bool, float]:
        with self._lock:
            now = self._clock()
            self._sweep(now)
            slot = self._slots.get(key)
            if slot is None or slot[1] is None:
                return True, 0.0
            elapsed = now - slot[1]
            if elapsed < self.cooldown_s:
                return False, self.cooldown_s - elapsed
            if slot[2]:
                # Half-open with the trial still in flight: keep
                # shedding until its outcome is known.
                return False, self.cooldown_s
            slot[2] = True
            return True, 0.0

    def record_success(self, key) -> None:
        with self._lock:
            self._slots.pop(key, None)

    def record_failure(self, key) -> None:
        with self._lock:
            now = self._clock()
            self._sweep(now)
            slot = self._slots.setdefault(key, [0, None, False, now])
            slot[0] += 1
            slot[3] = now
            if slot[1] is not None or slot[0] >= self.threshold:
                # Trip (or re-trip after a failed half-open trial).
                slot[1] = now
            slot[2] = False

    def open_keys(self) -> list:
        """Keys currently shedding load (open or half-open)."""
        with self._lock:
            return sorted(
                (k for k, slot in self._slots.items()
                 if slot[1] is not None),
                key=repr,
            )
