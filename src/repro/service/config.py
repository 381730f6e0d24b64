"""Service configuration: worker pool shape, queue bounds, policy.

A frozen dataclass (like :class:`repro.models.machines.Machine`) so a
running service's configuration cannot drift; ``validate()`` runs in
``__post_init__`` and names the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass

EXECUTORS = ("thread", "process")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`~repro.service.server.FactorService`.

    Attributes
    ----------
    workers:
        Worker coroutines pulling from the dispatch policy; also the
        executor's pool size.
    queue_depth:
        Admission bound: jobs admitted but not yet running.  A submit
        arriving when the policy already holds this many jobs is
        rejected with a ``retry_after_s`` hint instead of growing the
        queue without bound.
    request_timeout_s:
        Per-request deadline.  The waiter gets a ``timeout`` response;
        the underlying job still completes and populates the cache (it
        cannot be interrupted mid-factorization).
    policy:
        Dispatch policy name — ``fifo`` or ``least-loaded`` (see
        :mod:`repro.service.dispatch`).
    executor:
        ``thread`` (default: cheap startup, fine for the simulated
        runtime which releases the GIL in numpy kernels) or
        ``process`` (one interpreter per worker, start method chosen
        by the fork-safe :func:`repro.harness.sweep._pool_context`).
    max_retries / retry_backoff_s / retry_jitter / retry_max_backoff_s:
        Worker-side retry of *transient* failures (deadlocks, rank
        failures — see :func:`repro.service.resilience.is_transient`):
        up to ``max_retries`` extra attempts with exponential backoff
        and deterministic jitter.  ``max_retries=0`` (default)
        preserves fail-fast behaviour.
    breaker_threshold / breaker_cooldown_s:
        Per-``shape_key`` circuit breaker: after ``breaker_threshold``
        consecutive final failures of a shape, its requests are shed
        to explicit rejections for ``breaker_cooldown_s`` before a
        half-open trial.  ``breaker_threshold=0`` (default) disables
        the breaker.
    """

    workers: int = 2
    queue_depth: int = 16
    request_timeout_s: float = 60.0
    policy: str = "fifo"
    executor: str = "thread"
    max_retries: int = 0
    retry_backoff_s: float = 0.02
    retry_jitter: float = 0.1
    retry_max_backoff_s: float = 1.0
    breaker_threshold: int = 0
    breaker_cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        from repro.service.dispatch import DISPATCH_POLICIES

        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got "
                f"{self.request_timeout_s}"
            )
        if self.policy not in DISPATCH_POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; available: "
                f"{sorted(DISPATCH_POLICIES)}"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; available: "
                f"{EXECUTORS}"
            )
        # RetryPolicy / CircuitBreaker validate their own parameter
        # ranges; build them here so a bad config fails at construction.
        from repro.service.resilience import CircuitBreaker, RetryPolicy

        RetryPolicy(
            max_retries=self.max_retries,
            backoff_s=self.retry_backoff_s,
            jitter=self.retry_jitter,
            max_backoff_s=self.retry_max_backoff_s,
        )
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got "
                f"{self.breaker_threshold}"
            )
        if self.breaker_threshold:
            CircuitBreaker(
                self.breaker_threshold, self.breaker_cooldown_s
            )

    def retry_policy(self):
        from repro.service.resilience import RetryPolicy

        return RetryPolicy(
            max_retries=self.max_retries,
            backoff_s=self.retry_backoff_s,
            jitter=self.retry_jitter,
            max_backoff_s=self.retry_max_backoff_s,
        )

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "request_timeout_s": self.request_timeout_s,
            "policy": self.policy,
            "executor": self.executor,
            "max_retries": self.max_retries,
            "retry_backoff_s": self.retry_backoff_s,
            "retry_jitter": self.retry_jitter,
            "retry_max_backoff_s": self.retry_max_backoff_s,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_s": self.breaker_cooldown_s,
        }
