"""Service configuration: worker pool shape, queue bound, timeout.

A frozen dataclass (like :class:`repro.models.machines.Machine`) so a
running service's configuration cannot drift; ``validate()`` runs in
``__post_init__`` and names the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`~repro.service.server.FactorService`.

    Attributes
    ----------
    workers:
        Threads of the pool that runs admitted jobs in arrival order
        (cheap startup, fine for the simulated runtime, which releases
        the GIL in numpy kernels).
    queue_depth:
        Admission bound: jobs admitted but not yet running.  A submit
        arriving when the queue already holds this many jobs is
        rejected with a ``retry_after_s`` hint instead of growing the
        queue without bound.
    request_timeout_s:
        Per-request deadline.  The waiter gets a ``timeout`` response;
        the underlying job still completes and populates the cache (it
        cannot be interrupted mid-factorization).
    """

    workers: int = 2
    queue_depth: int = 16
    request_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if not 0 < self.request_timeout_s < math.inf:
            raise ValueError(
                f"request_timeout_s must be finite and > 0, got "
                f"{self.request_timeout_s}"
            )
