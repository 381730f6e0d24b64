"""Executor-side job runner.

The function each worker thread runs for one job.  A job is executed
by the registered ``measured`` sweep task — the service computes
*exactly* what a sweep point computes, which is what makes the cache
entries interchangeable.
"""

from __future__ import annotations

from repro.harness.sweep import get_task
from repro.service.jobs import SERVICE_TASK


def run_factor_job(params: dict) -> dict:
    """One request: resolve and run the ``measured`` task."""
    return get_task(SERVICE_TASK)(**params)

