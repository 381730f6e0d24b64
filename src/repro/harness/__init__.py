"""Experiment harness shared by the benchmark suite and the examples.

* :mod:`repro.harness.runner` — run one implementation at one (N, P)
  with consistent grid/blocking choices, returning the ``measured`` row:
  measured + modeled volume and the "prediction %" the paper reports in
  Table 2.
* :mod:`repro.harness.sweep` — the parallel sweep engine: declarative
  ``SweepSpec`` grids fanned over a worker pool with per-point failure
  capture and deterministic ordering.
* :mod:`repro.harness.cache` — the content-addressed JSON result cache
  that makes sweep re-runs and resumes skip completed points.
* :mod:`repro.harness.specs` — the built-in tasks and the named sweep
  registry: every paper table/figure is a ``SweepSpec`` factory
  (``python -m repro sweep --list``); a benchmark or example runs
  ``run_sweep(<factory>(...), cache=...).rows()``.
* :mod:`repro.harness.reporting` — paper-style ASCII tables and series.
"""

from repro.harness.cache import SweepCache, default_cache_dir
from repro.harness.reporting import format_series, format_table
from repro.harness.runner import run_experiment
from repro.harness.specs import SPECS, named_spec
from repro.harness.sweep import (
    PointResult,
    SweepError,
    SweepPoint,
    SweepResult,
    SweepSpec,
    run_sweep,
    task,
)

__all__ = [
    "SPECS",
    "PointResult",
    "SweepCache",
    "SweepError",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "default_cache_dir",
    "format_series",
    "format_table",
    "named_spec",
    "run_experiment",
    "run_sweep",
    "task",
]
