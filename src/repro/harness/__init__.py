"""Experiment harness shared by the benchmark suite and the examples.

* :mod:`repro.harness.runner` — run one implementation at one (N, P)
  with consistent grid/blocking choices, returning measured + modeled
  volume and the "prediction %" the paper reports in Table 2.
* :mod:`repro.harness.sweep` — the parallel sweep engine: declarative
  ``SweepSpec`` grids fanned over a worker pool with per-point failure
  capture and deterministic ordering.
* :mod:`repro.harness.cache` — the content-addressed JSON result cache
  that makes sweep re-runs and resumes skip completed points.
* :mod:`repro.harness.specs` — the named sweep registry: every paper
  table/figure as a ``SweepSpec`` (``python -m repro sweep --list``).
* :mod:`repro.harness.experiments` — the canned experiment functions
  (Table 2 cells, Figure 6a/6b sweeps, Figure 7 grids), now thin
  adapters over the engine.
* :mod:`repro.harness.reporting` — paper-style ASCII tables and series.
"""

from repro.harness.cache import SweepCache, default_cache_dir
from repro.harness.experiments import (
    fig6a_strong_scaling,
    fig6b_weak_scaling,
    fig7_reduction_grid,
    lower_bound_gap,
    qr_confqr_gap,
    qr_lower_bound_gap,
    qr_strong_scaling,
    qr_weak_scaling,
    table2_measured_rows,
    table2_model_rows,
)
from repro.harness.reporting import format_series, format_table
from repro.harness.runner import ExperimentRecord, run_experiment
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
    "ExperimentRecord",
    "PointResult",
    "SweepCache",
    "SweepError",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "default_cache_dir",
    "fig6a_strong_scaling",
    "fig6b_weak_scaling",
    "fig7_reduction_grid",
    "format_series",
    "format_table",
    "lower_bound_gap",
    "named_spec",
    "qr_confqr_gap",
    "qr_lower_bound_gap",
    "qr_strong_scaling",
    "qr_weak_scaling",
    "run_experiment",
    "run_sweep",
    "table2_measured_rows",
    "table2_model_rows",
    "task",
]
