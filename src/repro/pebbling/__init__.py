"""Explicit cDAGs, the red-blue pebble game, and X-partitioning.

The theory package (:mod:`repro.theory`) derives bounds *symbolically*;
this package grounds them on explicit computational DAGs for small
problem sizes:

* :mod:`repro.pebbling.cdag` — the graph container (versioned vertices,
  inputs/outputs).
* :mod:`repro.pebbling.builders` — cDAGs for LU (paper Figures 1 and 4),
  MMM, and the Section 4.1 shared-input example.
* :mod:`repro.pebbling.game` — the red-blue pebble game: Hong & Kung's
  sequential game (Section 2.3.1) is its one-hue case of the hued
  parallel game (Section 5); move validation and per-processor I/O
  counting.
* :mod:`repro.pebbling.schedules` — greedy valid schedulers whose Q
  sandwiches the lower bounds from above in the test suite.
* :mod:`repro.pebbling.xpartition` — minimum dominator sets via min
  vertex cut, Min sets, X-partition validation, empirical intensity.
"""

from repro.pebbling.cdag import CDag
from repro.pebbling.builders import (
    lu_cdag,
    mmm_cdag,
    shared_input_cdag,
    chain_cdag,
)
from repro.pebbling.game import (
    Move,
    PebbleGame,
    PebblingError,
)
from repro.pebbling.schedules import (
    greedy_schedule,
    schedule_cost,
    tiled_lu_schedule,
)
from repro.pebbling.xpartition import (
    minimum_dominator_size,
    min_set,
    validate_x_partition,
    empirical_intensity,
)

__all__ = [
    "CDag",
    "Move",
    "PebbleGame",
    "PebblingError",
    "chain_cdag",
    "empirical_intensity",
    "greedy_schedule",
    "lu_cdag",
    "min_set",
    "minimum_dominator_size",
    "mmm_cdag",
    "schedule_cost",
    "shared_input_cdag",
    "tiled_lu_schedule",
    "validate_x_partition",
]
