"""SLATE-like 2D LU baseline.

SLATE (Gates et al., SC'19) targets exascale systems but factors LU on
the same 2D decomposition as ScaLAPACK; the paper finds "their
communication volumes are mostly equal, with a slight advantage of
SLATE for non-square processor grids" and models both with
N^2/sqrt(P) + O(N^2/P) per rank.

This registration reuses the 2D block-cyclic GEPP engine with SLATE's
defaults (Table 2: block size defaults to 16, "user param. required:
no") and SLATE's tall-grid preference for non-square rank counts.
"""

from __future__ import annotations

from repro.algorithms.api import register_algorithm
from repro.algorithms.scalapack2d import _assemble_2d, _rank_fn

register_algorithm(
    "slate2d",
    kind="lu",
    grid_family="2d",
    description="SLATE-like 2D LU: same GEPP engine, SLATE defaults "
    "(nb=16, tall grids)",
    program=_rank_fn,
    assemble=_assemble_2d,
    default_block=16,
    prefer_tall_grid=True,
)
