"""2.5D matrix multiplication (Kwasniewski et al. [42], the paper's
methodological ancestor).

The paper's X-partitioning machinery was first used to prove the tight
MMM bound 2N^3/(P sqrt(M)) and to build a communication-optimal 2.5D
schedule; COnfLUX generalizes that blueprint to LU.  This module closes
the loop: a SUMMA-based 2.5D MMM on the same simulated substrate, whose
measured volume sits essentially *on* the theory bound (ratio -> 1,
vs COnfLUX's 1.5x over its LU bound) — communication-*optimal*, not
just near-optimal.

Schedule on the [G, G, c] grid (c = 1 degenerates to plain 2D SUMMA):

1. replicate  — A and B blocks broadcast from layer 0 along fibers
2. summa      — each layer runs the SUMMA rounds of its 1/c slice of
                the k-range: A_ik broadcast along rows, B_kj along
                columns, local GEMM accumulate
3. reduce_c   — C partials reduced across fibers back to layer 0

Volume: 2 N^2 (c-1) replication + 2 N^2 (G-1) SUMMA + N^2 (c-1)/...
reduction; per rank ~ 2 N^2 / sqrt(P c) = 2 N^3 / (P sqrt(M)), matching
the lower bound's leading term exactly.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.gridopt import optimize_grid_25d
from repro.smpi import ProcessGrid3D, run_spmd
from repro.smpi.volume import VolumeReport


def _block_bounds(n: int, g: int) -> list[tuple[int, int]]:
    """Contiguous block ranges: block b covers [lo, hi)."""
    sizes = [len(x) for x in np.array_split(np.arange(n), g)]
    bounds = []
    lo = 0
    for s in sizes:
        bounds.append((lo, lo + s))
        lo += s
    return bounds


def _mmm_rank_fn(comm, a: np.ndarray, b: np.ndarray, g: int, c: int):
    n = a.shape[0]
    grid = ProcessGrid3D(comm, g, g, c)
    if not grid.active:
        return {"active": False}
    i, j, l = grid.row, grid.col, grid.layer
    bounds = _block_bounds(n, g)
    (ri0, ri1), (cj0, cj1) = bounds[i], bounds[j]

    # layer 0 owns the inputs (pre-distributed); fibers replicate them
    a_ij = a[ri0:ri1, cj0:cj1].copy() if l == 0 else None
    b_ij = b[ri0:ri1, cj0:cj1].copy() if l == 0 else None
    with comm.phase("replicate"):
        a_ij = grid.fiber_comm.bcast(a_ij, root=0)
        b_ij = grid.fiber_comm.bcast(b_ij, root=0)

    # each layer sweeps its slice of the k-range
    my_rounds = np.array_split(np.arange(g), c)[l]
    c_partial = np.zeros((ri1 - ri0, cj1 - cj0))
    with comm.phase("summa"):
        for k in my_rounds:
            a_ik = grid.row_comm.bcast(
                a_ij if k == j else None, root=int(k)
            )
            b_kj = grid.col_comm.bcast(
                b_ij if k == i else None, root=int(k)
            )
            c_partial += a_ik @ b_kj

    with comm.phase("reduce_c"):
        c_ij = grid.fiber_comm.reduce(c_partial, root=0)

    if l == 0:
        return {
            "active": True,
            "i": i,
            "j": j,
            "rows": (ri0, ri1),
            "cols": (cj0, cj1),
            "c_block": c_ij,
        }
    return {"active": True}


def mmm25d(
    a: np.ndarray,
    b: np.ndarray,
    nranks: int,
    grid: tuple[int, int, int] | None = None,
) -> tuple[np.ndarray, VolumeReport, tuple[int, int, int]]:
    """Multiply C = A @ B on a [G, G, c] grid; returns (C, volume, grid).

    ``grid`` defaults to the Processor-Grid-Optimized choice for LU
    (the same [G, G, c] family is optimal for MMM, with the same
    memory constraint c = P M / N^2).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(
            f"square same-shape matrices required, got {a.shape}, "
            f"{b.shape}"
        )
    n = a.shape[0]
    if grid is None:
        choice = optimize_grid_25d(nranks, n)
        grid = (choice.grid_rows, choice.grid_rows, choice.layers)
    g, g_cols, c = grid
    if g != g_cols:
        raise ValueError(
            f"mmm25d: grid must be square in rows/cols, got {grid}"
        )
    if g * g * c > nranks:
        raise ValueError(
            f"mmm25d: grid {grid} needs {g * g * c} ranks, have {nranks}"
        )
    if c > g:
        raise ValueError(
            f"replication c={c} cannot exceed G={g} (each layer needs "
            f"at least one SUMMA round)"
        )
    results, report = run_spmd(nranks, _mmm_rank_fn, a, b, g, c)
    out = np.zeros((n, n))
    for r in results:
        if r.get("active") and "c_block" in r:
            (lo_r, hi_r), (lo_c, hi_c) = r["rows"], r["cols"]
            out[lo_r:hi_r, lo_c:hi_c] = r["c_block"]
    return out, report, grid
