"""2D block-cyclic right-looking GEPP — the LibSci/ScaLAPACK and SLATE
baselines.

The paper's measurements "reaffirm that, like ScaLAPACK, the [LibSci]
implementation uses the suboptimal 2D processor decomposition"; its
Table 2 model is N^2/sqrt(P) + O(N^2/P) per rank.  This module
implements that schedule faithfully:

* Pr x Pc process grid, square block-cyclic layout with block nb;
* panel factorization by the owning process column — one MPI_MAXLOC
  all-reduce plus one pivot-row broadcast per column (the O(N) latency
  the paper contrasts with tournament pivoting);
* physical row swaps applied across the full matrix;
* panel broadcast along process rows, U block-row broadcast along
  process columns, local trailing GEMM.

Because the 2D layout never replicates data, extra memory is wasted —
the structural reason it loses to 2.5D at scale (Figure 6b).

SLATE (Gates et al., SC'19) factors LU on the same 2D decomposition;
the paper finds "their communication volumes are mostly equal, with a
slight advantage of SLATE for non-square processor grids".  ``slate2d``
registers this engine with SLATE's defaults (Table 2: block size 16,
"user param. required: no") and its tall-grid preference.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.api import register_algorithm
from repro.algorithms.base import block_cyclic_start, gather_blocks
from repro.kernels.linalg import permutation_from_pivots, trsm_lower_unit
from repro.kernels.lu_seq import split_lu
from repro.smpi.collectives import maxloc


def _rank_fn(comm, a: np.ndarray, prows: int, pcols: int, nb: int) -> dict:
    n = a.shape[0]
    start = block_cyclic_start(comm, a, prows, pcols, nb)
    if start is None:
        return {"active": False}
    grid, rowmap, colmap, my_rows, my_cols, row_g2l, col_g2l, aloc = start
    pi, pj = grid.row, grid.col
    piv: list[int] = []

    nsteps = (n + nb - 1) // nb
    for kb in range(nsteps):
        k0 = kb * nb
        k1 = min(k0 + nb, n)
        w = k1 - k0
        pcol = colmap.owner(k0)
        prow = rowmap.owner(k0)
        on_pcol = pj == pcol
        panel_lcols = col_g2l[np.arange(k0, k1)] if on_pcol else None

        # ---- panel factorization by process column `pcol` -------------
        panel_piv: list[int] = []
        if on_pcol:
            for j in range(w):
                kj = k0 + j
                with comm.phase("panel_fact"):
                    cand_mask = my_rows >= kj
                    if cand_mask.any():
                        vals = aloc[cand_mask, panel_lcols[j]]
                        best_i = int(np.argmax(np.abs(vals)))
                        cand = (
                            float(vals[best_i]),
                            int(my_rows[cand_mask][best_i]),
                        )
                    else:
                        cand = (0.0, n)  # no eligible rows on this rank
                    val, p = grid.col_comm.allreduce(cand, op=maxloc)
                panel_piv.append(p)
                # swap rows kj <-> p within the panel columns
                _swap_row_segment(
                    comm, grid, rowmap, aloc, row_g2l,
                    kj, p, panel_lcols, "panel_swap",
                )
                # broadcast the pivot row's remaining panel segment
                owner_kj = rowmap.owner(kj)
                with comm.phase("panel_fact"):
                    seg = (
                        aloc[row_g2l[kj], panel_lcols[j:]].copy()
                        if pi == owner_kj
                        else None
                    )
                    seg = grid.col_comm.bcast(seg, root=owner_kj)
                # eliminate below kj
                below = my_rows > kj
                if below.any() and seg[0] != 0.0:
                    col_j = panel_lcols[j]
                    aloc[below, col_j] /= seg[0]
                    if j + 1 < w:
                        aloc[np.ix_(below, panel_lcols[j + 1 :])] -= (
                            np.outer(aloc[below, col_j], seg[1:])
                        )

        # ---- share the panel pivots with every process column ---------
        with comm.phase("pivot_bcast"):
            panel_piv = grid.row_comm.bcast(
                panel_piv if on_pcol else None, root=pcol
            )
        piv.extend(panel_piv)

        # ---- apply the swaps to the non-panel columns ------------------
        nonpanel = (
            (my_cols < k0) | (my_cols >= k1) if on_pcol
            else np.ones(len(my_cols), dtype=bool)
        )
        nonpanel_lcols = np.where(nonpanel)[0]
        for j in range(w):
            _swap_row_segment(
                comm, grid, rowmap, aloc, row_g2l,
                k0 + j, panel_piv[j], nonpanel_lcols, "row_swap",
            )

        if k1 >= n:
            break

        # ---- broadcast the panel (L00 + L10) along process rows --------
        with comm.phase("panel_bcast"):
            lrows_mask = my_rows >= k0
            block = (
                aloc[np.ix_(lrows_mask, panel_lcols)].copy()
                if on_pcol
                else None
            )
            block = grid.row_comm.bcast(block, root=pcol)
        # receiver rows == its own local rows >= k0 (same pi as sender)

        # ---- U block row: trsm on process row `prow`, then col bcast ---
        trailing_mask = my_cols >= k1
        trailing_lcols = np.where(trailing_mask)[0]
        with comm.phase("u_bcast"):
            if pi == prow:
                lrows = my_rows[lrows_mask]
                l00_rows = (lrows >= k0) & (lrows < k1)
                l00 = block[l00_rows, :]
                u01 = (
                    trsm_lower_unit(
                        l00, aloc[np.ix_(row_g2l[np.arange(k0, k1)],
                                         trailing_lcols)]
                    )
                    if len(trailing_lcols)
                    else np.zeros((w, 0))
                )
            else:
                u01 = None
            u01 = grid.col_comm.bcast(u01, root=prow)
        if pi == prow and len(trailing_lcols):
            aloc[np.ix_(row_g2l[np.arange(k0, k1)], trailing_lcols)] = u01

        # ---- local trailing GEMM ---------------------------------------
        upd_rows_mask = my_rows >= k1
        if upd_rows_mask.any() and len(trailing_lcols):
            lrows = my_rows[lrows_mask]
            l10 = block[lrows >= k1, :]
            aloc[np.ix_(np.where(upd_rows_mask)[0], trailing_lcols)] -= (
                l10 @ u01
            )

        # This rank's GEMM share of the step (timing model only; a
        # no-op unless the run was given a machine spec).
        trailing = n - k1
        comm.compute(2.0 * trailing * trailing * w / (prows * pcols))

    return {
        "active": True,
        "aloc": aloc,
        "rows": my_rows,
        "cols": my_cols,
        "piv": np.array(piv),
    }


def _swap_row_segment(
    comm, grid, rowmap, aloc, row_g2l, x: int, y: int,
    lcols: np.ndarray, phase: str,
) -> None:
    """Exchange rows x and y (global) restricted to local columns
    ``lcols``, between their owner grid rows within this process
    column."""
    if x == y or len(lcols) == 0:
        return
    ox, oy = rowmap.owner(x), rowmap.owner(y)
    pi = grid.row
    if ox == oy:
        if pi == ox:
            lx, ly = row_g2l[x], row_g2l[y]
            aloc[np.ix_([lx, ly], lcols)] = aloc[np.ix_([ly, lx], lcols)]
        return
    with comm.phase(phase):
        if pi == ox:
            lx = row_g2l[x]
            mine = aloc[lx, lcols].copy()
            theirs = grid.col_comm.sendrecv(mine, oy, sendtag=7, recvtag=7)
            aloc[lx, lcols] = theirs
        elif pi == oy:
            ly = row_g2l[y]
            mine = aloc[ly, lcols].copy()
            theirs = grid.col_comm.sendrecv(mine, ox, sendtag=7, recvtag=7)
            aloc[ly, lcols] = theirs


def _assemble_2d(
    n: int, grid: tuple[int, int], nb: int, results: list[dict]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lower, upper = split_lu(gather_blocks(n, results))
    piv = next(r["piv"] for r in reversed(results) if r.get("active"))
    return lower, upper, permutation_from_pivots(piv, n)


# User-tunable block size (Table 2: "user param. required: yes").
register_algorithm(
    "scalapack2d",
    kind="lu",
    grid_family="2d",
    description="LibSci/ScaLAPACK-like 2D block-cyclic GEPP with "
    "physical row swaps",
    program=_rank_fn,
    assemble=_assemble_2d,
    default_block=32,
)

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
