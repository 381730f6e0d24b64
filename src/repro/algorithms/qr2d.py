"""2D block-cyclic Householder QR — the ScaLAPACK (pdgeqrf) baseline.

The contrast CAQR was invented for: classic Householder QR on a
Pr x Pc block-cyclic grid factors each panel *column by column*, and
every column costs a column-communicator all-reduce (the norm) plus one
more per update — O(N) latency down the critical path, against
tournament-style TSQR's O(N/v log P).  The volume side mirrors the LU
baselines: panel broadcasts along process rows plus per-reflector
update reductions give ~ N^2 (Pc + 2 Pr) / 2 elements total, the
N^2 sqrt(P) scaling of Table 2's 2D row.

Per step t (panel width w, active rows n_t, trailing columns w_t):

1. panel_fact     — per column: all-reduce of (norm, diagonal entry),
                    then an all-reduce of the row vector updating the
                    remaining panel columns: ~ (Pr-1)(w^2 + 3w)
2. panel_bcast    — the panel's reflector slab (rows >= k0) plus taus
                    to the other process columns: (Pc-1)(n_t w + w)
3. update_reduce  — per reflector: all-reduce of v^T B over process
                    columns: 2 (Pr-1) w w_t

Reflectors are stored below the diagonal exactly like LAPACK geqrf
combined storage, so host-side assembly is an orgqr: R is the upper
triangle of the assembled matrix, Q is the reflector product applied
to the identity.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.api import register_algorithm
from repro.algorithms.base import block_cyclic_start, gather_blocks
from repro.kernels.tsqr import thin_q


def _rank_fn(comm, a: np.ndarray, prows: int, pcols: int, nb: int) -> dict:
    n = a.shape[0]
    start = block_cyclic_start(comm, a, prows, pcols, nb)
    if start is None:
        return {"active": False}
    grid, rowmap, colmap, my_rows, my_cols, row_g2l, col_g2l, aloc = start
    pi, pj = grid.row, grid.col
    taus: list[float] = []

    nsteps = (n + nb - 1) // nb
    for kb in range(nsteps):
        k0 = kb * nb
        k1 = min(k0 + nb, n)
        w = k1 - k0
        pcol = colmap.owner(k0)
        on_pcol = pj == pcol
        panel_lcols = col_g2l[np.arange(k0, k1)] if on_pcol else None
        step_taus = np.zeros(w)

        # ---- panel factorization, column by column --------------------
        if on_pcol:
            for jj in range(w):
                kj = k0 + jj
                lcol = panel_lcols[jj]
                below = my_rows > kj
                own_diag = pi == rowmap.owner(kj)
                with comm.phase("panel_fact"):
                    local = np.array([
                        float(aloc[below, lcol] @ aloc[below, lcol]),
                        float(aloc[row_g2l[kj], lcol]) if own_diag else 0.0,
                    ])
                    sigma, alpha = grid.col_comm.allreduce(local)
                if sigma == 0.0:
                    step_taus[jj] = 0.0
                    continue
                beta = -math.copysign(
                    math.hypot(alpha, math.sqrt(sigma)), alpha
                )
                tau = (beta - alpha) / beta
                step_taus[jj] = tau
                aloc[below, lcol] /= alpha - beta
                if own_diag:
                    aloc[row_g2l[kj], lcol] = beta
                # Apply H_jj to the remaining panel columns.
                if jj + 1 < w:
                    rest = panel_lcols[jj + 1 :]
                    with comm.phase("panel_fact"):
                        local_w = aloc[below, lcol] @ aloc[
                            np.ix_(np.where(below)[0], rest)
                        ]
                        if own_diag:
                            local_w = local_w + aloc[row_g2l[kj], rest]
                        wvec = grid.col_comm.allreduce(local_w)
                    aloc[np.ix_(np.where(below)[0], rest)] -= (
                        tau * np.outer(aloc[below, lcol], wvec)
                    )
                    if own_diag:
                        aloc[row_g2l[kj], rest] -= tau * wvec

        # ---- broadcast the reflector slab along process rows ----------
        act = my_rows >= k0
        with comm.phase("panel_bcast"):
            slab = (
                (aloc[np.ix_(np.where(act)[0], panel_lcols)].copy(),
                 step_taus)
                if on_pcol
                else None
            )
            slab, step_taus = grid.row_comm.bcast(slab, root=pcol)
        taus.extend(step_taus.tolist())

        if k1 >= n:
            break

        # ---- trailing update, one reflector at a time -----------------
        trailing = np.where(my_cols >= k1)[0]
        act_idx = np.where(act)[0]
        act_rows = my_rows[act]
        for jj in range(w):
            kj = k0 + jj
            tau = step_taus[jj]
            if tau == 0.0:
                continue
            # Reflector jj restricted to my rows: stored values below
            # the diagonal, an implicit 1 on row kj, zero above.
            vloc = slab[:, jj].copy()
            vloc[act_rows < kj] = 0.0
            vloc[act_rows == kj] = 1.0
            with comm.phase("update_reduce"):
                if len(trailing):
                    local_w = vloc @ aloc[np.ix_(act_idx, trailing)]
                    wvec = grid.col_comm.allreduce(local_w)
                    aloc[np.ix_(act_idx, trailing)] -= tau * np.outer(
                        vloc, wvec
                    )

        # This rank's Q^T-apply share of the step (two-sided, hence
        # the 4x; timing model only — a no-op without a machine spec).
        comm.compute(
            4.0 * (n - k0) * w * (n - k1) / (prows * pcols)
        )

    return {
        "active": True,
        "aloc": aloc,
        "rows": my_rows,
        "cols": my_cols,
        "taus": np.array(taus),
    }


def _assemble_qr2d(
    n: int, grid: tuple[int, int], nb: int, results: list[dict]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Same result contract as ``caqr25d``: ``lower`` is the explicit
    Q, ``upper`` is R, ``perm`` the identity."""
    combined = gather_blocks(n, results)
    # Every active rank received every step's taus in the panel
    # broadcast, so any one of them holds all n in column order.
    tau_full = next(res["taus"] for res in results if res["active"])
    upper = np.triu(combined)
    v = np.tril(combined, -1)
    np.fill_diagonal(v, 1.0)
    return thin_q(v, tau_full), upper, np.arange(n)


register_algorithm(
    "qr2d",
    kind="qr",
    grid_family="2d",
    description="ScaLAPACK-style 2D block-cyclic Householder QR "
    "(pdgeqrf's schedule)",
    program=_rank_fn,
    assemble=_assemble_qr2d,
    default_block=16,
)
