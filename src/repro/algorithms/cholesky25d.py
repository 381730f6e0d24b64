"""COnfLUX-style 2.5D Cholesky factorization (paper Section 11's
future work: "this promising result mandates the exploration of the
parallel pebbling strategy to algorithms such as Cholesky
factorization").

Cholesky needs no pivoting, which strips Algorithm 1 down to its data-
movement core on the same [G, G, c] decomposition:

1.  reduce_column   — fiber-reduce the true panel values to layer l_t
2.  gather_diag     — collect the v x v diagonal block on one rank,
                      factor it (dpotrf)
3.  bcast_l00       — broadcast L00 to all ranks
4.  scatter_l21     — panel rows below the diagonal -> 1D layout, row
                      r on rank (r mod G, (r div v) mod G, l_t)
5.  trsm            — local: L21 <- C L00^{-T}
6.  panel_rows /    — each (i, j, l) fetches L21[rows of grid row i,
    panel_cols        chunk_l] and L21[rows matching its columns,
                      chunk_l] (the symmetric rank-v update needs the
                      panel twice)
7.  syrk update     — local: A_l -= L21_rows[:, chunk] L21_cols[:, chunk]^T

Phases 1-7 are the :meth:`step` hook of the shared :class:`Rank25D`
template; the scatter and both panel fetches are the same
:class:`Schedule25D` plans COnfLUX uses (the column-tile fetch is the
row fetch with ``by="col"``).

The theory side (repro.theory.bounds.cholesky_io_lower_bound) gives
Q >= N^3/(3 sqrt(M)); like LU, the 2.5D schedule's leading term is
N^3/(P sqrt(M)) — a factor 3 over the Cholesky bound (Cholesky touches
a sixth of the cube but the panel exchange cannot exploit symmetry
without halving the layout, a known open trade-off).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky as dense_cholesky

from repro.algorithms.api import register_algorithm
from repro.algorithms.schedule25d import Rank25D, StepContext
from repro.kernels.linalg import trsm_upper

_TAG_DIAG = 1
_TAG_L21 = 2
_TAG_ROWS = 3
_TAG_COLS = 4


class _CholeskyRank(Rank25D):
    """Per-rank 2.5D Cholesky program on the shared schedule."""

    def setup(self, a: np.ndarray) -> None:
        self.init_cyclic_layout()
        self.aloc = self.local_block(a)
        self.l_pieces: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.l00_blocks: list[tuple[int, np.ndarray]] = []

    def finalize(self) -> dict:
        return {
            "active": True,
            "l_pieces": self.l_pieces,
            "l00_blocks": self.l00_blocks,
        }

    def step(self, ctx: StepContext) -> None:
        comm, gd = self.comm, self.grid
        g = self.g
        t, q, lt, k0, k1, w = ctx.t, ctx.q, ctx.lt, ctx.k0, ctx.k1, ctx.w
        active_rows = np.arange(k0, self.n)
        mine = active_rows[(active_rows % g) == self.pi]

        # 1. reduce the panel to layer lt
        panel_true = self.reduce_panel(ctx, self.aloc, mine)

        # 2. gather the diagonal block on (0, q, lt) and factor it
        root = gd.rank_of(0, q, lt)
        tag = self.tag(_TAG_DIAG, t)
        l00 = None
        if panel_true is not None:
            diag_mask = (mine >= k0) & (mine < k1)
            with comm.phase("gather_diag"):
                if self.pi == 0:
                    # grid row i holds diagonal rows k0 + (i - k0) % g,
                    # every g-th one: a strided slice of the block
                    diag = np.empty((w, w))
                    for i in range(g):
                        first = (i - k0) % g
                        if first >= w:
                            continue  # no diagonal row on grid row i
                        diag[first::g] = (
                            panel_true[diag_mask] if i == 0
                            else gd.grid_comm.recv(gd.rank_of(i, q, lt), tag)
                        )
                    # dpotrf on the v x v diagonal block
                    l00 = dense_cholesky(diag, lower=True)
                elif diag_mask.any():
                    gd.grid_comm.send(panel_true[diag_mask], root, tag)

        # 3. broadcast L00 to everyone
        with comm.phase("bcast_l00"):
            l00 = gd.grid_comm.bcast(l00, root=root)
        if self.grid_rank == 0:
            self.l00_blocks.append((t, l00.copy()))

        below_rows = np.arange(k1, self.n)

        # 4. scatter the below-diagonal panel rows to the 1D layout
        l21_owners = self.owners(below_rows, "both", lt)
        my_l21_rows = self.my_share(below_rows, l21_owners)
        c_rows = self.scatter_rows(
            phase="scatter_l21",
            tag=self.tag(_TAG_L21, t),
            row_pool=below_rows,
            owners=l21_owners,
            holders=self.rank_at[below_rows % g, q, lt],
            values=panel_true,
            value_rows=mine,
            w=w,
        )

        # 5. local trsm: L21 = C L00^{-T}
        if len(my_l21_rows):
            l21 = trsm_upper(l00.T, c_rows)
            self.l_pieces.append((t, my_l21_rows.copy(), l21))
        else:
            l21 = np.zeros((0, w))

        if k1 >= self.n:
            return

        # 6. panel fetches for the symmetric rank-v update
        rows_piece, _ = self.fetch_rows_piece(
            phase="panel_rows",
            tag=self.tag(_TAG_ROWS, t),
            pool=below_rows,
            owners=l21_owners,
            my_ids=my_l21_rows,
            vals_1d=l21,
            width=w,
            by="row",
        )
        cols_piece, _ = self.fetch_rows_piece(
            phase="panel_cols",
            tag=self.tag(_TAG_COLS, t),
            pool=below_rows,
            owners=l21_owners,
            my_ids=my_l21_rows,
            vals_1d=l21,
            width=w,
            by="col",
        )

        # 7. local symmetric update of this layer's partials
        if rows_piece.size and cols_piece.size:
            # rows and columns >= k1 are both suffixes of what I hold
            r0 = np.searchsorted(self.my_rows, k1)
            self.aloc[r0:, self.trailing_local_cols(t)] -= (
                rows_piece @ cols_piece.T
            )


def _assemble(
    n: int, grid: tuple[int, int, int], v: int, results: list[dict]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L from the per-rank pieces, in the LU container: ``upper`` is
    L^T and ``perm`` the identity (no pivoting)."""
    l00_blocks = None
    for r in results:
        if r.get("active") and r.get("l00_blocks"):
            l00_blocks = r["l00_blocks"]
            break
    if l00_blocks is None:
        raise RuntimeError("no rank recorded the diagonal blocks")
    lower = np.zeros((n, n))
    for t, l00 in l00_blocks:
        k0 = t * v
        w = l00.shape[0]
        lower[k0 : k0 + w, k0 : k0 + w] = l00
    for r in results:
        if not r.get("active"):
            continue
        for t, rows, vals in r["l_pieces"]:
            k0 = t * v
            w = vals.shape[1]
            lower[rows, k0 : k0 + w] = vals
    return lower, lower.T.copy(), np.arange(n)


register_algorithm(
    "cholesky25d",
    kind="chol",
    grid_family="25d",
    description="COnfLUX-style 2.5D Cholesky (pivot-free Algorithm 1 "
    "data-movement core)",
    program=_CholeskyRank.main,
    assemble=_assemble,
    default_block=2,
    block_at_least_layers=True,
    symmetric_input=True,
)
