"""CANDMC-like 2.5D LU — the communication-avoiding baseline.

CANDMC (Solomonik & Demmel) pioneered 2.5D LU; the paper quotes its I/O
cost as ``5 N^3 / (P sqrt(M))`` per processor [56] and measures it worst
of the four implementations at practical scales.  This module implements
a 2.5D schedule with the two structural costs COnfLUX's design removes
(Section 7.3, "Row Swapping vs Row Masking"):

1. **Physical row swapping.** Pivot rows are swapped into the leading
   positions each step.  On a c-fold replicated layout every layer's
   partial sums must be swapped, so pivoting traffic scales with the
   replication — the O(N^3/(P sqrt(M))) term the paper attributes to
   swapping (vs O(v) indices per step for masking).
2. **Full-width panel replication.** Every rank receives the full
   v-wide A10/A01 panels (CANDMC-style redundant panel storage) even
   though its layer only applies a v/c chunk of the update — a factor-c
   overhead on the dominant panel-exchange term.  On the shared
   schedule this is just ``chunking="replicate"``.

Together the measured leading term lands at roughly (c + 1) x COnfLUX's,
i.e. ~5x at the paper's replication depth c = P^(1/3) = 4 for P = 64 —
matching the published model.  DESIGN.md documents this substitution
(CANDMC itself is a closed-source-comparator-style reproduction: we
rebuild the schedule class, not the code).

Numerically the factorization stays exact: swaps move partial sums
layer-by-layer, which commutes with the deferred reductions.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.api import register_algorithm
from repro.algorithms.conflux import (
    _assemble,
    _ConfluxRank,
    _merge_op,
    _TAG_A10_SCATTER,
    _TAG_A01_SCATTER,
    _TAG_A10_PANEL,
    _TAG_A01_PANEL,
)
from repro.algorithms.schedule25d import StepContext
from repro.kernels.linalg import (
    permutation_from_pivots,
    trsm_lower_unit,
    trsm_upper,
)
from repro.kernels.lu_seq import lu_partial_pivot, split_lu
from repro.kernels.tournament import PivotCandidates, local_candidates

_TAG_SWAP = 5


class _CandmcRank(_ConfluxRank):
    """2.5D LU with physical row swapping, in *position* space.

    Positions are physical row slots (cyclic over grid rows); the
    ``orig`` array maps each position to the original matrix row living
    there.  After step t's swaps, positions [0, (t+1) v) hold the chosen
    pivot rows in elimination order, so the active set is simply the
    positions >= (t+1) v — no masking bookkeeping.
    """

    chunking = "replicate"  # full-width panels to every layer

    def setup(self, a: np.ndarray) -> None:
        super().setup(a)
        self.orig = np.arange(self.n)  # position -> original row
        self.posof = np.arange(self.n)  # original row -> position

    # -- reduce + tournament + bcast, all over *positions* -------------
    def panel_op(self, ctx: StepContext):
        comm, gd, sched = self.comm, self.grid, self.sched
        t, q, lt, w = ctx.t, ctx.q, ctx.lt, ctx.w
        g = self.g
        start = t * self.v
        active_pos = np.arange(start, self.n)

        on_panel_col = self.pj == q
        mine = active_pos[(active_pos % g) == self.pi]
        mine_local = self.row_g2l[mine]

        panel_true = None
        if on_panel_col:
            contrib = self.aloc[
                np.ix_(mine_local, self.col_g2l[ctx.panel_cols])
            ]
            panel_true = sched.reduce_to_layer(
                "reduce_column", contrib, lt
            )

        if panel_true is not None:
            with comm.phase("tournament"):
                cand = local_candidates(panel_true, mine, w)
                payload = (cand.values, cand.row_ids)
                win = gd.col_comm.reduce(payload, root=0, op=_merge_op(w))
                win = gd.col_comm.bcast(win, root=0)
            winner = PivotCandidates(values=win[0], row_ids=win[1])
            lu00, piv = lu_partial_pivot(winner.values[:, :w])
            order = permutation_from_pivots(piv, winner.count)
            pivot_pos = winner.row_ids[order][:w]
            payload = (pivot_pos, lu00)
        else:
            payload = None

        pivot_pos, a00 = sched.bcast_from(
            "bcast_a00", payload, (0, q, lt)
        )
        if self.grid_rank == 0:
            self.a00_blocks.append(
                (t, self.orig[pivot_pos].copy(), a00.copy())
            )
        return pivot_pos, a00, panel_true, mine

    # -- swaps + panel exchange + full-width fetch + chunked update ----
    def trailing_op(self, ctx: StepContext, panel) -> None:
        sched = self.sched
        g, v, n = self.g, self.v, self.n
        t, q, lt, w = ctx.t, ctx.q, ctx.lt, ctx.w
        pivot_pos, a00, panel_true, mine = panel
        start = t * v

        # -- physical row swaps: pivots into positions start..start+w ---
        pivot_orig = self.orig[pivot_pos].copy()
        trail_local = sched.trailing_local_cols(t)
        swap_list: list[tuple[int, int]] = []
        for j in range(w):
            x = start + j
            y = int(self.posof[pivot_orig[j]])
            if x == y:
                continue
            self._swap_positions(t, x, y, trail_local)
            swap_list.append((x, y))
            ox_, oy_ = self.orig[x], self.orig[y]
            self.orig[x], self.orig[y] = oy_, ox_
            self.posof[oy_], self.posof[ox_] = x, y
        # content_from[i] = pre-swap position of the row now at i; every
        # rank replays the same swap order, so the map is global
        # knowledge (only pivot indices travelled — masking's trick —
        # but the *data* movement above is what swapping costs).
        content_from = np.arange(n)
        for x, y in swap_list:
            content_from[x], content_from[y] = (
                content_from[y],
                content_from[x],
            )
        post_of_pre = np.empty(n, dtype=int)
        post_of_pre[content_from] = np.arange(n)

        # -- A10: panel rows now at positions >= start + w ---------------
        nonpivot_pos = np.arange(start + w, n)
        value_rows_post = (
            post_of_pre[mine] if panel_true is not None else None
        )
        recv_plan_a10 = sched.scatter_rows(
            phase="scatter_a10",
            tag=sched.tag(_TAG_A10_SCATTER, t),
            row_pool=nonpivot_pos,
            holders=sched.rank_at[content_from[nonpivot_pos] % g, q, lt],
            values=panel_true,
            value_rows=value_rows_post,
        )
        a10_rows = sched.assign_1d(nonpivot_pos, self.grid_rank)
        _, u00 = split_lu(a00)
        if len(a10_rows):
            c_rows = sched.assemble_rows(recv_plan_a10, a10_rows, w)
            a10_vals = trsm_upper(u00, c_rows, side="right")
            self.l_pieces.append(
                (t, self.orig[a10_rows].copy(), a10_vals)
            )
        else:
            a10_vals = np.zeros((0, w))

        # -- reduce + scatter A01 (pivot rows now at start..start+w) ----
        trail_cols = self.my_cols[trail_local]
        pivot_positions_now = np.arange(start, start + w)
        my_pivot_pos = pivot_positions_now[
            (pivot_positions_now % g) == self.pi
        ]
        pivot_true = None
        if len(my_pivot_pos) and len(trail_local):
            contrib = self.aloc[
                np.ix_(self.row_g2l[my_pivot_pos], trail_local)
            ]
            pivot_true = sched.reduce_to_layer(
                "reduce_pivot_rows", contrib, lt
            )

        all_trailing = np.arange((t + 1) * v, n)
        a01_cols = sched.assign_1d(all_trailing, self.grid_rank)
        assembled_a01 = sched.scatter_pivot_cols(
            t,
            phase="scatter_a01",
            tag=sched.tag(_TAG_A01_SCATTER, t),
            pivot_ids=pivot_positions_now,
            pivot_true=pivot_true,
            my_pivot_rows=my_pivot_pos,
            my_trail_cols=trail_cols,
            my_assigned_cols=a01_cols,
        )
        if len(a01_cols):
            a01_vals = trsm_lower_unit(a00, assembled_a01)
            self.u_pieces.append((t, a01_cols.copy(), a01_vals))
        else:
            a01_vals = np.zeros((w, 0))

        # -- full-width panel fetch + chunked Schur update ---------------
        chunk = sched.sender_chunks(w)[self.layer]
        a10_piece, piece_rows = sched.fetch_rows_piece(
            phase="panel_a10",
            tag=sched.tag(_TAG_A10_PANEL, t),
            pool=nonpivot_pos,
            vals_1d=a10_vals,
            my_1d_rows=a10_rows,
            chunk=chunk,
            need=lambda rows, i, j: rows % g == i,
        )
        a01_piece, piece_cols = sched.fetch_cols_piece(
            phase="panel_a01",
            tag=sched.tag(_TAG_A01_PANEL, t),
            pool=all_trailing,
            vals_1d=a01_vals,
            my_1d_cols=a01_cols,
            chunk=chunk,
        )
        applied = sched.my_chunk(w)
        if a10_piece.size and a01_piece.size and len(applied):
            rel = np.searchsorted(chunk, applied)
            rloc = self.row_g2l[piece_rows]
            cloc = self.col_g2l[piece_cols]
            self.aloc[np.ix_(rloc, cloc)] -= (
                a10_piece[:, rel] @ a01_piece[rel, :]
            )
        self.pivoted[: start + w] = True  # positions, for bookkeeping

    # ------------------------------------------------------------------
    def _swap_positions(
        self, t: int, x: int, y: int, trail_local: np.ndarray
    ) -> None:
        """Exchange the trailing-column data of positions x and y across
        this rank's layer partials (every layer and grid column swaps its
        own piece — the replication-scaled cost of physical pivoting)."""
        g = self.g
        ox, oy = x % g, y % g
        if len(trail_local) == 0:
            return
        if ox == oy:
            if self.pi == ox:
                lx, ly = self.row_g2l[x], self.row_g2l[y]
                self.aloc[np.ix_([lx, ly], trail_local)] = self.aloc[
                    np.ix_([ly, lx], trail_local)
                ]
            return
        if self.pi not in (ox, oy):
            return
        other_grid_row = oy if self.pi == ox else ox
        partner = self.grid.rank_of(other_grid_row, self.pj, self.layer)
        lrow = self.row_g2l[x if self.pi == ox else y]
        with self.comm.phase("row_swap"):
            mine = self.aloc[lrow, trail_local].copy()
            theirs = self.grid.grid_comm.sendrecv(
                mine, partner, sendtag=self.sched.tag(_TAG_SWAP, t)
            )
        self.aloc[lrow, trail_local] = theirs


register_algorithm(
    "candmc25d",
    kind="lu",
    grid_family="25d",
    description="CANDMC-like 2.5D LU: row swapping + full-width panel "
    "replication (~5x COnfLUX's leading term)",
    program=_CandmcRank.main,
    assemble=_assemble,
    default_block=2,
    block_at_least_layers=True,
)
