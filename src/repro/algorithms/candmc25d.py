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
from repro.algorithms.conflux import _assemble, _ConfluxRank
from repro.algorithms.schedule25d import StepContext

# tags 1-4 are COnfLUX's scatters and panel fetches
_TAG_SWAP = 5


class _CandmcRank(_ConfluxRank):
    """2.5D LU with physical row swapping, in *position* space.

    Positions are physical row slots (cyclic over grid rows); the
    ``orig`` array maps each position to the original matrix row living
    there.  After step t's swaps, positions [0, (t+1) v) hold the chosen
    pivot rows in elimination order, so the active set is simply the
    positions >= (t+1) v — no masking bookkeeping.  COnfLUX's steps run
    unchanged over positions; only the way back to original rows
    (:meth:`row_labels`) and the swaps differ.
    """

    chunking = "replicate"  # full-width panels to every layer

    def setup(self, a: np.ndarray) -> None:
        super().setup(a)
        self.orig = np.arange(self.n)  # position -> original row
        self.posof = np.arange(self.n)  # original row -> position

    def row_labels(self, ids: np.ndarray) -> np.ndarray:
        return self.orig[ids]

    # -- COnfLUX's steps over *positions*, row swaps after step 3 ------
    def step(self, ctx: StepContext) -> None:
        n, start, w = self.n, ctx.k0, ctx.w
        active_pos = np.arange(start, n)
        mine = active_pos[(active_pos % self.g) == self.pi]
        pivot_pos, a00, panel_true = self.factor_panel(ctx, mine)

        # -- physical row swaps: pivots into positions start..start+w ---
        pivot_orig = self.orig[pivot_pos].copy()
        trail_local = self.trailing_local_cols(ctx.t)
        swap_list: list[tuple[int, int]] = []
        for j in range(w):
            x = start + j
            y = int(self.posof[pivot_orig[j]])
            if x == y:
                continue
            self._swap_positions(ctx.t, x, y, trail_local)
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

        # Panel rows are now at positions >= start + w, the pivot rows
        # at start..start+w; the true values still sit where step 1
        # reduced them, on the grid row of each row's pre-swap position.
        nonpivot_pos = np.arange(start + w, n)
        self.eliminate(
            ctx,
            a00,
            panel_true,
            value_rows=post_of_pre[mine],
            row_pool=nonpivot_pos,
            holder_rows=content_from[nonpivot_pos],
            pivot_rows=np.arange(start, start + w),
        )

    # ------------------------------------------------------------------
    def _swap_positions(
        self, t: int, x: int, y: int, trail_local: slice
    ) -> None:
        """Exchange the trailing-column data of positions x and y across
        this rank's layer partials (every layer and grid column swaps its
        own piece — the replication-scaled cost of physical pivoting)."""
        g = self.g
        ox, oy = x % g, y % g
        if trail_local.start == trail_local.stop:
            return
        if ox == oy:
            if self.pi == ox:
                lx, ly = self.row_g2l[x], self.row_g2l[y]
                self.aloc[[lx, ly], trail_local] = self.aloc[
                    [ly, lx], trail_local
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
                mine, partner, sendtag=self.tag(_TAG_SWAP, t)
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
