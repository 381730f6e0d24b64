"""COnfLUX — near-communication-optimal LU (paper Section 7, Algorithm 1).

Decomposition (Figure 5): P = G * G * c ranks in a [G, G, c] grid.

* **Rows** are distributed *cyclically* over grid rows (global row r
  lives on grid row ``r mod G``) — cyclic layout keeps work balanced no
  matter which rows the tournament masks out (Section 7.3's row masking).
* **Columns** are distributed in v-wide tiles, tile b on grid column
  ``b mod G`` — so each step's panel lives on exactly one grid column,
  the G ranks the paper has run tournament pivoting.
* **Layers** hold *partial sums*: layer 0 starts with the matrix, layers
  1..c-1 with zeros; each layer applies only its 1/c chunk of every
  rank-v Schur update, and the true value of any entry is the sum over
  layers.  Only the data the next step needs (the next panel and the
  pivot rows) is ever reduced — the "reduce next block column" trick
  that keeps the leading cost at N^3/(P sqrt(M)).

Per step t (tile q = t mod G, layer l = t mod c, width w):

1.  reduce_column      — fiber-reduce the panel's true values to layer l
2.  tournament         — TSLU over the G panel ranks (tree merge +
                         broadcast of candidate sets)
3.  bcast_a00          — broadcast pivot ids + factored A00 to all P
4.  scatter_a10        — non-pivot panel rows -> 1D on (r mod G, ., l)
5.  reduce_pivot_rows  — fiber-reduce the v pivot rows' trailing values
6.  scatter_a01        — pivot rows -> 1D, col k on (., (k div v) mod G, l)
7.  trsm A10           — local:  A10 <- C U00^{-1}
8.  panel_a10          — (i, j, l) fetches rows x chunk_l from grid row i
9.  trsm A01           — local:  A01 <- L00^{-1} C
10. panel_a01          — (i, j, l) fetches chunk_l x cols from grid col j
11. schur update       — local:  A_l -= A10[:, chunk_l] A01[chunk_l, :]

Pivot rows are never swapped — only their indices travel (row masking),
so the O(N^3 / (P sqrt(M))) swap traffic a 2.5D layout would pay
(Section 7.3, "Row Swapping vs Row Masking") never materializes.

Steps 1-3 (:meth:`_ConfluxRank.factor_panel`) and 4-11
(:meth:`_ConfluxRank.eliminate`) make up the :meth:`step` hook of the
shared :class:`Rank25D` template; all grid choreography (scatters,
fetches, reductions, tags) lives in :mod:`repro.algorithms.schedule25d`.
Both are written over "whichever row ids the member eliminates in",
with ``row_labels`` the one seam back to original rows — which, with
the row swaps, is all the CANDMC-like baseline
(:mod:`repro.algorithms.candmc25d`) changes.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.api import register_algorithm
from repro.algorithms.schedule25d import Rank25D, StepContext
from repro.kernels.linalg import (
    permutation_from_pivots,
    trsm_lower_unit,
    trsm_upper,
)
from repro.kernels.lu_seq import lu_partial_pivot, split_lu
from repro.kernels.tournament import (
    PivotCandidates,
    local_candidates,
    merge_candidates,
)

_TAG_A10_SCATTER = 1
_TAG_A01_SCATTER = 2
_TAG_A10_PANEL = 3
_TAG_A01_PANEL = 4


def _merge_op(w: int):
    """Reduction operator over (values, ids) candidate tuples."""

    def op(a, b):
        merged = merge_candidates(
            PivotCandidates(values=a[0], row_ids=a[1]),
            PivotCandidates(values=b[0], row_ids=b[1]),
            w,
        )
        return (merged.values, merged.row_ids)

    return op


class _ConfluxRank(Rank25D):
    """Per-rank COnfLUX program on the shared 2.5D schedule."""

    def setup(self, a: np.ndarray) -> None:
        self.init_cyclic_layout()
        self.aloc = self.local_block(a)
        self.pivoted = np.zeros(self.n, dtype=bool)
        self.l_pieces: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.u_pieces: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.a00_blocks: list[tuple[int, np.ndarray, np.ndarray]] = []

    def finalize(self) -> dict:
        return {
            "active": True,
            "l_pieces": self.l_pieces,
            "u_pieces": self.u_pieces,
            "a00_blocks": self.a00_blocks,
        }

    def row_labels(self, ids: np.ndarray) -> np.ndarray:
        """Original matrix rows behind the row ids this member
        eliminates in: masking never moves a row, so the ids themselves."""
        return ids

    def step(self, ctx: StepContext) -> None:
        active_rows = np.where(~self.pivoted)[0]
        my_active_rows = active_rows[self.row_g2l[active_rows] >= 0]
        pivot_ids, a00, panel_true = self.factor_panel(ctx, my_active_rows)
        self.pivoted[pivot_ids] = True
        nonpivot_rows = active_rows[~self.pivoted[active_rows]]
        self.eliminate(
            ctx,
            a00,
            panel_true,
            value_rows=my_active_rows,
            row_pool=nonpivot_rows,
            holder_rows=nonpivot_rows,
            pivot_rows=pivot_ids,
        )

    # -- steps 1-3: reduce the panel, run the tournament, factor A00 ---
    def factor_panel(self, ctx: StepContext, my_rows: np.ndarray):
        """Steps 1-3 over ``my_rows``, this rank's share of whichever
        row ids the member eliminates in (original rows when masking,
        positions when swapping).  Returns ``(pivot_ids, a00,
        panel_true)``; ``panel_true`` holds the true panel values of
        ``my_rows`` on the panel ranks of layer ``lt``, None elsewhere.
        Raises ``ValueError`` on a pivot id outside [0, N), so an id
        corrupted in flight fails where it arrives."""
        comm, gd = self.comm, self.grid
        t, q, lt, w = ctx.t, ctx.q, ctx.lt, ctx.w

        # -- step 1: reduce next block column to layer lt ---------------
        panel_true = self.reduce_panel(ctx, self.aloc, my_rows)

        # -- step 2: tournament pivoting over the G panel ranks ---------
        if panel_true is not None:
            with comm.phase("tournament"):
                cand = local_candidates(panel_true, my_rows, w)
                payload = (cand.values, cand.row_ids)
                win = gd.col_comm.reduce(payload, root=0, op=_merge_op(w))
                win = gd.col_comm.bcast(win, root=0)
            winner = PivotCandidates(values=win[0], row_ids=win[1])
            lu00, piv = lu_partial_pivot(winner.values[:, :w])
            order = permutation_from_pivots(piv, winner.count)
            pivot_ids = winner.row_ids[order][:w]
            payload = (pivot_ids, lu00)
        else:
            payload = None

        # -- step 3: broadcast A00 + pivot ids to all active ranks ------
        pivot_ids, a00 = self.bcast_from("bcast_a00", payload, (0, q, lt))
        if ((pivot_ids < 0) | (pivot_ids >= self.n)).any():
            raise ValueError(
                f"step {t}: bcast_a00 delivered pivot ids outside "
                f"[0, {self.n}): {pivot_ids.tolist()}"
            )
        if self.grid_rank == 0:
            self.a00_blocks.append(
                (t, self.row_labels(pivot_ids).copy(), a00.copy())
            )
        return pivot_ids, a00, panel_true

    # -- steps 4-11: scatter, trsm, panel fetches, Schur update --------
    def eliminate(
        self,
        ctx: StepContext,
        a00: np.ndarray,
        panel_true: np.ndarray | None,
        value_rows: np.ndarray,
        row_pool: np.ndarray,
        holder_rows: np.ndarray,
        pivot_rows: np.ndarray,
    ) -> None:
        """Steps 4-11 in the member's row-id space.

        ``row_pool`` are the panel's non-pivot rows and ``pivot_rows``
        the step's pivots in elimination order, both as they are
        addressed *now*; ``holder_rows[k]`` is the id under which
        ``row_pool[k]`` was reduced in step 1 (its grid row holds the
        true values) and ``value_rows`` the current ids of
        ``panel_true``'s rows.
        """
        g, v, n = self.g, self.v, self.n
        t, q, lt, w = ctx.t, ctx.q, ctx.lt, ctx.w

        # -- step 4: scatter A10 (non-pivot panel rows) to 1D layout ----
        a10_owners = self.owners(row_pool, "row", lt)
        a10_rows = self.my_share(row_pool, a10_owners)
        c_rows = self.scatter_rows(
            phase="scatter_a10",
            tag=self.tag(_TAG_A10_SCATTER, t),
            row_pool=row_pool,
            owners=a10_owners,
            holders=self.rank_at[holder_rows % g, q, lt],
            values=panel_true,
            value_rows=value_rows,
            w=w,
        )
        # -- step 7: local trsm A10 <- C U00^{-1} ------------------------
        # (the right-side solve reads only A00's upper triangle: U00)
        if len(a10_rows):
            a10_vals = trsm_upper(a00, c_rows, side="right")
            self.l_pieces.append(
                (t, self.row_labels(a10_rows).copy(), a10_vals)
            )
        else:
            a10_vals = np.zeros((0, w))

        # -- step 5: reduce the pivot rows' trailing values -------------
        trail_local = self.trailing_local_cols(t)
        trail_cols = self.my_cols[trail_local]
        my_pivot_rows = pivot_rows[(pivot_rows % g) == self.pi]
        pivot_true = None
        if len(my_pivot_rows) and len(trail_cols):
            contrib = self.aloc[self.row_g2l[my_pivot_rows], trail_local]
            pivot_true = self.reduce_to_layer(
                "reduce_pivot_rows", contrib, lt
            )

        # -- step 6: scatter A01 to a 1D layout over trailing columns ---
        all_trailing = np.arange((t + 1) * v, n)
        a01_owners, assembled_a01 = self.scatter_pivot_cols(
            t,
            phase="scatter_a01",
            tag=self.tag(_TAG_A01_SCATTER, t),
            pivot_ids=pivot_rows,
            pivot_true=pivot_true,
            my_pivot_rows=my_pivot_rows,
            my_trail_cols=trail_cols,
        )
        a01_cols = self.my_share(all_trailing, a01_owners)
        # -- step 9: local trsm A01 <- L00^{-1} C ------------------------
        if len(a01_cols):
            a01_vals = trsm_lower_unit(a00, assembled_a01)
            self.u_pieces.append((t, a01_cols.copy(), a01_vals))
        else:
            a01_vals = np.zeros((w, 0))

        # -- steps 8 + 10: fetch 2.5D panel pieces ----------------------
        a10_piece, piece_rows = self.fetch_rows_piece(
            phase="panel_a10",
            tag=self.tag(_TAG_A10_PANEL, t),
            pool=row_pool,
            owners=a10_owners,
            my_ids=a10_rows,
            vals_1d=a10_vals,
            width=w,
            by="row",
        )
        a01_piece, _ = self.fetch_cols_piece(
            phase="panel_a01",
            tag=self.tag(_TAG_A01_PANEL, t),
            pool=all_trailing,
            owners=a01_owners,
            my_ids=a01_cols,
            vals_1d=a01_vals,
            width=w,
        )

        # -- step 11: local Schur update on this layer's partials -------
        # The layer applies only its 1/c slice even when the shipped
        # pieces are wider (the CANDMC-like variant over-fetches).
        lo, hi = self.my_chunk(w)
        if a10_piece.size and a01_piece.size and lo < hi:
            shipped_lo = self.chunk_bounds(w)[self.layer][0]
            rel = slice(lo - shipped_lo, hi - shipped_lo)
            # the fetched columns are this rank's trailing tiles: a range
            self.aloc[self.row_g2l[piece_rows], trail_local] -= (
                a10_piece[:, rel] @ a01_piece[rel, :]
            )


def _assemble(
    n: int, grid: tuple[int, int, int], v: int, results: list[dict]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble global L, U and the permutation from per-rank pieces."""
    a00_blocks = None
    for r in results:
        if r.get("active") and r.get("a00_blocks"):
            a00_blocks = r["a00_blocks"]
            break
    if a00_blocks is None:
        raise RuntimeError("no rank recorded the A00 blocks")

    perm_parts = [ids for _, ids, _ in sorted(a00_blocks)]
    perm = np.concatenate(perm_parts)
    if sorted(perm.tolist()) != list(range(n)):
        raise RuntimeError("pivot ids do not form a permutation")
    pos = np.empty(n, dtype=int)
    pos[perm] = np.arange(n)

    lower = np.zeros((n, n))
    upper = np.zeros((n, n))
    for t, ids, a00 in sorted(a00_blocks):
        w = len(ids)
        k0 = t * v
        l00, u00 = split_lu(a00)
        block_pos = pos[ids]  # == k0 .. k0+w-1 in order
        lower[block_pos, k0 : k0 + w] = l00
        upper[block_pos, k0 : k0 + w] = u00

    for r in results:
        if not r.get("active"):
            continue
        for t, row_ids, vals in r["l_pieces"]:
            k0 = t * v
            w = vals.shape[1]
            lower[pos[row_ids], k0 : k0 + w] = vals
        for t, col_ids, vals in r["u_pieces"]:
            k0 = t * v
            w = vals.shape[0]
            upper[k0 : k0 + w, col_ids] = vals
    return lower, upper, perm


register_algorithm(
    "conflux",
    kind="lu",
    grid_family="25d",
    description="COnfLUX: 2.5D row-masking tournament-pivoted LU "
    "(paper Algorithm 1)",
    program=_ConfluxRank.main,
    assemble=_assemble,
    # Volume-optimal blocking v = max(c, 2): the bcast_a00 term grows
    # linearly in v; the paper's v = a*c tunes a for hardware
    # efficiency, which the simulator does not model.
    default_block=2,
    block_at_least_layers=True,
)
