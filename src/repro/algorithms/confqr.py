"""COnfQR — near-optimal 2.5D QR on the [G, G, c] grid.

The journal extension of the source paper (arXiv:2108.09337) carries
COnfLUX's memory-for-communication trade over to QR.  CAQR
(:mod:`repro.algorithms.caqr25d`) spends the c-fold replication on
extra *column panes*: every layer holds a disjoint pane, so every
step's reflector panel fans out full-width to all G·c - 1 sibling
panes and the total volume ~ N²(Gc + 2G)/2 is *minimized at c = 2* —
the flattening our ``qr-lower-bound-gap`` sweep measures.  COnfQR
spends the same memory the COnfLUX way instead:

* the factorization runs on the largest 2D grid whose blocks fill the
  per-rank budget M = cN²/P — the G x G *compute layer* (layer 0),
  rows and columns block-cyclic with block v
  (:meth:`Schedule25D.init_block_cyclic_layout` without panes);
* each panel is factored by a binary-tree TSQR across the G grid rows
  of its pane column, then *Householder-reconstructed* into compact-WY
  form (Ballard et al.; :func:`repro.kernels.tsqr.reconstruct_wy_top`):
  the tree's thin Q is replayed once on a w-column identity, the root
  takes the unpivoted LU of Q1 - S, and (V, T) come back — so the
  trailing update is one ``B - V (T^T (V^T B))`` GEMM pair per step
  (one ``col_comm`` allreduce) instead of replaying the merge tree
  inside every pane;
* the reflector panel V is row-broadcast only to the G - 1 layer-0
  column peers — a factor G·c/G = c less panel fan-out than CAQR, so
  total volume ~ 1.5·G·N² keeps *falling* as c grows (G = sqrt(P/c));
* layers 1..c-1 are the *reflector bank*: via the same
  ``chunking="split"`` policy COnfLUX uses for L21, each layer receives
  exactly its 1/c ``chunk_bounds`` range of every step's V
  (``bank_scatter``), which funds the distributed explicit-Q assembly:
  after the last step the sweep runs backward over the steps, fiber-
  gathering the banked chunks, row-broadcasting V, and applying
  ``Q_t X = X - V (T (V^T X))`` to a distributed identity — retiring
  the host-side orgqr-style replay CAQR uses, so the assembly's
  traffic is measured like the factorization's.

Per step t (active rows n_t, panel width w, trailing columns w_t, all
phases on layer 0 unless noted; L_t = non-empty TSQR leaves):

1.  tsqr_tree      — merge R factors up the binary tree: sum r_b · w
2.  recon_tree     — replay the tree on the w-column identity to land
                     Q1 rows on their owners: 2 · sum r_b · w
3.  recon_bcast    — root sends (U, S, T) down the pane column:
                     (G-1)(2w² + w); each rank back-solves its V rows
4.  wy_t_bcast     — T to the whole compute layer: (G²-1) w²
5.  panel_bcast    — V rows to the G-1 row peers: (G-1) n_t w
6.  bank_scatter   — layer l gets its 1/c chunk of V (fibers, layers
                     1..c-1): n_t w (c-1)/c
7.  wy_apply       — Y = allreduce(V^T B) per column, B -= V T^T Y:
                     2 (G-1) w w_t
8.  q_* (assembly) — the reverse sweep mirrors 5-7 on all N columns:
                     q_fiber_gather + q_panel_bcast + q_apply

The exact per-step model is :func:`repro.models.costmodels.
confqr_step_breakdown`; the ``qr-confqr-gap`` sweep checks it against
the ledger and demonstrates the volume optimum moving past c = 2.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.api import register_algorithm
from repro.algorithms.base import gather_blocks
from repro.algorithms.schedule25d import Rank25D, StepContext
from repro.kernels.tsqr import (
    apply_q,
    merge_plan,
    reconstruct_wy_top,
    wy_below_rows,
)

# tags 1-3 are Schedule25D's TSQR tree plans
_TAG_BANK = 4
_TAG_QGATHER = 5


class _ConfqrRank(Rank25D):
    """Per-rank COnfQR program on the shared 2.5D schedule."""

    def setup(self, a: np.ndarray) -> None:
        self.init_block_cyclic_layout(panes_on_layers=False)
        # Only the compute layer materializes matrix data; the bank
        # layers hold reflector chunks keyed by step.
        self.aloc = (
            a[np.ix_(self.my_rows, self.my_cols)]
            if self.layer == 0
            else None
        )
        self.bank: dict[int, np.ndarray] = {}
        self.t_log: dict[int, np.ndarray] = {}

    # -- steps 1-7: tree TSQR, WY reconstruction, fan-out, WY update --
    def step(self, ctx: StepContext) -> None:
        comm, gd = self.comm, self.grid
        g = self.g
        t, w = ctx.t, ctx.w
        rt, qj, counts, act_loc = self.tsqr_geometry(ctx.k0)

        if self.layer != 0:
            # Bank layers only receive their 1/c reflector chunk.
            self._bank_recv(ctx, qj, counts)
            return

        on_pane = self.pj == qj
        plan = merge_plan([counts[(rt + p) % g] for p in range(g)], w)
        a0 = act_loc.start

        # 1. leaf QR + R merges up the binary tree (pane column only);
        #    the panel is one tile, so a column range of the block.
        panel = None
        if on_pane:
            lo = self.col_g2l[ctx.k0]
            panel_lcols = slice(lo, lo + w)
            panel = self.aloc[a0:, panel_lcols]
        leaf, my_nodes, r_mine = self.tsqr_merge(t, rt, plan, panel)

        # 2. replay the tree on the w-column identity: Q1 rows land on
        #    their owners (reverse schedule order, then the local leaf).
        eloc = np.zeros((len(act_loc), w))
        if on_pane:
            if self.pi == rt and len(act_loc):
                eloc[:w] = np.eye(w)
            with comm.phase("recon_tree"):
                self.tsqr_replay(
                    t, rt, plan, my_nodes, eloc, apply_q, reverse=True
                )
            if leaf is not None:
                eloc = apply_q(leaf[0], leaf[1], eloc)

        # 3. root reconstructs (L1, U, T, S) from its top block and
        #    sends the solve/apply factors down the pane column; each
        #    pane rank back-solves its V rows.
        vloc = np.zeros((len(act_loc), w))
        tmat = None
        if on_pane:
            pkg = None
            if self.pi == rt:
                l1, u, tmat, signs = reconstruct_wy_top(eloc[:w])
                pkg = (u, signs, tmat)
            with comm.phase("recon_bcast"):
                pkg = gd.col_comm.bcast(pkg, root=rt)
            u, signs, tmat = pkg
            if self.pi == rt:
                vloc[:w] = l1
                vloc[w:] = wy_below_rows(eloc[w:], u)
                # Sign-fixed final R of the panel: R' = S R.
                self.aloc[a0 : a0 + w, panel_lcols] = signs[:, None] * r_mine
            else:
                vloc = wy_below_rows(eloc, u)

        # 4. T to the whole compute layer (the trailing update and the
        #    assembly sweep need it on every layer-0 rank).
        with comm.phase("wy_t_bcast"):
            tmat = gd.layer_comm.bcast(tmat, root=rt * g + qj)
        self.t_log[t] = tmat

        # 5. V rows to the G-1 layer-0 row peers.
        with comm.phase("panel_bcast"):
            vloc = gd.row_comm.bcast(vloc, root=qj)

        # 6. bank the split chunks: layer l keeps 1/c of V (layer 0's
        #    own chunk stays in place without a message).
        bounds = self.chunk_bounds(w)
        if self.pj == qj:
            lo, hi = bounds[0]
            self.bank[t] = vloc[:, lo:hi].copy()
            if len(act_loc):
                with comm.phase("bank_scatter"):
                    for lyr in range(1, self.c):
                        lo, hi = bounds[lyr]
                        if lo < hi:
                            gd.fiber_comm.send(
                                vloc[:, lo:hi], lyr, self.tag(_TAG_BANK, t)
                            )

        # 7. Y = allreduce(V^T B) down each column, then B -= V T^T Y
        tcols = self.trailing_local_cols(t)
        if tcols.start == tcols.stop:
            return
        with comm.phase("wy_apply"):
            block = self.aloc[act_loc.start :, tcols]
            y = gd.col_comm.allreduce(vloc.T @ block)
            block -= vloc @ (tmat.T @ y)

    def _bank_recv(self, ctx: StepContext, qj: int, counts: list[int]) -> None:
        """Bank-layer side of step 6: receive this layer's V chunk."""
        if self.pj != qj:
            return
        lo, hi = self.my_chunk(ctx.w)
        if counts[self.pi] == 0 or lo == hi:
            self.bank[ctx.t] = np.zeros((counts[self.pi], hi - lo))
            return
        with self.comm.phase("bank_scatter"):
            self.bank[ctx.t] = self.grid.fiber_comm.recv(
                0, self.tag(_TAG_BANK, ctx.t)
            )

    def step_flops(self, ctx: StepContext) -> float:
        if self.layer != 0:
            return 0.0
        rows = max(self.n - ctx.k0, 0)
        cols = max(self.n - ctx.k1, 0)
        # Compact-WY is two GEMMs (Y = V^T B, B -= V (T^T Y)) over the
        # g x g compute layer.
        return 4.0 * rows * ctx.w * cols / (self.g * self.g)

    # -- step 8: distributed explicit-Q assembly (reverse sweep) -------
    def epilogue(self) -> None:
        comm, gd = self.comm, self.grid
        if self.layer == 0:
            self.qloc = (
                self.my_rows[:, None] == self.my_cols[None, :]
            ).astype(np.float64)
        for t in range(self.steps - 1, -1, -1):
            ctx = self.step_context(t)
            k0, w = ctx.k0, ctx.w
            _, qj, counts, act_loc = self.tsqr_geometry(k0)
            bounds = self.chunk_bounds(w)

            if self.layer != 0:
                # Bank side: return this layer's V chunk to the pane.
                lo, hi = bounds[self.layer]
                if self.pj == qj and counts[self.pi] and lo < hi:
                    with comm.phase("q_fiber_gather"):
                        gd.fiber_comm.send(
                            self.bank.pop(t),
                            0,
                            self.tag(_TAG_QGATHER, t),
                        )
                continue

            # Pane reassembles full V from its own chunk + the bank.
            vloc = np.zeros((len(act_loc), w))
            if self.pj == qj:
                lo, hi = bounds[0]
                vloc[:, lo:hi] = self.bank.pop(t)
                if len(act_loc):
                    with comm.phase("q_fiber_gather"):
                        for lyr in range(1, self.c):
                            lo, hi = bounds[lyr]
                            if lo < hi:
                                vloc[:, lo:hi] = gd.fiber_comm.recv(
                                    lyr, self.tag(_TAG_QGATHER, t)
                                )
            with comm.phase("q_panel_bcast"):
                vloc = gd.row_comm.bcast(vloc, root=qj)

            # Q_t X = X - V (T (V^T X)) on all N columns.
            tmat = self.t_log[t]
            with comm.phase("q_apply"):
                block = self.qloc[act_loc.start :]
                y = gd.col_comm.allreduce(vloc.T @ block)
                block -= vloc @ (tmat @ y)
            rows = max(self.n - k0, 0)
            comm.compute(4.0 * rows * w * self.n / (self.g * self.g))

    def finalize(self) -> dict:
        if self.layer != 0:
            return {"active": True}  # a bank layer returns no block
        return {
            "active": True,
            "aloc": self.aloc,
            "qloc": self.qloc,
            "rows": self.my_rows,
            "cols": self.my_cols,
        }


def _assemble(
    n: int, grid: tuple[int, int, int], v: int, results: list[dict]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Same result contract as ``caqr25d`` (``lower`` is Q, ``upper``
    is R, identity ``perm``), but Q arrives assembled by the rank
    program: the host only gathers the compute layer's blocks."""
    upper = np.triu(gather_blocks(n, results))
    return gather_blocks(n, results, "qloc"), upper, np.arange(n)


register_algorithm(
    "confqr",
    kind="qr",
    grid_family="25d",
    description="COnfQR 2.5D QR: compact-WY trailing updates from "
    "Householder reconstruction, 1/c-chunked reflector bank, "
    "distributed explicit-Q assembly",
    program=_ConfqrRank.main,
    assemble=_assemble,
    default_block=8,
)
