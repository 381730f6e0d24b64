"""2.5D CAQR — communication-avoiding QR on the [G, G, c] grid.

The journal extension of the source paper generalizes the COnfLUX
machinery beyond LU; CAQR (Demmel et al., arXiv:0808.2664) is the QR
member of that family.  This implementation runs the CAQR schedule on
the simulated MPI substrate over :class:`~repro.smpi.grid.ProcessGrid3D`:

* rows are block-cyclic over the G grid rows with block v, so each
  panel's diagonal block sits on a single grid row — the TSQR tree
  root;
* columns are block-cyclic over the G*c (column, layer) slots, so all
  c layers hold disjoint column panes and every rank works every step
  (the layers act as extra column resources; spending the replication
  to *reduce* panel traffic is :mod:`repro.algorithms.confqr`);
* each panel is factored by a binary-tree TSQR across the G grid rows
  of its owning pane (:mod:`repro.kernels.tsqr`), and the implicit
  tree Q^T is applied to the trailing matrix by replaying the same
  merge schedule inside every pane — pairwise row-block exchanges
  along ``col_comm``, never a full panel gather.

Per step t (panel width w, active rows n_t, trailing columns w_t):

1.  tsqr_leaf    — local Householder QR of each grid row's panel rows
2.  tsqr_tree    — merge R factors up the binary tree (root = the
                   diagonal-block row): (L_t - 1) sends of w x w
3.  panel_bcast  — each grid row's leaf reflectors (plus the merge
                   reflectors it computed) fan out to the G c - 1
                   sibling panes: (Gc - 1)(n_t w + ~2(L_t - 1) w^2)
4.  tree_apply   — leaf Q^T applied locally, then the merge schedule
                   replayed on the trailing columns: 2 (L_t - 1) w w_t

Steps 1-4 are the :meth:`step` hook of the shared :class:`Rank25D`
template; the block-cyclic pane layout, the TSQR tree (merge and
replay, shared with COnfQR) and the two-hop pane broadcast come from
:class:`Schedule25D`.

Q is returned *explicitly* in the :class:`FactorResult` (``lower`` = Q,
``upper`` = R, identity ``perm``): like LAPACK's orgqr, the global Q is
assembled host-side from the implicit tree reflectors each rank
returns, so the measured communication volume is the factorization's
own traffic — the quantity the QR lower bound constrains.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.api import register_algorithm
from repro.algorithms.base import gather_blocks
from repro.algorithms.schedule25d import Rank25D, StepContext
from repro.kernels.tsqr import MergeNode, TsqrFactors, apply_qt, merge_plan
from repro.layouts.block_cyclic import BlockCyclic1D


class _CaqrRank(Rank25D):
    """Per-rank 2.5D CAQR program on the shared schedule."""

    def setup(self, a: np.ndarray) -> None:
        self.init_block_cyclic_layout(panes_on_layers=True)
        self.aloc = self.local_block(a, replicated=True)
        # (t, tree_pos, v, tau) leaf and (t, order, v, tau) node records
        # for host-side Q assembly.
        self.q_log: list[tuple] = []

    def finalize(self) -> dict:
        return {
            "active": True,
            "aloc": self.aloc,
            "rows": self.my_rows,
            "cols": self.my_cols,
            "q_log": self.q_log,
        }

    def step(self, ctx: StepContext) -> None:
        g = self.g
        t, w = ctx.t, ctx.w
        rt, slot_t, counts, act_loc = self.tsqr_geometry(ctx.k0)
        qj, ql = slot_t % g, slot_t // g
        on_panel = self.pj == qj and self.layer == ql
        plan = merge_plan([counts[(rt + p) % g] for p in range(g)], w)
        a0 = act_loc.start

        # 1-2. leaf QR, then R merges up the tree (panel pane only); the
        #      panel is one tile, so a column range of the block
        panel = None
        if on_panel:
            lo = self.col_g2l[ctx.k0]
            panel_lcols = slice(lo, lo + w)
            panel = self.aloc[a0:, panel_lcols]
        leaf, my_nodes, r_mine = self.tsqr_merge(t, rt, plan, panel)
        if on_panel and self.pi == rt:
            # Final R of the panel: the diagonal block rows.
            self.aloc[a0 : a0 + w, panel_lcols] = r_mine

        # 3. fan the pane's reflectors out to the sibling panes
        pkg = (leaf, my_nodes) if on_panel else None
        pkg = self.pane_bcast("panel_bcast", pkg, qj, ql)
        leaf, my_nodes = pkg if pkg is not None else (None, {})
        if on_panel:
            if leaf is not None:
                my_pos = (self.pi - rt) % g
                self.q_log.append(("leaf", t, my_pos, leaf[0], leaf[1]))
            for order, (nv, ntau) in my_nodes.items():
                self.q_log.append(("node", t, order, nv, ntau))

        # 4. leaf Q^T locally, then the merge schedule replayed on the
        #    top rows of the trailing columns
        tcols = self.trailing_local_cols(t)
        if len(act_loc) == 0 or tcols.start == tcols.stop:
            return
        with self.comm.phase("tree_apply"):
            block = self.aloc[a0:, tcols]
            if leaf is not None:
                block = apply_qt(leaf[0], leaf[1], block)
            self.tsqr_replay(t, rt, plan, my_nodes, block, apply_qt)
        self.aloc[a0:, tcols] = block

    def step_flops(self, ctx: StepContext) -> float:
        # Q^T application is two-sided (form Y = V^T B, then B -= V T Y),
        # so roughly 4·rows·w·cols against 2·rows·w·cols for a GEMM
        # trailing update.
        rows = max(self.n - ctx.k0, 0)
        cols = max(self.n - ctx.k1, 0)
        return 4.0 * rows * ctx.w * cols / self.p_active


def _assemble_q(
    n: int, g: int, v: int, results: list[dict]
) -> np.ndarray:
    """Replay the implicit per-step tree reflectors on the identity.

    A = H_0 H_1 ... H_{T-1} R, so Q = H_0 (H_1 (... H_{T-1} I)) — the
    orgqr analogue, built from the reflectors the ranks logged.
    """
    rowmap = BlockCyclic1D(n, g, v)
    rows_by_grid_row = [rowmap.global_indices(i) for i in range(g)]
    leaves: dict[tuple[int, int], tuple] = {}
    nodes: dict[tuple[int, int], tuple] = {}
    for res in results:
        if not res.get("active"):
            continue
        for entry in res["q_log"]:
            if entry[0] == "leaf":
                _, t, pos, lv, ltau = entry
                leaves[(t, pos)] = (lv, ltau)
            else:
                _, t, order, nv, ntau = entry
                nodes[(t, order)] = (nv, ntau)

    q = np.eye(n)
    steps = (n + v - 1) // v
    for t in range(steps - 1, -1, -1):
        k0 = t * v
        w = min(v, n - k0)
        rt = rowmap.owner(k0)
        block_rows = []
        tree_counts = []
        for p in range(g):
            rows = rows_by_grid_row[(rt + p) % g]
            rows = rows[rows >= k0]
            block_rows.append(rows)
            tree_counts.append(len(rows))
        plan = merge_plan(tree_counts, w)
        factors = TsqrFactors(
            row_counts=tuple(tree_counts),
            ncols=w,
            leaves=tuple(
                leaves.get((t, p)) for p in range(g)
            ),
            nodes=tuple(
                MergeNode(step=step, v=nodes[(t, order)][0],
                          tau=nodes[(t, order)][1])
                for order, step in enumerate(plan)
            ),
            r=np.zeros((0, w)),
        )
        q = factors.apply_q(q, block_rows=block_rows)
    return q


def _assemble(
    n: int, grid: tuple[int, int, int], v: int, results: list[dict]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit Q and R in the LU container: ``lower`` is Q, ``upper``
    is R, ``perm`` the identity (QR needs no pivoting)."""
    upper = np.triu(gather_blocks(n, results))
    return _assemble_q(n, grid[0], v, results), upper, np.arange(n)


register_algorithm(
    "caqr25d",
    kind="qr",
    grid_family="25d",
    description="2.5D CAQR: TSQR panel trees on block-cyclic panes "
    "(the journal extension's QR workload)",
    program=_CaqrRank.main,
    assemble=_assemble,
    # max(2, min(8, n)) once the resolver caps the block at n
    default_block=8,
)
