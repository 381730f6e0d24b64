"""Shared 2.5D schedule choreography — the [G, G, c] grid machinery.

COnfLUX, the CANDMC-like LU, 2.5D Cholesky and 2.5D CAQR are instances
of *one* near-optimal 2.5D schedule family (the journal extension of
the source paper, arXiv:2108.09337): a [G, G, c] processor grid, a
rotating panel owner, layer-chunked rank-v updates, step-scoped tag
namespaces and a small vocabulary of reduction/scatter/fetch plans.
This module encodes that choreography once; the per-algorithm modules
keep only their numerical payload (tournament pivoting, dpotrf, TSQR
trees) as the one :meth:`Rank25D.step` hook of a :class:`Rank25D`
subclass, which *is* its rank's :class:`Schedule25D`.

:class:`Schedule25D` owns, per rank:

* the :class:`~repro.smpi.grid.ProcessGrid3D` and this rank's
  coordinates;
* the **panel-owner rotation** — step t's panel lives on grid column
  ``t mod G`` and is coordinated by layer ``t mod c``;
* the **tag namespace** — every point-to-point phase tags its traffic
  with the step index so a fast rank racing ahead into step t+1 cannot
  intercept step t's messages;
* **layer chunking** — the 1/c split of every rank-v update
  (``chunking="split"``), or CANDMC-style full-width replication
  (``chunking="replicate"``);
* the **data layouts** — cyclic rows with v-wide column tiles (the
  COnfLUX/Cholesky layout) or block-cyclic rows and columns (the QR
  layout: CAQR's panes on every layer, COnfQR's compute layer);
* the **1D owner map**, each id owned by a rank on the step's
  coordinating layer that fetches it back, derived identically
  everywhere from the ids alone (no index metadata ever travels,
  matching the paper's data-bytes accounting);
* the communication plans: fiber reductions to the coordinating layer,
  2.5D -> 1D scatters of panel rows / pivot-row column slices, the
  1D -> 2.5D panel fetches feeding the layer-chunked updates, and the
  TSQR tree — R factors merged up a binary tree over the grid rows,
  then the same tree replayed forwards for Q^T or backwards for Q.

``tests/algorithms/test_ledger_regression.py`` pins the wire of every
member at fixed points: per-rank bytes, message counts, phases and
tags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.tsqr import householder_qr
from repro.layouts.block_cyclic import BlockCyclic1D
from repro.smpi import ProcessGrid3D

#: Tag stride between consecutive steps: each step may use tag bases
#: 0..TAG_STRIDE-1 within its namespace.
TAG_STRIDE = 8

# Tag bases of the TSQR tree plans; a QR member's own tags start at 4.
_TAG_TREE_R = 1
_TAG_TREE_TOP = 2
_TAG_TREE_TOP_BACK = 3


@dataclass(frozen=True)
class StepContext:
    """Geometry of one elimination step, derived identically everywhere.

    ``q`` is the grid column owning the panel tile (owner rotation) and
    ``lt`` the layer coordinating the step's reductions; ``panel_cols``
    are the global columns of the width-``w`` panel ``[k0, k1)``.
    """

    t: int
    q: int
    lt: int
    k0: int
    k1: int
    w: int
    panel_cols: np.ndarray


class Schedule25D:
    """Per-rank view of the shared [G, G, c] schedule.

    Parameters
    ----------
    comm:
        This rank's :class:`~repro.smpi.runtime.Comm`.
    n, g, c, v:
        Problem size, grid rows/cols, replication depth, panel width.
    chunking:
        ``"split"`` ships each layer its 1/c chunk of every panel
        (COnfLUX); ``"replicate"`` ships full-width panels to every
        layer (the CANDMC-like baseline's factor-c overhead).
    """

    def __init__(
        self,
        comm,
        n: int,
        g: int,
        c: int,
        v: int,
        chunking: str = "split",
    ) -> None:
        if chunking not in ("split", "replicate"):
            raise ValueError(f"unknown chunking strategy {chunking!r}")
        self.comm = comm
        self.n = n
        self.g = g
        self.c = c
        self.v = v
        self.chunking = chunking
        self.grid = ProcessGrid3D(comm, g, g, c)
        self.active = self.grid.active
        if not self.active:
            return
        gd = self.grid
        self.pi, self.pj, self.layer = gd.row, gd.col, gd.layer
        self.p_active = g * g * c
        self.grid_rank = gd.grid_comm.rank
        #: ``rank_at[i, j, l] == grid.rank_of(i, j, l)``, for index arrays
        self.rank_at = np.arange(self.p_active).reshape(g, g, c)

    # ------------------------------------------------------------------
    # step geometry: owner rotation + tag namespace
    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        return (self.n + self.v - 1) // self.v

    def step_context(self, t: int) -> StepContext:
        k0 = t * self.v
        k1 = min(k0 + self.v, self.n)
        return StepContext(
            t=t,
            q=t % self.g,
            lt=t % self.c,
            k0=k0,
            k1=k1,
            w=k1 - k0,
            panel_cols=np.arange(k0, k1),
        )

    def tag(self, base: int, t: int) -> int:
        """Step-scoped tags: a fast rank may race ahead into step t+1,
        so every point-to-point phase tags its traffic with the step."""
        return base + TAG_STRIDE * t

    # ------------------------------------------------------------------
    # layer chunking
    # ------------------------------------------------------------------
    def chunk_bounds(self, width: int) -> list[tuple[int, int]]:
        """Half-open ``(lo, hi)`` range of the panel a sender ships to
        each layer; the split gives the first ``width % c`` layers one
        extra element, so late layers of a narrow panel get ``lo == hi``."""
        if self.chunking == "replicate":
            return [(0, width)] * self.c
        edges = _split_edges(width, self.c)
        return list(zip(edges, edges[1:]))

    def my_chunk(self, width: int) -> tuple[int, int]:
        """The ``(lo, hi)`` range of the panel THIS rank's layer applies
        in the update (always the 1/c split, regardless of what was
        shipped — the replicate strategy over-fetches)."""
        edges = _split_edges(width, self.c)
        return edges[self.layer], edges[self.layer + 1]

    # ------------------------------------------------------------------
    # 1D owners: an owner's own layer chunk never becomes a message
    # ------------------------------------------------------------------
    def owners(self, ids: np.ndarray, by: str, lt: int) -> np.ndarray:
        """Active-grid rank owning each of ``ids`` in the 1D layout: one
        of the ranks of the step's coordinating layer ``lt`` needing it
        in the 2.5D layout, on grid row ``r % G`` (``by == "row"``),
        grid column ``(r // v) % G`` (``"col"``) or both (``"both"``:
        rows fetched both ways).  Ids are dealt cyclically over those
        ranks, in rank order, by their position among the ids they need."""
        g, v = self.g, self.v
        if by == "row":  # r is the (r // G)-th id of grid row r % G
            return self.rank_at[ids % g, (ids // g) % g, lt]
        if by == "col":  # whole tile rounds before r, then its tile offset
            k = (ids // (v * g)) * v + ids % v
            return self.rank_at[k % g, (ids // v) % g, lt]
        if by == "both":
            return self.rank_at[ids % g, (ids // v) % g, lt]
        raise ValueError(f"unknown owner coordinate {by!r}")

    def my_share(self, ids: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """The ``ids`` this rank owns, in their order."""
        return ids[owners == self.grid_rank]

    # ------------------------------------------------------------------
    # data layouts
    # ------------------------------------------------------------------
    def init_cyclic_layout(self) -> None:
        """COnfLUX/Cholesky layout: rows cyclic over grid rows, columns
        in v-wide tiles with tile b on grid column ``b mod G``."""
        n, g, v = self.n, self.g, self.v
        self.my_rows = np.arange(self.pi, n, g)
        col_blocks = np.arange(self.pj, (n + v - 1) // v, g)
        cols = [np.arange(b * v, min((b + 1) * v, n)) for b in col_blocks]
        self.my_cols = (
            np.concatenate(cols) if cols else np.array([], dtype=int)
        )
        # global -> local lookups (dense arrays; -1 = not mine)
        self.row_g2l = np.full(n, -1)
        self.row_g2l[self.my_rows] = np.arange(len(self.my_rows))
        self.col_g2l = np.full(n, -1)
        self.col_g2l[self.my_cols] = np.arange(len(self.my_cols))

    def init_block_cyclic_layout(self, panes_on_layers: bool) -> None:
        """QR layout: rows block-cyclic over the G grid rows with block
        v (each diagonal block owns its TSQR root), columns block-cyclic
        over the column slots.

        With ``panes_on_layers`` (CAQR) the slots are the G*c (column,
        layer) pairs, so every layer holds a disjoint pane and works
        every step — which forces full-width reflector fan-out to all
        G*c slots.  Without (COnfQR) they are the G columns of the
        *compute layer* (layer 0): the 2.5D memory-for-communication
        trade in its QR form.  The factorization runs on the largest 2D
        grid whose blocks fill the per-rank memory budget M = c N^2 / P,
        and the remaining layers act as a *reflector bank* — each
        holding the 1/c ``chunk_bounds`` range of every step's panel
        for the distributed explicit-Q assembly sweep.  Coordinate maps
        are shared by all layers; only layer 0 materializes matrix data.
        """
        n, g, v = self.n, self.g, self.v
        slots, slot = g, self.pj
        if panes_on_layers:
            slots, slot = g * self.c, self.layer * g + self.pj
        self.rowmap = BlockCyclic1D(n, g, v)
        self.colmap = BlockCyclic1D(n, slots, v)
        self.rows_by_grid_row = [
            self.rowmap.global_indices(i) for i in range(g)
        ]
        self.my_rows = self.rows_by_grid_row[self.pi]
        self.my_cols = self.colmap.global_indices(slot)
        self.col_g2l = np.full(n, -1)
        self.col_g2l[self.my_cols] = np.arange(len(self.my_cols))

    def local_block(self, a: np.ndarray, replicated: bool = False):
        """This rank's initial local block.

        Layer 0 holds the (pre-distributed) matrix; unless the layout is
        ``replicated`` (every layer holds its own pane, as in CAQR), the
        other layers start as zero partial-sum accumulators.
        """
        if replicated or self.layer == 0:
            return a[np.ix_(self.my_rows, self.my_cols)]
        return np.zeros((len(self.my_rows), len(self.my_cols)))

    def trailing_local_cols(self, t: int) -> slice:
        """Local columns belonging to tiles > t (cyclic layout): tiles
        sit in ``my_cols`` in ascending order, so always a suffix."""
        start = np.searchsorted(self.my_cols, (t + 1) * self.v)
        return slice(int(start), len(self.my_cols))

    # ------------------------------------------------------------------
    # reduction / broadcast plans
    # ------------------------------------------------------------------
    def reduce_to_layer(self, phase: str, contrib, lt: int):
        """Fiber-reduce partial sums to the coordinating layer; returns
        the true values on layer ``lt``, None elsewhere."""
        with self.comm.phase(phase):
            reduced = self.grid.fiber_comm.reduce(contrib, root=lt)
        return reduced if self.layer == lt else None

    def reduce_panel(
        self, ctx: StepContext, aloc: np.ndarray, my_rows: np.ndarray
    ):
        """Step 1 of every cyclic-layout member: fiber-reduce the true
        values of this rank's panel rows ``my_rows`` (global ids, any
        subset of the rows it owns) to the coordinating layer.  Returns
        them on layer ``ctx.lt`` of the panel's grid column, None on
        every other rank."""
        if self.pj != ctx.q:
            return None
        lo = self.col_g2l[ctx.k0]  # the panel is one tile: a column range
        contrib = aloc[self.row_g2l[my_rows], lo : lo + ctx.w]
        return self.reduce_to_layer("reduce_column", contrib, ctx.lt)

    def bcast_from(self, phase: str, payload, root_coords):
        """Broadcast from grid coordinates to all active ranks."""
        with self.comm.phase(phase):
            root = self.grid.rank_of(*root_coords)
            return self.grid.grid_comm.bcast(payload, root=root)

    def pane_bcast(self, phase: str, payload, qj: int, ql: int):
        """Fan a panel pane's payload out to the G*c - 1 sibling panes:
        along the grid row on the owning layer, then along fibers."""
        with self.comm.phase(phase):
            if self.layer == ql:
                payload = self.grid.row_comm.bcast(payload, root=qj)
            return self.grid.fiber_comm.bcast(payload, root=ql)

    # ------------------------------------------------------------------
    # the one exchange under every redistribution plan
    # ------------------------------------------------------------------
    def _exchange(self, phase, tag, outgoing, expected, what) -> list:
        """Send ``outgoing``'s ``(payload, dest)`` pairs, then receive
        one piece per ``(source, shape)`` of ``expected``, in order.

        Every payload not addressed to this rank leaves in one
        ``send_each`` under ``phase`` (``outgoing is None``: this rank
        sends nothing and enters no phase); the one addressed to itself
        is handed over in its ``expected`` position without a message,
        booked as the phase's self bytes.  The receives run outside the
        phase through one lazy ``recv_each``, and each piece's shape is
        checked as it arrives, so a piece that disagrees with the plan
        raises instead of broadcasting, with every later message left in
        the mailbox.
        """
        me, comm = self.grid_rank, self.grid.grid_comm
        mine = None
        if outgoing is not None:
            sends = []
            for payload, dest in outgoing:
                if dest == me:
                    mine = payload
                else:
                    sends.append((payload, dest))
            with self.comm.phase(phase):
                comm.send_each(sends, tag)
                if mine is not None:
                    comm.record_self(mine.nbytes)
        incoming = comm.recv_each(
            [src for src, _ in expected if src != me], tag
        )
        got = []
        for src, shape in expected:
            vals = mine if src == me else next(incoming)
            if getattr(vals, "shape", None) != shape:
                raise RuntimeError(
                    f"{what} piece {np.shape(vals)} from rank {src} "
                    f"does not match the plan's {shape}"
                )
            got.append(vals)
        return got

    # ------------------------------------------------------------------
    # 2.5D -> 1D scatters
    # ------------------------------------------------------------------
    def scatter_rows(
        self,
        phase: str,
        tag: int,
        row_pool: np.ndarray,
        owners: np.ndarray,
        holders: np.ndarray,
        values: np.ndarray | None,
        value_rows: np.ndarray | None,
        w: int,
    ) -> np.ndarray:
        """Holders of true panel rows send each 1D owner its rows;
        returns this rank's ``my_share(row_pool, owners)`` x ``w`` block.

        ``owners[k]`` and ``holders[k]`` are the grid ranks owning and
        holding the true values of ``row_pool[k]``, and ``values`` the
        true values of ``value_rows`` on a holder (None elsewhere).
        Wire messages carry *values only*: both sides derive the row
        ids from the shared ``owners`` and ``holders`` maps, so no index
        metadata inflates the measured volume — matching the paper's
        data-bytes accounting.
        """
        me = self.grid_rank
        # packing: one message per destination, rows in pool order
        outgoing = None
        if values is not None and value_rows is not None:
            index_of = np.full(self.n, -1)
            index_of[value_rows] = np.arange(len(value_rows))
            at = index_of[row_pool]  # row of ``values`` per pool row
            mine = np.flatnonzero((holders == me) & (at >= 0))
            order, groups = _group_by(owners[mine])
            packed = values[at[mine[order]]]
            outgoing = [(packed[lo:hi], dest) for dest, lo, hi in groups]
        # placement: my assigned rows grouped by source holder in pool
        # order, the exact order each holder packed them in
        order, groups = _group_by(holders[owners == me])
        got = self._exchange(
            phase, tag, outgoing,
            [(src, (hi - lo, w)) for src, lo, hi in groups], "row scatter",
        )
        out = np.zeros((len(order), w))
        if got:
            out[order] = np.concatenate(got)
        return out

    def scatter_pivot_cols(
        self,
        t: int,
        phase: str,
        tag: int,
        pivot_ids: np.ndarray,
        pivot_true: np.ndarray | None,
        my_pivot_rows: np.ndarray,
        my_trail_cols: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reduced pivot-row holders send column slices to the 1D-over-
        columns layout ``owners(cols, "col", t mod c)`` of the trailing
        columns ``cols``; returns those owners, for the fetch to reuse,
        and the assembled (w x my share) block in pivot order.

        Canonical packing (derived, never transmitted): rows in pivot
        order restricted to the sender's grid row; columns in trailing-
        pool order restricted to (destination 1D share) x (sender's grid
        column tiles).
        """
        g, v, lt = self.g, self.v, t % self.c
        all_trailing = np.arange((t + 1) * v, self.n)
        owners = self.owners(all_trailing, "col", lt)
        # packing: on layer lt with pivot rows and trailing cols.
        # pivot_true's rows are my_pivot_rows in pivot order, so one
        # column gather grouped by destination packs every message.
        outgoing = None
        if pivot_true is not None and len(my_pivot_rows):
            mine = np.flatnonzero((all_trailing // v) % g == self.pj)
            order, groups = _group_by(owners[mine])
            packed = pivot_true[
                :, np.searchsorted(my_trail_cols, all_trailing[mine[order]])
            ]
            outgoing = [(packed[:, lo:hi], dest) for dest, lo, hi in groups]
        # placement: my columns all sit in my grid column's tiles, so one
        # piece comes from my grid column's rank in each grid row holding
        # a pivot row; stacked in grid-row order they are ``out``'s rows
        width = int(np.count_nonzero(owners == self.grid_rank))
        row_order, row_groups = _group_by(pivot_ids % g)
        rank_at = self.rank_at[:, self.pj, lt].tolist()
        got = self._exchange(
            phase, tag, outgoing,
            [(rank_at[i], (hi - lo, width)) for i, lo, hi in row_groups]
            if width else [],
            "pivot column",
        )
        out = np.zeros((len(pivot_ids), width))
        if got:
            out[row_order] = np.concatenate(got)
        return owners, out

    # ------------------------------------------------------------------
    # 1D -> 2.5D panel fetches
    # ------------------------------------------------------------------
    def fetch_rows_piece(
        self,
        phase: str,
        tag: int,
        pool: np.ndarray,
        owners: np.ndarray,
        my_ids: np.ndarray,
        vals_1d: np.ndarray,
        width: int,
        by: str,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Redistribute a ``width``-wide row panel from the 1D layout to
        the 2.5D layout: row r is needed on grid row ``r % G`` (``by ==
        "row"``) or on grid column ``(r // v) % G``, the cyclic layout's
        tile of column r (``by == "col"``), and destination (i, j, l)
        receives its rows x its layer's chunk, grid rows outermost in
        the send order.  ``vals_1d`` holds the rows of ``my_ids``, this
        rank's ``my_share(pool, owners)``.  Values-only messages; ids
        derived from ``owners``."""
        return self._fetch_piece(
            0, phase, tag, pool, owners, my_ids, vals_1d, width, by
        )

    def fetch_cols_piece(
        self,
        phase: str,
        tag: int,
        pool: np.ndarray,
        owners: np.ndarray,
        my_ids: np.ndarray,
        vals_1d: np.ndarray,
        width: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Column analogue of :meth:`fetch_rows_piece`: every rank needs
        its layer's chunk x (trailing cols in its tiles), grid columns
        outermost in the send order.  Values-only messages."""
        return self._fetch_piece(
            1, phase, tag, pool, owners, my_ids, vals_1d, width, "col"
        )

    def _fetch_piece(
        self, axis, phase, tag, pool, owners, my_ids, vals_1d, width, by
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both fetches: ids run along ``axis`` of ``vals_1d`` and of the
        returned piece, the layer chunks along the other axis.  The send
        order is part of the wire: the grid coordinate matching ``axis``
        is outermost, the layer innermost.  The sender gathers once per
        needing coordinate."""
        if by not in ("row", "col"):
            raise ValueError(f"unknown fetch coordinate {by!r}")
        g, v = self.g, self.v

        def need(ids):  # the grid row / column whose ranks need each id
            return ids % g if by == "row" else (ids // v) % g

        bounds = self.chunk_bounds(width)
        # packing: per needing coordinate, its layer slices of one gather
        outgoing = None
        if len(my_ids):
            order, groups = _group_by(need(my_ids))
            slices = {}
            for k, lo, hi in groups:
                block = vals_1d.take(order[lo:hi], axis=axis)
                slices[k] = [
                    (lyr, block[a:b] if axis else block[:, a:b])
                    for lyr, (a, b) in enumerate(bounds)
                    if a < b
                ]
            rank_at = self.rank_at.tolist()
            outgoing = []
            for a in range(g):
                for b in range(g):
                    i, j = (b, a) if axis else (a, b)
                    for lyr, vals in slices.get(j if by == "col" else i, ()):
                        outgoing.append((vals, rank_at[i][j][lyr]))
        # placement: my ids grouped by their 1D owner, in the owner's
        # packing order (pool order filtered to this rank's needs)
        need_pos = np.flatnonzero(
            need(pool) == (self.pj if by == "col" else self.pi)
        )
        lo, hi = bounds[self.layer]
        cw = hi - lo
        order, groups = _group_by(owners[need_pos])
        got = self._exchange(
            phase, tag, outgoing,
            [
                (src, (cw, b - a) if axis else (b - a, cw))
                for src, a, b in (groups if cw else ())
            ],
            ("row", "column")[axis] + " panel",
        )
        my_need = pool[need_pos]
        if not got:
            return np.zeros((cw, 0) if axis else (0, cw)), my_need
        # the pieces stack my ids in owner order: undo it in one take
        out = np.concatenate(got, axis=axis)
        return out.take(np.argsort(order), axis=axis), my_need

    # ------------------------------------------------------------------
    # TSQR tree plans (block-cyclic layout)
    # ------------------------------------------------------------------
    def tsqr_geometry(self, k0: int):
        """Where the panel starting at column ``k0`` lives: ``(rt, slot,
        counts, act_loc)`` — the grid row owning the diagonal block (the
        tree root), the column slot owning the panel, every grid row's
        number of active (>= k0) rows, and this rank's active local row
        indices in ascending global order — a ``range``, always a suffix
        of the local rows, so its rows are the slice ``[act_loc.start:]``
        of the local block."""
        counts = [
            len(rows) - int(np.searchsorted(rows, k0))
            for rows in self.rows_by_grid_row
        ]
        start = int(np.searchsorted(self.my_rows, k0))
        return (
            self.rowmap.owner(k0),
            self.colmap.owner(k0),
            counts,
            range(start, len(self.my_rows)),
        )

    def tsqr_merge(self, t: int, rt: int, plan, panel: np.ndarray | None):
        """Steps 1-2 of a TSQR panel, under phase ``tsqr_tree``.

        Local Householder QR of ``panel`` — this rank's active panel
        rows, ``None`` on a rank off the panel's pane, which does
        nothing — then the R factors merged up the binary tree ``plan``
        along ``col_comm`` (root = grid row ``rt``).  Returns ``(leaf,
        nodes, r_mine)``: the leaf reflectors ``(V, tau)`` or ``None``,
        the merge reflectors this rank computed keyed by plan order, and
        the R it still holds — the panel's final R on the root, ``None``
        on a rank that sent its R up.
        """
        leaf, r_mine = None, None
        nodes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if panel is None:
            return leaf, nodes, r_mine
        g, col_comm = self.g, self.grid.col_comm
        if len(panel):
            lv, ltau, r_mine = householder_qr(panel)
            leaf = (lv, ltau)
        tag = self.tag(_TAG_TREE_R, t)
        with self.comm.phase("tsqr_tree"):
            for order, step in enumerate(plan):
                a_row = (rt + step.a) % g
                b_row = (rt + step.b) % g
                if self.pi == b_row:
                    col_comm.send(r_mine, a_row, tag)
                    r_mine = None
                elif self.pi == a_row:
                    theirs = col_comm.recv(b_row, tag)
                    nv, ntau, r_mine = householder_qr(
                        np.vstack([r_mine, theirs])
                    )
                    nodes[order] = (nv, ntau)
        return leaf, nodes, r_mine

    def tsqr_replay(
        self, t: int, rt: int, plan, nodes, block: np.ndarray, apply,
        reverse: bool = False,
    ) -> None:
        """Replay the merge tree of :meth:`tsqr_merge` on ``block``, in
        place: pairwise exchanges of top rows along ``col_comm``, never
        a panel gather.

        ``block``'s rows are this rank's active rows; ``nodes`` holds
        the merge reflectors of the plan steps this rank merged.
        Forwards with ``apply = apply_qt`` it applies the tree's Q^T
        (after the caller's leaf Q^T), with ``reverse`` and ``apply =
        apply_q`` its Q (before the caller's leaf Q) — the one tree of
        Demmel et al. (arXiv:0808.2664).  The caller names the phase.
        """
        g, col_comm = self.g, self.grid.col_comm
        tag_top = self.tag(_TAG_TREE_TOP, t)
        tag_back = self.tag(_TAG_TREE_TOP_BACK, t)
        steps = list(enumerate(plan))
        for order, step in reversed(steps) if reverse else steps:
            a_row = (rt + step.a) % g
            b_row = (rt + step.b) % g
            if self.pi == b_row:
                col_comm.send(block[: step.r_b], a_row, tag_top)
                block[: step.r_b] = col_comm.recv(a_row, tag_back)
            elif self.pi == a_row:
                nv, ntau = nodes[order]
                theirs = col_comm.recv(b_row, tag_top)
                out = apply(
                    nv, ntau, np.vstack([block[: step.r_a], theirs])
                )
                block[: step.r_a] = out[: step.r_a]
                col_comm.send(out[step.r_a :], b_row, tag_back)


def _split_edges(width: int, c: int) -> list[int]:
    """Edges of the 1/c split of ``width``: part k is ``[edges[k],
    edges[k + 1])`` and the first ``width % c`` parts are one longer."""
    size, extra = divmod(width, c)
    return [k * size + min(k, extra) for k in range(c + 1)]


def _group_by(keys: np.ndarray):
    """Stable grouping of positions by non-negative integer key:
    ``order[lo:hi]`` are the positions holding ``key``, in their
    original order, for each ``(key, lo, hi)`` in ascending key order."""
    order = keys.argsort(kind="stable")
    groups, lo = [], 0
    for key, count in enumerate(np.bincount(keys).tolist()):
        if count:
            groups.append((key, lo, lo + count))
            lo += count
    return order, groups


class Rank25D(Schedule25D):
    """Template rank program: this rank's :class:`Schedule25D` + one hook.

    Subclasses set :attr:`chunking`, build their local state in
    :meth:`setup`, and implement :meth:`step` (factor step ``ctx``'s
    panel and apply it to the trailing matrix), calling the schedule's
    plans on themselves.  ``run`` drives the shared step loop.
    """

    chunking = "split"

    def __init__(self, comm, a: np.ndarray, g: int, c: int, v: int):
        super().__init__(comm, a.shape[0], g, c, v, chunking=self.chunking)
        if self.active:
            self.setup(a)

    # -- subclass surface ----------------------------------------------
    def setup(self, a: np.ndarray) -> None:
        """Build layout-dependent local state (called on active ranks)."""
        raise NotImplementedError

    def step(self, ctx: StepContext) -> None:
        """Factor step ``ctx``'s panel and apply it to the trailing
        matrix."""
        raise NotImplementedError

    def step_flops(self, ctx: StepContext) -> float:
        """This rank's arithmetic for step ``ctx`` (timing model only).

        The default charges an even 1/(G·G·c) share of the step's
        trailing update — the rank-``w`` GEMM on the (N - k1)-square
        trailing matrix, 2·(N-k1)²·w flops total — which is the
        dominant term for every LU/Cholesky-shaped member.  Subclasses
        with a different update (CAQR's two-sided reflector apply)
        override this.  Feeds :meth:`Comm.compute`, a no-op unless the
        run was given a machine spec.
        """
        trailing = max(self.n - ctx.k1, 0)
        return 2.0 * trailing * trailing * ctx.w / self.p_active

    def epilogue(self) -> None:
        """Distributed work after the last step (COnfQR's explicit-Q
        sweep); most members have none."""

    def finalize(self) -> dict:
        """Per-rank result payload for host-side assembly."""
        return {"active": True}

    # -- template ------------------------------------------------------
    def run(self) -> dict:
        if not self.active:
            return {"active": False}
        for t in range(self.steps):
            ctx = self.step_context(t)
            self.step(ctx)
            self.comm.compute(self.step_flops(ctx))
        self.epilogue()
        return self.finalize()

    @classmethod
    def main(cls, comm, a: np.ndarray, g: int, c: int, v: int) -> dict:
        """The rank function ``run_spmd`` starts on every rank."""
        return cls(comm, a, g, c, v).run()
