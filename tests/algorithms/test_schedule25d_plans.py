"""Schedule25D's owner map and four redistribution plans against an
element-wise oracle.

The plans (``scatter_rows``, ``scatter_pivot_cols``, ``fetch_rows_piece``,
``fetch_cols_piece``) derive their packing and placement as index
arithmetic over one exchange, and ``owners`` deals every id with integer
arithmetic.  ``_LoopPlans`` below is the per-destination-mask,
per-element-loop formulation they replaced, with the owner rule stated
id by id (``_oracle_owners``), kept here as the reference: on every grid
point both must leave every rank
with the same arrays *and* the same send/receive sequence — the
simulated clock and the fault stream hash on per-rank message order, so
order is part of the contract, not an implementation detail.  The
oracle keeps the two-call scatter (``scatter_rows`` then
``assemble_rows``), index-array layer chunks and the mask form
``need(ids, i, j)`` of a fetch; the plans return the assembled block,
take ``(lo, hi)`` chunk ranges and name a fetch's coordinate by ``by``
alone.  The tap compares the plans' plural ``send_each`` /
``recv_each`` traffic with the oracle's singular calls piece by piece.

The committed ledger/clock pins reach g = 4, c = 3 and ragged last
panels; the grid here adds c = 4,
narrower-than-c last panels (empty layer chunks), inactive ranks,
full-width replication and row pools with holes (row masking).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.algorithms.schedule25d import Schedule25D
from repro.smpi import run_spmd
from repro.smpi.runtime import UndeliveredMessages
from tests.algorithms.ledger_pins import PINNED_POINTS


# ----------------------------------------------------------------------
# the oracle: the element-wise loops, verbatim in behaviour
# ----------------------------------------------------------------------
def _index_chunks(s: Schedule25D, width: int) -> list[np.ndarray]:
    """The oracle's layer chunks: per-layer index arrays."""
    return [np.arange(lo, hi) for lo, hi in s.chunk_bounds(width)]


def _needs(r: int, i: int, j: int, g: int, v: int, by: str) -> bool:
    """Whether grid cell (i, j) needs id ``r`` in every coordinate ``by``
    names: rows on grid row ``r % g``, tiles on grid column
    ``(r // v) % g``."""
    row, col = r % g == i, (r // v) % g == j
    return {"row": row, "col": col, "both": row and col}[by]


@functools.lru_cache(maxsize=None)
def _oracle_owner_table(n: int, g: int, c: int, v: int, by: str, lt: int):
    """The owner rule, id by id: id r goes to one of the ranks on the
    step's coordinating layer ``lt`` that need it, listed in row-major
    grid rank order ``(i * g + j) * c + l``, dealt cyclically by its
    position among the ids those same ranks need."""
    ranks = [
        (i, j, layer)
        for i in range(g) for j in range(g) for layer in range(c)
    ]
    dealt: dict[tuple[int, ...], int] = {}
    table = []
    for r in range(n):
        needers = tuple(
            rank for rank, (i, j, layer) in enumerate(ranks)
            if layer == lt and _needs(r, i, j, g, v, by)
        )
        position = dealt.get(needers, 0)
        dealt[needers] = position + 1
        table.append(needers[position % len(needers)])
    return np.array(table)


def _oracle_owners(
    s: Schedule25D, ids: np.ndarray, by: str, lt: int
) -> np.ndarray:
    return _oracle_owner_table(s.n, s.g, s.c, s.v, by, lt)[ids]


def _need_mask(s: Schedule25D, by: str):
    """The oracle's mask form of a fetch coordinate: which of ``ids``
    grid cell (i, j) needs."""
    if by == "row":
        return lambda ids, i, j: ids % s.g == i
    return lambda ids, i, j: (ids // s.v) % s.g == j


class _LoopPlans:
    """Reference plans: one mask per destination, one element per
    assignment.  Same wire as :class:`Schedule25D`, by construction of
    the original port (pinned by ``test_ledger_regression``)."""

    def __init__(self, sched: Schedule25D) -> None:
        self.s = sched

    def owners(self, ids, by, lt):
        return _oracle_owners(self.s, ids, by, lt)

    def scatter_rows(
        self, phase, tag, row_pool, owners, holders, values, value_rows
    ):
        s = self.s
        comm, gd, me = s.comm, s.grid, s.grid_rank
        holder = {int(r): int(h) for r, h in zip(row_pool, holders)}
        received = {}
        if values is not None and value_rows is not None:
            lookup = {int(r): i for i, r in enumerate(value_rows)}
            by_dest: dict[int, list[int]] = {}
            for pos, r in enumerate(row_pool):
                if int(r) in lookup and holder[int(r)] == me:
                    by_dest.setdefault(int(owners[pos]), []).append(int(r))
            with comm.phase(phase):
                for dest, rows in sorted(by_dest.items()):
                    vals = values[[lookup[r] for r in rows], :]
                    if dest == me:
                        received[me] = (np.array(rows), vals)
                    else:
                        gd.grid_comm.send(vals, dest, tag)
        by_src: dict[int, list[int]] = {}
        for r in row_pool[owners == me]:
            by_src.setdefault(holder[int(r)], []).append(int(r))
        for src in sorted(by_src):
            if src == me:
                continue
            vals = gd.grid_comm.recv(src, tag)
            received[src] = (np.array(by_src[src]), vals)
        return received

    def assemble_rows(self, received, wanted_rows, w):
        out = np.zeros((len(wanted_rows), w))
        pos = {int(r): i for i, r in enumerate(wanted_rows)}
        filled = 0
        for ids, vals in received.values():
            for i, r in enumerate(ids):
                out[pos[int(r)], :] = vals[i, :]
                filled += 1
        assert filled == len(wanted_rows)
        return out

    def scatter_pivot_cols(
        self, t, phase, tag, pivot_ids, pivot_true,
        my_pivot_rows, my_trail_cols,
    ):
        s = self.s
        comm, gd, me = s.comm, s.grid, s.grid_rank
        g, v = s.g, s.v
        lt = t % s.c
        all_trailing = np.arange((t + 1) * v, s.n)
        owners = _oracle_owners(s, all_trailing, "col", lt)
        my_assigned_cols = all_trailing[owners == me]
        tile_col = (all_trailing // v) % g
        out = np.zeros((len(pivot_ids), len(my_assigned_cols)))
        self_piece = None
        if pivot_true is not None and len(my_pivot_rows):
            with comm.phase(phase):
                for dest in range(s.p_active):
                    sel = (tile_col == s.pj) & (owners == dest)
                    if not sel.any():
                        continue
                    cols = all_trailing[sel]
                    vals = pivot_true[
                        :, np.searchsorted(my_trail_cols, cols)
                    ]
                    if dest == me:
                        self_piece = (cols, vals)
                    else:
                        gd.grid_comm.send(vals, dest, tag)
        if len(my_assigned_cols) == 0:
            return owners, out
        col_pos = {int(cc): i for i, cc in enumerate(my_assigned_cols)}
        pivot_order_pos = {int(r): i for i, r in enumerate(pivot_ids)}
        rows_by_gridrow: dict[int, list[int]] = {}
        for r in pivot_ids:
            rows_by_gridrow.setdefault(int(r) % g, []).append(int(r))
        my_tiles = (my_assigned_cols // v) % g
        for pj in range(g):
            cols_from = my_assigned_cols[my_tiles == pj]
            if len(cols_from) == 0:
                continue
            for i, rows in sorted(rows_by_gridrow.items()):
                src = gd.rank_of(i, pj, lt)
                if src == me:
                    cols, vals = self_piece
                else:
                    vals = gd.grid_comm.recv(src, tag)
                    cols = cols_from
                for ri, r in enumerate(rows):
                    for ci, cc in enumerate(cols):
                        out[pivot_order_pos[r], col_pos[int(cc)]] = vals[
                            ri, ci
                        ]
        return owners, out

    def fetch_rows_piece(
        self, phase, tag, pool, owners, my_1d_rows, vals_1d, width, by
    ):
        s = self.s
        comm, gd, me = s.comm, s.grid, s.grid_rank
        sender_chunks = _index_chunks(s, width)
        chunk, need = sender_chunks[s.layer], _need_mask(s, by)
        self_piece = None
        with comm.phase(phase):
            if len(my_1d_rows):
                for i in range(s.g):
                    for j in range(s.g):
                        dest_rows = my_1d_rows[need(my_1d_rows, i, j)]
                        if len(dest_rows) == 0:
                            continue
                        mask = np.isin(my_1d_rows, dest_rows)
                        for lyr in range(s.c):
                            lchunk = sender_chunks[lyr]
                            if len(lchunk) == 0:
                                continue
                            dest = gd.rank_of(i, j, lyr)
                            vals = vals_1d[np.ix_(mask, lchunk)]
                            if dest == me:
                                self_piece = vals
                            else:
                                gd.grid_comm.send(vals, dest, tag)
        my_need = pool[need(pool, s.pi, s.pj)]
        if len(my_need) == 0 or len(chunk) == 0:
            return np.zeros((0, len(chunk))), my_need
        out = np.zeros((len(my_need), len(chunk)))
        pos = {int(r): i for i, r in enumerate(my_need)}
        got = 0
        for src in range(s.p_active):
            src_rows = pool[owners == src]
            src_rows = src_rows[need(src_rows, s.pi, s.pj)]
            if len(src_rows) == 0:
                continue
            if src == me:
                vals = self_piece
            else:
                vals = gd.grid_comm.recv(src, tag)
            for i, r in enumerate(src_rows):
                out[pos[int(r)], :] = vals[i, :]
                got += 1
        assert got == len(my_need)
        return out, my_need

    def fetch_cols_piece(
        self, phase, tag, pool, owners, my_1d_cols, vals_1d, width
    ):
        s = self.s
        comm, gd, me = s.comm, s.grid, s.grid_rank
        g, v = s.g, s.v
        sender_chunks = _index_chunks(s, width)
        chunk = sender_chunks[s.layer]
        self_piece = None
        with comm.phase(phase):
            if len(my_1d_cols):
                for j in range(g):
                    mask = ((my_1d_cols // v) % g) == j
                    if not mask.any():
                        continue
                    for i in range(g):
                        for lyr in range(s.c):
                            lchunk = sender_chunks[lyr]
                            if len(lchunk) == 0:
                                continue
                            dest = gd.rank_of(i, j, lyr)
                            vals = vals_1d[np.ix_(lchunk, mask)]
                            if dest == me:
                                self_piece = vals
                            else:
                                gd.grid_comm.send(vals, dest, tag)
        my_need = pool[((pool // v) % g) == s.pj]
        if len(my_need) == 0 or len(chunk) == 0:
            return np.zeros((len(chunk), 0)), my_need
        out = np.zeros((len(chunk), len(my_need)))
        pos = {int(cc): i for i, cc in enumerate(my_need)}
        got = 0
        for src in range(s.p_active):
            src_cols = pool[owners == src]
            src_cols = src_cols[((src_cols // v) % g) == s.pj]
            if len(src_cols) == 0:
                continue
            if src == me:
                vals = self_piece
            else:
                vals = gd.grid_comm.recv(src, tag)
            for i, cc in enumerate(src_cols):
                out[:, pos[int(cc)]] = vals[:, i]
                got += 1
        assert got == len(my_need)
        return out, my_need


# ----------------------------------------------------------------------
# the driver: a COnfLUX-shaped step loop over synthetic values
# ----------------------------------------------------------------------
class _Tap:
    """Records what crosses ``grid_comm`` point to point, piece by
    piece, whether it goes singly or through the plural forms."""

    def __init__(self, comm) -> None:
        self._comm = comm
        self.sends: list[tuple] = []
        self.recvs: list[tuple] = []

    def send(self, data, dest, tag=0):
        self.sends.append((dest, tag, data.shape))
        self._comm.send(data, dest, tag)

    def send_each(self, pieces, tag=0):
        self.sends += [(dest, tag, data.shape) for data, dest in pieces]
        self._comm.send_each(pieces, tag)

    def recv(self, source, tag):
        self.recvs.append((source, tag))
        return self.cut(self._comm.recv(source, tag))

    def recv_each(self, sources, tag):
        sources = list(sources)
        for source, vals in zip(sources, self._comm.recv_each(sources, tag)):
            self.recvs.append((source, tag))
            yield self.cut(vals)

    def cut(self, vals):
        """What the plan is handed for a received piece ``vals``."""
        return vals

    def __getattr__(self, name):
        return getattr(self._comm, name)


def _val(rows, cols):
    """The 'true value' of matrix element (row, col)."""
    return rows[:, None] * 1000.0 + cols[None, :]


def _drive(comm, n, g, c, v, chunking, reference):
    """Run every step's plans the way COnfLUX and the 2.5D Cholesky call
    them; returns this rank's outputs, wire log and whether the schedule
    object kept its keys."""
    sched = Schedule25D(comm, n, g, c, v, chunking=chunking)
    if not sched.active:
        return None
    sched.init_cyclic_layout()
    tap = _Tap(sched.grid.grid_comm)
    sched.grid.grid_comm = tap
    plans = _LoopPlans(sched) if reference else sched

    keys = set(vars(sched))
    me, pi, pj = sched.grid_rank, sched.pi, sched.pj
    rng = np.random.default_rng(7)  # the same pivot choice on every rank
    pivoted = np.zeros(n, dtype=bool)
    outs = []

    def scatter(t, base, pool, owners, holds, my_active):
        ctx = sched.step_context(t)
        args = (
            "scatter_rows", sched.tag(base, t), pool, owners,
            sched.rank_at[pool % g, ctx.q, ctx.lt],
            _val(my_active, ctx.panel_cols) if holds else None,
            my_active if holds else None,
        )
        rows = pool[owners == me]
        if reference:
            received = plans.scatter_rows(*args)
            c_rows = plans.assemble_rows(received, rows, ctx.w)
        else:
            c_rows = plans.scatter_rows(*args, ctx.w)
        assert np.array_equal(c_rows, _val(rows, ctx.panel_cols))
        return c_rows

    for t in range(sched.steps):
        ctx = sched.step_context(t)
        q, lt, w = ctx.q, ctx.lt, ctx.w
        active = np.flatnonzero(~pivoted)
        pivot_ids = rng.choice(active, size=w, replace=False)
        pivoted[pivot_ids] = True
        pool = np.flatnonzero(~pivoted)  # holes: row masking

        on_panel = pj == q and sched.layer == lt
        my_active = active[active % g == pi]
        row_owners = plans.owners(pool, "row", lt)
        c_rows = scatter(t, 1, pool, row_owners, on_panel, my_active)

        trail_cols = sched.my_cols[sched.trailing_local_cols(t)]
        my_pivots = pivot_ids[pivot_ids % g == pi]
        holds = sched.layer == lt and len(my_pivots) and len(trail_cols)
        all_trailing = np.arange((t + 1) * v, n)
        col_owners, a01 = plans.scatter_pivot_cols(
            t, "scatter_cols", sched.tag(2, t), pivot_ids,
            _val(my_pivots, trail_cols) if holds else None,
            my_pivots, trail_cols,
        )
        assert np.array_equal(
            col_owners, _oracle_owners(sched, all_trailing, "col", lt)
        )
        cols_1d = all_trailing[col_owners == me]
        assert np.array_equal(a01, _val(pivot_ids, cols_1d))

        lo, hi = sched.chunk_bounds(w)[sched.layer]
        shipped = ctx.panel_cols[lo:hi]
        by_row = plans.fetch_rows_piece(
            "fetch_rows", sched.tag(3, t), pool, row_owners,
            pool[row_owners == me], c_rows, w, "row",
        )
        by_col = plans.fetch_cols_piece(
            "fetch_cols", sched.tag(4, t), all_trailing, col_owners,
            cols_1d, a01, w,
        )
        # the Cholesky panel: rows owned where both fetches need them
        below = np.arange(ctx.k1, n)
        both = plans.owners(below, "both", lt)
        l21 = scatter(t, 5, below, both, on_panel, sched.my_rows)
        chol_rows, chol_tiles = (
            plans.fetch_rows_piece(
                phase, sched.tag(base, t), below, both,
                below[both == me], l21, w, by,
            )
            for phase, base, by in (("chol_rows", 6, "row"),
                                    ("chol_tiles", 7, "col"))
        )
        for piece, ids in (by_row, chol_rows, chol_tiles):
            if piece.size:
                assert np.array_equal(piece, _val(ids, shipped))
        if by_col[0].size:
            # values are (pivot row, column): chunk entries pick pivots
            assert np.array_equal(
                by_col[0], _val(pivot_ids[lo:hi], by_col[1])
            )
        outs.append((c_rows, a01, by_row, by_col, l21, chol_rows, chol_tiles))
    return outs, tap.sends, tap.recvs, set(vars(sched)) == keys


def _same(a, b) -> bool:
    """Deep equality over the nested tuples/dicts/arrays ``_drive``
    returns; arrays must agree in shape and value."""
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


#: (n, g, c, v, chunking, nranks)
GRID = [
    (150, 4, 4, 12, "split", 64),  # the benchmark's own (4, 4, 4) grid
    (37, 3, 3, 5, "split", 27),  # n % v = 2: last panel w < c
    (30, 4, 1, 3, "split", 18),  # inactive ranks
    (31, 2, 2, 4, "split", 8),  # n % v = 3
    (26, 3, 4, 6, "replicate", 40),  # full-width chunks, inactive ranks
    (21, 1, 3, 4, "split", 3),  # one grid cell, w = 1 < c at the end
    (22, 3, 1, 4, "replicate", 9),
    (20, 1, 1, 4, "split", 1),
]


@pytest.mark.parametrize("n,g,c,v,chunking,nranks", GRID)
def test_plans_match_the_elementwise_oracle(n, g, c, v, chunking, nranks):
    new, _ = run_spmd(nranks, _drive, n, g, c, v, chunking, False)
    ref, _ = run_spmd(nranks, _drive, n, g, c, v, chunking, True)
    assert sum(r is not None for r in new) == g * g * c
    for rank, (got, want) in enumerate(zip(new, ref)):
        if want is None:
            assert got is None
            continue
        outs, sends, recvs, keys_kept = got
        ref_outs, ref_sends, ref_recvs, _ = want
        assert sends == ref_sends, f"rank {rank}: send order"
        assert recvs == ref_recvs, f"rank {rank}: receive order"
        assert keys_kept, f"rank {rank}: plan state left on the schedule"
        for t, (step, ref_step) in enumerate(zip(outs, ref_outs)):
            assert _same(step, ref_step), f"rank {rank} step {t}"


def test_chunk_bounds_are_the_array_split():
    sched = Schedule25D.__new__(Schedule25D)
    for c in (1, 3, 4):
        for width in range(0, 11):
            sched.c, sched.chunking = c, "split"
            split = np.array_split(np.arange(width), c)
            assert [
                (int(ch[0]), int(ch[-1]) + 1) if len(ch) else None
                for ch in split
            ] == [
                (lo, hi) if lo < hi else None
                for lo, hi in sched.chunk_bounds(width)
            ]
            sched.chunking = "replicate"
            assert sched.chunk_bounds(width) == [(0, width)] * c
            for layer in range(c):  # the applied slice never replicates
                sched.layer = layer
                lo, hi = sched.my_chunk(width)
                assert _same(np.arange(lo, hi), split[layer])


# ----------------------------------------------------------------------
# a piece that disagrees with the plan raises; nothing stays behind
# ----------------------------------------------------------------------
class _ShortTap(_Tap):
    """Delivers only the first row/column of every received piece — a
    shape NumPy would happily broadcast into a wider slot."""

    def __init__(self, comm, axis) -> None:
        super().__init__(comm)
        self.axis = axis

    def cut(self, vals):
        return vals[:1] if self.axis == 0 else vals[:, :1]


def _drive_short_piece(comm, plan, seen):
    n, g, c, v = 32, 2, 2, 4
    sched = Schedule25D(comm, n, g, c, v)
    sched.init_cyclic_layout()
    me = sched.grid_rank
    if me == 0:
        axis = 0 if plan in ("rows", "scatter_rows") else 1
        sched.grid.grid_comm = _ShortTap(sched.grid.grid_comm, axis)
    keys = set(vars(sched))
    pool = np.arange(n)
    cols = np.arange(v)
    error = None
    try:
        # owned on layer 1, the fetches bring rank 0 two pieces each
        if plan == "rows":
            owners = sched.owners(pool, "row", 1)
            mine = sched.my_share(pool, owners)
            sched.fetch_rows_piece(
                "p", 1, pool, owners, mine, _val(mine, cols), v, "row"
            )
        elif plan == "cols":
            owners = sched.owners(pool, "col", 1)
            mine = sched.my_share(pool, owners)
            sched.fetch_cols_piece(
                "p", 1, pool, owners, mine, _val(cols, mine), v
            )
        elif plan == "scatter_rows":
            holds = sched.pj == 1 and sched.layer == 0
            my_rows = pool[pool % g == sched.pi]
            sched.scatter_rows(
                "p", 1, pool, sched.owners(pool, "row", 0),
                sched.rank_at[pool % g, 1, 0],
                _val(my_rows, cols) if holds else None,
                my_rows if holds else None, v,
            )
        else:
            pivot_ids = np.array([5, 2, 7, 4])
            my_pivots = pivot_ids[pivot_ids % g == sched.pi]
            trail = sched.my_cols[sched.trailing_local_cols(0)]
            sched.scatter_pivot_cols(
                0, "p", 1, pivot_ids,
                _val(my_pivots, trail) if sched.layer == 0 else None,
                my_pivots, trail,
            )
    except RuntimeError as exc:
        error = str(exc)
    seen[comm.rank] = error, set(vars(sched)) == keys


@pytest.mark.parametrize(
    "plan", ["rows", "cols", "scatter_rows", "scatter_pivot_cols"]
)
def test_a_piece_of_the_wrong_shape_raises(plan):
    seen: dict = {}
    if plan in ("rows", "cols"):
        # Rank 0 stops receiving at the bad piece, the first of the two
        # a fetch brings it, so the other is never taken, and the run
        # says so.  Each scatter brings rank 0 one.
        with pytest.raises(UndeliveredMessages, match="rank 0: "):
            run_spmd(8, _drive_short_piece, plan, seen)
    else:
        run_spmd(8, _drive_short_piece, plan, seen)
    results = [seen[rank] for rank in range(8)]
    error, keys_kept = results[0]
    assert error is not None and "does not match the plan" in error
    assert keys_kept, "a plan that raised mid-receive left state behind"
    for error, keys_kept in results[1:]:
        assert error is None and keys_kept


# ----------------------------------------------------------------------
# the cyclic layout's ranges: what the slice accesses rest on
# ----------------------------------------------------------------------
def _drive_ranges(comm, n, g, c, v):
    """On every step: the trailing columns are the suffix
    ``trailing_local_cols`` names, the panel one run of local columns,
    the rows below the panel a suffix of ``my_rows`` — and the Schur
    update through them leaves ``aloc`` bit-equal to the ``np.ix_``
    form, on a row pool with holes."""
    sched = Schedule25D(comm, n, g, c, v)
    if not sched.active:
        return 0
    sched.init_cyclic_layout()
    rng = np.random.default_rng(11)  # the same pool on every rank
    aloc = np.random.default_rng(sched.grid_rank).standard_normal(
        (len(sched.my_rows), len(sched.my_cols))
    )
    for t in range(sched.steps):
        ctx = sched.step_context(t)
        trail = sched.trailing_local_cols(t)
        local = np.arange(trail.start, trail.stop)
        assert trail.stop == len(sched.my_cols)
        assert np.array_equal(
            local, np.where(sched.my_cols >= (t + 1) * v)[0]
        )
        all_trailing = np.arange((t + 1) * v, n)
        mine = all_trailing[(all_trailing // v) % g == sched.pj]
        assert np.array_equal(sched.col_g2l[mine], local)
        if sched.pj == ctx.q:
            lo = sched.col_g2l[ctx.k0]
            assert np.array_equal(
                sched.col_g2l[ctx.panel_cols], np.arange(lo, lo + ctx.w)
            )
        below = np.arange(ctx.k1, n)
        r0 = np.searchsorted(sched.my_rows, ctx.k1)
        assert np.array_equal(
            sched.row_g2l[below[below % g == sched.pi]],
            np.arange(r0, len(sched.my_rows)),
        )

        pool = np.flatnonzero(rng.random(n) < 0.6)  # holes: row masking
        rloc = sched.row_g2l[pool[pool % g == sched.pi]]
        update = rng.standard_normal((len(rloc), len(local)))
        want = aloc.copy()
        want[np.ix_(rloc, sched.col_g2l[mine])] -= update
        gathered = aloc[rloc, trail]
        assert gathered.flags["C_CONTIGUOUS"]  # it travels as a payload
        assert np.array_equal(gathered, aloc[np.ix_(rloc, local)])
        aloc[rloc, trail] -= update
        assert np.array_equal(aloc, want)
    return sched.steps


def _cyclic_geometries():
    pinned = {(n, g, c, v) for _, n, g, c, v in PINNED_POINTS}
    return sorted(pinned | {(n, g, c, v) for n, g, c, v, _, _ in GRID})


@pytest.mark.parametrize("n,g,c,v", _cyclic_geometries())
def test_cyclic_layout_index_sets_are_ranges(n, g, c, v):
    results, _ = run_spmd(g * g * c, _drive_ranges, n, g, c, v)
    assert results == [(n + v - 1) // v] * (g * g * c)


@pytest.mark.parametrize("n,g,c,v", _cyclic_geometries())
def test_every_owner_needs_its_ids(n, g, c, v):
    """``owners`` is the oracle's rule, and it puts each id on a rank
    that fetches it back, on the step's coordinating layer ``lt``: on
    grid row ``r % G`` (``"row"``), on grid column ``(r // v) % G``
    (``"col"``), or on both (``"both"``)."""
    sched = Schedule25D.__new__(Schedule25D)
    sched.n, sched.g, sched.c, sched.v = n, g, c, v
    sched.rank_at = np.arange(g * g * c).reshape(g, g, c)
    ids = np.arange(n)
    for lt in range(c):
        for by in ("row", "col", "both"):
            owners = sched.owners(ids, by, lt)
            assert np.array_equal(
                owners, _oracle_owners(sched, ids, by, lt)
            ), (by, lt)
            i, j, layer = np.unravel_index(owners, (g, g, c))
            assert np.all(layer == lt), (by, lt)
            if by != "col":
                assert np.array_equal(i, ids % g), (by, lt)
            if by != "row":
                assert np.array_equal(j, (ids // v) % g), (by, lt)
    with pytest.raises(ValueError, match="owner coordinate"):
        sched.owners(ids, "layer", 0)
