"""Valid pebbling schedules (upper bounds that sandwich the theory).

``greedy_schedule`` produces a *correct* (rule-respecting) schedule for
any cDAG using Belady-style eviction: process vertices in topological
order; when a red pebble is needed and memory is full, evict the resident
vertex whose next use lies farthest in the future, storing it first when
it would otherwise be lost.  This is not optimal (finding the optimum is
PSPACE-complete — the paper's "Complexity" limitation), but it is a
legitimate schedule, so ``Q_greedy >= Q_lower_bound`` must always hold;
the test suite uses exactly that sandwich.
"""

from __future__ import annotations

from collections import defaultdict

from repro.pebbling.cdag import CDag, Vertex
from repro.pebbling.game import Move, PebbleGame


def greedy_schedule(cdag: CDag, m: int) -> list[Move]:
    """Construct a valid schedule with M red pebbles, computing in the
    CDAG's topological order."""
    order = [v for v in cdag.topological_order() if cdag.in_degree(v)]

    # Next-use positions: for every vertex, the (sorted) positions in
    # `order` of the computations consuming it.
    uses: dict[Vertex, list[int]] = defaultdict(list)
    for pos, v in enumerate(order):
        for p in cdag.predecessors(v):
            uses[p].append(pos)
    use_ptr: dict[Vertex, int] = defaultdict(int)

    outputs = cdag.outputs
    moves: list[Move] = []
    red: set[Vertex] = set()
    blue: set[Vertex] = set(cdag.inputs)

    def next_use(v: Vertex, now: int) -> int:
        lst = uses.get(v)
        if not lst:
            return 1 << 60
        i = use_ptr[v]
        while i < len(lst) and lst[i] < now:
            i += 1
        use_ptr[v] = i
        return lst[i] if i < len(lst) else 1 << 60

    def evict_one(now: int, protect: set[Vertex]) -> None:
        """Free one red slot, keeping `protect` resident."""
        candidates = red - protect
        if not candidates:
            raise RuntimeError(
                f"cannot evict: all {len(red)} red pebbles are protected; "
                f"M={m} too small for this in-degree"
            )
        victim = max(candidates, key=lambda v: (next_use(v, now), repr(v)))
        needs_store = (
            victim not in blue
            and (next_use(victim, now) < (1 << 60) or victim in outputs)
        )
        if needs_store:
            moves.append(Move.store(victim))
            blue.add(victim)
        moves.append(Move.discard_red(victim))
        red.remove(victim)

    def make_red(v: Vertex, now: int, protect: set[Vertex]) -> None:
        if v in red:
            return
        if v not in blue:
            raise RuntimeError(
                f"vertex {v!r} needed but neither red nor blue — "
                f"order is not topological"
            )
        while len(red) >= m:
            evict_one(now, protect)
        moves.append(Move.load(v))
        red.add(v)

    for now, v in enumerate(order):
        preds = cdag.predecessors(v)
        if len(preds) + 1 > m:
            raise ValueError(
                f"M={m} cannot hold {len(preds)} operands plus the result "
                f"of {v!r}"
            )
        protect = set(preds)
        for p in preds:
            make_red(p, now, protect)
        while len(red) >= m:
            evict_one(now, protect)
        moves.append(Move.compute(v))
        red.add(v)
        # Results never needed again (except as outputs) can go straight
        # to slow memory.
        if v in outputs:
            moves.append(Move.store(v))
            blue.add(v)
            moves.append(Move.discard_red(v))
            red.discard(v)

    # Store any remaining outputs still in fast memory (non-computed
    # outputs, e.g. untouched inputs, already have blue pebbles).
    for v in sorted(red, key=repr):
        if v in outputs and v not in blue:
            moves.append(Move.store(v))
            blue.add(v)
    return moves


def schedule_cost(cdag: CDag, m: int, moves: list[Move]) -> int:
    """Replay ``moves`` through the rule checker; return Q.

    Raises :class:`~repro.pebbling.game.PebblingError` if any move is
    illegal and verifies all outputs end up in slow memory.
    """
    game = PebbleGame(cdag, m)
    game.run(moves)
    game.assert_complete()
    return game.q


def _ver_after(i: int, j: int, k: int) -> int:
    """Version of LU element (i, j) after steps 1..k (Figure 1 nest).

    Element (i, j) receives an S2 update at every step k' < min(i, j)
    and, when j < i, one S1 division at step j.
    """
    s2 = max(0, min(k, min(i, j) - 1))
    s1 = 1 if (j < i and k >= j) else 0
    return s2 + s1


def tiled_lu_schedule(n: int, m: int) -> list[Move]:
    """A *constructive* near-optimal schedule for the LU cDAG.

    The paper notes that X-partitioning "provides powerful hints for
    obtaining parallel schedules" but that no general translation
    exists (Section 2.3.4's "Lower bounds vs schedule" limitation).
    This is the classic constructive answer for LU: tile the matrix
    with b = sqrt((M-1)/3) so that each trailing-tile update
    (a natural X-partition subcomputation with |Dom| ~ 3b^2 and
    |V_h| = b^3-ish work) fits in fast memory.  Total I/O is
    Theta(N^3 / sqrt(M)) with a small constant — the same order as the
    Section 6 lower bound, where the naive schedule pays Theta(N^3).

    Returns a move list verified legal by
    :func:`~repro.pebbling.game.PebbleGame` via :func:`schedule_cost`.
    """
    if m < 4:
        raise ValueError(f"need M >= 4 red pebbles, got M={m}")
    b = max(1, int(((m - 1) // 3) ** 0.5))
    moves: list[Move] = []
    blue: set = set()  # versions currently stored (inputs start blue)

    def v_at(i: int, j: int, k: int):
        return ("A", i, j, _ver_after(i, j, k))

    def load(vtx) -> None:
        moves.append(Move.load(vtx))

    def store_new(vtx) -> None:
        if vtx[3] == 0:
            return  # inputs already have blue pebbles
        if vtx not in blue:
            moves.append(Move.store(vtx))
            blue.add(vtx)

    def compute_bump(i: int, j: int, k: int) -> None:
        """Compute (i, j)'s version after step k; evict the old one."""
        old = v_at(i, j, k - 1)
        new = ("A", i, j, old[3] + 1)
        moves.append(Move.compute(new))
        moves.append(Move.discard_red(old))

    tiles = [
        (lo, min(lo + b, n + 1) - 1) for lo in range(1, n + 1, b)
    ]

    for t_idx, (k_lo, k_hi) in enumerate(tiles):
        base = k_lo - 1  # versions on entry to this tile round

        # -- Phase A: factorize the diagonal tile in place -------------
        diag = [
            (i, j)
            for i in range(k_lo, k_hi + 1)
            for j in range(k_lo, k_hi + 1)
        ]
        for i, j in diag:
            load(v_at(i, j, base))
        for k in range(k_lo, k_hi + 1):
            for i in range(k + 1, k_hi + 1):
                compute_bump(i, k, k)  # S1 uses (k,k) final: in-tile red
            for i in range(k + 1, k_hi + 1):
                for j in range(k + 1, k_hi + 1):
                    compute_bump(i, j, k)
        for i, j in diag:
            store_new(v_at(i, j, k_hi))

        # -- Phase B: column panels below the diagonal -----------------
        for p_lo, p_hi in tiles[t_idx + 1 :]:
            rows = range(p_lo, p_hi + 1)
            for i in rows:
                for j in range(k_lo, k_hi + 1):
                    load(v_at(i, j, base))
            for k in range(k_lo, k_hi + 1):
                for i in rows:
                    compute_bump(i, k, k)
                for i in rows:
                    for j in range(k + 1, k_hi + 1):
                        compute_bump(i, j, k)
            for i in rows:
                for j in range(k_lo, k_hi + 1):
                    vtx = v_at(i, j, k_hi)
                    store_new(vtx)
                    moves.append(Move.discard_red(vtx))

        # -- Phase C: row panels right of the diagonal -----------------
        for p_lo, p_hi in tiles[t_idx + 1 :]:
            cols = range(p_lo, p_hi + 1)
            for i in range(k_lo, k_hi + 1):
                for j in cols:
                    load(v_at(i, j, base))
            for k in range(k_lo, k_hi + 1):
                for i in range(k + 1, k_hi + 1):
                    for j in cols:
                        compute_bump(i, j, k)
            for i in range(k_lo, k_hi + 1):
                for j in cols:
                    vtx = v_at(i, j, k_hi)
                    store_new(vtx)
                    moves.append(Move.discard_red(vtx))

        # diagonal tile no longer needed in fast memory
        for i, j in diag:
            moves.append(Move.discard_red(v_at(i, j, k_hi)))

        # -- Phase D: trailing tiles (L-tile x U-tile updates) ---------
        for li, (r_lo, r_hi) in enumerate(tiles[t_idx + 1 :], t_idx + 1):
            # load the L tile (final versions from phase B)
            l_tile = [
                (i, j)
                for i in range(r_lo, r_hi + 1)
                for j in range(k_lo, k_hi + 1)
            ]
            for i, j in l_tile:
                load(v_at(i, j, k_hi))
            for c_lo, c_hi in tiles[t_idx + 1 :]:
                u_tile = [
                    (i, j)
                    for i in range(k_lo, k_hi + 1)
                    for j in range(c_lo, c_hi + 1)
                ]
                for i, j in u_tile:
                    load(v_at(i, j, k_hi))
                target = [
                    (i, j)
                    for i in range(r_lo, r_hi + 1)
                    for j in range(c_lo, c_hi + 1)
                ]
                for i, j in target:
                    load(v_at(i, j, base))
                for k in range(k_lo, k_hi + 1):
                    for i, j in target:
                        compute_bump(i, j, k)
                for i, j in target:
                    vtx = v_at(i, j, k_hi)
                    store_new(vtx)
                    moves.append(Move.discard_red(vtx))
                for i, j in u_tile:
                    moves.append(Move.discard_red(v_at(i, j, k_hi)))
            for i, j in l_tile:
                moves.append(Move.discard_red(v_at(i, j, k_hi)))

    return moves
