"""Communication-volume models for the four LU implementations (Table 2).

All models return **total bytes sent across all ranks** — the quantity
Table 2 tabulates ("Total comm. volume ... measured/modeled [GB]") and
Score-P aggregates.  Per-node values (Figure 6's y-axis) divide by P.
Every form is evaluated at ``(N, P, c)``, the replication depth its
caller chose; a form that needs the per-rank memory uses
M = c N^2 / P (:func:`algorithmic_memory`).

* LibSci / ScaLAPACK and SLATE (2D): ``(N^2 sqrt(P) + N^2) * 8 B`` —
  this reproduces Table 2's modeled values exactly (e.g. N = 4096,
  P = 1024: 4.43 GB).
* CANDMC (2.5D): the authors' own model ``5 N^3 / (P sqrt(M))`` per rank
  [Solomonik & Demmel], quoted by the paper.
* COnfLUX: the exact per-step sums proven in Lemma 10, with every
  sub-step term (reduce, tournament, broadcasts, scatters, panel
  redistribution) accounted — the same accounting the simulator's
  per-phase ledger reports, so measured vs modeled can be compared
  term by term.
"""

from __future__ import annotations

import math

ELEMENT_SIZE = 8  # double precision, as in the paper's models


def _check_args(n: int, p: int, c: int) -> None:
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if p < 1:
        raise ValueError(f"P must be >= 1, got {p}")
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")


def algorithmic_memory(n: int, p: int, c: int) -> float:
    """M = c N^2 / P — the memory a c-fold replicated 2.5D run uses."""
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    return max(c * n**2 / p, 1.0)


# ---------------------------------------------------------------------------
# 2D models (LibSci / ScaLAPACK and SLATE)
# ---------------------------------------------------------------------------

def scalapack2d_total_bytes(n: int, p: int, c: int = 1) -> float:
    """2D block-cyclic GEPP: N^2 sqrt(P) panel/U broadcasts + N^2 swaps.

    Independent of the replication depth c: the 2D algorithm cannot
    exploit extra memory — the root of its asymptotic deficit (Table
    2's "Parallel I/O cost" column: N^2/sqrt(P) + O(N^2/P) per rank).
    SLATE uses the same 2D decomposition and registers this model too
    (the paper: "their communication volumes are mostly equal, with a
    slight advantage of SLATE for non-square grids").
    """
    _check_args(n, p, c)
    return (n**2 * math.sqrt(p) + n**2) * ELEMENT_SIZE


# ---------------------------------------------------------------------------
# CANDMC model (authors' published cost [56])
# ---------------------------------------------------------------------------

def candmc_total_bytes(n: int, p: int, c: int) -> float:
    """CANDMC 2.5D LU: 5 N^3 / (P sqrt(M)) + O(N^2 / (P sqrt(M))) per
    rank, times P ranks, with M = c N^2 / P."""
    _check_args(n, p, c)
    m = algorithmic_memory(n, p, c)
    per_rank = 5.0 * n**3 / (p * math.sqrt(m)) + n**2 / (p * math.sqrt(m))
    return per_rank * p * ELEMENT_SIZE


# ---------------------------------------------------------------------------
# COnfLUX exact per-step model (Lemma 10)
# ---------------------------------------------------------------------------

def conflux_step_breakdown(
    n: int,
    p: int,
    grid_rows: int,
    layers: int,
    v: int,
    t: int,
) -> dict[str, float]:
    """Element counts moved in step ``t`` of Algorithm 1, by phase.

    ``grid_rows`` is G = sqrt(P1) and ``layers`` is c; active rows at the
    start of the step are n_t = N - t v, the panel width is w = min(v,
    n_t) (narrower on a ragged last panel) and the trailing width after
    the panel is w_t = max(N - (t+1) v, 0).

    Phases (names match the simulator's ledger phases):

    ==================  ==================================================
    reduce_column       (c-1) * n_t * w        — step 1
    tournament          2 (G-1) (w^2 + w)      — step 2 (tree reduce+bcast)
    bcast_a00           (P-1) (w^2 + w)        — step 3
    reduce_pivot_rows   (c-1) * w * w_t        — step 5
    scatter_a10         (n_t - w) * w          — step 4 (1D distribution)
    scatter_a01         w * w_t                — step 6
    panel_a10           G * (n_t - w) * w      — step 8 (2.5D pieces)
    panel_a01           G * w * w_t            — step 10
    ==================  ==================================================
    """
    g, c = grid_rows, layers
    n_t = n - t * v
    if n_t <= 0:
        return {}
    w = min(v, n_t)
    w_t = max(n - (t + 1) * v, 0)
    return {
        "reduce_column": (c - 1) * n_t * w,
        "tournament": 2.0 * (g - 1) * (w * w + w),
        "bcast_a00": (p - 1) * (w * w + w),
        "reduce_pivot_rows": (c - 1) * w * w_t,
        "scatter_a10": (n_t - w) * w,
        "scatter_a01": w * w_t,
        "panel_a10": g * (n_t - w) * w,
        "panel_a01": g * w * w_t,
    }


def _summed_over_steps(
    step_breakdown, default_block: int, block_at_least_c: bool = False
):
    """The total-bytes form of ``step_breakdown(n, p, grid_rows, layers,
    v, t)``.  ``default_block`` and ``block_at_least_c`` (the Section 7.2
    floor v >= c, which also lifts the default) mirror the member's
    ``register_algorithm`` entry."""

    def total_bytes(
        n: int,
        p: int,
        c: int,
        v: int | None = None,
        grid_rows: int | None = None,
    ) -> float:
        """Exact volume in bytes at replication depth ``c``: the
        per-step phase terms summed over all ceil(N/v) steps.
        ``grid_rows`` defaults to floor(sqrt(P / c)) and ``v`` to the
        member's default block.
        """
        if c < 1:
            raise ValueError(f"c must be >= 1, got {c}")
        if grid_rows is None:
            grid_rows = max(1, int(math.isqrt(p // c)))
        floor = c if block_at_least_c else 1
        if v is None:
            v = max(default_block, floor)
        if v < floor:
            raise ValueError(
                f"block size v={v} must be >= c={c} (Section 7.2)"
            )
        total = 0.0
        for t in range(math.ceil(n / v)):
            total += sum(step_breakdown(n, p, grid_rows, c, v, t).values())
        return total * ELEMENT_SIZE

    return total_bytes


#: Exact COnfLUX volume.  ``v`` defaults to max(c, 2) (the paper: v = a c
#: for a small constant a).
conflux_total_bytes = _summed_over_steps(
    conflux_step_breakdown, default_block=2, block_at_least_c=True
)


def conflux_leading_total_bytes(n: int, p: int, c: int) -> float:
    """Leading-order closed form: N^3/(P sqrt(M)) per rank, i.e.
    N^2 (sqrt(P/c) + c) total elements with M = c N^2 / P."""
    _check_args(n, p, c)
    return n**2 * (math.sqrt(p / c) + c) * ELEMENT_SIZE


#: The four LU implementations of Table 2, in the paper's row order.
MODEL_NAMES = ("scalapack2d", "slate2d", "candmc25d", "conflux")


# ---------------------------------------------------------------------------
# Exact model of the candmc25d *simulated* schedule (for prediction-%
# comparisons against the measured runs; Table 2's CANDMC row uses the
# authors' published closed form above).
# ---------------------------------------------------------------------------

def candmc_sim_step_breakdown(
    n: int,
    p: int,
    grid_rows: int,
    layers: int,
    v: int,
    t: int,
) -> dict[str, float]:
    """Per-step element counts of the CANDMC-like schedule: COnfLUX's
    terms with (a) full-width panel replication (factor c on the panel
    redistribution) and (b) physical row swaps across all layers and
    grid columns (expected (1 - 1/G) of swap pairs cross grid rows)."""
    base = conflux_step_breakdown(n, p, grid_rows, layers, v, t)
    if not base:
        return base
    g, c = grid_rows, layers
    w_t = max(n - (t + 1) * v, 0)
    base["panel_a10"] *= c
    base["panel_a01"] *= c
    base["row_swap"] = 2.0 * v * w_t * c * (1.0 - 1.0 / g)
    return base


#: Exact volume of the candmc25d simulation (see DESIGN.md for the
#: substitution rationale).
candmc_sim_total_bytes = _summed_over_steps(
    candmc_sim_step_breakdown, default_block=2, block_at_least_c=True
)


# ---------------------------------------------------------------------------
# QR models: 2.5D CAQR and the 2D Householder baseline
# ---------------------------------------------------------------------------

def caqr25d_step_breakdown(
    n: int, p: int, grid_rows: int, layers: int, v: int, t: int
) -> dict[str, float]:
    """Element counts moved in step ``t`` of the 2.5D CAQR, by phase
    (names match the simulator ledger; see ``algorithms/caqr25d.py``).
    ``p`` is unused: every 2.5D member shares one step signature.

    With L_t non-empty TSQR leaves (L_t = min(G, remaining row
    blocks)), active rows n_t and trailing columns w_t:

    ==============  ====================================================
    tsqr_tree       (L_t - 1) w^2            — R factors up the tree
    panel_bcast     (Gc - 1)(n_t w + n_t' + (L_t - 1)(2w^2 + w))
                                             — leaf + merge reflectors
    tree_apply      2 (L_t - 1) w w_t        — trailing row exchanges
    ==============  ====================================================
    """
    g, c = grid_rows, layers
    n_t = n - t * v
    if n_t <= 0:
        return {}
    w = min(v, n_t)
    w_t = max(n - (t + 1) * v, 0)
    blocks = math.ceil(n / v)
    leaves = min(g, blocks - t)
    taus = min(n_t, leaves * w)
    return {
        "tsqr_tree": (leaves - 1) * w * w,
        "panel_bcast": (g * c - 1)
        * (n_t * w + taus + (leaves - 1) * (2.0 * w * w + w)),
        "tree_apply": 2.0 * (leaves - 1) * w * w_t,
    }


#: Per-step CAQR model summed over all steps.  Leading order:
#: N^2 (G c + 2 G) / 2 elements — the panel reflector fan-out to the G c
#: column panes plus the tree replay on the trailing matrix.  (COnfQR
#: cuts the panel term by the replication factor; see below.)
caqr25d_total_bytes = _summed_over_steps(
    caqr25d_step_breakdown, default_block=8
)


def qr2d_step_breakdown(
    n: int,
    prows: int,
    pcols: int,
    nb: int,
    t: int,
) -> dict[str, float]:
    """Element counts of step ``t`` of the 2D Householder baseline.

    ==============  ====================================================
    panel_fact      (Pr - 1)(w^2 + 3w)       — per-column all-reduces
    panel_bcast     (Pc - 1)(n_t w + w)      — reflector slab + taus
    update_reduce   2 (Pr - 1) w w_t         — per-reflector v^T B
    ==============  ====================================================
    """
    n_t = n - t * nb
    if n_t <= 0:
        return {}
    w = min(nb, n_t)
    w_t = max(n - (t + 1) * nb, 0)
    return {
        "panel_fact": (prows - 1) * (w * w + 3.0 * w),
        "panel_bcast": (pcols - 1) * (n_t * w + w),
        "update_reduce": 2.0 * (prows - 1) * w * w_t,
    }


def qr2d_total_bytes(
    n: int,
    p: int,
    c: int = 1,
    nb: int = 16,
    grid: tuple[int, int] | None = None,
) -> float:
    """2D Householder QR volume: ~ N^2 (Pc + 2 Pr) / 2 elements.

    Independent of c like the 2D LU baselines — the structural reason
    the 2D decomposition cannot exploit replication.
    """
    from repro.algorithms.gridopt import choose_grid_2d

    _check_args(n, p, c)
    prows, pcols = choose_grid_2d(p) if grid is None else grid
    total = 0.0
    for t in range(math.ceil(n / nb)):
        total += sum(qr2d_step_breakdown(n, prows, pcols, nb, t).values())
    return total * ELEMENT_SIZE


def confqr_step_breakdown(
    n: int, p: int, grid_rows: int, layers: int, v: int, t: int
) -> dict[str, float]:
    """Element counts moved in step ``t`` of COnfQR, by ledger phase
    (see ``algorithms/confqr.py``; ``p`` unused, as in CAQR's).

    The factorization runs on the G x G compute layer (rows/columns
    block-cyclic, block v); layers 1..c-1 bank 1/c reflector chunks.
    The counts below are *exact* — they re-derive the same per-grid-row
    active counts ``n_i`` and the same survivor-swap merge plan the
    rank program uses, so the model matches the ledger byte for byte:

    ==============  ====================================================
    tsqr_tree       sum_plan r_b w           — R factors up the tree
    recon_tree      2 sum_plan r_b w         — tree replay on I_w
    recon_bcast     (G-1)(2w^2 + w)          — (U, S, T) down the pane
    wy_t_bcast      (G^2-1) w^2              — T to the compute layer
    panel_bcast     (G-1) sum_i n_i w        — V rows to row peers
    bank_scatter    sum_i n_i sum_{l>=1} |chunk_l|  — 1/c V chunks
    wy_apply        2 (G-1) w w_t            — allreduce Y = V^T B
    q_fiber_gather  = bank_scatter           — assembly sweep (reverse)
    q_panel_bcast   = panel_bcast
    q_apply         2 (G-1) w N              — Q_t X on all N columns
    ==============  ====================================================
    """
    import numpy as _np

    from repro.kernels.tsqr import merge_plan
    from repro.layouts.block_cyclic import BlockCyclic1D

    g, c = grid_rows, layers
    k0 = t * v
    n_t = n - k0
    if n_t <= 0:
        return {}
    w = min(v, n_t)
    w_t = max(n - (t + 1) * v, 0)
    rowmap = BlockCyclic1D(n, g, v)
    rt = rowmap.owner(k0)
    counts = [
        int((rowmap.global_indices(i) >= k0).sum()) for i in range(g)
    ]
    plan = merge_plan([counts[(rt + p) % g] for p in range(g)], w)
    tree = float(sum(min(s.r_b, w) * w for s in plan))
    rows_active = float(sum(counts))
    chunk_sizes = [len(ch) for ch in _np.array_split(_np.arange(w), c)]
    bank = rows_active * float(sum(chunk_sizes[1:]))
    panel = (g - 1) * rows_active * w
    return {
        "tsqr_tree": tree,
        "recon_tree": 2.0 * tree,
        "recon_bcast": (g - 1) * (2.0 * w * w + w),
        "wy_t_bcast": (g * g - 1) * float(w * w),
        "panel_bcast": panel,
        "bank_scatter": bank,
        "wy_apply": 2.0 * (g - 1) * w * w_t,
        "q_fiber_gather": bank,
        "q_panel_bcast": panel,
        "q_apply": 2.0 * (g - 1) * w * n,
    }


#: Exact COnfQR volume, explicit-Q assembly included.  Leading order:
#: ~ 4 G N^2 elements with G = sqrt(P/c) — every term scales with G, so
#: the volume *keeps falling* as the replication depth c grows, where
#: CAQR's N^2 (G c + 2 G)/2 (its panel fan-out pays G c) flattens at
#: c = 2.  The factorization-only part (the phases a host-assembled-Q
#: run would measure) is ~ 1.5 G N^2.
confqr_total_bytes = _summed_over_steps(
    confqr_step_breakdown, default_block=8
)


#: QR implementations with volume models (the LU set is MODEL_NAMES).
QR_MODEL_NAMES = ("qr2d", "caqr25d", "confqr")
