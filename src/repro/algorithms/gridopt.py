"""Processor Grid Optimization (paper Section 8, "Implementation").

    "To secure the best performance for all combinations of processor
    counts and matrix sizes, we use Processor Grid Optimization, which
    finds the 3D processor grid with the lowest communication cost by
    possibly disabling a minor fraction of nodes."

Given P available ranks, the optimizer searches feasible
[G, G, c] grids with G^2 c <= P and picks the one minimizing the exact
COnfLUX cost model; greedy implementations that insist on using every
rank often land on communication-suboptimal decompositions (the outliers
in Figure 6a's inset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.costmodels import conflux_total_bytes


@dataclass(frozen=True)
class GridChoice:
    """A selected processor grid.

    The optimization objective is ``modeled_per_rank_bytes`` — the
    communication volume per participating node, the quantity Figure 6
    plots and the critical-path proxy.  (Total volume would degenerate:
    a single rank communicates nothing.)
    """

    grid_rows: int  # G
    layers: int  # c
    active_ranks: int  # G^2 c
    total_ranks: int  # P offered
    modeled_bytes: float

    @property
    def modeled_per_rank_bytes(self) -> float:
        return self.modeled_bytes / self.active_ranks

    @property
    def disabled_ranks(self) -> int:
        return self.total_ranks - self.active_ranks

    @property
    def disabled_fraction(self) -> float:
        return self.disabled_ranks / self.total_ranks


def optimize_grid_25d(
    p: int,
    n: int,
    m_max: float | None = None,
    use_all_ranks: bool = False,
) -> GridChoice:
    """Choose (G, c) minimizing the exact COnfLUX model.

    ``m_max`` (elements per rank) caps the replication depth at
    c <= m_max * G^2 c / N^2 ... i.e. per-rank memory c N^2 / (G^2 c)
    must fit: N^2 / G^2 <= m_max.  ``use_all_ranks`` restricts the search
    to grids with G^2 c == P exactly (the greedy baseline the paper
    criticizes); it raises if no exact grid exists.
    """
    if p < 1 or n < 1:
        raise ValueError(f"need positive P and N, got P={p}, N={n}")
    best: GridChoice | None = None
    # replication depths up to twice the cube root of P
    for c in range(1, min(2 * round(p ** (1.0 / 3.0)), p) + 1):
        g_hi = math.isqrt(p // c)
        if g_hi < 1:
            continue
        g_candidates = {g_hi} if not use_all_ranks else set()
        if use_all_ranks:
            # need G^2 c == P exactly
            if g_hi * g_hi * c == p:
                g_candidates = {g_hi}
            else:
                continue
        for g in g_candidates:
            active = g * g * c
            if active > p:
                continue
            # per-rank memory of the layout: N^2 / G^2 elements
            if m_max is not None and n * n / (g * g) > m_max:
                continue
            cost = conflux_total_bytes(n, active, c=c, grid_rows=g)
            choice = GridChoice(
                grid_rows=g,
                layers=c,
                active_ranks=active,
                total_ranks=p,
                modeled_bytes=cost,
            )
            if (
                best is None
                or choice.modeled_per_rank_bytes
                < best.modeled_per_rank_bytes
                or (
                    choice.modeled_per_rank_bytes
                    == best.modeled_per_rank_bytes
                    and active > best.active_ranks
                )
            ):
                best = choice
    if best is None:
        raise ValueError(
            f"no feasible [G, G, c] grid for P={p}, N={n}, "
            f"m_max={m_max}, use_all_ranks={use_all_ranks}"
        )
    return best


def choose_grid_2d(p: int, prefer_tall: bool = False) -> tuple[int, int]:
    """Nearly-square factor pair (Pr, Pc) with Pr * Pc = P.

    LibSci-style greedy choice: always uses every rank, even when the
    factorization of P is badly skewed (e.g. P prime gives a 1 x P
    grid) — the source of the communication outliers in Figure 6a.
    """
    if p < 1:
        raise ValueError(f"P must be >= 1, got {p}")
    root = math.isqrt(p)
    for pr in range(root, 0, -1):
        if p % pr == 0:
            pair = (pr, p // pr)
            return (pair[1], pair[0]) if prefer_tall else pair
    raise AssertionError("unreachable: 1 divides p")
