"""E10.3 — Ablation: Processor Grid Optimization (paper Section 8).

"Other implementations, which greedily try to utilize all resources,
often find communication-suboptimal decompositions for difficult-to-
factorize numbers of ranks" — the inset outliers of Figure 6a.  This
ablation compares the optimizer against the use-every-rank policy over
awkward rank counts, in the model and in a measured run.
"""

import numpy as np
from repro.algorithms import factor
from repro.algorithms.gridopt import optimize_grid_25d
from repro.harness import format_table


def test_gridopt_vs_greedy_model(benchmark, show):
    n = 8192

    def run():
        rows = []
        for p in (8, 12, 18, 24, 27, 48, 96, 100):
            free = optimize_grid_25d(p, n)
            try:
                greedy = optimize_grid_25d(p, n, use_all_ranks=True)
                greedy_per_rank = greedy.modeled_per_rank_bytes
            except ValueError:
                greedy_per_rank = None
            rows.append(
                {
                    "p": p,
                    "grid": f"({free.grid_rows},{free.grid_rows},"
                            f"{free.layers})",
                    "disabled": free.disabled_ranks,
                    "opt_per_rank": free.modeled_per_rank_bytes,
                    "greedy_per_rank": greedy_per_rank,
                }
            )
        return rows

    rows = benchmark(run)
    show(format_table(
        rows,
        [
            ("p", "P"),
            ("grid", "optimized grid"),
            ("disabled", "disabled"),
            ("opt_per_rank", "optimized [B/rank]"),
            ("greedy_per_rank", "use-all-ranks [B/rank]"),
        ],
        title=f"Processor Grid Optimization (model, N={n})",
    ))
    for row in rows:
        if row["greedy_per_rank"] is not None:
            assert row["opt_per_rank"] <= row["greedy_per_rank"] * 1.0001
    # some awkward P must lead to disabled ranks
    assert any(row["disabled"] > 0 for row in rows)


def test_gridopt_measured_on_awkward_p(benchmark, show):
    """P = 11 (prime): the optimizer disables ranks and still beats the
    degenerate full-use alternative."""
    n = 96

    def run():
        a = np.random.default_rng(5).standard_normal((n, n))
        choice = optimize_grid_25d(11, n)
        res = factor("conflux", 
            a, 11, grid=(choice.grid_rows, choice.grid_rows, choice.layers)
        )
        return choice, res

    choice, res = benchmark.pedantic(run, rounds=1, iterations=1)
    show(f"P=11 -> grid ({choice.grid_rows},{choice.grid_rows},"
         f"{choice.layers}), {choice.disabled_ranks} ranks disabled, "
         f"measured {res.volume.total_bytes:,} B, residual "
         f"{res.residual:.1e}")
    assert res.residual < 1e-11
    assert choice.disabled_ranks > 0
    assert choice.disabled_fraction < 0.5  # "a minor fraction of nodes"


def test_smooth_scaling_across_p(benchmark, show):
    """With the optimizer, per-rank model cost decreases smoothly in P —
    no Figure 6a-style outliers."""
    n = 16384

    def run():
        return [
            optimize_grid_25d(p, n).modeled_per_rank_bytes
            for p in range(8, 129, 8)
        ]

    costs = benchmark(run)
    jumps = [b / a for a, b in zip(costs, costs[1:])]
    worst = max(jumps)
    show(f"worst upward jump in per-rank cost across P=8..128: "
         f"{100 * (worst - 1):.2f}%")
    assert worst < 1.02  # never more than 2% worse when adding ranks
