"""E5 — Figure 7: communication reduction vs the second-best algorithm.

Regenerates the (P, N) heat map of predicted reductions up to
P = 262,144, the Summit full-scale prediction ("2.1x less"), the
measured-scale reduction points, and the CANDMC-vs-2D crossover that
motivates "asymptotic optimality is not enough".
"""

import pytest

from repro.harness import format_table, run_sweep
from repro.harness.specs import fig7_spec
from repro.models.prediction import (
    algorithmic_memory,
    choose_c_max_replication,
    crossover_p_candmc_vs_2d,
    reduction_vs_second_best,
    summit_prediction,
)


def test_fig7_reduction_heatmap(benchmark, show, sweep_cache):
    rows = benchmark(
        lambda: run_sweep(fig7_spec(), cache=sweep_cache).rows()
    )
    show(format_table(
        rows,
        [
            ("n", "N"),
            ("p", "P"),
            ("best", "best"),
            ("second_best", "2nd best"),
            ("reduction", "reduction x"),
        ],
        title="Figure 7: predicted reduction vs second-best",
    ))
    # COnfLUX is within a whisker of best everywhere (at P = 64 with
    # max replication its leading model ties the 2D one — the paper's
    # own Table 2 shows just 5% at that point) and strictly best from
    # P = 256 up, with the reduction growing in P.
    for row in rows:
        assert row["conflux_vs_best"] <= 1.02, row
        if row["p"] >= 256:
            assert row["best"] == "conflux", row
            assert row["reduction"] >= 1.0
    by_n: dict[int, list[tuple[int, float]]] = {}
    for row in rows:
        if row["p"] >= 256:
            by_n.setdefault(row["n"], []).append(
                (row["p"], row["reduction"])
            )
    for n, pts in by_n.items():
        pts.sort()
        assert pts[-1][1] > pts[0][1], f"reduction flat for N={n}"


def test_fig7_paper_headline_points(benchmark, show):
    """Model ratios at the paper's quoted points: ~1.6x at (16384,
    1024); >2x toward exascale."""

    def points():
        return {
            "p1024": reduction_vs_second_best(16384, 1024).reduction,
            "p262144": reduction_vs_second_best(
                16384, 262144, leading_only=True
            ).reduction,
        }

    vals = benchmark(points)
    show(f"reduction at N=16384: P=1024 -> {vals['p1024']:.2f}x (exact "
         f"model), P=262144 -> {vals['p262144']:.2f}x (leading factors, "
         f"the paper's figure convention)")
    assert vals["p1024"] == pytest.approx(1.6, abs=0.1)
    assert vals["p262144"] > 2.0


def test_fig7_summit_prediction(benchmark, show):
    pred = benchmark(summit_prediction)
    show(f"Summit full-scale prediction: {pred}")
    assert pred["best"] == "conflux"
    assert pred["reduction_leading"] == pytest.approx(2.1, abs=0.15)
    assert pred["reduction_exact"] > 1.7


def test_fig7_candmc_crossover(benchmark, show):
    """CANDMC's model undercuts the 2D model only at very large P
    (paper: ~450k ranks for N = 16,384 with their model constants; ours
    crosses earlier because the published CANDMC model omits lower-order
    terms, which ours keeps).  The qualitative claim —
    the crossover sits far beyond every measured configuration — holds.
    """
    n = 16384

    def run():
        grid = [2**k for k in range(6, 20)]

        def m_of_p(p):
            c = choose_c_max_replication(p, n)
            return algorithmic_memory(n, p, c)

        return crossover_p_candmc_vs_2d(n, m_of_p, grid)

    p_cross = benchmark(run)
    show(f"CANDMC beats 2D (model) first at P = {p_cross:,} "
         f"(paper's model constants put it at ~450,000)")
    assert p_cross is not None
    assert p_cross > 1024  # far beyond every measured point
