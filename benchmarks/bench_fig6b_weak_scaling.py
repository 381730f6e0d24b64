"""E4 — Figure 6b: weak scaling, N = N0 * P^(1/3) (constant work/node).

The paper's claim: "2.5D algorithms (CANDMC and COnfLUX) retain constant
communication volume per processor" while the 2D libraries grow like
P^(1/6).  Measured at simulator scale; model series at the paper's
N0 = 3200.
"""

import pytest

from repro.harness import format_series, run_sweep
from repro.harness.specs import fig6b_measured_spec, fig6b_model_spec


def test_fig6b_weak_scaling(benchmark, show, sweep_cache):
    def run():
        measured = run_sweep(
            fig6b_measured_spec(n0=48, p_values=(4, 8, 27)),
            cache=sweep_cache,
        )
        model = run_sweep(
            fig6b_model_spec(p_values=(8, 64, 512, 4096, 32768)),
            cache=sweep_cache,
        )
        return measured.rows(), model.rows()

    measured_rows, model_rows = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    show(format_series(
        measured_rows, "p", "per_rank_bytes",
        title="Figure 6b (measured, N0=48): bytes/rank vs P",
    ))
    show(format_series(
        model_rows, "p", "per_rank_bytes",
        title="Figure 6b (model, N0=3200): bytes/rank vs P",
    ))

    model: dict[str, dict[int, float]] = {}
    for row in model_rows:
        model.setdefault(row["impl"], {})[row["p"]] = row["per_rank_bytes"]

    # 2.5D flatness: conflux per-node volume varies by < 2.2x over a
    # 4096x range of P (integer-c rounding causes the wiggle).
    conflux = model["conflux"]
    spread = max(conflux.values()) / min(conflux.values())
    # 2D growth: ~ (P_hi / P_lo)^(1/6) = 32768/8 -> ~4x
    scala = model["scalapack2d"]
    growth = scala[32768] / scala[8]
    show(f"conflux weak-scaling spread: {spread:.2f}x "
         f"(2.5D: near-constant); scalapack growth: {growth:.2f}x "
         f"(2D: ~P^(1/6) -> {(32768 / 8) ** (1 / 6):.2f}x)")
    assert spread < 2.2
    assert growth == pytest.approx((32768 / 8) ** (1 / 6), rel=0.3)
    assert growth > spread


def test_fig6b_crossover_2d_loses_at_scale(benchmark, show):
    """Under weak scaling, the 2D libraries eventually fall behind both
    2.5D implementations — Figure 6b's right-hand side."""

    def run():
        return run_sweep(
            fig6b_model_spec(p_values=(8, 512, 32768))
        ).rows()

    rows = benchmark(run)
    at_big_p = {
        r["impl"]: r["per_rank_bytes"] for r in rows if r["p"] == 32768
    }
    show("per-rank volume at P=32768 (weak scaling): "
         + ", ".join(f"{k}={v / 1e6:.1f}MB" for k, v in
                     sorted(at_big_p.items(), key=lambda kv: kv[1])))
    assert at_big_p["conflux"] < at_big_p["scalapack2d"]
    assert at_big_p["candmc25d"] < at_big_p["scalapack2d"]
