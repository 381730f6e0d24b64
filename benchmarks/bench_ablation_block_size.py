"""E10.2 — Ablation: the blocking parameter v (paper Section 7.2).

The paper: "the minimum size of each block is c = P M / N^2 ... to
secure high performance this value should also be adjusted to hardware
parameters".  Volume-wise, the A00 broadcast term grows linearly in v
((P-1)(v^2+v) per step, N/v steps => ~P N v total), so the simulator's
volume-optimal choice is v = c; real machines trade that against
latency (N/v pivoting rounds — the tournament's whole point).
"""

import numpy as np
import pytest

from repro.algorithms import factor
from repro.harness import format_table, run_sweep
from repro.harness.specs import block_size_spec


def test_block_size_volume_sweep(benchmark, show, sweep_cache):
    n, g, c = 128, 2, 2

    def run():
        # one cached sweep point per blocking parameter v
        result = run_sweep(
            block_size_spec(n=n, g=g, c=c, v_values=(2, 4, 8, 16, 32)),
            cache=sweep_cache,
        )
        return result.rows()

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    show(format_table(
        rows,
        [
            ("v", "v"),
            ("steps", "steps (latency)"),
            ("total_bytes", "total [B]"),
            ("bcast_a00", "bcast A00 [B]"),
            ("tournament", "tournament [B]"),
        ],
        title=f"Blocking parameter sweep (N={n}, grid=({g},{g},{c}))",
    ))
    # bcast term grows ~linearly with v
    bcast = {row["v"]: row["bcast_a00"] for row in rows}
    assert bcast[32] / bcast[2] == pytest.approx(32 / 2, rel=0.35)
    # total volume is minimized at small v; the latency (step count)
    # falls as 1/v — the tradeoff the paper tunes with a = v/c
    totals = [row["total_bytes"] for row in rows]
    assert totals[0] < totals[-1]
    steps = [row["steps"] for row in rows]
    assert steps[0] > steps[-1]


def test_v_below_c_is_rejected(benchmark):
    """Section 7.2's constraint v >= c is enforced."""
    a = np.random.default_rng(4).standard_normal((32, 32))

    def attempt():
        try:
            factor("conflux", a, 16, grid=(2, 2, 4), v=2)
            return False
        except ValueError:
            return True

    assert benchmark(attempt)
