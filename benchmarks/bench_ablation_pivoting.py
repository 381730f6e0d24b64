"""E10.1 — Ablation: row masking vs row swapping (paper Section 7.3).

The design choice DESIGN.md calls out: on a c-replicated 2.5D layout,
physically swapping pivot rows costs O(N^3/(P sqrt(M))) — the same order
as the whole factorization — while COnfLUX's masking moves only O(v)
pivot indices per step.  This ablation measures both schedules on the
same matrices and sweeps the replication depth.
"""

import numpy as np
import pytest

from repro.algorithms import factor
from repro.harness import format_table


def test_masking_vs_swapping_volume(benchmark, show):
    n, g, v = 128, 2, 8

    def run():
        rows = []
        for c in (1, 2, 4):
            a = np.random.default_rng(7).standard_normal((n, n))
            p = g * g * c
            masked = factor("conflux", a, p, grid=(g, g, c), v=v)
            swapped = factor("candmc25d", a, p, grid=(g, g, c), v=v)
            rows.append(
                {
                    "c": c,
                    "masked_bytes": masked.volume.total_bytes,
                    "swapped_bytes": swapped.volume.total_bytes,
                    "swap_phase": swapped.volume.phase_bytes.get(
                        "row_swap", 0
                    ),
                    "overhead": swapped.volume.total_bytes
                    / masked.volume.total_bytes,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    show(format_table(
        rows,
        [
            ("c", "c"),
            ("masked_bytes", "masking [B]"),
            ("swapped_bytes", "swapping [B]"),
            ("swap_phase", "swap traffic [B]"),
            ("overhead", "swap/mask"),
        ],
        title=f"Row masking vs row swapping (N={n}, G={g}, v={v})",
    ))
    overheads = [row["overhead"] for row in rows]
    # swapping always costs more, and the penalty grows with replication
    assert all(o > 1.0 for o in overheads)
    assert overheads[-1] > overheads[0]


def test_swap_traffic_scales_with_replication(benchmark, show):
    """The row_swap phase alone scales ~linearly in c (every layer's
    partials must be swapped)."""
    n, g, v = 96, 2, 8

    def run():
        a = np.random.default_rng(11).standard_normal((n, n))
        out = {}
        for c in (2, 4):
            res = factor("candmc25d", a, g * g * c, grid=(g, g, c), v=v)
            out[c] = res.volume.phase_bytes["row_swap"]
        return out

    swaps = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = swaps[4] / swaps[2]
    show(f"row_swap bytes: c=2 -> {swaps[2]:,}, c=4 -> {swaps[4]:,} "
         f"(ratio {ratio:.2f}, linear-in-c theory: 2.0)")
    assert ratio == pytest.approx(2.0, rel=0.25)


def test_masking_index_traffic_is_negligible(benchmark, show):
    """COnfLUX's pivot bookkeeping rides in bcast_a00 (v ids per step):
    O(N) total vs O(N^2) data terms."""
    n, g, c, v = 128, 2, 2, 8

    def run():
        a = np.random.default_rng(13).standard_normal((n, n))
        return factor("conflux", a, g * g * c, grid=(g, g, c), v=v)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    # ids are 8 bytes x v per step x (P-1) receivers, inside bcast_a00
    steps = n // v
    id_bytes = (g * g * c - 1) * v * 8 * steps
    share = id_bytes / res.volume.total_bytes
    show(f"pivot-index traffic: {id_bytes:,} B of "
         f"{res.volume.total_bytes:,} B total ({100 * share:.2f}%)")
    assert share < 0.05
