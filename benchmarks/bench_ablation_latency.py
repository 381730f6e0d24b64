"""E10.5 — Ablation: pivoting latency, tournament vs partial pivoting.

Paper Section 7.3: tournament pivoting "reduces the O(N) latency cost
of the partial pivoting, which requires step-by-step column reduction
to find consecutive pivots, to O(N/v)".

Latency proxy measured here: the number of *messages* in the pivoting
phases — partial pivoting runs one maxloc all-reduce plus one pivot-row
broadcast per matrix column (N sequential rounds), the tournament one
merge-tree + broadcast per v-wide panel (N/v rounds).
"""

import numpy as np
from repro.algorithms import factor
from repro.harness import format_table


def test_pivoting_message_counts(benchmark, show):
    n, p = 128, 16

    def run():
        a = np.random.default_rng(5).standard_normal((n, n))
        rows = []
        for v in (8, 16, 32):
            res = factor("conflux", a, p, grid=(4, 4, 1), v=v)
            rows.append(
                {
                    "impl": f"conflux v={v}",
                    "pivot_rounds": n // v,
                    "pivot_msgs": res.volume.phase_messages.get(
                        "tournament", 0
                    )
                    + res.volume.phase_messages.get("bcast_a00", 0),
                }
            )
        res = factor("scalapack2d", a, p, grid=(4, 4), nb=16)
        rows.append(
            {
                "impl": "scalapack2d",
                "pivot_rounds": n,  # one pivot search per column
                "pivot_msgs": res.volume.phase_messages.get(
                    "panel_fact", 0
                ),
            }
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    show(format_table(
        rows,
        [
            ("impl", "implementation"),
            ("pivot_rounds", "pivot rounds (critical path)"),
            ("pivot_msgs", "pivoting messages"),
        ],
        title=f"Pivoting latency proxy (N={n}, P={p})",
    ))
    by_impl = {row["impl"]: row for row in rows}
    # tournament needs ~v x fewer pivoting rounds than partial pivoting
    assert by_impl["conflux v=32"]["pivot_rounds"] * 32 == n
    assert by_impl["scalapack2d"]["pivot_rounds"] == n
    # and an order of magnitude fewer pivoting messages at v=32
    assert (
        by_impl["conflux v=32"]["pivot_msgs"] * 4
        < by_impl["scalapack2d"]["pivot_msgs"]
    )


def test_latency_volume_tradeoff_summary(benchmark, show):
    """Larger v: fewer rounds (latency) but more A00-broadcast volume —
    the tunable trade-off of Section 7.2, in one table."""
    n, p = 128, 16

    def run():
        a = np.random.default_rng(6).standard_normal((n, n))
        rows = []
        for v in (4, 8, 16, 32):
            res = factor("conflux", a, p, grid=(4, 4, 1), v=v)
            rows.append(
                {
                    "v": v,
                    "rounds": n // v,
                    "total_bytes": res.volume.total_bytes,
                    "total_msgs": res.volume.total_messages,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    show(format_table(
        rows,
        [
            ("v", "v"),
            ("rounds", "pivot rounds"),
            ("total_bytes", "volume [B]"),
            ("total_msgs", "messages"),
        ],
        title="Latency/volume trade-off across v",
    ))
    rounds = [row["rounds"] for row in rows]
    msgs = [row["total_msgs"] for row in rows]
    assert rounds == sorted(rounds, reverse=True)
    assert msgs == sorted(msgs, reverse=True)  # fewer, bigger messages
