#!/usr/bin/env python
"""Strong-scaling communication study — a laptop-scale Figure 6a.

Measures the per-node communication volume of all four LU
implementations over a P sweep at fixed N (simulated runs), then prints
the paper-scale model curves at N = 16,384 up to P = 16,384.

Usage:  python examples/communication_study.py [N]
"""

import sys

from repro.harness import format_series, run_sweep
from repro.harness.specs import fig6a_measured_spec, fig6a_model_spec


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 192

    print(f"Measured per-rank communication volume, N = {n} "
          f"(simulated ranks):\n")
    measured = run_sweep(fig6a_measured_spec(n=n, p_values=(4, 8, 16, 32)))
    print(format_series(
        measured.rows(), "p", "per_rank_bytes",
        title="measured (bytes/rank vs P)",
    ))

    print("\nModel curves at the paper's N = 16,384 "
          "(bytes/rank vs P, Table 2 models):\n")
    model_rows = run_sweep(
        fig6a_model_spec(p_values=(64, 256, 1024, 4096, 16384))
    ).rows()
    print(format_series(
        model_rows, "p", "per_rank_bytes",
        title="modeled (bytes/rank vs P)",
    ))

    # The qualitative claims of Figure 6a, checked on the spot.
    by_impl = {}
    for row in model_rows:
        by_impl.setdefault(row["impl"], []).append(
            (row["p"], row["per_rank_bytes"])
        )
    conflux_last = sorted(by_impl["conflux"])[-1][1]
    scalapack_last = sorted(by_impl["scalapack2d"])[-1][1]
    print(f"\nAt P = 16,384: COnfLUX {conflux_last / 1e6:.1f} MB/rank vs "
          f"ScaLAPACK-2D {scalapack_last / 1e6:.1f} MB/rank "
          f"({scalapack_last / conflux_last:.1f}x reduction).")


if __name__ == "__main__":
    main()
