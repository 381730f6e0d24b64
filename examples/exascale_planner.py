#!/usr/bin/env python
"""Plan an LU factorization run on a real machine (paper Section 9).

Given a machine (a preset name such as piz_daint / summit / daint-xc50,
or a Machine JSON path — what ``python -m repro plan --machine`` takes),
a matrix size and a rank count, this planner:

1. runs Processor Grid Optimization to pick [G, G, c] (possibly
   disabling ranks — the paper's remedy for awkward rank counts),
2. prints the predicted communication volume of all four libraries,
3. reports the expected reduction vs the second-best choice —
   the Figure 7 quantity.

Usage:  python examples/exascale_planner.py [MACHINE] [N] [P]
"""

import sys

from repro.algorithms.gridopt import optimize_grid_25d
from repro.models.machines import SUMMIT, resolve_machine
from repro.models.prediction import (
    reduction_vs_second_best,
    sweep_models,
)


def main() -> None:
    machine = resolve_machine(
        sys.argv[1] if len(sys.argv) > 1 else "piz_daint"
    )
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 16384
    p = int(sys.argv[3]) if len(sys.argv) > 3 else min(
        1024, machine.total_ranks
    )
    if p > machine.total_ranks:
        raise SystemExit(
            f"{machine.name} has only {machine.total_ranks} ranks"
        )

    m_max = machine.memory_per_rank_elements
    print(f"Machine: {machine.name} — {machine.total_ranks} ranks, "
          f"{m_max:,} elements of memory each")
    print(f"Problem: N = {n:,}, P = {p:,}\n")

    choice = optimize_grid_25d(p, n, m_max=m_max)
    print("Processor Grid Optimization (COnfLUX):")
    print(f"  grid [G, G, c] = [{choice.grid_rows}, {choice.grid_rows}, "
          f"{choice.layers}]")
    print(f"  active ranks   = {choice.active_ranks} "
          f"({choice.disabled_ranks} disabled, "
          f"{100 * choice.disabled_fraction:.1f}%)")
    print(f"  per-rank model = {choice.modeled_per_rank_bytes / 1e6:.1f} MB")
    mem_use = n * n / choice.grid_rows**2
    print(f"  memory/rank    = {mem_use:,.0f} elements "
          f"({100 * mem_use / m_max:.2f}% of available)\n")

    # every model priced at the replication depth the chosen grid runs
    volumes = sweep_models(n, p, c=choice.layers)
    print("Predicted total communication volume (Table 2 models):")
    for impl, vol in sorted(volumes.items(), key=lambda kv: kv[1]):
        print(f"  {impl:<14} {vol / 1e9:10.2f} GB")

    point = reduction_vs_second_best(n, p, c=choice.layers)
    print(f"\nBest choice: {point.best} — expected to communicate "
          f"{point.reduction:.2f}x less than {point.second_best}.")
    if machine is SUMMIT and p == machine.total_ranks:
        lead = reduction_vs_second_best(n, p, leading_only=True)
        print(f"(Leading-factor models — the paper's figure convention — "
              f"give {lead.reduction:.1f}x: the 'expected to communicate "
              f"2.1x less on a full-scale Summit run' claim.)")


if __name__ == "__main__":
    main()
