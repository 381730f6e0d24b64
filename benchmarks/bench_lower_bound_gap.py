"""E6 — Section 6: the parallel I/O lower bound and COnfLUX's 1/3 gap.

Two checks:

* measured: simulated COnfLUX volume always sits above the bound
  2 N^3 / (3 P sqrt(M)); the gap shrinks toward the theoretical
  ratio as N grows;
* model: in the c << P^(1/3) regime the exact COnfLUX model converges
  to 1.5x the bound — exactly the paper's "only a factor of 1/3 over"
  claim (at maximum replication the reduce terms double the leading
  cost — a reproduction finding; ROADMAP item 3's gap table has the
  measured and modeled gaps per grid).
"""

import pytest

from repro.harness import format_table, run_sweep
from repro.harness.specs import lower_bound_gap_spec
from repro.models.prediction import model_gap_at_scale


def test_measured_gap_above_bound(benchmark, show, sweep_cache):
    rows = benchmark.pedantic(
        lambda: run_sweep(
            lower_bound_gap_spec(n_values=(64, 128, 256), p=16),
            cache=sweep_cache,
        ).rows(),
        rounds=1,
        iterations=1,
    )
    show(format_table(
        rows,
        [
            ("n", "N"),
            ("grid", "grid"),
            ("measured_elements", "measured [el]"),
            ("bound_elements", "bound [el]"),
            ("gap", "measured/bound"),
        ],
        title="Section 6: measured COnfLUX vs parallel I/O lower bound",
    ))
    for row in rows:
        assert row["gap"] > 1.0  # no schedule may beat the bound
    gaps = [row["gap"] for row in rows]
    assert gaps[-1] < gaps[0]  # finite-N overhead shrinks with N


def test_model_gap_converges_to_three_halves(benchmark, show):
    def gaps():
        return {
            (n, p, c): model_gap_at_scale(n=n, p=p, c=c)
            for (n, p, c) in [
                (16384, 4096, 2),
                (65536, 4096, 2),
                (262144, 16384, 2),
            ]
        }

    vals = benchmark(gaps)
    lines = [
        f"  N={n:>7} P={p:>6} c={c}: gap = {g:.3f}"
        for (n, p, c), g in sorted(vals.items())
    ]
    show("model gap over lower bound (-> 1.5):\n" + "\n".join(lines))
    final = vals[(262144, 16384, 2)]
    assert final == pytest.approx(1.5, abs=0.08)


def test_gap_at_max_replication_is_larger(benchmark, show):
    """Reproduction finding: at c = P^(1/3) the reduce terms equal the
    panel term, pushing the exact-model gap toward 3x (the paper's
    O(N^2/P) bookkeeping treats c as constant)."""

    def gap():
        return model_gap_at_scale(n=262144, p=4096, c=16)

    g = benchmark(gap)
    show(f"gap at max replication (c=16=P^(1/3)): {g:.2f} (vs 1.5 at "
         f"small c)")
    assert g > 2.5
