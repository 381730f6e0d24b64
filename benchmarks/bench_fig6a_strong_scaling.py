"""E3 — Figure 6a: communication volume per node vs P (fixed N).

Measured series at simulator scale plus the model curves at the paper's
N = 16,384.  Shape assertions: (a) COnfLUX's per-node volume falls
faster than the 2D libraries' as P grows; (b) at the paper's scale the
model ordering matches Figure 6a (COnfLUX lowest across the sweep).
"""

import pytest

from repro.harness import format_series, run_sweep
from repro.harness.specs import fig6a_measured_spec, fig6a_model_spec

MEASURED_N = 192
MEASURED_P = (4, 16, 64)


def test_fig6a_measured_and_model(benchmark, show, sweep_cache):
    def run():
        measured = run_sweep(
            fig6a_measured_spec(n=MEASURED_N, p_values=MEASURED_P),
            cache=sweep_cache,
        )
        model = run_sweep(
            fig6a_model_spec(p_values=(16, 64, 256, 1024, 4096, 16384)),
            cache=sweep_cache,
        )
        return measured.rows(), model.rows()

    measured_rows, model_rows = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    show(format_series(
        measured_rows, "p", "per_rank_bytes",
        title=f"Figure 6a (measured, N={MEASURED_N}): bytes/rank vs P",
    ))
    show(format_series(
        model_rows, "p", "per_rank_bytes",
        title="Figure 6a (model, N=16384): bytes/rank vs P",
    ))

    # (a) measured per-rank volume trends downward with P (candmc's
    # replication overheads make it non-monotone at toy N, so only the
    # endpoints are compared; the paper's N = 16,384 curves are
    # monotone)
    series: dict[str, list[tuple[int, float]]] = {}
    for row in measured_rows:
        series.setdefault(row["impl"], []).append(
            (row["p"], row["per_rank_bytes"])
        )
    for impl, pts in series.items():
        pts.sort()
        assert pts[-1][1] < pts[0][1], f"{impl} per-rank volume grew"
        if impl != "candmc25d":
            values = [v for _, v in pts]
            assert values == sorted(values, reverse=True), (
                f"{impl} not monotone: {pts}"
            )

    # (b) model ordering at the paper's scale: conflux lowest for all
    # P >= 64, never more than 1% off best at the P = 16 tie point
    model: dict[int, dict[str, float]] = {}
    for row in model_rows:
        model.setdefault(row["p"], {})[row["impl"]] = row["per_rank_bytes"]
    for p, vols in model.items():
        best = min(vols.values())
        assert vols["conflux"] <= best * 1.01, f"P={p}: {vols}"
        if p >= 64:
            assert min(vols, key=vols.get) == "conflux", f"P={p}: {vols}"


def test_fig6a_conflux_scaling_exponent(benchmark, show):
    """COnfLUX per-rank volume scales ~P^(-2/3) (vs 2D's P^(-1/2)) under
    max replication — the asymptotic separation behind Figure 6a."""
    import math

    from repro.models.prediction import sweep_models

    def series():
        # Leading factors only — the paper's figure convention.  A
        # reproduction finding the figure hides: the exact model's
        # A00-broadcast term (P v N total) overtakes the leading term
        # beyond P ~ (N/a)^(6/5).
        rows = []
        for p in (256, 1024, 4096, 16384, 65536):
            for impl, vol in sweep_models(
                16384, p, leading_only=True
            ).items():
                rows.append(
                    {"impl": impl, "p": p, "per_rank_bytes": vol / p}
                )
        return rows

    rows = benchmark(series)
    per = {}
    for row in rows:
        per.setdefault(row["impl"], {})[row["p"]] = row["per_rank_bytes"]

    def exponent(impl):
        lo, hi = 256, 65536
        return math.log(per[impl][hi] / per[impl][lo]) / math.log(hi / lo)

    e_conflux = exponent("conflux")
    e_2d = exponent("scalapack2d")
    show(f"scaling exponents: conflux {e_conflux:.3f} (theory ~ -2/3), "
         f"scalapack2d {e_2d:.3f} (theory ~ -1/2)")
    assert e_conflux == pytest.approx(-2 / 3, abs=0.12)
    assert e_2d == pytest.approx(-1 / 2, abs=0.05)
    assert e_conflux < e_2d
