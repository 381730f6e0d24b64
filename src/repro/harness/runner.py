"""Single-experiment runner: one implementation at one (N, P).

Grid and blocking choices mirror the paper's experimental setup and are
``factor()``'s own defaults (:func:`repro.algorithms.api.resolve_params`):

* 2.5D implementations get the Processor-Grid-Optimized [G, G, c] for
  the offered P (max replication the model likes), with v a small
  multiple of c (Section 7.2's v = a c);
* 2D implementations get the nearly-square grid their libraries build
  (LibSci: wide; SLATE: tall) and their block-size defaults.

The record pairs the measured (simulated) volume with the matching
analytic model — ``prediction_pct`` is Table 2's "(prediction %)"
column, measured / modeled * 100.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms import factor, get_algorithm
from repro.models.api import get_model


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured data point plus its model prediction.

    The timing fields are populated only when the experiment ran under
    a machine spec: ``predicted_seconds`` is the discrete-event clock's
    makespan, ``rank_seconds`` the per-rank finish times, and
    ``phase_seconds`` the per-phase time breakdown (exclusive, like
    ``phase_bytes``).
    """

    impl: str
    n: int
    p: int
    grid: tuple[int, ...]
    block: int
    measured_bytes: int
    modeled_bytes: float
    residual: float
    phase_bytes: dict[str, int]
    machine: str | None = None
    predicted_seconds: float | None = None
    compute_seconds: float | None = None
    comm_seconds: float | None = None
    rank_seconds: tuple[float, ...] = ()
    phase_seconds: dict[str, float] | None = None

    @property
    def prediction_pct(self) -> float:
        """measured / modeled * 100 (Table 2's prediction column)."""
        if self.modeled_bytes == 0:
            return float("nan")
        return 100.0 * self.measured_bytes / self.modeled_bytes

    @property
    def per_rank_bytes(self) -> float:
        return self.measured_bytes / self.p

    @property
    def measured_gb(self) -> float:
        return self.measured_bytes / 1e9

    def to_row(self) -> dict:
        """JSON-clean row for the sweep engine / result cache.

        Carries every field the canned experiments report so one cached
        ``measured`` point serves Table 2 (measured vs modeled), Figure
        6a (per-rank volume) and Figure 6b alike.
        """
        return {
            "impl": self.impl,
            "n": self.n,
            "p": self.p,
            "grid": list(self.grid),
            "block": self.block,
            "measured_bytes": self.measured_bytes,
            "modeled_bytes": self.modeled_bytes,
            "residual": self.residual,
            "prediction_pct": self.prediction_pct,
            "per_rank_bytes": self.per_rank_bytes,
            "total_bytes": self.measured_bytes,
            "phase_bytes": dict(self.phase_bytes),
            "machine": self.machine,
            "predicted_seconds": self.predicted_seconds,
            "compute_seconds": self.compute_seconds,
            "comm_seconds": self.comm_seconds,
            "rank_seconds": list(self.rank_seconds),
            "phase_seconds": dict(self.phase_seconds or {}),
        }


def model_for(impl: str, n: int, p: int, params: dict) -> float:
    """The analytic model matching a measured configuration: ``params``
    holds the run's ``grid`` and its block under the algorithm's own
    keyword (``v`` / ``nb``)."""
    model = get_model(impl)
    block = params[get_algorithm(impl).block_param]
    return model.as_run(n, params["grid"], block)


def run_experiment(
    impl: str,
    n: int,
    p: int,
    seed: int = 0,
    v: int | None = None,
    nb: int | None = None,
    a: np.ndarray | None = None,
    machine=None,
) -> ExperimentRecord:
    """Factor a random N x N matrix with ``impl`` on ``p`` ranks.

    ``machine`` (preset name, JSON path, or Machine) switches on the
    discrete-event clock; the record then carries predicted seconds
    alongside the byte ledger.
    """
    get_model(impl)  # a member without a model fails here, not after the run
    block_param = get_algorithm(impl).block_param
    blocks = {"v": v, "nb": nb}
    other = "nb" if block_param == "v" else "v"
    if blocks[other] is not None:
        # Dropping it would run the default block: one problem under
        # two cache keys, and a row whose block is not what was asked.
        raise ValueError(
            f"{impl} takes its block as {block_param}=, not {other}="
        )
    if a is None:
        a = np.random.default_rng(seed).standard_normal((n, n))
    result = factor(
        impl, a, p, machine=machine, **{block_param: blocks[block_param]}
    )
    if not result.residual <= 1e-10:  # NaN must fail
        raise RuntimeError(
            f"{impl} produced residual {result.residual:.2e} at "
            f"N={n}, P={p} — refusing to report volume for a broken run"
        )
    timing = result.volume.timing
    return ExperimentRecord(
        impl=impl,
        n=n,
        p=p,
        grid=result.grid,
        block=result.block,
        measured_bytes=result.volume.total_bytes,
        modeled_bytes=model_for(
            impl, n, p, {"grid": result.grid, block_param: result.block}
        ),
        residual=result.residual,
        phase_bytes=dict(result.volume.phase_bytes),
        machine=timing.machine if timing else None,
        predicted_seconds=timing.makespan if timing else None,
        compute_seconds=(
            timing.total_compute_seconds if timing else None
        ),
        comm_seconds=timing.total_comm_seconds if timing else None,
        rank_seconds=timing.rank_seconds if timing else (),
        phase_seconds=dict(timing.phase_seconds) if timing else None,
    )
