"""Single-experiment runner: one implementation at one (N, P).

Grid and blocking choices mirror the paper's experimental setup and are
``factor()``'s own defaults (:func:`repro.algorithms.api.resolve_params`):

* 2.5D implementations get the Processor-Grid-Optimized [G, G, c] for
  the offered P (max replication the model likes), with v a small
  multiple of c (Section 7.2's v = a c);
* 2D implementations get the nearly-square grid their libraries build
  (LibSci: wide; SLATE: tall) and their block-size defaults.

The row pairs the measured (simulated) volume with the matching
analytic model — ``prediction_pct`` is Table 2's "(prediction %)"
column, (measured + self) / modeled * 100.  ``measured_bytes`` is what
crossed the wire; ``self_bytes`` is what the schedule routed to the
rank that already held it.  The models price every routed piece
wherever it lands, so the prediction compares them with the sum: a
schedule that keeps more pieces at home moves fewer wire bytes without
reading as a worse model fit.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import factor, get_algorithm
from repro.algorithms.base import RESIDUAL_TOL
from repro.models.api import get_model


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
    machine=None,
) -> dict:
    """Factor a random N x N matrix with ``impl`` on ``p`` ranks; returns
    the JSON-clean ``measured`` row the sweep engine caches.

    The row carries every field the canned experiments report, so one
    cached point serves Table 2 (measured vs modeled), Figure 6a
    (per-rank volume) and Figure 6b alike.  ``machine`` (preset name,
    JSON path, or Machine) switches on the discrete-event clock: the
    row then adds the predicted makespan, its compute / communication
    split, the per-rank finish times and the per-phase time breakdown
    (exclusive, like ``phase_bytes``); without it those stay empty.
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
    a = np.random.default_rng(seed).standard_normal((n, n))
    result = factor(
        impl, a, p, machine=machine, **{block_param: blocks[block_param]}
    )
    if not result.residual <= RESIDUAL_TOL:  # NaN must fail
        raise RuntimeError(
            f"{impl} produced residual {result.residual:.2e} at "
            f"N={n}, P={p} — refusing to report volume for a broken run"
        )
    measured = result.volume.total_bytes
    kept = sum(result.volume.phase_self_bytes.values())
    modeled = model_for(
        impl, n, p, {"grid": result.grid, block_param: result.block}
    )
    timing = result.volume.timing
    return {
        "impl": impl,
        "n": n,
        "p": p,
        "grid": list(result.grid),
        "block": result.block,
        "measured_bytes": measured,
        "self_bytes": kept,
        "modeled_bytes": modeled,
        "residual": result.residual,
        "prediction_pct": (
            100.0 * (measured + kept) / modeled if modeled
            else float("nan")
        ),
        "per_rank_bytes": measured / p,
        "total_bytes": measured,
        "phase_bytes": dict(result.volume.phase_bytes),
        "machine": timing.machine if timing else None,
        "predicted_seconds": timing.makespan if timing else None,
        "compute_seconds": timing.total_compute_seconds if timing else None,
        "comm_seconds": timing.total_comm_seconds if timing else None,
        "rank_seconds": list(timing.rank_seconds) if timing else [],
        "phase_seconds": dict(timing.phase_seconds) if timing else {},
    }
