"""Built-in sweep tasks and the named spec registry.

Every canned experiment of the reproduction — the Table 2 cells, the
Figure 6a/6b scaling sweeps, the Figure 7 reduction grid, the lower
bound gap study and the blocking-parameter ablation — is expressed
here as a :class:`~repro.harness.sweep.SweepSpec` over one of the
registered tasks:

=================  =======================================================
task               one point computes
=================  =======================================================
``measured``       a simulator run of one implementation at (N, P) plus
                   its analytic model (a Table 2 cell / Figure 6 sample)
``model``          one implementation's Table 2 model at (N, P)
``reduction``      best-vs-second-best reduction at (N, P) (Figure 7)
``lower_bound_gap``  measured COnfLUX volume vs the Section 6 bound
``block_size``     a COnfLUX run at one blocking parameter v (ablation)
``qr_lower_bound_gap``  measured 2.5D CAQR volume vs the QR I/O bound
``qr_confqr_gap``  COnfQR and 2.5D CAQR at one explicit [G, G, c] grid:
                   measured vs exact model, factor-only slice, bound gap
``chaos``          one factorization under a canned fault-injection
                   plan, its outcome classified against ground truth
=================  =======================================================

The QR family (``qr2d``, ``caqr25d``, ``confqr``) rides the same
``measured`` task: ``qr-strong`` and ``qr-weak`` sweep all three
members, ``qr-strong-time`` adds the clock; ``qr-lower-bound-gap`` and
``qr-confqr-gap`` have tasks of their own.

``SPECS`` maps the public sweep names (``python -m repro sweep --list``)
to zero-argument factories producing the default instance of each
experiment.  A factory takes a parameter only where a benchmark, an
example or another factory builds a reduced-scale or re-labelled
variant of the same spec; a test changes a spec's ``axes`` / ``fixed``
with :func:`dataclasses.replace`.  Every variant runs with
:func:`~repro.harness.sweep.run_sweep`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Callable, Sequence

from repro.faults import ACTIONS
from repro.harness.sweep import SweepSpec, task
from repro.models.costmodels import (
    MODEL_NAMES,
    QR_MODEL_NAMES,
    algorithmic_memory,
)
from repro.models.prediction import (
    TABLE2_PAPER_GB,
    reduction_vs_second_best,
    sweep_models,
    weak_scaling_n,
)

# --------------------------------------------------------------------------
# tasks
# --------------------------------------------------------------------------


@task("measured", schema_version=3)
def measured_task(
    impl: str,
    n: int,
    p: int,
    seed: int = 0,
    v: int | None = None,
    nb: int | None = None,
    machine: str | None = None,
) -> dict:
    """Factor an N x N matrix with ``impl`` on ``p`` simulated ranks.

    ``machine`` (a preset name) additionally runs the discrete-event
    clock, adding predicted seconds to the row.  Points that do not set
    it hash exactly as before, so existing sweep caches stay valid.
    """
    from repro.harness.runner import run_experiment

    return run_experiment(
        impl, n, p, seed=seed, v=v, nb=nb, machine=machine
    )


@task("model")
def model_task(impl: str, n: int, p: int) -> dict:
    """One implementation's Table 2 model at (N, P)."""
    vol = sweep_models(n, p)[impl]
    return {
        "impl": impl,
        "n": n,
        "p": p,
        "total_bytes": vol,
        "per_rank_bytes": vol / p,
        "model_gb": vol / 1e9,
    }


@task("reduction")
def reduction_task(n: int, p: int, leading_only: bool = True) -> dict:
    """Figure 7: reduction of the best model vs the second best."""
    point = reduction_vs_second_best(n, p, leading_only=leading_only)
    best_vol = min(point.volumes.values())
    return {
        "n": n,
        "p": p,
        "best": point.best,
        "second_best": point.second_best,
        "reduction": point.reduction,
        "conflux_vs_best": point.volumes["conflux"] / best_vol,
    }


def _bound_gap_row(
    impl: str,
    bound_per_rank: Callable[[int, float, int], float],
    n: int,
    p: int,
    seed: int,
) -> dict:
    """Measured volume of ``impl`` over ``bound_per_rank(N, M, P)``
    summed over the active ranks of the grid the run chose."""
    from repro.harness.runner import run_experiment

    row = run_experiment(impl, n, p, seed=seed)
    g, _, c = row["grid"]
    active = g * g * c
    m = algorithmic_memory(n, active, c)
    bound_total = bound_per_rank(n, m, active) * active
    return {
        "n": n,
        "p": p,
        "grid": row["grid"],
        "measured_elements": row["measured_bytes"] / 8,
        "bound_elements": bound_total,
        "gap": (row["measured_bytes"] / 8) / bound_total,
    }


@task("lower_bound_gap", schema_version=3)
def lower_bound_gap_task(n: int, p: int, seed: int = 0) -> dict:
    """Section 6: measured COnfLUX volume over the parallel bound."""
    from repro.theory.bounds import lu_parallel_lower_bound_leading

    return _bound_gap_row(
        "conflux", lu_parallel_lower_bound_leading, n, p, seed
    )


@task("qr_lower_bound_gap")
def qr_lower_bound_gap_task(n: int, p: int, seed: int = 0) -> dict:
    """Measured 2.5D CAQR volume over the parallel QR I/O bound."""
    from repro.theory.bounds import qr_parallel_lower_bound

    return _bound_gap_row("caqr25d", qr_parallel_lower_bound, n, p, seed)


@task("qr_confqr_gap")
def qr_confqr_gap_task(
    n: int, g: int, c: int, v: int = 4, seed: int = 0,
) -> dict:
    """COnfQR vs 2.5D CAQR at one explicit [G, G, c] grid.

    Reports measured vs exact-model COnfQR volume, the
    factorization-only slice (explicit-Q assembly phases carry a
    ``q_`` prefix in the ledger), CAQR at the same grid, and the gap
    over the parallel QR I/O lower bound.  Swept over grids of equal
    P, the COnfQR total keeps falling as c grows while CAQR's rises —
    the optimum moves past c = 2.
    """
    import numpy as np

    from repro.algorithms import factor
    from repro.models.costmodels import (
        caqr25d_total_bytes,
        confqr_total_bytes,
    )
    from repro.theory.bounds import qr_parallel_lower_bound

    p = g * g * c
    a = np.random.default_rng(seed).standard_normal((n, n))
    confqr = factor("confqr", a, grid=(g, g, c), v=v)
    caqr = factor("caqr25d", a, grid=(g, g, c), v=v)
    measured = confqr.volume.total_bytes
    factor_only = sum(
        nbytes
        for phase, nbytes in confqr.volume.phase_bytes.items()
        if not phase.startswith("q_")
    )
    model = confqr_total_bytes(n, p, c=c, v=v, grid_rows=g)
    m = algorithmic_memory(n, p, c)
    bound_total = qr_parallel_lower_bound(n, m, p) * p
    return {
        "n": n,
        "g": g,
        "c": c,
        "p": p,
        "v": v,
        "confqr_bytes": measured,
        "confqr_model_bytes": model,
        "model_error": abs(measured - model) / model if model else 0.0,
        "confqr_factor_bytes": factor_only,
        "caqr25d_bytes": caqr.volume.total_bytes,
        "caqr25d_model_bytes": caqr25d_total_bytes(
            n, p, c=c, v=v, grid_rows=g
        ),
        "volume_ratio": caqr.volume.total_bytes / measured if measured
        else 1.0,
        "gap": (measured / 8) / bound_total,
    }


@task("block_size", schema_version=3)
def block_size_task(n: int, g: int, c: int, v: int, seed: int = 3) -> dict:
    """Blocking-parameter ablation: one COnfLUX run at block size v."""
    import numpy as np

    from repro.algorithms import factor

    a = np.random.default_rng(seed).standard_normal((n, n))
    res = factor("conflux", a, grid=(g, g, c), v=v)
    return {
        "v": v,
        "n": n,
        "steps": -(-n // v),
        "total_bytes": res.volume.total_bytes,
        "bcast_a00": res.volume.phase_bytes["bcast_a00"],
        "tournament": res.volume.phase_bytes["tournament"],
    }


#: Outcome labels of one ``chaos`` point.
CHAOS_DETECTED = "detected"
CHAOS_RECOVERED = "recovered"
CHAOS_SILENT = "silent-corruption"

#: Largest true residual a ``chaos`` run may complete with and still
#: count as ``recovered``.
CHAOS_RESIDUAL_TOL = 1e-8


@task("chaos", schema_version=3)
def chaos_task(
    impl: str,
    n: int,
    p: int,
    fault_class: str,
    fault_seed: int = 0,
    seed: int = 0,
) -> dict:
    """One fault-injection run: factor under a canned one-rule plan
    and classify the outcome against ground truth.  The run has
    ``factor``'s default wall budget: a lost message surfaces as a
    deadlock the moment no rank can run, so a short budget of its own
    would only make the row depend on the host's load.

    Outcomes:

    * ``detected`` — the run raised (rank crash surfaced as
      :class:`RankFailure`, a dropped message surfaced as
      :class:`DeadlockError`, a duplicate nobody received as
      :class:`UndeliveredMessages`, corruption caught by the
      assembler's own verification, ...);
    * ``recovered`` — the run completed and the true residual is
      within :data:`CHAOS_RESIDUAL_TOL` (delays are absorbed);
    * ``silent-corruption`` — the run completed but the factors are
      wrong (a bit flip slipped past structural checks).

    ``fault_log_digest`` hashes the canonical fault log, so comparing
    two rows compares the *entire* injection history, not just counts.
    """
    import hashlib

    import numpy as np

    from repro.algorithms import factor
    from repro.algorithms.base import FactorVerificationError
    from repro.faults import canned_plan
    from repro.harness.cache import canonical_json
    from repro.smpi import SmpiError

    plan = canned_plan(fault_class, seed=fault_seed)
    a = np.random.default_rng(seed).standard_normal((n, n))
    row = {
        "impl": impl,
        "n": n,
        "p": p,
        "fault_class": fault_class,
        "fault_seed": fault_seed,
        "outcome": "",
        "detail": "",
        "residual": None,
        "n_injected": None,
        "by_action": None,
        "fault_log_digest": None,
    }
    try:
        res = factor(impl, a, p, faults=plan)
    except (SmpiError, FactorVerificationError) as exc:
        # The injector dies with the run, so the log is unreachable
        # here; the exception's first line stands in for it.  (Only
        # the first line: it names the first failed rank and what it
        # was blocked on; the census below it would bloat the row.)
        row["outcome"] = CHAOS_DETECTED
        row["detail"] = f"{type(exc).__name__}: {exc}".splitlines()[0]
        return row
    faults_report = res.volume.faults or {
        "n_injected": 0, "by_action": {}, "events": [],
    }
    row["residual"] = float(res.residual)
    row["n_injected"] = faults_report["n_injected"]
    row["by_action"] = faults_report["by_action"]
    row["fault_log_digest"] = hashlib.blake2b(
        canonical_json(faults_report["events"]).encode(),
        digest_size=16,
    ).hexdigest()
    if not res.residual <= CHAOS_RESIDUAL_TOL:  # NaN is corruption too
        row["outcome"] = CHAOS_SILENT
        row["detail"] = (
            f"residual {res.residual:.2e} > {CHAOS_RESIDUAL_TOL:.1e} "
            "but no invariant tripped"
        )
    else:
        row["outcome"] = CHAOS_RECOVERED
    return row


# --------------------------------------------------------------------------
# spec factories
# --------------------------------------------------------------------------

#: Reduced-scale stand-ins for the paper's Table 2 (N, P) cells — the
#: simulator-scale substitution DESIGN.md documents.
TABLE2_MEASURED_POINTS = ((128, 16), (256, 16))

#: The paper's exact Table 2 cells (model evaluation).
TABLE2_PAPER_POINTS = tuple(TABLE2_PAPER_GB)


def _np_axis(points: Sequence[tuple[int, int]]) -> dict:
    """Axis over (N, P) pairs, unpacked into n/p by ``_split_np``."""
    return {"np": [list(np_pair) for np_pair in points]}


def _split_np(params: dict) -> dict:
    np_pair = params.pop("np")
    params["n"], params["p"] = int(np_pair[0]), int(np_pair[1])
    return params


def _variant(
    base: SweepSpec,
    name: str,
    description: str,
    **more_axes: Sequence,
) -> SweepSpec:
    """``base``'s grid under another public name, optionally spanned
    over further axes (appended, so ``base``'s order is kept)."""
    axes = {**base.axes, **{k: list(v) for k, v in more_axes.items()}}
    return dataclasses.replace(
        base, name=name, axes=axes, description=description
    )


def table2_measured_spec(
    points: Sequence[tuple[int, int]] = TABLE2_MEASURED_POINTS,
    impls: Sequence[str] = MODEL_NAMES,
) -> SweepSpec:
    return SweepSpec(
        name="table2",
        task="measured",
        axes={**_np_axis(points), "impl": list(impls)},
        fixed={"seed": 0},
        derive=_split_np,
        description=(
            "Table 2, measured: simulator runs vs analytic models "
            "(prediction %) at reduced (N, P)"
        ),
    )


def table2_models_spec() -> SweepSpec:
    return SweepSpec(
        name="table2-models",
        task="model",
        axes={**_np_axis(TABLE2_PAPER_POINTS), "impl": list(MODEL_NAMES)},
        derive=_split_np,
        description=(
            "Table 2, modeled: the paper's exact (N, P) cells through "
            "our Table 2 models"
        ),
    )


def fig6a_measured_spec(
    n: int = 256,
    p_values: Sequence[int] = (4, 8, 16, 32, 64),
    impls: Sequence[str] = MODEL_NAMES,
    seed: int = 0,
) -> SweepSpec:
    return SweepSpec(
        name="fig6a",
        task="measured",
        axes={"p": list(p_values), "impl": list(impls)},
        fixed={"n": n, "seed": seed},
        description=(
            "Figure 6a, measured: per-rank volume vs P at fixed N "
            "(strong scaling)"
        ),
    )


def fig6a_model_spec(
    p_values: Sequence[int] = (16, 64, 256, 1024, 4096, 16384),
) -> SweepSpec:
    return SweepSpec(
        name="fig6a-model",
        task="model",
        axes={"p": list(p_values), "impl": list(MODEL_NAMES)},
        fixed={"n": 16384},
        description=(
            "Figure 6a, model curves at the paper's N = 16,384"
        ),
    )


def _weak_scaling_measured_n(p: int, n0: int) -> int:
    n = max(weak_scaling_n(p, n0), 16)
    return int(math.ceil(n / 8) * 8)  # keep blocks tidy


def fig6b_measured_spec(
    n0: int = 64,
    p_values: Sequence[int] = (4, 8, 27, 64),
    impls: Sequence[str] = MODEL_NAMES,
) -> SweepSpec:
    def derive(params: dict) -> dict:
        params["n"] = _weak_scaling_measured_n(params["p"], n0)
        return params

    return SweepSpec(
        name="fig6b",
        task="measured",
        axes={"p": list(p_values), "impl": list(impls)},
        fixed={"seed": 0},
        derive=derive,
        description=(
            "Figure 6b, measured: weak scaling N = N0 P^(1/3) "
            f"(N0 = {n0})"
        ),
    )


def fig6b_model_spec(
    p_values: Sequence[int] = (8, 64, 512, 4096, 32768),
) -> SweepSpec:
    def derive(params: dict) -> dict:
        params["n"] = weak_scaling_n(params["p"], 3200)
        return params

    return SweepSpec(
        name="fig6b-model",
        task="model",
        axes={"p": list(p_values), "impl": list(MODEL_NAMES)},
        derive=derive,
        description="Figure 6b, model curves at the paper's N0 = 3200",
    )


def fig7_spec() -> SweepSpec:
    return SweepSpec(
        name="fig7",
        task="reduction",
        axes={
            "n": [4096, 8192, 16384],
            "p": [64, 256, 1024, 4096, 16384, 65536, 262144],
        },
        fixed={"leading_only": True},
        description=(
            "Figure 7: predicted reduction vs the second-best "
            "implementation over the (P, N) grid"
        ),
    )


def lower_bound_gap_spec(
    n_values: Sequence[int] = (64, 128, 256), p: int = 16
) -> SweepSpec:
    return SweepSpec(
        name="lower-bound-gap",
        task="lower_bound_gap",
        axes={"n": list(n_values)},
        fixed={"p": p, "seed": 0},
        description=(
            "Section 6: measured COnfLUX volume vs the parallel I/O "
            "lower bound"
        ),
    )


def block_size_spec(
    n: int = 128,
    g: int = 2,
    c: int = 2,
    v_values: Sequence[int] = (2, 4, 8, 16, 32),
) -> SweepSpec:
    return SweepSpec(
        name="ablation-block-size",
        task="block_size",
        axes={"v": list(v_values)},
        fixed={"n": n, "g": g, "c": c, "seed": 3},
        description=(
            "Ablation: COnfLUX volume vs the blocking parameter v "
            "(Section 7.2)"
        ),
    )


def qr_strong_scaling_spec(
    n: int = 96, p_values: Sequence[int] = (4, 8, 16)
) -> SweepSpec:
    return _variant(
        fig6a_measured_spec(n=n, p_values=p_values, impls=QR_MODEL_NAMES),
        "qr-strong",
        "QR strong scaling: per-rank volume vs P at fixed N "
        "(2D Householder vs 2.5D CAQR vs COnfQR)",
    )


def qr_weak_scaling_spec() -> SweepSpec:
    return _variant(
        fig6b_measured_spec(
            n0=32, p_values=(4, 8, 27), impls=QR_MODEL_NAMES
        ),
        "qr-weak",
        "QR weak scaling: N = N0 P^(1/3) (N0 = 32), 2D "
        "Householder vs 2.5D CAQR vs COnfQR",
    )


def qr_lower_bound_gap_spec(
    n_values: Sequence[int] = (48, 64, 96), p: int = 16
) -> SweepSpec:
    return SweepSpec(
        name="qr-lower-bound-gap",
        task="qr_lower_bound_gap",
        axes={"n": list(n_values)},
        fixed={"p": p, "seed": 0},
        description=(
            "Measured 2.5D CAQR volume vs the parallel QR I/O lower "
            "bound (constant-factor gap)"
        ),
    )


def qr_confqr_gap_spec(
    gc_points: Sequence[tuple[int, int]] = ((8, 1), (4, 4), (2, 16)),
    n: int = 48,
    v: int = 4,
) -> SweepSpec:
    def split_gc(params: dict) -> dict:
        gc = params.pop("gc")
        params["g"], params["c"] = int(gc[0]), int(gc[1])
        return params

    return SweepSpec(
        name="qr-confqr-gap",
        task="qr_confqr_gap",
        axes={"gc": [list(gc) for gc in gc_points]},
        fixed={"n": n, "v": v, "seed": 0},
        derive=split_gc,
        description=(
            "COnfQR vs 2.5D CAQR over equal-P [G, G, c] grids: "
            "measured vs exact model, factor-only slice, QR bound "
            "gap — the optimum moves past c = 2"
        ),
    )


#: Machine presets the ``*-time`` sweeps predict under (two, so the
#: α-β sensitivity is visible point by point).
TIME_MACHINES = ("daint-xc50", "summit")


def table2_time_spec() -> SweepSpec:
    return _variant(
        table2_measured_spec(),
        "table2-time",
        "Table 2 grid under the discrete-event clock: predicted "
        "seconds (per rank, per phase) on each machine preset",
        machine=TIME_MACHINES,
    )


def qr_strong_time_spec() -> SweepSpec:
    return _variant(
        qr_strong_scaling_spec(),
        "qr-strong-time",
        "QR strong scaling under the discrete-event clock: "
        "predicted seconds vs P on each machine preset",
        machine=TIME_MACHINES,
    )


def _chaos_spec(
    name: str,
    impl: str,
    label: str,
    *,
    n: int,
    fault_seeds: Sequence[int] = (0, 1, 2),
) -> SweepSpec:
    return SweepSpec(
        name=name,
        task="chaos",
        axes={
            "fault_class": list(ACTIONS),
            "fault_seed": list(fault_seeds),
        },
        fixed={"impl": impl, "n": n, "p": 8, "seed": 0},
        description=(
            f"Chaos grid: {label} under each canned fault class x "
            "seed; outcomes classified against ground truth"
        ),
    )


chaos_lu_spec = functools.partial(
    _chaos_spec, "chaos-lu", "conflux", "COnfLUX", n=64
)
chaos_qr_spec = functools.partial(
    _chaos_spec, "chaos-qr", "caqr25d", "2.5D CAQR", n=48
)


#: Public sweep names: ``python -m repro sweep --run <name>``.
SPECS = {
    "table2": table2_measured_spec,
    "table2-models": table2_models_spec,
    "fig6a": fig6a_measured_spec,
    "fig6a-model": fig6a_model_spec,
    "fig6b": fig6b_measured_spec,
    "fig6b-model": fig6b_model_spec,
    "fig7": fig7_spec,
    "lower-bound-gap": lower_bound_gap_spec,
    "ablation-block-size": block_size_spec,
    "table2-time": table2_time_spec,
    "qr-strong": qr_strong_scaling_spec,
    "qr-strong-time": qr_strong_time_spec,
    "qr-weak": qr_weak_scaling_spec,
    "qr-lower-bound-gap": qr_lower_bound_gap_spec,
    "qr-confqr-gap": qr_confqr_gap_spec,
    "chaos-lu": chaos_lu_spec,
    "chaos-qr": chaos_qr_spec,
}


def named_spec(name: str) -> SweepSpec:
    """Instantiate a registry spec by name (KeyError lists options)."""
    try:
        factory = SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep {name!r}; available: {', '.join(sorted(SPECS))}"
        ) from None
    return factory()
