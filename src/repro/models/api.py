"""Registry-driven ``predict()`` — the model-side mirror of ``factor()``.

The algorithms package dispatches *runs* through one uniform entry
point; this module does the same for the *analytic* side.  Every cost
model registers a :class:`ModelInfo` holding what it differs in: the
closed form, the *as-run* form of the same member — the model on the
grid and block one executed run used, which is what the harness pairs
with a measured volume — and the kind (``lu`` / ``qr``) whose flops it
prices.  Callers use one signature for the whole family::

    from repro.models import predict
    pred = predict("conflux", n=16384, p=1024, machine="daint-xc50")
    pred.total_bytes, pred.comm_seconds, pred.predicted_seconds

``predict`` resolves the machine spec (preset name, JSON path, or
:class:`~repro.models.machines.Machine`), decides the replication depth
c every form is evaluated at, and — when a machine is present —
converts the volume into α-β-γ time estimates comparable with the
discrete-event clock's :class:`~repro.smpi.timing.TimingReport`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.models.costmodels import (
    algorithmic_memory,
    candmc_sim_total_bytes,
    candmc_total_bytes,
    caqr25d_total_bytes,
    conflux_total_bytes,
    confqr_total_bytes,
    qr2d_total_bytes,
    scalapack2d_total_bytes,
)
from repro.models.machines import Machine, resolve_machine

#: flops of the factorization each model kind predicts (double
#: precision; the classical leading terms).
_KIND_FLOPS = {
    "lu": lambda n: 2.0 * n**3 / 3.0,
    "qr": lambda n: 4.0 * n**3 / 3.0,
}


@dataclass(frozen=True)
class ModelInfo:
    """What one registered cost model differs in.

    ``total_bytes(n, p, c)`` is the closed form evaluated at
    replication depth c.  ``as_run(n, grid, block)`` is the same member
    evaluated on the grid and block an executed run used — Table 2's
    "modeled" beside a "measured".  ``kind`` (``lu`` / ``qr``) prices
    the flops.
    """

    kind: str
    total_bytes: Callable[[int, int, int], float]
    as_run: Callable[[int, Sequence[int], int], float]


#: name -> ModelInfo; same names as the algorithm registry where a
#: run-side implementation exists.
MODEL_REGISTRY: dict[str, ModelInfo] = {}


def register_model(
    name: str,
    total_bytes: Callable[..., float],
    *,
    as_run: Callable[[int, Sequence[int], int], float],
    kind: str,
) -> ModelInfo:
    """Register a cost model under ``name``."""
    if kind not in _KIND_FLOPS:
        raise ValueError(f"kind {kind!r} not in {tuple(_KIND_FLOPS)}")
    info = ModelInfo(kind, total_bytes, as_run)
    MODEL_REGISTRY[name] = info
    return info


def get_model(name: str) -> ModelInfo:
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}"
        ) from None


def on_25d_grid(
    step_sums: Callable[..., float],
) -> Callable[[int, Sequence[int], int], float]:
    """As-run form of a 2.5D per-step model: its sums on the
    [G, G, c] grid and block v the run used."""

    def as_run(n: int, grid: Sequence[int], block: int) -> float:
        g, _, c = grid
        return step_sums(n, g * g * c, c=c, v=block, grid_rows=g)

    return as_run


def _lu2d_as_run(n: int, grid: Sequence[int], block: int) -> float:
    pr, pc = grid
    return scalapack2d_total_bytes(n, pr * pc)


def _qr2d_as_run(n: int, grid: Sequence[int], block: int) -> float:
    pr, pc = grid
    return qr2d_total_bytes(n, pr * pc, nb=block, grid=(pr, pc))


# The two 2D LU libraries share one model: it knows neither the
# blocking nor the grid's aspect ratio.
register_model("scalapack2d", scalapack2d_total_bytes,
               as_run=_lu2d_as_run, kind="lu")
register_model("slate2d", scalapack2d_total_bytes,
               as_run=_lu2d_as_run, kind="lu")
# Table 2's CANDMC row is the authors' published closed form; a run of
# the candmc25d *simulation* is paired with that schedule's exact sums.
register_model("candmc25d", candmc_total_bytes,
               as_run=on_25d_grid(candmc_sim_total_bytes), kind="lu")
register_model("conflux", conflux_total_bytes,
               as_run=on_25d_grid(conflux_total_bytes), kind="lu")
register_model("qr2d", qr2d_total_bytes,
               as_run=_qr2d_as_run, kind="qr")
register_model("caqr25d", caqr25d_total_bytes,
               as_run=on_25d_grid(caqr25d_total_bytes), kind="qr")
register_model("confqr", confqr_total_bytes,
               as_run=on_25d_grid(confqr_total_bytes), kind="qr")


@dataclass(frozen=True)
class Prediction:
    """One evaluated model point, optionally timed under a machine.

    Volume fields are always present; the time fields are ``None``
    unless a machine spec was given.  ``comm_seconds`` is the
    bandwidth-bound estimate β · per-rank bytes (latency needs message
    counts, which the closed forms do not carry — the discrete-event
    clock in :mod:`repro.smpi.timing` models that exactly);
    ``compute_seconds`` is kind-flops / (P γ).  ``predicted_seconds``
    sums the two — a no-overlap upper estimate, so the event-driven
    replay of the same run should come in at or under it.
    """

    name: str
    kind: str
    n: int
    p: int
    m: float
    machine: str | None
    total_bytes: float
    comm_seconds: float | None = None
    compute_seconds: float | None = None

    @property
    def predicted_seconds(self) -> float | None:
        if self.comm_seconds is None or self.compute_seconds is None:
            return None
        return self.comm_seconds + self.compute_seconds


def predict(
    name: str,
    n: int,
    p: int | None = None,
    *,
    machine: "Machine | str | None" = None,
    m: float | None = None,
    c: int | None = None,
) -> Prediction:
    """Evaluate the named cost model at (N, P); the one entry point for
    the whole model family, mirroring ``factor()``.

    ``p`` may be omitted when ``machine`` is given — it defaults to the
    machine's rank count.  Every form is evaluated at one replication
    depth, decided here: ``c`` if given, else the deepest one an
    explicit per-rank memory ``m`` (elements, finite and > 0) holds,
    c = floor(P M / N^2), else the Figure 6 rule c = P^(1/3) capped by
    the machine's memory when one is present.  The prediction's ``m``
    is that depth's algorithmic memory c N^2 / P.  The closed form takes
    its default block and grid at that depth.
    """
    info = get_model(name)
    mach = resolve_machine(machine)
    if p is None:
        if mach is None:
            raise ValueError(f"predict({name!r}, ...) needs p= or machine=")
        p = mach.total_ranks
    if n < 1 or p < 1:
        raise ValueError(f"need positive N and P, got N={n}, P={p}")
    if m is not None and not 0 < m < math.inf:
        raise ValueError(f"m must be finite and > 0, got {m!r}")
    if c is None and m is not None:
        c = max(1, int(p * m / n**2))
    elif c is None:
        from repro.models.prediction import choose_c_max_replication

        m_max = mach.memory_per_rank_elements if mach else None
        c = choose_c_max_replication(p, n, m_max=m_max)
    total = float(info.total_bytes(n, p, c))
    comm_s = compute_s = None
    if mach is not None:
        comm_s = mach.beta * total / p
        flops = _KIND_FLOPS[info.kind](n)
        compute_s = (
            0.0 if mach.gamma_flops == float("inf")
            else flops / (p * mach.gamma_flops)
        )
    return Prediction(
        name=name,
        kind=info.kind,
        n=n,
        p=p,
        m=algorithmic_memory(n, p, c),
        machine=mach.name if mach else None,
        total_bytes=total,
        comm_seconds=comm_s,
        compute_seconds=compute_s,
    )
