"""Capability-aware algorithm registry and the uniform ``factor()``
entry point.

Every implementation registers an :class:`AlgorithmInfo` declaring what
it is (``kind``: ``lu`` / ``qr`` / ``chol`` / ``mmm``), which grid
family it runs on (``25d`` = the [G, G, c] :class:`Schedule25D` family,
``2d`` = the block-cyclic baselines), which floating dtypes it accepts,
and how its blocking parameter is spelled (``v`` or ``nb``).  Callers
use one signature for the whole family::

    from repro.algorithms import factor
    res = factor("conflux", a, grid=(2, 2, 2), v=4)

``factor`` derives the rank count from the grid when ``nranks`` is
omitted, validates the input dtype against the declared capabilities,
and rejects non-factorization kinds (``mmm25d`` computes a product and
keeps its own signature).

The historical per-algorithm entry points (``conflux_lu``,
``caqr25d_qr``, ...) remain importable as :func:`deprecated_alias`
shims that warn once per process and delegate here bit-identically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms.base import IMPLEMENTATIONS, FactorResult

KINDS = ("lu", "qr", "chol", "mmm")
GRID_FAMILIES = ("25d", "2d")


@dataclass(frozen=True)
class AlgorithmInfo:
    """Declared capabilities of one registered implementation."""

    name: str
    kind: str
    grid_family: str
    description: str
    func: Callable
    dtypes: tuple[str, ...] = ("float64", "float32")
    block_param: str = "v"

    def describe(self) -> str:
        return (
            f"{self.name}: kind={self.kind} grid={self.grid_family} "
            f"dtypes={','.join(self.dtypes)} "
            f"block={self.block_param} — {self.description}"
        )


#: name -> AlgorithmInfo, filled by the @register_algorithm decorations
#: at package import time.
REGISTRY: dict[str, AlgorithmInfo] = {}


def register_algorithm(
    name: str,
    *,
    kind: str,
    grid_family: str,
    description: str,
    dtypes: tuple[str, ...] = ("float64", "float32"),
    block_param: str = "v",
):
    """Register an implementation with its capability metadata.

    Also fills the legacy name -> function map
    (:data:`repro.algorithms.base.IMPLEMENTATIONS`) so existing
    ``factor_by_name`` callers keep working unchanged.
    """
    if kind not in KINDS:
        raise ValueError(f"kind {kind!r} not in {KINDS}")
    if grid_family not in GRID_FAMILIES:
        raise ValueError(
            f"grid_family {grid_family!r} not in {GRID_FAMILIES}"
        )

    def deco(fn):
        REGISTRY[name] = AlgorithmInfo(
            name=name,
            kind=kind,
            grid_family=grid_family,
            description=description,
            func=fn,
            dtypes=tuple(dtypes),
            block_param=block_param,
        )
        IMPLEMENTATIONS[name] = fn
        return fn

    return deco


def get_algorithm(name: str) -> AlgorithmInfo:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {sorted(REGISTRY)}"
        ) from None


def list_algorithms(kind: str | None = None) -> tuple[AlgorithmInfo, ...]:
    infos = sorted(REGISTRY.values(), key=lambda i: i.name)
    if kind is not None:
        infos = [i for i in infos if i.kind == kind]
    return tuple(infos)


def _check_dtype(info: AlgorithmInfo, a) -> None:
    dtype = np.asarray(a).dtype
    if dtype.kind == "f":
        if dtype.name not in info.dtypes:
            raise TypeError(
                f"{info.name} supports dtypes {info.dtypes}, "
                f"got {dtype.name}"
            )
    elif dtype.kind not in "iub":
        raise TypeError(
            f"{info.name} expects a real numeric matrix, got dtype "
            f"{dtype.name}"
        )


def factor(
    name: str,
    a: np.ndarray,
    nranks: int | None = None,
    *,
    grid: tuple[int, ...] | None = None,
    machine=None,
    faults=None,
    fault_seed: int | None = None,
    timeout_s: float | None = None,
    **opts,
) -> FactorResult:
    """Factor ``a`` with the named algorithm; the one entry point for
    the whole family.

    ``nranks`` may be omitted when ``grid`` is given — it defaults to
    the grid's rank count ([G, G, c] product for the 2.5D family,
    Pr x Pc for the 2D baselines).  ``machine`` (a preset name, a JSON
    path, or a :class:`~repro.models.machines.Machine`) turns on the
    discrete-event clock: the result's ``volume.timing`` then carries
    predicted per-rank seconds under that machine's α-β-γ parameters.

    ``faults`` (a :class:`~repro.faults.FaultPlan`, plan dict, or JSON
    path) arms deterministic fault injection; ``fault_seed`` overrides
    the plan's seed, so one plan file replays many chaos variants.
    ``timeout_s`` is the run's wall budget (the spelled-out alias of
    the implementations' ``timeout`` option): deadlocks are reported
    the moment they occur, so it only bounds a run that keeps
    computing.  Remaining keyword options (``v``/``nb``, ``timeout``,
    ``m_max``) pass through to the implementation.
    """
    info = get_algorithm(name)
    if machine is not None:
        # Resolve eagerly so a bad preset name or JSON path fails
        # before any rank is started.
        from repro.models.machines import resolve_machine

        opts["machine"] = resolve_machine(machine)
    if timeout_s is not None:
        if "timeout" in opts:
            raise ValueError("pass timeout_s= or timeout=, not both")
        opts["timeout"] = float(timeout_s)
    if faults is not None:
        # Same eager-resolution rationale as machine specs.
        from repro.faults import resolve_faults

        plan = resolve_faults(faults)
        if fault_seed is not None:
            plan = plan.with_seed(fault_seed)
        opts["faults"] = plan
    elif fault_seed is not None:
        raise ValueError("fault_seed= given without faults=")
    if info.kind == "mmm":
        raise ValueError(
            f"{name} computes a matrix product, not a factorization; "
            f"call repro.algorithms.{name}() directly"
        )
    _check_dtype(info, a)
    if nranks is None:
        if grid is None:
            raise ValueError(
                f"factor({name!r}, ...) needs nranks= or grid="
            )
        expected = 3 if info.grid_family == "25d" else 2
        if len(grid) != expected:
            raise ValueError(
                f"{name} uses a {info.grid_family} grid: expected "
                f"{expected} dimensions, got {grid}"
            )
        nranks = int(np.prod(grid))
    if grid is not None:
        opts["grid"] = tuple(grid)
    return info.func(a, nranks, **opts)


# ----------------------------------------------------------------------
# deprecation shims for the historical per-algorithm entry points
# ----------------------------------------------------------------------
_warned_shims: set[str] = set()


def _reset_shim_warnings() -> None:
    """Testing hook: make every shim warn again on next call."""
    _warned_shims.clear()


def deprecated_alias(old_name: str, new_name: str) -> Callable:
    """Build a thin shim for a historical entry point.

    The shim warns with :class:`DeprecationWarning` exactly once per
    process (per alias) and delegates to :func:`factor` with identical
    arguments — results are bit-identical by construction.
    """

    def shim(a, nranks=None, grid=None, **kwargs):
        if old_name not in _warned_shims:
            _warned_shims.add(old_name)
            warnings.warn(
                f"{old_name}() is deprecated; use "
                f"repro.algorithms.factor({new_name!r}, ...)",
                DeprecationWarning,
                stacklevel=2,
            )
        return factor(new_name, a, nranks, grid=grid, **kwargs)

    shim.__name__ = old_name
    shim.__qualname__ = old_name
    shim.__doc__ = (
        f"Deprecated alias for ``factor({new_name!r}, ...)``; warns "
        f"once per process with DeprecationWarning."
    )
    return shim
