"""Capability-aware algorithm registry and ``factor()``, the one host
driver of the family.

A family member is data.  :func:`register_algorithm` records what it is
(``kind``: ``lu`` / ``qr`` / ``chol``), which grid family it runs on
(``25d`` = the [G, G, c] :class:`Schedule25D` family, whose block is
spelled ``v``; ``2d`` = the block-cyclic baselines, spelled ``nb``) —
and the three things that actually differ between members: the rank
program every rank runs, the assembler that turns the per-rank results
into global factors, and the default block with its floor.  Everything
else is shared::

    from repro.algorithms import factor
    res = factor("conflux", a, grid=(2, 2, 2), v=4)

``factor`` validates the input against the declared capabilities,
resolves the grid and the block (:func:`resolve_params`), runs the rank
program under ``run_spmd``, assembles, verifies per kind and builds the
:class:`FactorResult`.  ``mmm25d`` computes a product, not a
factorization, and is not registered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms.base import (
    RESIDUAL_TOL,
    FactorResult,
    FactorVerificationError,
    validate_input_matrix,
    verify_cholesky_factor,
    verify_factors,
    verify_qr_factors,
)
from repro.algorithms.gridopt import choose_grid_2d, optimize_grid_25d
from repro.smpi import run_spmd
from repro.smpi.runtime import DEFAULT_TIMEOUT_S

KINDS = ("lu", "qr", "chol")
GRID_FAMILIES = ("25d", "2d")


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registered implementation: declared capabilities plus what
    the host driver needs to run it.

    ``program`` is the SPMD rank function ``(comm, a, d0, d1, block)``
    (``Rank25D.main`` of a subclass, or a 2D rank function) and
    ``assemble(n, grid, block, results)`` turns its per-rank results
    into ``(lower, upper, perm)``.  ``block_at_least_layers`` is the
    Section 7.2 floor ``v >= c``, which also lifts ``default_block``.
    """

    name: str
    kind: str
    grid_family: str
    description: str
    program: Callable
    assemble: Callable
    default_block: int = 1
    block_at_least_layers: bool = False
    prefer_tall_grid: bool = False
    symmetric_input: bool = False

    @property
    def block_param(self) -> str:
        """The keyword ``factor()`` takes the block size under."""
        return "v" if self.grid_family == "25d" else "nb"


#: name -> AlgorithmInfo, filled by the register_algorithm calls at
#: package import time.
REGISTRY: dict[str, AlgorithmInfo] = {}


def register_algorithm(name: str, **fields) -> AlgorithmInfo:
    """Register an implementation; ``fields`` are the
    :class:`AlgorithmInfo` attributes."""
    info = AlgorithmInfo(name=name, **fields)
    if info.kind not in KINDS:
        raise ValueError(f"kind {info.kind!r} not in {KINDS}")
    if info.grid_family not in GRID_FAMILIES:
        raise ValueError(
            f"grid_family {info.grid_family!r} not in {GRID_FAMILIES}"
        )
    REGISTRY[name] = info
    return info


def get_algorithm(name: str) -> AlgorithmInfo:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {sorted(REGISTRY)}"
        ) from None


def list_algorithms() -> tuple[AlgorithmInfo, ...]:
    return tuple(sorted(REGISTRY.values(), key=lambda i: i.name))


def _check_dtype(info: AlgorithmInfo, a) -> None:
    dtype = np.asarray(a).dtype
    supported = ("float64", "float32")
    if dtype.kind == "f":
        if dtype.name not in supported:
            raise TypeError(
                f"{info.name} supports dtypes {supported}, "
                f"got {dtype.name}"
            )
    elif dtype.kind not in "iub":
        raise TypeError(
            f"{info.name} expects a real numeric matrix, got dtype "
            f"{dtype.name}"
        )


def resolve_grid(
    name: str,
    n: int,
    nranks: int | None = None,
    grid: tuple[int, ...] | None = None,
) -> tuple[int, tuple[int, ...]]:
    """The ``(nranks, grid)`` the named algorithm runs an N x N problem
    on.

    Without ``grid`` the 2.5D family gets the Processor-Grid-Optimized
    [G, G, c] for ``nranks`` (possibly disabling ranks) and the 2D
    family the nearly-square Pr x Pc its library builds; without
    ``nranks`` the communicator is exactly the grid.
    """
    info = get_algorithm(name)
    is_25d = info.grid_family == "25d"
    if grid is None:
        if nranks is None:
            raise ValueError(f"factor({name!r}, ...) needs nranks= or grid=")
        if is_25d:
            choice = optimize_grid_25d(nranks, n)
            grid = (choice.grid_rows, choice.grid_rows, choice.layers)
        else:
            grid = choose_grid_2d(nranks, prefer_tall=info.prefer_tall_grid)
    else:
        grid = tuple(grid)
        arity = 3 if is_25d else 2
        if len(grid) != arity:
            raise ValueError(
                f"{name}: a {info.grid_family} grid has {arity} "
                f"dimensions, got {grid}"
            )
        if is_25d and grid[0] != grid[1]:
            raise ValueError(
                f"{name}: grid must be square in rows/cols, got {grid}"
            )
    needed = math.prod(grid)
    if nranks is None:
        nranks = needed
    elif needed > nranks:
        raise ValueError(
            f"{name}: grid {grid} needs {needed} ranks, have {nranks}"
        )
    return nranks, grid


def resolve_params(
    name: str,
    n: int,
    nranks: int | None = None,
    grid: tuple[int, ...] | None = None,
    block: int | None = None,
) -> tuple[int, tuple[int, ...], int]:
    """The ``(nranks, grid, block)`` that ``factor(name, ...)`` runs an
    N x N problem on: :func:`resolve_grid`, then the member's default
    block, its floor, and ``block = n`` on a 2.5D grid when the matrix
    is narrower than one panel."""
    info = get_algorithm(name)
    nranks, grid = resolve_grid(name, n, nranks, grid)
    is_25d = info.grid_family == "25d"
    layers = grid[2] if is_25d else 1
    floor = layers if info.block_at_least_layers else 1
    if block is None:
        block = max(info.default_block, floor)
    if block < floor:
        raise ValueError(
            f"{name}: {info.block_param}={block} must be >= {floor}"
        )
    if is_25d and n < block:
        block = n
    return nranks, grid, block


def verify_assembled(
    info: AlgorithmInfo,
    a: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    perm: np.ndarray,
) -> tuple[float, dict]:
    """Per-kind acceptance of assembled factors: ``(residual, meta)``.

    LU checks the structural invariants only — the residual is reported,
    not bounded, so a run under fault injection can still be classified
    as silent corruption by its caller.  QR and Cholesky bound the
    residual (and Q's orthogonality defect) at 1e-10.
    """
    if info.kind == "lu":
        return verify_factors(a, lower, upper, perm), {}
    if info.kind == "chol":
        return verify_cholesky_factor(a, lower), {}
    residual, orthogonality = verify_qr_factors(a, lower, upper)
    for invariant, what, value in (
        ("residual", "||A - QR||/||A||", residual),
        ("orthogonality", "||Q^T Q - I||", orthogonality),
    ):
        if not value <= RESIDUAL_TOL:  # NaN must fail
            raise FactorVerificationError(
                invariant,
                f"{info.name} {what} = {value:.2e} > {RESIDUAL_TOL:.0e}",
            )
    return residual, {"orthogonality": orthogonality}


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
    Pr x Pc for the 2D baselines); ``grid`` may be omitted when
    ``nranks`` is given (see :func:`resolve_grid`).  ``machine`` (a
    preset name, a JSON path, or a
    :class:`~repro.models.machines.Machine`) turns on the
    discrete-event clock: the result's ``volume.timing`` then carries
    predicted per-rank seconds under that machine's α-β-γ parameters.

    ``faults`` (a :class:`~repro.faults.FaultPlan`, plan dict, or JSON
    path) arms deterministic fault injection; ``fault_seed`` overrides
    the plan's seed, so one plan file replays many chaos variants.
    ``timeout_s`` is the run's wall budget (``> 0``; ``inf`` for
    none; 600 s, the runtime's ``DEFAULT_TIMEOUT_S``, when omitted):
    deadlocks are reported the moment they occur, so it only bounds a
    run that keeps computing.
    The one remaining keyword is the member's blocking parameter, ``v``
    or ``nb``.

    For ``lu`` the result holds L, U and the row order of P A = L U;
    for ``qr``, ``lower`` is the explicit Q, ``upper`` is R and
    ``meta["orthogonality"]`` is ``||Q^T Q - I||_F``; for ``chol``,
    ``lower`` is L and ``upper`` its transpose.  ``perm`` is the
    identity for the pivot-free kinds.
    """
    info = get_algorithm(name)
    if machine is not None:
        # Resolve eagerly so a bad preset name or JSON path fails
        # before any rank is started.
        from repro.models.machines import resolve_machine

        machine = resolve_machine(machine)
    timeout = DEFAULT_TIMEOUT_S if timeout_s is None else float(timeout_s)
    if not timeout > 0:
        raise ValueError(f"timeout_s must be > 0, got {timeout_s!r}")
    if faults is not None:
        # Same eager-resolution rationale as machine specs.
        from repro.faults import resolve_faults

        faults = resolve_faults(faults)
        if fault_seed is not None:
            faults = faults.with_seed(fault_seed)
    elif fault_seed is not None:
        raise ValueError("fault_seed= given without faults=")
    block = opts.pop(info.block_param, None)
    if opts:
        raise TypeError(
            f"{name}: unexpected keyword argument(s) "
            f"{', '.join(sorted(opts))}; accepted: "
            f"{info.block_param}, timeout_s"
        )
    _check_dtype(info, a)
    a = validate_input_matrix(a)
    n = a.shape[0]
    if info.symmetric_input and not np.allclose(a, a.T, atol=1e-10):
        raise ValueError(f"{name} requires a symmetric matrix")
    nranks, grid, block = resolve_params(name, n, nranks, grid, block)
    # A [G, G, c] grid travels as (G, c), a Pr x Pc grid as it is.
    results, report = run_spmd(
        nranks, info.program, a, grid[0], grid[-1], block,
        timeout=timeout, machine=machine, faults=faults,
    )
    lower, upper, perm = info.assemble(n, grid, block, results)
    residual, meta = verify_assembled(info, a, lower, upper, perm)
    meta["active_ranks"] = math.prod(grid)
    return FactorResult(
        name=name,
        n=n,
        nranks=nranks,
        grid=grid,
        block=block,
        lower=lower,
        upper=upper,
        perm=perm,
        volume=report,
        residual=residual,
        meta=meta,
    )
