"""Shared result type and assembly/verification helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels.linalg import lu_residual
from repro.layouts.block_cyclic import BlockCyclic1D
from repro.smpi.grid import ProcessGrid3D
from repro.smpi.volume import VolumeReport

# Every acceptance test in this module is written ``not value <= tol``:
# a NaN compares false both ways and must fail, not pass.

#: Structural tolerance for triangularity checks — assembled factors are
#: built by masking, so violations indicate assembly bugs, not roundoff.
_STRUCTURE_ATOL = 1e-12

#: Ceiling on the residual (and Q's orthogonality defect) of the kinds
#: whose run is accepted numerically: QR and Cholesky.
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class FactorResult:
    """Outcome of one distributed factorization run, in the LU
    container: QR puts the explicit Q in ``lower`` and R in ``upper``,
    Cholesky L and its transpose, both with the identity ``perm``.

    Attributes
    ----------
    name:
        Implementation name ("conflux", "scalapack2d", ...).
    n, nranks:
        Problem size and ranks in the communicator (including any ranks
        the grid optimizer disabled).
    grid:
        Grid dimensions actually used ((Pr, Pc) or (G, G, c)).
    block:
        Panel width (v for the 2.5D algorithms, nb for the 2D ones).
    lower, upper:
        Assembled global factors (for LU: L unit-lower, U upper, of P A).
    perm:
        Row order: ``P A == A[perm]``.
    volume:
        Per-rank communication ledger snapshot.
    residual:
        ``||P A - L U||_F / ||A||_F`` (QR: ``||A - Q R||``, Cholesky:
        ``||A - L L^T||``, same normalization).
    meta:
        Implementation-specific extras (e.g. active rank count).
    """

    name: str
    n: int
    nranks: int
    grid: tuple[int, ...]
    block: int
    lower: np.ndarray
    upper: np.ndarray
    perm: np.ndarray
    volume: VolumeReport
    residual: float
    meta: dict = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"{self.name}: N={self.n} P={self.nranks} grid={self.grid} "
            f"block={self.block} residual={self.residual:.2e} "
            f"volume={self.volume.total_bytes:,} B"
        )


class FactorVerificationError(ValueError):
    """An assembled factorization violates a named invariant.

    ``invariant`` identifies the first failed check ("shape",
    "permutation", "lower_triangular", "upper_triangular",
    "orthogonality" or "residual") so a failing run reports *what*
    broke, not just that something did.
    """

    def __init__(self, invariant: str, detail: str) -> None:
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}")


@dataclass(frozen=True)
class FactorCheck:
    """Outcome of :func:`check_factors`: per-invariant diagnosis.

    ``failed`` lists the violated invariants in check order (empty when
    everything holds); ``residual`` is always computed so callers can
    report it even for structurally broken factors.
    """

    residual: float
    failed: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failed

    def describe(self) -> str:
        if self.ok:
            return f"ok (residual {self.residual:.2e})"
        parts = "; ".join(f"{name}: {detail}" for name, detail in self.failed)
        return f"FAILED [{parts}] (residual {self.residual:.2e})"

    def raise_if_failed(self) -> None:
        if self.failed:
            raise FactorVerificationError(*self.failed[0])


def check_factors(
    a: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    perm: np.ndarray,
    residual_tol: float | None = None,
) -> FactorCheck:
    """Diagnose an assembled LU-style factorization invariant by
    invariant: shapes, permutation validity, L unit-lower-triangularity,
    U upper-triangularity and (when ``residual_tol`` is given) the
    relative residual ``||P A - L U|| / ||A||``."""
    n = a.shape[0]
    failed: list[tuple[str, str]] = []
    if lower.shape != (n, n) or upper.shape != (n, n):
        raise FactorVerificationError(
            "shape",
            f"factor shapes {lower.shape}/{upper.shape} != ({n},{n})",
        )
    if sorted(np.asarray(perm).tolist()) != list(range(n)):
        failed.append(
            ("permutation", "perm is not a permutation of 0..N-1")
        )
    strict_upper = np.abs(np.triu(lower, 1)).max(initial=0.0)
    diag_err = np.abs(np.diag(lower) - 1.0).max(initial=0.0)
    if not (
        strict_upper <= _STRUCTURE_ATOL and diag_err <= _STRUCTURE_ATOL
    ):
        failed.append(
            (
                "lower_triangular",
                "L is not unit lower triangular "
                f"(above-diagonal max {strict_upper:.2e}, "
                f"unit-diagonal error {diag_err:.2e})",
            )
        )
    strict_lower = np.abs(np.tril(upper, -1)).max(initial=0.0)
    if not strict_lower <= _STRUCTURE_ATOL:
        failed.append(
            (
                "upper_triangular",
                f"U has below-diagonal mass {strict_lower:.2e}",
            )
        )
    if failed and any(name == "permutation" for name, _ in failed):
        residual = lu_residual(a, lower, upper, None)
    else:
        residual = lu_residual(a, lower, upper, perm)
    if residual_tol is not None and not residual <= residual_tol:
        failed.append(
            (
                "residual",
                f"||PA - LU||/||A|| = {residual:.2e} > {residual_tol:.1e}",
            )
        )
    return FactorCheck(residual=residual, failed=tuple(failed))


def verify_factors(
    a: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    perm: np.ndarray,
) -> float:
    """Residual of assembled factors.

    Raises :class:`FactorVerificationError` naming the first violated
    invariant (shape / permutation / triangularity) instead of
    returning a silently wrong residual; the residual itself is
    reported, not bounded (``check_factors(residual_tol=)`` bounds it).
    """
    check = check_factors(a, lower, upper, perm)
    check.raise_if_failed()
    return check.residual


def verify_qr_factors(
    a: np.ndarray, q: np.ndarray, r: np.ndarray
) -> tuple[float, float]:
    """Residual and orthogonality of an assembled QR factorization.

    Returns ``(||A - Q R|| / ||A||, ||Q^T Q - I||)``; raises
    :class:`FactorVerificationError` on shape mismatch or a
    non-upper-triangular R (structural breakage, never roundoff).
    """
    n = a.shape[0]
    if q.shape != (n, n) or r.shape != (n, n):
        raise FactorVerificationError(
            "shape", f"factor shapes {q.shape}/{r.shape} != ({n},{n})"
        )
    strict_lower = np.abs(np.tril(r, -1)).max(initial=0.0)
    if not strict_lower <= _STRUCTURE_ATOL:
        raise FactorVerificationError(
            "upper_triangular",
            f"R has below-diagonal mass {strict_lower:.2e}",
        )
    den = np.linalg.norm(a)
    residual = float(np.linalg.norm(a - q @ r))
    if den:
        residual /= den
    orthogonality = float(np.linalg.norm(q.T @ q - np.eye(n)))
    return residual, orthogonality


def verify_cholesky_factor(a: np.ndarray, lower: np.ndarray) -> float:
    """Residual ``||A - L L^T|| / ||A||`` of an assembled Cholesky
    factor; raises :class:`FactorVerificationError` naming ``residual``
    when it exceeds :data:`RESIDUAL_TOL`."""
    residual = float(
        np.linalg.norm(a - lower @ lower.T) / np.linalg.norm(a)
    )
    if not residual <= RESIDUAL_TOL:
        raise FactorVerificationError(
            "residual",
            f"||A - L L^T||/||A|| = {residual:.2e} > {RESIDUAL_TOL:.0e}",
        )
    return residual


def block_cyclic_start(comm, a: np.ndarray, prows: int, pcols: int,
                       nb: int) -> tuple | None:
    """Where a 2D rank program starts, the inverse of
    :func:`gather_blocks`: ``(grid, rowmap, colmap, rows, cols,
    row_g2l, col_g2l, aloc)`` — this rank's place on the one-layer
    ``prows x pcols`` grid, the row and column block-cyclic maps (block
    ``nb``), its global row and column indices, their global-to-local
    lookups (-1 where not owned) and a copy of its local block of
    ``a``.  ``None`` on a rank the grid leaves inactive."""
    n = a.shape[0]
    grid = ProcessGrid3D(comm, prows, pcols, 1)
    if not grid.active:
        return None
    rowmap = BlockCyclic1D(n, prows, nb)
    colmap = BlockCyclic1D(n, pcols, nb)
    rows = rowmap.global_indices(grid.row)
    cols = colmap.global_indices(grid.col)
    row_g2l = np.full(n, -1)
    row_g2l[rows] = np.arange(len(rows))
    col_g2l = np.full(n, -1)
    col_g2l[cols] = np.arange(len(cols))
    aloc = a[np.ix_(rows, cols)].copy()
    return grid, rowmap, colmap, rows, cols, row_g2l, col_g2l, aloc


def gather_blocks(
    n: int, results: list[dict], key: str = "aloc"
) -> np.ndarray:
    """The N x N matrix whose ``(rows, cols)`` blocks the ranks returned
    under ``key``.  Ranks that returned no such block — disabled by the
    grid optimizer, or a COnfQR bank layer — are skipped."""
    combined = np.zeros((n, n))
    seen = False
    for res in results:
        if res.get("active") and key in res:
            seen = True
            combined[np.ix_(res["rows"], res["cols"])] = res[key]
    if not seen:
        raise RuntimeError(f"no rank returned a {key!r} block")
    return combined


def validate_input_matrix(a: np.ndarray) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        row, col = np.argwhere(~finite)[0].tolist()
        raise ValueError(
            f"matrix entry ({row}, {col}) is {arr[row, col]}: every "
            "entry must be finite"
        )
    return arr
