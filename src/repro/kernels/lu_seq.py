"""Sequential LU factorizations (rank-local kernels).

The distributed algorithms never factor more than a panel or a v x v
block locally, and like the paper's implementation they leave that to
the vendor library: :func:`lu_partial_pivot` is one LAPACK ``getrf``
call.  The blocked variant spells out the classic right-looking
structure the 2D baselines mirror across the process grid, and
:func:`lu_nopivot` the paper's Figure 1 loop nest.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf

from repro.kernels.linalg import trsm_lower_unit


def lu_nopivot(a: np.ndarray) -> np.ndarray:
    """LU without pivoting (paper Figure 1's loop nest), on a copy of
    ``a``.

    Returns the combined factors: L strictly below the diagonal (unit
    diagonal implied), U on and above.  Raises on a zero pivot — callers
    that can encounter one must pivot.
    """
    lu = _as_square(a)
    n = lu.shape[0]
    for k in range(n - 1):
        pivot = lu[k, k]
        if pivot == 0.0:
            raise ZeroDivisionError(
                f"zero pivot at k={k}; use lu_partial_pivot"
            )
        lu[k + 1 :, k] /= pivot                       # S1: column update
        lu[k + 1 :, k + 1 :] -= np.outer(             # S2: Schur update
            lu[k + 1 :, k], lu[k, k + 1 :]
        )
    return lu


def lu_partial_pivot(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GEPP of an (m, n) matrix by LAPACK ``dgetrf`` (rectangular panels
    allowed — tall panels are exactly what TSLU factors).

    Returns ``(lu, piv)``: ``piv[k]`` is the row swapped into position k
    at step k (getrf convention, 0-based index dtype, length min(m, n);
    the first row of maximal magnitude wins a tie), and ``lu`` the
    combined factors as a C-contiguous float64 array — it travels as a
    message payload, and the fault injector addresses payload bytes in
    memory order.  A zero column leaves its multipliers zero and the
    elimination continues.  ``a`` is never written.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {arr.shape}")
    if arr.size == 0:  # LAPACK rejects m == 0
        return arr.copy(), np.arange(0)
    lu, piv, _ = dgetrf(arr)
    return np.ascontiguousarray(lu), piv.astype(np.intp)


def lu_blocked_partial_pivot(
    a: np.ndarray, block: int = 32
) -> tuple[np.ndarray, np.ndarray]:
    """Right-looking blocked GEPP (the schedule the 2D baselines
    distribute).

    For each panel: factor it with unblocked GEPP, apply its swaps to
    the left and right of the panel, triangular-solve the U block row,
    then one GEMM updates the trailing matrix.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    lu = _as_square(a)
    n = lu.shape[0]
    piv = np.arange(n)
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        lu[k0:, k0:k1], panel_piv = lu_partial_pivot(lu[k0:, k0:k1])
        # Convert panel-local pivots to global rows and swap the rest of
        # the matrix (left of the panel and right of it).
        for i, p in enumerate(panel_piv):
            gi, gp = k0 + i, k0 + int(p)
            piv[gi] = gp
            if gp != gi:
                lu[[gi, gp], :k0] = lu[[gp, gi], :k0]
                lu[[gi, gp], k1:] = lu[[gp, gi], k1:]
        if k1 < n:
            # U block row: solve L00 * U01 = A01.
            lu[k0:k1, k1:] = trsm_lower_unit(
                lu[k0:k1, k0:k1], lu[k0:k1, k1:]
            )
            # Trailing GEMM.
            lu[k1:, k1:] -= lu[k1:, k0:k1] @ lu[k0:k1, k1:]
    return lu, piv


def split_lu(lu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split combined storage into (unit-diagonal L, U)."""
    n, m = lu.shape
    k = min(n, m)
    lower = np.tril(lu, -1)[:, :k]
    np.fill_diagonal(lower, 1.0)
    upper = np.triu(lu)[:k, :]
    return lower, upper


def _as_square(a: np.ndarray) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr.copy()
