"""Triangular solves and verification helpers."""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular


def trsm_lower_unit(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L X = B with L lower-triangular, *unit* diagonal.

    The diagonal stored in ``l`` is ignored (combined-LU storage keeps U
    there).
    """
    return solve_triangular(l, b, lower=True, unit_diagonal=True)


def trsm_upper(u: np.ndarray, b: np.ndarray, side: str = "right") -> np.ndarray:
    """Solve X U = B (side="right") or U X = B (side="left")."""
    if side == "right":
        # X U = B  <=>  U^T X^T = B^T
        return solve_triangular(u.T, b.T, lower=True).T
    if side == "left":
        return solve_triangular(u, b, lower=False)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def permutation_from_pivots(piv: np.ndarray, n: int | None = None) -> np.ndarray:
    """Row order induced by getrf-style successive swaps.

    Returns ``perm`` such that ``A[perm] == P A`` for the permutation the
    swaps implement: applying the swaps to ``arange(n)`` rows.
    """
    if n is None:
        n = len(piv)
    perm = list(range(n))
    for k, p in enumerate(np.asarray(piv).tolist()):
        perm[k], perm[p] = perm[p], perm[k]
    return np.array(perm, dtype=np.intp)


def lu_residual(
    a: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    perm: np.ndarray | None = None,
) -> float:
    """Relative factorization residual ||P A - L U||_F / ||A||_F.

    ``perm`` is the row order (P A == A[perm]); identity when omitted.
    """
    pa = a if perm is None else a[np.asarray(perm, dtype=int)]
    num = np.linalg.norm(pa - lower @ upper)
    den = np.linalg.norm(a)
    return float(num / den) if den else float(num)


def growth_factor(a: np.ndarray, upper: np.ndarray) -> float:
    """Element-growth factor max|U| / max|A| — the stability proxy used
    to compare tournament pivoting against partial pivoting (the paper
    cites Grigori et al.: tournament pivoting is "as stable as partial
    pivoting")."""
    amax = float(np.max(np.abs(a)))
    if amax == 0.0:
        return 0.0
    return float(np.max(np.abs(upper))) / amax
