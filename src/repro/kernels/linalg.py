"""Triangular solves and verification helpers."""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dtrtrs


def trsm_lower_unit(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L X = B with L lower-triangular, *unit* diagonal.

    The diagonal stored in ``l`` is ignored (combined-LU storage keeps U
    there).
    """
    return _trsm_left(l, b, lower=True, unit=True)


def trsm_upper(u: np.ndarray, b: np.ndarray, side: str = "right") -> np.ndarray:
    """Solve X U = B (side="right") or U X = B (side="left").

    Only the upper triangle of ``u`` is read, so combined-LU storage
    can be passed as it is.
    """
    if side == "right":
        # X U = B  <=>  U^T X^T = B^T
        return _trsm_left(u.T, b.T, lower=True, unit=False).T
    if side == "left":
        return _trsm_left(u, b, lower=False, unit=False)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _trsm_left(
    a: np.ndarray, b: np.ndarray, lower: bool, unit: bool
) -> np.ndarray:
    """X with ``a X = b`` for float64 operands: one LAPACK ``dtrtrs``.

    It is the call scipy's checked triangular solve makes, made the
    same way — a C-contiguous ``a`` is solved as its transpose with the
    triangle and ``trans`` flipped, ``b`` is copied to a new
    Fortran-ordered result — so X is bitwise-equal to scipy's, in the
    same memory layout, on any LAPACK build.  (``dtrtrs`` is a pivot
    check and a ``dtrsm``; OpenBLAS's solves one column with ``dtrsv``
    instead, which is why ``dtrsm`` alone is not bitwise-equal.)
    scipy's checks are kept, in scipy's order: a non-finite entry
    anywhere in ``a`` or ``b`` raises ``ValueError`` (a corrupted panel
    is a *detected* fault), then a shape mismatch, and a zero on the
    diagonal of a non-unit solve raises ``LinAlgError`` (a singular
    U00) unless ``b`` is empty.  ``tests/kernels/test_trsm_oracle.py``
    keeps scipy as the reference.
    """
    a, b = np.asarray(a), np.asarray(b)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected square matrix")
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"shapes of a {a.shape} and b {b.shape} are incompatible"
        )
    if b.size == 0:
        return np.empty_like(b, dtype=np.float64)
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower=lower, unitdiag=unit)
    else:
        x, info = dtrtrs(a.T, b, lower=not lower, trans=1, unitdiag=unit)
    if info:
        raise LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    return x


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
