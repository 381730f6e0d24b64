"""Closed-form I/O bounds from the paper (Section 6 and related work).

These are the exact expressions the paper derives; the test suite checks
that the *generic* machinery (GP solve + Lemma 2 + Section 4 reuse)
reproduces each of them numerically, which is the reproduction of the
paper's "more precise" claim.
"""

from __future__ import annotations

import math


def _check(n: int, m: float) -> None:
    if n < 1:
        raise ValueError(f"matrix size N must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"fast memory M must be >= 1, got {m}")


def lu_s1_lower_bound(n: int) -> float:
    """Q_S1 >= N(N-1)/2 — column updates with rho_S1 = 1 (Lemma 6)."""
    _check(n, 1)
    return n * (n - 1) / 2.0


def lu_s2_lower_bound(n: int, m: float) -> float:
    """Q_S2 >= (2N^3 - 6N^2 + 4N) / (3 sqrt(M)) — rho_S2 = sqrt(M)/2."""
    _check(n, m)
    return max((2.0 * n**3 - 6.0 * n**2 + 4.0 * n) / (3.0 * math.sqrt(m)), 0.0)


def lu_io_lower_bound(n: int, m: float) -> float:
    """Sequential LU bound: Q >= (2N^3-6N^2+4N)/(3 sqrt(M)) + N(N-1)/2.

    The parallel version (Lemma 9) divides by P; see
    :func:`lu_parallel_lower_bound`.
    """
    return lu_s2_lower_bound(n, m) + lu_s1_lower_bound(n)


def lu_parallel_lower_bound(n: int, m: float, p: int) -> float:
    """Q_P,LU >= 2N^3/(3 P sqrt(M)) + O(N^2/P) — the paper's headline
    parallel bound (end of Section 6)."""
    if p < 1:
        raise ValueError(f"P must be >= 1, got {p}")
    return lu_io_lower_bound(n, m) / p


def lu_parallel_lower_bound_leading(n: int, m: float, p: int) -> float:
    """Leading term only: 2N^3 / (3 P sqrt(M))."""
    _check(n, m)
    if p < 1:
        raise ValueError(f"P must be >= 1, got {p}")
    return 2.0 * n**3 / (3.0 * p * math.sqrt(m))


def mmm_io_lower_bound(n: int, m: float) -> float:
    """Matrix multiplication: Q >= 2 N^3 / sqrt(M) (Kwasniewski et al.
    [42], reproduced by the GP machinery: X0 = 3M, rho = sqrt(M)/2)."""
    _check(n, m)
    return 2.0 * n**3 / math.sqrt(m)


def mmm_parallel_lower_bound(n: int, m: float, p: int) -> float:
    if p < 1:
        raise ValueError(f"P must be >= 1, got {p}")
    return mmm_io_lower_bound(n, m) / p


def cholesky_io_lower_bound(n: int, m: float) -> float:
    """Cholesky trailing update dominates: Q >= N^3 / (3 sqrt(M)).

    Same access structure as LU's S2 with the i >= j > k wedge (one sixth
    of the cube, intensity sqrt(M)/2).
    """
    _check(n, m)
    return n**3 / (3.0 * math.sqrt(m))


def qr_io_lower_bound(n: int, m: float) -> float:
    """Householder QR: Q >= 4 N^3 / (3 sqrt(M)).

    The trailing update A <- (I - tau v v^T) A of reflector k touches
    the same i > k, j > k wedge as LU's Schur complement but performs
    *two* multiplications per (i, j, k) point (v_i (v^T A)_j on top of
    the rank-1 AXPY), i.e. ~ 2 N^3 / 3 multiplications against LU's
    N^3 / 3.  With the same per-statement intensity rho = sqrt(M) / 2
    (Ballard et al.'s CA-QR analysis matches the paper's Lemma 2
    machinery on this nest), the bound is twice LU's leading term.
    """
    _check(n, m)
    return 4.0 * n**3 / (3.0 * math.sqrt(m))


def qr_parallel_lower_bound(n: int, m: float, p: int) -> float:
    """Parallel QR bound (Lemma 9 style): 4 N^3 / (3 P sqrt(M)).

    Unlike LU there is no separate "leading" variant — the QR bound we
    derive is a single leading-order term (no S1-style column-update
    correction has been worked out for the reflector nest).
    """
    if p < 1:
        raise ValueError(f"P must be >= 1, got {p}")
    return qr_io_lower_bound(n, m) / p


def conflux_io_cost(n: int, m: float, p: int) -> float:
    """Leading-order COnfLUX cost per processor: N^3 / (P sqrt(M)).

    Exactly 3/2 of the parallel lower bound's leading term — the "only a
    factor of 1/3 over" claim.  The exact per-step model (with the O(N^2)
    terms of Lemma 10) lives in :mod:`repro.models.costmodels`.
    """
    _check(n, m)
    if p < 1:
        raise ValueError(f"P must be >= 1, got {p}")
    return n**3 / (p * math.sqrt(m))


def conflux_gap_over_lower_bound(n: int, m: float, p: int) -> float:
    """COnfLUX leading cost / lower-bound leading term = 1.5 exactly."""
    return conflux_io_cost(n, m, p) / lu_parallel_lower_bound_leading(n, m, p)
