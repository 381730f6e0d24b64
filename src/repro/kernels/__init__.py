"""Sequential numerical building blocks.

Rank-local pieces the distributed algorithms are assembled from: plain
and blocked Gaussian elimination, triangular solves, the tournament-
pivoting (TSLU) selection kernels of paper Section 7.3, and verification
helpers (residuals, growth factors).

Everything here is vectorized numpy or one library call (GEPP is LAPACK
``dgetrf``, each triangular solve the LAPACK ``dtrtrs`` call scipy's
checked triangular solve makes, behind the same finite and pivot checks;
a Householder QR is ``dgeqrf`` and applying its Q ``dormqr``) — loops
only over block columns, never over scalar elements.
"""

from repro.kernels.lu_seq import (
    lu_nopivot,
    lu_partial_pivot,
    lu_blocked_partial_pivot,
    split_lu,
)
from repro.kernels.linalg import (
    trsm_lower_unit,
    trsm_upper,
    lu_residual,
    growth_factor,
    permutation_from_pivots,
)
from repro.kernels.tournament import (
    PivotCandidates,
    local_candidates,
    merge_candidates,
    tournament_pivot_rows,
)
from repro.kernels.tsqr import (
    MergeStep,
    TsqrFactors,
    WyFactors,
    apply_q,
    apply_qt,
    compact_wy,
    householder_qr,
    larft,
    merge_plan,
    reconstruct_wy,
    thin_q,
    tsqr,
)

__all__ = [
    "MergeStep",
    "PivotCandidates",
    "TsqrFactors",
    "WyFactors",
    "apply_q",
    "apply_qt",
    "compact_wy",
    "growth_factor",
    "householder_qr",
    "larft",
    "local_candidates",
    "lu_blocked_partial_pivot",
    "lu_nopivot",
    "lu_partial_pivot",
    "lu_residual",
    "merge_candidates",
    "merge_plan",
    "permutation_from_pivots",
    "reconstruct_wy",
    "split_lu",
    "thin_q",
    "tournament_pivot_rows",
    "trsm_lower_unit",
    "trsm_upper",
    "tsqr",
]
