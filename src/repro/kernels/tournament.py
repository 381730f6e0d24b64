"""Tournament pivoting (TSLU) kernels — paper Section 7.3.

Tournament pivoting finds v pivot rows for a whole panel at once (vs one
row per step for partial pivoting), cutting the latency from O(N) to
O(N/v) while staying "as stable as partial pivoting" (Grigori, Demmel,
Xiang).  The scheme:

1. every participant selects v *local candidate* rows from its share of
   the panel by running GEPP on it;
2. candidates meet in log2(P') "playoff" rounds — each round stacks two
   candidate sets (their ORIGINAL row values, not factored ones) and
   re-selects the best v by GEPP;
3. the final v rows, ordered by their GEPP order, become the step's
   pivot rows, and their v x v block factors into A00.

These kernels are pure functions over numpy arrays; the distributed
algorithms drive them through butterfly exchanges (``repro.smpi``), and
the sequential :func:`tournament_pivot_rows` reference exists so tests
can compare distributed against sequential selection bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.lu_seq import lu_partial_pivot
from repro.kernels.linalg import permutation_from_pivots


@dataclass(frozen=True)
class PivotCandidates:
    """A candidate set: original row values + their global row indices."""

    values: np.ndarray  # (k, v) original (unfactored) panel rows
    row_ids: np.ndarray  # (k,) global row indices

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError(
                f"candidate values must be 2D, got {self.values.shape}"
            )
        if len(self.row_ids) != self.values.shape[0]:
            raise ValueError(
                f"{self.values.shape[0]} rows but "
                f"{len(self.row_ids)} row ids"
            )

    @property
    def count(self) -> int:
        return self.values.shape[0]


def _select_top_rows(
    values: np.ndarray, row_ids: np.ndarray, v: int
) -> PivotCandidates:
    """GEPP on ``values`` and keep its first min(v, rows) pivot rows, in
    pivot order, carrying the original row values."""
    k = min(v, values.shape[0])
    _, piv = lu_partial_pivot(values)
    order = permutation_from_pivots(piv, values.shape[0])[:k]
    return PivotCandidates(
        values=values[order].copy(), row_ids=np.asarray(row_ids)[order].copy()
    )


def local_candidates(
    panel_rows: np.ndarray, row_ids: np.ndarray, v: int
) -> PivotCandidates:
    """Stage 1: select up to v local candidate pivot rows.

    ``panel_rows`` is this participant's (r, v) slice of the current
    panel; ``row_ids`` maps its rows to global indices.
    """
    panel_rows = np.asarray(panel_rows, dtype=np.float64)
    row_ids = np.asarray(row_ids)
    if panel_rows.ndim != 2:
        raise ValueError(f"panel must be 2D, got shape {panel_rows.shape}")
    if panel_rows.shape[0] != len(row_ids):
        raise ValueError(
            f"{panel_rows.shape[0]} panel rows vs {len(row_ids)} row ids"
        )
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if panel_rows.shape[0] == 0:
        return PivotCandidates(
            values=np.empty((0, panel_rows.shape[1])),
            row_ids=row_ids.copy(),
        )
    return _select_top_rows(panel_rows, row_ids, v)


def merge_candidates(
    a: PivotCandidates, b: PivotCandidates, v: int
) -> PivotCandidates:
    """One playoff round: stack two candidate sets, re-select the top v."""
    if a.count == 0:
        return b if b.count <= v else _select_top_rows(b.values, b.row_ids, v)
    if b.count == 0:
        return a if a.count <= v else _select_top_rows(a.values, a.row_ids, v)
    if a.values.shape[1] != b.values.shape[1]:
        raise ValueError(
            f"panel widths differ: {a.values.shape[1]} vs "
            f"{b.values.shape[1]}"
        )
    values = np.vstack([a.values, b.values])
    ids = np.concatenate([a.row_ids, b.row_ids])
    return _select_top_rows(values, ids, v)


def tournament_pivot_rows(
    panel: np.ndarray,
    row_ids: np.ndarray,
    v: int,
    nchunks: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sequential reference tournament over ``nchunks`` row chunks.

    Returns ``(pivot_ids, a00_lu, pivot_values)``:

    * ``pivot_ids`` — the chosen global rows, in final pivot order;
    * ``a00_lu`` — combined LU factors of the (reordered) v x v pivot
      block (no further pivoting needed: the order already encodes it);
    * ``pivot_values`` — the original rows, reordered to pivot order.

    The distributed algorithms must select the *same* rows when given
    the same chunking, which the test suite verifies.
    """
    panel = np.asarray(panel, dtype=np.float64)
    row_ids = np.asarray(row_ids)
    if panel.shape[0] != len(row_ids):
        raise ValueError(
            f"{panel.shape[0]} panel rows vs {len(row_ids)} row ids"
        )
    if panel.shape[0] < min(v, panel.shape[1]):
        raise ValueError(
            f"need at least {v} rows to select {v} pivots, got "
            f"{panel.shape[0]}"
        )
    if nchunks < 1:
        raise ValueError(f"nchunks must be >= 1, got {nchunks}")

    chunks = np.array_split(np.arange(panel.shape[0]), nchunks)
    cands = [
        local_candidates(panel[idx], row_ids[idx], v)
        for idx in chunks
        if len(idx) > 0
    ]
    while len(cands) > 1:
        nxt = [
            merge_candidates(cands[i], cands[i + 1], v)
            if i + 1 < len(cands)
            else cands[i]
            for i in range(0, len(cands), 2)
        ]
        cands = nxt
    winner = cands[0]

    # Final ordering + A00 factorization of the selected block.
    block = winner.values[:, : min(v, panel.shape[1])]
    lu, piv = lu_partial_pivot(block)
    order = permutation_from_pivots(piv, block.shape[0])
    pivot_ids = winner.row_ids[order]
    pivot_values = winner.values[order]
    # `lu` already holds the combined factors of the row-reordered block
    # (GEPP factors P*block, and `order` is exactly that P).
    return pivot_ids, lu, pivot_values
