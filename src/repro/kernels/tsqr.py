"""TSQR kernels — tall-skinny QR by Householder panels and a binary
reduction tree (Demmel, Grigori, Hoemmen, Langou, arXiv:0808.2664).

A TSQR factors a tall panel distributed as row blocks in two stages:

1. every block runs a local Householder QR, keeping its reflectors and
   an R factor of at most ``ncols`` rows;
2. R factors meet in ``log2(L)`` "merge" rounds — each round stacks two
   R factors and re-factors the stack, keeping the merge reflectors.

The panel's full orthogonal factor Q is never formed; it exists
*implicitly* as the collection of leaf and merge reflectors
(:class:`TsqrFactors`), exactly like LAPACK's ``geqrf``/``ormqr`` pair.
:meth:`TsqrFactors.apply_qt` applies Q^T to a conforming matrix (the
CAQR trailing update), :meth:`TsqrFactors.apply_q` applies Q (explicit
reconstruction, used to assemble the global Q factor host-side).

The merge schedule (:func:`merge_plan`) is shared with the distributed
2.5D CAQR (:mod:`repro.algorithms.caqr25d`): leaf 0 is the tree root
(in CAQR, the grid row owning the panel's diagonal block), and the
*survivor-swap* rule guarantees a merged R always fits inside the
survivor's physical rows — so the distributed exchange never has to
split a logical R across two ranks.

These kernels are pure functions over numpy arrays.  A Householder
QR is one LAPACK ``geqrf`` call and applying its Q or Q^T one
``ormqr``, unpacked to and from the conventions below (explicit unit
diagonal, exact zeros above it, ``tau == 0`` for a column that is
already reduced); only the tree walk runs in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack


# ---------------------------------------------------------------------------
# Householder QR (LAPACK geqrf conventions)
# ---------------------------------------------------------------------------


def householder_qr(
    a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR of an (m, n) matrix.

    Returns ``(v, tau, r)``:

    * ``v`` — (m, k) unit-lower-trapezoidal reflector matrix, k =
      min(m, n); reflector j is ``v[:, j]`` with ``v[j, j] == 1`` and
      zeros above;
    * ``tau`` — (k,) reflector coefficients, H_j = I - tau_j v_j v_j^T;
    * ``r`` — (k, n) upper-trapezoidal factor, with A = Q R and
      Q = H_0 H_1 ... H_{k-1} (diagonal of R may carry either sign,
      as in LAPACK).
    """
    # A Fortran-ordered copy is factored in place by geqrf.
    work = np.array(a, dtype=np.float64, order="F")
    if work.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {work.shape}")
    m, n = work.shape
    k = min(m, n)
    if k == 0:
        return np.zeros((m, 0)), np.zeros(0), np.zeros((0, n))
    # An already-reduced column comes back with tau 0 (H_j = I).
    qr, tau, _, _ = lapack.dgeqrf(work, overwrite_a=True)
    v = np.tril(qr[:, :k], -1)
    np.fill_diagonal(v, 1.0)
    return v, tau, np.triu(qr[:k, :])


def _conforming(rows: int, b: np.ndarray, what: str) -> np.ndarray:
    """Validate that ``b`` conforms to an m-row reflector set.

    The apply would otherwise fail late with an opaque LAPACK wrapper
    message — or, for an empty or all-``tau == 0`` (degenerate) panel,
    skip every reflector and silently return a nonconforming ``b``
    unchanged.
    """
    out = np.array(b, dtype=np.float64, copy=True)
    if out.ndim != 2:
        raise ValueError(
            f"{what} expects a 2D matrix, got shape {out.shape}"
        )
    if out.shape[0] != rows:
        raise ValueError(
            f"{what}: operand has {out.shape[0]} rows but the factored "
            f"panel has {rows}"
        )
    return out


def _ormqr(trans: str, v: np.ndarray, tau: np.ndarray, c: np.ndarray):
    """One ``ormqr`` on the C-ordered copy ``c``, in place: its memory
    is the Fortran-ordered c^T, so Q^T c = (c^T Q)^T is ``trans="N"``
    from the right and Q c is ``"T"`` — and the result keeps c's
    layout.  The workspace is the minimum, one column of c, which is
    valid for every caller; ormqr then applies the reflectors one at a
    time (level 2), as the per-column loops it replaced did.  Most
    callers apply one TSQR tile's reflectors; :func:`thin_q` applies
    up to m of them."""
    if len(tau) == 0 or c.size == 0:
        return c
    ct, _, _ = lapack.dormqr(
        "R", trans, v, tau, c.T, max(1, c.shape[1]), overwrite_c=True
    )
    return ct.T


def apply_qt(v: np.ndarray, tau: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply Q^T (Q from ``householder_qr``) to conforming ``b``."""
    return _ormqr("N", v, tau, _conforming(v.shape[0], b, "apply_qt"))


def apply_q(v: np.ndarray, tau: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply Q (Q from ``householder_qr``) to conforming ``b``."""
    return _ormqr("T", v, tau, _conforming(v.shape[0], b, "apply_q"))


def thin_q(v: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Explicit thin Q (m, k) — the ``orgqr`` analogue."""
    m, k = v.shape
    return apply_q(v, tau, np.eye(m)[:, :k])


# ---------------------------------------------------------------------------
# merge schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MergeStep:
    """One tree merge: leaf ``b``'s R is absorbed into leaf ``a``'s.

    ``r_a`` and ``r_b`` are the R row counts entering the merge; after
    it, survivor ``a`` holds ``min(r_a + r_b, ncols)`` R rows.
    """

    a: int
    b: int
    r_a: int
    r_b: int


def merge_plan(row_counts: list[int], ncols: int) -> list[MergeStep]:
    """Pairing schedule of the binary TSQR tree over the given leaves.

    Leaves are paired in index order, round by round (empty leaves are
    skipped).  The *survivor-swap* rule makes the leaf with the larger
    R survive each pair (ties break to the smaller index), which keeps
    leaf 0 — the root by convention — the final survivor and guarantees
    ``min(r_a + r_b, ncols) <= max(r_a, r_b)`` whenever at most one
    leaf holds fewer than ``ncols`` rows (true for the block-cyclic
    panels CAQR feeds in, where only the owner of the short last row
    block can be deficient).
    """
    if ncols < 1:
        raise ValueError(f"ncols must be >= 1, got {ncols}")
    tops = {
        i: min(int(m), ncols)
        for i, m in enumerate(row_counts)
        if m > 0
    }
    cands = sorted(tops)
    if not cands:
        raise ValueError("merge_plan needs at least one non-empty leaf")
    plan: list[MergeStep] = []
    while len(cands) > 1:
        nxt: list[int] = []
        for i in range(0, len(cands) - 1, 2):
            a, b = cands[i], cands[i + 1]
            if tops[b] > tops[a]:
                a, b = b, a
            plan.append(MergeStep(a=a, b=b, r_a=tops[a], r_b=tops[b]))
            tops[a] = min(tops[a] + tops[b], ncols)
            nxt.append(a)
        if len(cands) % 2:
            nxt.append(cands[-1])
        cands = nxt
    return plan


# ---------------------------------------------------------------------------
# the implicit tree factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MergeNode:
    """A merge step plus the reflectors of its stacked-R factorization."""

    step: MergeStep
    v: np.ndarray  # (r_a + r_b, k) reflectors of the stacked R
    tau: np.ndarray


@dataclass(frozen=True)
class TsqrFactors:
    """Implicit Q of a binary-tree TSQR over row blocks.

    ``leaves[i]`` holds leaf i's local Householder factors (``None``
    for empty leaves); ``nodes`` the merge factorizations in schedule
    order; ``r`` the final (k, ncols) R factor (k = min(total rows,
    ncols)), living logically in the top rows left by the merge
    schedule — leaf 0's first k rows whenever leaf 0 holds at least
    ``ncols`` rows (always true in CAQR), spilling into later blocks
    only when it is shorter.
    """

    row_counts: tuple[int, ...]
    ncols: int
    leaves: tuple[tuple[np.ndarray, np.ndarray] | None, ...]
    nodes: tuple[MergeNode, ...]
    r: np.ndarray

    @property
    def total_rows(self) -> int:
        return int(sum(self.row_counts))

    def _block_indices(
        self, block_rows: list[np.ndarray] | None
    ) -> list[np.ndarray]:
        if block_rows is None:
            offsets = np.concatenate(
                ([0], np.cumsum(self.row_counts))
            )
            return [
                np.arange(offsets[i], offsets[i + 1])
                for i in range(len(self.row_counts))
            ]
        if len(block_rows) != len(self.row_counts):
            raise ValueError(
                f"{len(block_rows)} row blocks for "
                f"{len(self.row_counts)} leaves"
            )
        for i, rows in enumerate(block_rows):
            if len(rows) != self.row_counts[i]:
                raise ValueError(
                    f"leaf {i}: {len(rows)} rows given, expected "
                    f"{self.row_counts[i]}"
                )
        return [np.asarray(rows) for rows in block_rows]

    def _conforming_operand(
        self,
        b: np.ndarray,
        block_rows: list[np.ndarray] | None,
        what: str,
    ) -> np.ndarray:
        """Copy + conformance-check an apply operand.

        Without explicit ``block_rows`` the operand must stack exactly
        the factored panel's rows; a taller matrix would silently leave
        its extra rows untouched and a 1D vector would fail deep inside
        the reflector loop with a numpy broadcasting message.
        """
        out = np.array(b, dtype=np.float64, copy=True)
        if out.ndim != 2:
            raise ValueError(
                f"{what} expects a 2D matrix, got shape {out.shape}"
            )
        if block_rows is None and out.shape[0] != self.total_rows:
            raise ValueError(
                f"{what}: operand has {out.shape[0]} rows but the "
                f"factored panel has {self.total_rows} (pass block_rows "
                "to address a subset of a larger matrix)"
            )
        return out

    def _top_sequences(
        self, idx: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Stacked row-index vector entering each merge node, in order."""
        stacks, _ = self._walk_tops(idx)
        return stacks

    def _walk_tops(
        self, idx: list[np.ndarray]
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-node stacked row indices plus the final R row indices."""
        tops = {
            i: idx[i][: min(len(idx[i]), self.ncols)]
            for i in range(len(idx))
            if len(idx[i])
        }
        root = min(tops)
        stacks = []
        for node in self.nodes:
            s = node.step
            stack = np.concatenate([tops[s.a], tops[s.b]])
            stacks.append(stack)
            tops[s.a] = stack[: min(len(stack), self.ncols)]
            del tops[s.b]
            root = s.a
        return stacks, tops[root]

    def apply_qt(
        self,
        b: np.ndarray,
        block_rows: list[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Q^T B for a B whose rows conform to the factored panel.

        ``block_rows`` maps leaves to row-index arrays of ``b`` (by
        default leaves are contiguous in order).  This is the CAQR
        trailing update B -> Q^T B.
        """
        out = self._conforming_operand(b, block_rows, "TsqrFactors.apply_qt")
        idx = self._block_indices(block_rows)
        for i, leaf in enumerate(self.leaves):
            if leaf is None:
                continue
            v, tau = leaf
            out[idx[i]] = apply_qt(v, tau, out[idx[i]])
        for node, stack in zip(self.nodes, self._top_sequences(idx)):
            out[stack] = apply_qt(node.v, node.tau, out[stack])
        return out

    def apply_q(
        self,
        b: np.ndarray,
        block_rows: list[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Q B — the transforms of :meth:`apply_qt`, inverted."""
        out = self._conforming_operand(b, block_rows, "TsqrFactors.apply_q")
        idx = self._block_indices(block_rows)
        stacks = self._top_sequences(idx)
        for node, stack in zip(reversed(self.nodes), reversed(stacks)):
            out[stack] = apply_q(node.v, node.tau, out[stack])
        for i, leaf in enumerate(self.leaves):
            if leaf is None:
                continue
            v, tau = leaf
            out[idx[i]] = apply_q(v, tau, out[idx[i]])
        return out

    def build_q(self) -> np.ndarray:
        """Explicit thin Q (total_rows, k) of the stacked panel."""
        m = self.total_rows
        k = min(m, self.ncols)
        idx = self._block_indices(None)
        _, top = self._walk_tops(idx)
        e = np.zeros((m, k))
        # R lives in the logical top rows left by the merge schedule.
        e[top[:k], np.arange(k)] = 1.0
        return self.apply_q(e)


def tsqr(blocks: list[np.ndarray]) -> TsqrFactors:
    """Binary-tree TSQR of the matrix formed by stacking ``blocks``.

    Blocks may be empty (0 rows) and must share a column count.  The
    survivor-swap schedule roots the tree at the leaf with the largest
    R (ties to the lowest index), so the final R lives in leaf 0's top
    rows whenever leaf 0 holds at least ``ncols`` rows; the index-list
    apply/build machinery handles shorter leaf-0 cases too, where the
    logical R rows may span blocks.
    """
    if not blocks:
        raise ValueError("tsqr needs at least one block")
    arrays = [np.asarray(b, dtype=np.float64) for b in blocks]
    ncols = arrays[0].shape[1]
    for b in arrays:
        if b.ndim != 2 or b.shape[1] != ncols:
            raise ValueError(
                f"all blocks must be 2D with {ncols} columns, got "
                f"{b.shape}"
            )
    row_counts = tuple(b.shape[0] for b in arrays)
    if sum(row_counts) == 0:
        raise ValueError("tsqr needs at least one non-empty block")

    leaves: list[tuple[np.ndarray, np.ndarray] | None] = []
    rs: dict[int, np.ndarray] = {}
    for i, b in enumerate(arrays):
        if b.shape[0] == 0:
            leaves.append(None)
            continue
        v, tau, r = householder_qr(b)
        leaves.append((v, tau))
        rs[i] = r

    nodes: list[MergeNode] = []
    root = min(rs)
    for step in merge_plan(list(row_counts), ncols):
        stacked = np.vstack([rs[step.a], rs[step.b]])
        v, tau, r = householder_qr(stacked)
        nodes.append(MergeNode(step=step, v=v, tau=tau))
        rs[step.a] = r
        del rs[step.b]
        root = step.a
    return TsqrFactors(
        row_counts=row_counts,
        ncols=ncols,
        leaves=tuple(leaves),
        nodes=tuple(nodes),
        r=rs[root],
    )


# ---------------------------------------------------------------------------
# Householder reconstruction from TSQR -> compact WY (Ballard, Demmel,
# Grigori, Jacquelin, Nguyen, Solomonik, "Reconstructing Householder
# vectors from Tall-Skinny QR")
# ---------------------------------------------------------------------------


def larft(v: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Forward-accumulated triangular T of a compact-WY transform.

    Given unit-lower-trapezoidal reflectors ``v`` (m, k) and their
    coefficients ``tau``, returns the upper-triangular (k, k) T with
    H_0 H_1 ... H_{k-1} = I - V T V^T (LAPACK ``larft`` forward /
    columnwise).
    """
    m, k = np.asarray(v).shape
    t = np.zeros((k, k))
    for j in range(k):
        t[j, j] = tau[j]
        if j and tau[j] != 0.0:
            t[:j, j] = -tau[j] * (t[:j, :j] @ (v[:, :j].T @ v[:, j]))
    return t


def reconstruct_wy(
    q1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Recover Householder vectors from an explicit thin Q.

    Given an orthonormal ``q1`` (m, k), returns ``(v, tau, t, signs)``
    such that ``I - V T V^T`` is orthogonal, its first k columns equal
    ``q1 @ diag(signs)``, and ``v`` is unit-lower-trapezoidal — i.e.
    exactly what ``householder_qr`` would have produced for the panel
    ``q1 @ diag(signs) @ r`` (up to the sign convention carried in
    ``signs``).

    The construction is Ballard et al.'s: choose ``signs[i] = -1`` when
    ``q1[i, i] >= 0`` so every diagonal entry of ``Q1 - S`` has
    magnitude >= 1, take the *unpivoted* LU of the top block
    ``Q1[:k] - S = L1 U`` (exists and is stable by that sign choice),
    and set ``V = (Q1 - S) U^{-1}`` (so ``V[:k] = L1``),
    ``T = -U S L1^{-T}`` (upper triangular), ``tau = diag(T)``.
    """
    q1 = np.array(q1, dtype=np.float64, copy=True)
    if q1.ndim != 2 or q1.shape[0] < q1.shape[1]:
        raise ValueError(
            f"reconstruct_wy needs a tall-or-square thin Q, got shape "
            f"{q1.shape}"
        )
    m, k = q1.shape
    l1, u, t, signs = reconstruct_wy_top(q1[:k])
    v = np.empty((m, k))
    v[:k] = l1
    if m > k:
        v[k:] = wy_below_rows(q1[k:], u)
    tau = np.diagonal(t).copy()
    return v, tau, t, signs


def reconstruct_wy_top(
    q1_top: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The square-top core of :func:`reconstruct_wy`.

    Returns ``(l1, u, t, signs)`` from the k x k leading block of a
    thin Q.  Split out so the distributed COnfQR rank program (which
    holds only the top block at the tree root) runs the *identical*
    float sequence as the host kernel — their factors match bitwise.
    """
    from repro.kernels.lu_seq import lu_nopivot

    q1_top = np.array(q1_top, dtype=np.float64, copy=True)
    k = q1_top.shape[0]
    if q1_top.shape != (k, k):
        raise ValueError(
            f"reconstruct_wy_top needs a square block, got {q1_top.shape}"
        )
    signs = np.where(np.diagonal(q1_top) >= 0.0, -1.0, 1.0)
    q1_top[np.arange(k), np.arange(k)] -= signs
    lu = lu_nopivot(q1_top)
    l1 = np.tril(lu, -1) + np.eye(k)
    u = np.triu(lu)
    # T = -U S L1^{-T}: upper x diagonal x (unit upper) stays upper.
    t = np.triu(-(u * signs) @ np.linalg.inv(l1).T)
    return l1, u, t, signs


def wy_below_rows(q1_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reflector rows below the top block: ``V_below = Q1_below U^{-1}``
    (k triangular back-substitutions)."""
    if q1_rows.shape[0] == 0:
        return np.zeros((0, u.shape[0]))
    return np.linalg.solve(u.T, np.asarray(q1_rows, dtype=np.float64).T).T


@dataclass(frozen=True)
class WyFactors:
    """Compact-WY form of a factored panel: Q = I - V T V^T.

    ``signs`` records the diagonal sign matrix S the reconstruction
    chose: the panel's thin Q equals the first k columns of
    ``I - V T V^T``, which is the source factorization's thin Q times
    ``diag(signs)``; ``r`` is the matching sign-fixed R (``S @ R``), so
    ``panel = thin_q() @ r`` exactly.

    One ``apply_qt`` is a single GEMM pair — the point of Householder
    reconstruction: the per-pane merge-tree replay collapses into
    ``B - V (T^T (V^T B))``.
    """

    v: np.ndarray       # (m, k) unit-lower-trapezoidal reflectors
    t: np.ndarray       # (k, k) upper-triangular
    tau: np.ndarray     # (k,) = diag(t)
    signs: np.ndarray   # (k,) the S diagonal
    r: np.ndarray       # (k, ncols) sign-fixed R

    @property
    def total_rows(self) -> int:
        return int(self.v.shape[0])

    @property
    def ncols(self) -> int:
        return int(self.r.shape[1])

    def apply_qt(self, b: np.ndarray) -> np.ndarray:
        """Q^T B = B - V (T^T (V^T B))."""
        out = _conforming(self.total_rows, b, "WyFactors.apply_qt")
        return out - self.v @ (self.t.T @ (self.v.T @ out))

    def apply_q(self, b: np.ndarray) -> np.ndarray:
        """Q B = B - V (T (V^T B))."""
        out = _conforming(self.total_rows, b, "WyFactors.apply_q")
        return out - self.v @ (self.t @ (self.v.T @ out))

    def thin_q(self) -> np.ndarray:
        """Explicit thin Q (m, k): first k columns of I - V T V^T."""
        m = self.total_rows
        k = self.v.shape[1]
        return self.apply_q(np.eye(m)[:, :k])

    def build_q(self) -> np.ndarray:
        """Explicit square Q (m, m) = I - V T V^T."""
        return np.eye(self.total_rows) - self.v @ self.t @ self.v.T


def compact_wy(factors: TsqrFactors) -> WyFactors:
    """Householder reconstruction of a tree TSQR into compact-WY form.

    The tree's implicit Q is materialized as a thin panel (cheap: the
    panel is tall-skinny), reconstructed into (V, T), and the R rows
    are sign-fixed to match, so

    ``wy.thin_q() @ wy.r == stacked panel`` and
    ``wy.thin_q() == factors.build_q() @ diag(wy.signs)``.

    Requires the merged R to live in the stacked panel's leading rows
    (leaf 0 holding at least ``ncols`` rows — always true for the
    block-cyclic panes CAQR/COnfQR feed in).
    """
    idx = factors._block_indices(None)
    _, top = factors._walk_tops(idx)
    k = min(factors.total_rows, factors.ncols)
    if not np.array_equal(top[:k], np.arange(k)):
        raise ValueError(
            "compact_wy needs the merged R in the panel's leading rows "
            "(leaf 0 shorter than ncols); re-chunk the panel"
        )
    v, tau, t, signs = reconstruct_wy(factors.build_q())
    return WyFactors(
        v=v, t=t, tau=tau, signs=signs, r=signs[:, None] * factors.r
    )
