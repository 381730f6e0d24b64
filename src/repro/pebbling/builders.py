"""Explicit cDAG builders for the paper's programs.

Vertex labels are ``(array, i, j, version)`` tuples (1-based indices,
matching the paper's loop bounds).  Version 0 is the initial value of an
element (a graph input); each statement execution that overwrites the
element bumps the version — the Section 2.2 element/vertex distinction.
"""

from __future__ import annotations

from repro.pebbling.cdag import CDag


def lu_cdag(n: int) -> CDag:
    """In-place LU factorization cDAG (paper Figures 1 and 4).

    Literal Figure 1 loop nest, no pivoting::

        for k = 1..n:
            S1 (i = k+1..n):   A[i,k] <- A[i,k] / A[k,k]
            S2 (i,j = k+1..n): A[i,j] <- A[i,j] - A[i,k] * A[k,j]

    Vertex counts (checked in tests):

    * inputs: n^2 initial versions,
    * S1 vertices: n(n-1)/2,
    * S2 vertices: sum_{k=1}^{n-1} (n-k)^2 = n(n-1)(2n-1)/6.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g = CDag()
    # version[(i, j)] tracks the current (latest) version of an element.
    version: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g.add_vertex(("A", i, j, 0))
            version[(i, j)] = 0

    def cur(i: int, j: int) -> tuple[str, int, int, int]:
        return ("A", i, j, version[(i, j)])

    for k in range(1, n + 1):
        # S1: column update (divisions by the pivot A[k,k]).
        pivot = cur(k, k)
        for i in range(k + 1, n + 1):
            old = cur(i, k)
            version[(i, k)] += 1
            g.add_vertex(cur(i, k), preds=(old, pivot))
        # S2: trailing-matrix (Schur complement) update.
        for i in range(k + 1, n + 1):
            left = cur(i, k)  # A[i,k] after S1 at this k
            for j in range(k + 1, n + 1):
                up = cur(k, j)  # A[k,j] final (never touched again)
                old = cur(i, j)
                version[(i, j)] += 1
                g.add_vertex(cur(i, j), preds=(old, left, up))
    return g


def lu_vertex_counts(n: int) -> dict[str, int]:
    """Closed-form vertex counts for :func:`lu_cdag`."""
    return {
        "inputs": n * n,
        "s1": n * (n - 1) // 2,
        "s2": n * (n - 1) * (2 * n - 1) // 6,
    }


def mmm_cdag(n: int) -> CDag:
    """Matrix multiplication C += A @ B as fused multiply-add chains.

    Vertex ``("C", i, j, k)`` is the partial sum after adding the k-th
    term; predecessors are A[i,k], B[k,j] and the previous partial sum.
    It is also the cDAG of Section 4.2's modified MMM: there the A
    entries are recomputable, which only the theory layer
    (:func:`repro.theory.modified_mmm_program`) can express.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g = CDag()
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            g.add_vertex(("A", i, k, 0))
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            g.add_vertex(("B", k, j, 0))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g.add_vertex(("C", i, j, 0))
            for k in range(1, n + 1):
                preds = [
                    ("C", i, j, k - 1),
                    ("A", i, k, 0),
                    ("B", k, j, 0),
                ]
                g.add_vertex(("C", i, j, k), preds=preds)
    return g


def shared_input_cdag(n: int) -> CDag:
    """Section 4.1 example: D = A x B and E = C x B sharing input B.

    Both statements write 3D output arrays, so no accumulation chains —
    each (i, j, k) cell is a single product vertex.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g = CDag()
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            g.add_vertex(("A", i, k, 0))
            g.add_vertex(("C", i, k, 0))
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            g.add_vertex(("B", k, j, 0))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                g.add_vertex(
                    ("D", i, j, k), preds=[("A", i, k, 0), ("B", k, j, 0)]
                )
                g.add_vertex(
                    ("E", i, j, k), preds=[("C", i, k, 0), ("B", k, j, 0)]
                )
    return g


def chain_cdag(length: int) -> CDag:
    """A simple dependency chain v0 -> v1 -> ... — handy for game tests."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    g = CDag()
    g.add_vertex(("x", 0, 0, 0))
    for v in range(1, length):
        g.add_vertex(("x", 0, 0, v), preds=[("x", 0, 0, v - 1)])
    return g
