"""Computational DAG container.

Vertices are arbitrary hashable labels; in the canned builders they are
``(array, i, j, version)`` tuples so that *elements* and *vertices* stay
distinct — the distinction the paper stresses in Section 2.2 ("Elements
and vertices"): every update of an element creates a fresh vertex.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Any

Vertex = Hashable


class CDag:
    """A computational DAG with cached input/output sets.

    Edges point from operand to result (data-dependency direction).
    Inputs are vertices with no predecessors; outputs those with no
    successors (paper Section 2.3.1).
    """

    def __init__(self) -> None:
        self._preds: dict[Vertex, tuple[Vertex, ...]] = {}
        self._succs: dict[Vertex, list[Vertex]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex, preds: Iterable[Vertex] = ()) -> None:
        """Add vertex ``v`` computed from ``preds`` (added if missing).

        A vertex may be added only once — re-adding with different
        predecessors would silently change the graph's semantics.
        """
        if v in self._preds:
            raise ValueError(f"vertex {v!r} already exists")
        pred_tuple = tuple(preds)
        for p in pred_tuple:
            if p == v:
                raise ValueError(f"self-loop on {v!r}")
            if p not in self._preds:
                self._preds[p] = ()
                self._succs[p] = []
        self._preds[v] = pred_tuple
        self._succs.setdefault(v, [])
        for p in pred_tuple:
            self._succs[p].append(v)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._preds

    def __len__(self) -> int:
        return len(self._preds)

    @property
    def vertices(self) -> list[Vertex]:
        return list(self._preds)

    def predecessors(self, v: Vertex) -> tuple[Vertex, ...]:
        return self._preds[v]

    def successors(self, v: Vertex) -> tuple[Vertex, ...]:
        return tuple(self._succs[v])

    def in_degree(self, v: Vertex) -> int:
        return len(self._preds[v])

    def out_degree(self, v: Vertex) -> int:
        return len(self._succs[v])

    @property
    def inputs(self) -> set[Vertex]:
        return {v for v, p in self._preds.items() if not p}

    @property
    def outputs(self) -> set[Vertex]:
        return {v for v, s in self._succs.items() if not s}

    @property
    def computed_vertices(self) -> set[Vertex]:
        """Non-input vertices — the |V| of Lemma 1 counts these."""
        return {v for v, p in self._preds.items() if p}

    def edge_count(self) -> int:
        return sum(len(p) for p in self._preds.values())

    # ------------------------------------------------------------------
    # algorithms
    # ------------------------------------------------------------------
    def topological_order(self) -> list[Vertex]:
        """Kahn's algorithm; raises on cycles."""
        indeg = {v: len(p) for v, p in self._preds.items()}
        ready = [v for v, d in indeg.items() if d == 0]
        order: list[Vertex] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for s in self._succs[v]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self._preds):
            raise ValueError("cDAG contains a cycle")
        return order

    def validate_versioning(self) -> None:
        """Check the DAAP disjoint-access sanity property for builders
        that use (array, i, j, version) labels: versions of the same
        element must form a chain v -> v+1."""
        by_element: dict[Any, list[int]] = {}
        for v in self._preds:
            if isinstance(v, tuple) and len(v) == 4:
                arr, i, j, ver = v
                by_element.setdefault((arr, i, j), []).append(ver)
        for elem, versions in by_element.items():
            vs = sorted(versions)
            if vs != list(range(vs[0], vs[0] + len(vs))):
                raise ValueError(
                    f"element {elem} has non-contiguous versions {vs}"
                )
