"""X-Partitioning on explicit cDAGs — paper Section 2.3.2-2.3.3.

* ``minimum_dominator_size``: |Dom_min(V_h)| via a minimum vertex cut
  between the graph inputs and V_h (max-flow on the standard split-node
  transformation; every vertex gets capacity 1, so the min cut is the
  smallest vertex set intersecting every input -> V_h path).
* ``min_set``: Min(V_h) — vertices of V_h without successors inside V_h.
* ``validate_x_partition``: the two X-partition properties (dominator /
  minimum set sizes <= X, acyclic quotient graph) plus disjointness and
  coverage of the computed vertices.
* ``empirical_intensity``: rho = max_h |V_h| / (X - M), the quantity
  Lemma 1 turns into a lower bound Q >= |V| / rho.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import networkx as nx

from repro.pebbling.cdag import CDag, Vertex


def minimum_dominator_size(cdag: CDag, subset: set[Vertex]) -> int:
    """|Dom_min(subset)|: fewest vertices covering every path from an
    input into ``subset``.

    Inputs that belong to ``subset`` must themselves be dominated (the
    only way to cover the zero-length path is to include them), which the
    construction handles naturally because the cut may select them.
    """
    if not subset:
        return 0
    unknown = [v for v in subset if v not in cdag]
    if unknown:
        raise ValueError(f"subset contains unknown vertices: {unknown[:3]}")

    g = nx.DiGraph()
    source, sink = ("__S__",), ("__T__",)
    inf = float("inf")
    for v in cdag.vertices:
        g.add_edge(("in", v), ("out", v), capacity=1.0)
        for p in cdag.predecessors(v):
            g.add_edge(("out", p), ("in", v), capacity=inf)
    for v in cdag.inputs:
        g.add_edge(source, ("in", v), capacity=inf)
    for v in subset:
        g.add_edge(("out", v), sink, capacity=inf)
    cut_value, _ = nx.minimum_cut(g, source, sink)
    if math.isinf(cut_value):  # pragma: no cover - construction forbids it
        raise RuntimeError("unexpected infinite min cut")
    return int(round(cut_value))


def min_set(cdag: CDag, subset: set[Vertex]) -> set[Vertex]:
    """Min(V_h): vertices of V_h with no immediate successor in V_h."""
    return {
        v
        for v in subset
        if not any(s in subset for s in cdag.successors(v))
    }


def _quotient_is_acyclic(
    cdag: CDag, parts: Sequence[set[Vertex]]
) -> bool:
    """No cyclic dependencies between subcomputations."""
    owner: dict[Vertex, int] = {}
    for idx, part in enumerate(parts):
        for v in part:
            owner[v] = idx
    q = nx.DiGraph()
    q.add_nodes_from(range(len(parts)))
    for v in cdag.vertices:
        dst = owner.get(v)
        if dst is None:
            continue
        for p in cdag.predecessors(v):
            src = owner.get(p)
            if src is not None and src != dst:
                q.add_edge(src, dst)
    return nx.is_directed_acyclic_graph(q)


def validate_x_partition(
    cdag: CDag,
    parts: Sequence[set[Vertex]],
    x: int,
    require_cover: bool = True,
) -> None:
    """Raise ``ValueError`` unless ``parts`` is a valid X-partition.

    Checks (Section 2.3.3):

    * subcomputations are mutually disjoint (and cover the computed
      vertices when ``require_cover``),
    * |Dom_min(V_h)| <= X and |Min(V_h)| <= X for every h,
    * the quotient graph of subcomputations is acyclic.
    """
    if x < 1:
        raise ValueError(f"X must be >= 1, got {x}")
    seen: set[Vertex] = set()
    for idx, part in enumerate(parts):
        if not part:
            raise ValueError(f"subcomputation {idx} is empty")
        overlap = seen & part
        if overlap:
            raise ValueError(
                f"subcomputations overlap on {sorted(map(repr, overlap))[:3]}"
            )
        seen |= part
    if require_cover:
        computed = cdag.computed_vertices
        missing = computed - seen
        if missing:
            raise ValueError(
                f"{len(missing)} computed vertices uncovered, e.g. "
                f"{sorted(map(repr, missing))[:3]}"
            )
        extra = seen - computed
        if extra:
            raise ValueError(
                f"parts contain non-computed vertices, e.g. "
                f"{sorted(map(repr, extra))[:3]}"
            )
    for idx, part in enumerate(parts):
        dom = minimum_dominator_size(cdag, part)
        if dom > x:
            raise ValueError(
                f"subcomputation {idx}: |Dom_min| = {dom} > X = {x}"
            )
        mset = min_set(cdag, part)
        if len(mset) > x:
            raise ValueError(
                f"subcomputation {idx}: |Min| = {len(mset)} > X = {x}"
            )
    if not _quotient_is_acyclic(cdag, parts):
        raise ValueError("cyclic dependencies between subcomputations")


def empirical_intensity(
    cdag: CDag,
    parts: Sequence[set[Vertex]],
    x: int,
    m: int,
) -> float:
    """rho = max_h |V_h| / (X - M) for a concrete partition (Lemma 1).

    Any valid X-partition yields the bound Q >= |V_computed| / rho; the
    smaller the largest part, the weaker the implied bound, so callers
    use partitions with large balanced parts.
    """
    if x <= m:
        raise ValueError(f"X = {x} must exceed M = {m}")
    validate_x_partition(cdag, parts, x, require_cover=False)
    vmax = max(len(p) for p in parts)
    return vmax / (x - m)
