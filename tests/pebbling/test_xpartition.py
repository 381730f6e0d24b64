"""Tests for dominator sets, Min sets, and X-partition validation."""

import pytest

from repro.pebbling import (
    CDag,
    chain_cdag,
    empirical_intensity,
    lu_cdag,
    min_set,
    minimum_dominator_size,
    mmm_cdag,
    validate_x_partition,
)


class TestMinimumDominator:
    def test_single_vertex_dominated_by_itself_or_inputs(self):
        g = CDag()
        g.add_vertex("c", preds=["a", "b"])
        # paths a->c and b->c: cheapest cover is {c} itself
        assert minimum_dominator_size(g, {"c"}) == 1

    def test_wide_fanin_dominated_by_target(self):
        g = CDag()
        g.add_vertex("hub", preds=[f"in{i}" for i in range(10)])
        assert minimum_dominator_size(g, {"hub"}) == 1

    def test_independent_vertices_need_separate_cover(self):
        g = CDag()
        g.add_vertex("x", preds=["a"])
        g.add_vertex("y", preds=["b"])
        assert minimum_dominator_size(g, {"x", "y"}) == 2

    def test_shared_input_covers_both(self):
        g = CDag()
        g.add_vertex("x", preds=["s"])
        g.add_vertex("y", preds=["s"])
        assert minimum_dominator_size(g, {"x", "y"}) == 1

    def test_chain_segment_dominated_by_entry(self):
        g = chain_cdag(6)
        seg = {("x", 0, 0, v) for v in (3, 4, 5)}
        assert minimum_dominator_size(g, seg) == 1

    def test_input_in_subset_must_cover_itself(self):
        g = chain_cdag(3)
        subset = {("x", 0, 0, 0)}  # the input itself
        assert minimum_dominator_size(g, subset) == 1

    def test_empty_subset(self):
        g = chain_cdag(3)
        assert minimum_dominator_size(g, set()) == 0

    def test_unknown_vertex_rejected(self):
        g = chain_cdag(3)
        with pytest.raises(ValueError, match="unknown"):
            minimum_dominator_size(g, {"nope"})

    def test_mmm_single_fma_needs_three(self):
        """One fused multiply-add consumes A, B and the previous partial:
        3 vertex-disjoint paths reach it."""
        g = mmm_cdag(2)
        assert minimum_dominator_size(g, {("C", 1, 1, 1)}) == 1  # itself
        # exclude the vertex itself by asking for its two successors' set
        sub = {("C", 1, 1, 1), ("C", 1, 1, 2)}
        # cover: the pair itself is cheapest at 2, or A/B/C cut at >= 3
        assert minimum_dominator_size(g, sub) == 2

    def test_lu_first_column_dominator(self):
        """S1 vertices of column 1 are dominated by {A[i,1](0)} union
        pivot: n-1 column entries + 1 pivot — but the vertices themselves
        (n-1 of them) are cheaper."""
        n = 4
        g = lu_cdag(n)
        col = {("A", i, 1, 1) for i in range(2, n + 1)}
        assert minimum_dominator_size(g, col) == len(col)


class TestMinSet:
    def test_chain_segment_min_is_last(self):
        g = chain_cdag(5)
        seg = {("x", 0, 0, v) for v in (1, 2, 3)}
        assert min_set(g, seg) == {("x", 0, 0, 3)}

    def test_independent_vertices_all_minimal(self):
        g = CDag()
        g.add_vertex("x", preds=["a"])
        g.add_vertex("y", preds=["b"])
        assert min_set(g, {"x", "y"}) == {"x", "y"}

    def test_full_graph_min_is_outputs_for_chain(self):
        g = chain_cdag(4)
        assert min_set(g, set(g.vertices)) == g.outputs


class TestValidatePartition:
    def test_valid_partition_of_chain(self):
        g = chain_cdag(6)
        parts = [
            {("x", 0, 0, 1), ("x", 0, 0, 2)},
            {("x", 0, 0, 3), ("x", 0, 0, 4)},
            {("x", 0, 0, 5)},
        ]
        validate_x_partition(g, parts, x=2)

    def test_overlapping_parts_rejected(self):
        g = chain_cdag(4)
        v = ("x", 0, 0, 1)
        with pytest.raises(ValueError, match="overlap"):
            validate_x_partition(
                g, [{v}, {v, ("x", 0, 0, 2)}], x=3, require_cover=False
            )

    def test_uncovered_vertices_rejected(self):
        g = chain_cdag(4)
        with pytest.raises(ValueError, match="uncovered"):
            validate_x_partition(g, [{("x", 0, 0, 1)}], x=3)

    def test_inputs_in_parts_rejected_when_covering(self):
        g = chain_cdag(3)
        parts = [
            {("x", 0, 0, 0), ("x", 0, 0, 1), ("x", 0, 0, 2)},
        ]
        with pytest.raises(ValueError, match="non-computed"):
            validate_x_partition(g, parts, x=3)

    def test_dominator_budget_exceeded(self):
        g = CDag()
        for i in range(5):
            g.add_vertex(f"y{i}", preds=[f"a{i}"])
        parts = [{f"y{i}" for i in range(5)}]
        with pytest.raises(ValueError, match="Dom_min"):
            validate_x_partition(g, parts, x=3)

    def test_min_set_budget_exceeded(self):
        """5 independent results with wide shared input: Dom small but
        Min large."""
        g = CDag()
        for i in range(5):
            g.add_vertex(f"y{i}", preds=["shared"])
            g.add_vertex(f"z{i}", preds=[f"y{i}"])
        parts = [{f"y{i}" for i in range(5)}]
        with pytest.raises(ValueError, match=r"\|Min\|"):
            validate_x_partition(g, parts, x=3, require_cover=False)

    def test_cyclic_quotient_rejected(self):
        """a -> b -> c -> d with parts {a, c} and {b, d} forms a 2-cycle
        in the quotient graph."""
        g = CDag()
        g.add_vertex("a", preds=["in"])
        g.add_vertex("b", preds=["a"])
        g.add_vertex("c", preds=["b"])
        g.add_vertex("d", preds=["c"])
        with pytest.raises(ValueError, match="cyclic"):
            validate_x_partition(
                g, [{"a", "c"}, {"b", "d"}], x=4, require_cover=False
            )

    def test_empty_part_rejected(self):
        g = chain_cdag(3)
        with pytest.raises(ValueError, match="empty"):
            validate_x_partition(g, [set()], x=2, require_cover=False)

    def test_bad_x_rejected(self):
        g = chain_cdag(3)
        with pytest.raises(ValueError, match="X must"):
            validate_x_partition(g, [{("x", 0, 0, 1)}], x=0)


class TestEmpiricalIntensity:
    def test_chain_intensity(self):
        g = chain_cdag(9)
        parts = [
            {("x", 0, 0, v) for v in range(1, 5)},
            {("x", 0, 0, v) for v in range(5, 9)},
        ]
        rho = empirical_intensity(g, parts, x=4, m=2)
        assert rho == pytest.approx(4 / 2)

    def test_x_not_above_m_rejected(self):
        g = chain_cdag(3)
        with pytest.raises(ValueError, match="exceed"):
            empirical_intensity(g, [{("x", 0, 0, 1)}], x=2, m=2)


class TestLemma6Structure:
    """Structural check behind Lemma 6 on the LU cDAG: S1 vertices
    consume an out-degree-one input (the previous version of A[i,k])."""

    def test_s1_consumes_out_degree_one_vertex(self):
        n = 4
        g = lu_cdag(n)
        # A[i,1] version 0 for i >= 2 feeds exactly the S1 division
        for i in range(2, n + 1):
            assert g.out_degree(("A", i, 1, 0)) == 1

    def test_mmm_a_entries_not_out_degree_one(self):
        g = mmm_cdag(3)
        assert g.out_degree(("A", 1, 1, 0)) == 3
