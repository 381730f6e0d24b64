"""Tests for cDAG structure and the canned builders."""

import pytest

from repro.pebbling import (
    CDag,
    chain_cdag,
    lu_cdag,
    mmm_cdag,
    shared_input_cdag,
)
from repro.pebbling.builders import lu_vertex_counts
from repro.theory import modified_mmm_program


class TestCDag:
    def test_add_and_query(self):
        g = CDag()
        g.add_vertex("a")
        g.add_vertex("b", preds=["a"])
        assert "a" in g and "b" in g
        assert g.predecessors("b") == ("a",)
        assert g.successors("a") == ("b",)
        assert g.inputs == {"a"}
        assert g.outputs == {"b"}

    def test_duplicate_vertex_rejected(self):
        g = CDag()
        g.add_vertex("a")
        with pytest.raises(ValueError, match="already exists"):
            g.add_vertex("a")

    def test_self_loop_rejected(self):
        g = CDag()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_vertex("a", preds=["a"])

    def test_implicit_predecessor_creation(self):
        g = CDag()
        g.add_vertex("c", preds=["a", "b"])
        assert g.inputs == {"a", "b"}
        assert g.in_degree("c") == 2

    def test_topological_order(self):
        g = CDag()
        g.add_vertex("a")
        g.add_vertex("b", preds=["a"])
        g.add_vertex("c", preds=["a", "b"])
        order = g.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_computed_vertices_excludes_inputs(self):
        g = chain_cdag(4)
        assert len(g.computed_vertices) == 3
        assert len(g.inputs) == 1

    def test_edge_count(self):
        g = mmm_cdag(2)
        # each of 8 fma vertices has 3 predecessors
        assert g.edge_count() == 8 * 3


class TestLUCDag:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_vertex_counts_match_formulas(self, n):
        g = lu_cdag(n)
        counts = lu_vertex_counts(n)
        assert len(g.inputs) == counts["inputs"]
        assert len(g.computed_vertices) == counts["s1"] + counts["s2"]

    def test_n4_matches_figure_4_structure(self):
        """Figure 4 uses n = 4: 16 inputs, 6 S1 vertices, 14 S2."""
        g = lu_cdag(4)
        assert len(g.inputs) == 16
        assert len(g.computed_vertices) == 6 + 14

    def test_pivot_feeds_whole_column(self):
        g = lu_cdag(4)
        # A[1,1] (version 0) is the pivot for S1 at k=1: divides rows 2..4
        succs = g.successors(("A", 1, 1, 0))
        assert set(succs) == {("A", i, 1, 1) for i in (2, 3, 4)}

    def test_s2_vertex_has_three_predecessors(self):
        g = lu_cdag(3)
        v = ("A", 2, 2, 1)  # updated at k=1 by S2
        assert set(g.predecessors(v)) == {
            ("A", 2, 2, 0),
            ("A", 2, 1, 1),  # A[2,1] after S1 division
            ("A", 1, 2, 0),  # A[1,2] final
        }

    def test_element_versions_form_chains(self):
        g = lu_cdag(5)
        g.validate_versioning()

    def test_final_u_row_vertices_are_outputs(self):
        g = lu_cdag(3)
        # U(1, j) = A[1, j] version 0 is never updated; for j >= 2 it
        # feeds S2, so the *final* trailing versions are outputs instead.
        outs = g.outputs
        assert ("A", 3, 3, 2) in outs  # fully updated corner

    def test_acyclic(self):
        g = lu_cdag(6)
        g.topological_order()  # raises on cycles

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            lu_cdag(0)

    def test_commutative_reduction_depth(self):
        """Element (n,n) is updated by S2 once per k = 1..n-1."""
        n = 5
        g = lu_cdag(n)
        versions = [v for v in g.vertices if v[:3] == ("A", n, n)]
        assert len(versions) == n  # versions 0..n-1


class TestMMMCDag:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts(self, n):
        g = mmm_cdag(n)
        assert len(g.inputs) == 3 * n * n  # A, B, C(v0)
        assert len(g.computed_vertices) == n**3

    def test_fma_chain_structure(self):
        g = mmm_cdag(3)
        v = ("C", 1, 2, 2)
        assert set(g.predecessors(v)) == {
            ("C", 1, 2, 1),
            ("A", 1, 2, 0),
            ("B", 2, 2, 0),
        }

    def test_outputs_are_final_partials(self):
        n = 3
        g = mmm_cdag(n)
        assert {("C", i, j, n) for i in range(1, 4) for j in range(1, 4)} == (
            g.outputs
        )

    def test_a_and_b_have_out_degree_n(self):
        n = 4
        g = mmm_cdag(n)
        assert g.out_degree(("A", 1, 1, 0)) == n
        assert g.out_degree(("B", 2, 3, 0)) == n


class TestSection4CDags:
    def test_shared_input_counts(self):
        n = 3
        g = shared_input_cdag(n)
        # inputs: A, C, B; computed: D and E cells
        assert len(g.inputs) == 3 * n * n
        assert len(g.computed_vertices) == 2 * n**3

    def test_shared_b_feeds_both_outputs(self):
        g = shared_input_cdag(2)
        succs = g.successors(("B", 1, 1, 0))
        kinds = {s[0] for s in succs}
        assert kinds == {"D", "E"}

    def test_product_vertices_have_two_preds(self):
        """Section 4.1 statements have u = 2 out-degree-one-like inputs
        per product (A and C entries feed n products though; only the
        structure is checked here)."""
        g = shared_input_cdag(2)
        assert g.in_degree(("D", 1, 2, 1)) == 2

    def test_modified_mmm_counts(self):
        """Section 4.2's modified MMM has MMM's graph (only the theory
        layer can say A is recomputable): n^3 computed vertices, as its
        DAAP statement T declares."""
        n = 3
        g = mmm_cdag(n)
        t = modified_mmm_program().statement("T")
        assert len(g.computed_vertices) == t.vertex_count(n) == n**3


class TestChain:
    def test_chain_structure(self):
        g = chain_cdag(3)
        assert len(g) == 3
        assert len(g.inputs) == 1
        assert len(g.outputs) == 1

    def test_chain_of_one(self):
        g = chain_cdag(1)
        assert g.inputs == g.outputs

    def test_bad_length(self):
        with pytest.raises(ValueError):
            chain_cdag(0)
