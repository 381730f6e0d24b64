"""Tests for the DAAP program model (paper Section 2.2)."""

import pytest

from repro.pebbling import lu_cdag
from repro.theory.daap import (
    Access,
    Statement,
    cholesky_program,
    lu_program,
    matmul_like_pair_program,
    mmm_program,
    modified_mmm_program,
)


class TestAccess:
    def test_distinct_variables_in_order(self):
        acc = Access("A", ("i", "k"))
        assert acc.variables == ("i", "k")
        assert acc.access_dim == 2

    def test_repeated_variable_collapses(self):
        """A[k,k] has dim(A)=2 but dim(phi)=1 — Section 2.2 item 7."""
        acc = Access("A", ("k", "k"))
        assert acc.variables == ("k",)
        assert acc.access_dim == 1

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError):
            Access("A", ())

    def test_three_dimensional_access(self):
        acc = Access("D", ("i", "j", "k"))
        assert acc.access_dim == 3


class TestStatement:
    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="not in loop_vars"):
            Statement(
                name="bad",
                loop_vars=("i",),
                output=Access("A", ("i",)),
                inputs=(Access("B", ("z",)),),
                vertex_count=lambda n: n,
            )

    def test_access_variable_sets_cover_inputs_only(self):
        s = mmm_program().statements[0]
        assert s.access_variable_sets == (("i", "j"), ("i", "k"), ("k", "j"))


class TestLUProgram:
    def test_statement_names(self):
        lu = lu_program()
        assert [s.name for s in lu.statements] == ["S1", "S2"]

    def test_s1_structure_matches_figure1(self):
        s1 = lu_program().statement("S1")
        assert s1.output == Access("A", ("i", "k"))
        assert s1.inputs[1] == Access("A", ("k", "k"))
        assert s1.inputs[1].access_dim == 1
        assert s1.out_degree_one_inputs == 1

    def test_s1_vertex_count(self):
        s1 = lu_program().statement("S1")
        # sum_{k=1}^{N} (N - k) = N(N-1)/2
        assert s1.vertex_count(10) == 45
        assert s1.vertex_count(1) == 0

    def test_s2_vertex_count_paper_formula(self):
        s2 = lu_program().statement("S2")
        n = 10
        assert s2.vertex_count(n) == pytest.approx(
            n**3 / 3 - n**2 + 2 * n / 3
        )

    def test_s2_vertex_count_literal_formula(self):
        """The literal Figure 1 loop nest counts sum_{k=1}^{N}(N-k)^2
        S2 vertices; the paper's count differs only in lower-order
        terms, so the leading term of the bound is the same."""
        s2 = lu_program().statement("S2")
        for n in (10, 100, 1000):
            literal = sum((n - k) ** 2 for k in range(1, n + 1))
            assert literal - s2.vertex_count(n) == pytest.approx(
                n * (n - 1) / 2
            )

    def test_producer_consumer_edge_declared(self):
        lu = lu_program()
        assert ("S1", "S2", "A") in lu.producer_consumer

    def test_total_vertices(self):
        """With the literal loop-nest count for S2, the statements'
        |V_S| add up to the computed vertices of the explicit LU cDAG."""
        s1 = lu_program().statement("S1")
        for n in (1, 2, 6):
            s2_literal = sum((n - k) ** 2 for k in range(1, n + 1))
            total = s1.vertex_count(n) + s2_literal
            assert total == len(lu_cdag(n).computed_vertices)


class TestCannedPrograms:
    def test_mmm_single_statement(self):
        mmm = mmm_program()
        assert len(mmm.statements) == 1
        assert mmm.statements[0].vertex_count(7) == 343

    def test_pair_program_shares_b(self):
        pair = matmul_like_pair_program()
        assert pair.shared_inputs == (("B", ("S", "T")),)

    def test_modified_mmm_producer_is_input_free(self):
        mod = modified_mmm_program()
        s = mod.statement("S")
        assert s.recomputation_free
        assert s.inputs == ()

    def test_cholesky_three_statements(self):
        chol = cholesky_program()
        assert [s.name for s in chol.statements] == ["S1", "S2", "S3"]
        # S3 vertex count ~ N^3/6
        assert chol.statement("S3").vertex_count(100) == pytest.approx(
            100 * 99 * 101 / 6
        )

    def test_statement_lookup_missing(self):
        with pytest.raises(KeyError):
            mmm_program().statement("nope")
