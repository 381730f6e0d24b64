"""Greedy scheduler tests: validity and lower-bound sandwiching."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pebbling import (
    CDag,
    chain_cdag,
    greedy_schedule,
    lu_cdag,
    mmm_cdag,
    schedule_cost,
    tiled_lu_schedule,
)
from repro.theory.bounds import lu_io_lower_bound, mmm_io_lower_bound


class TestScheduleCostPins:
    """Exact Q of both schedulers replayed through the one-hue
    :class:`PebbleGame`: a change to either scheduler or to the game's
    rules moves these numbers."""

    @pytest.mark.parametrize(
        "n,m,greedy,tiled",
        [(4, 5, 42, 70), (6, 10, 99, 231), (8, 13, 243, 300),
         (10, 28, 369, 436)],
    )
    def test_lu(self, n, m, greedy, tiled):
        g = lu_cdag(n)
        assert schedule_cost(g, m, greedy_schedule(g, m)) == greedy
        assert schedule_cost(g, m, tiled_lu_schedule(n, m)) == tiled

    @pytest.mark.parametrize("n,m,greedy", [(4, 5, 144), (6, 10, 318)])
    def test_mmm(self, n, m, greedy):
        g = mmm_cdag(n)
        assert schedule_cost(g, m, greedy_schedule(g, m)) == greedy


class TestGreedyValidity:
    @pytest.mark.parametrize("n,m", [(2, 4), (3, 4), (4, 6), (6, 8), (6, 30)])
    def test_lu_schedule_is_legal(self, n, m):
        g = lu_cdag(n)
        moves = greedy_schedule(g, m)
        q = schedule_cost(g, m, moves)  # raises if any move is illegal
        assert q >= 0

    @pytest.mark.parametrize("n,m", [(2, 4), (3, 6), (4, 10)])
    def test_mmm_schedule_is_legal(self, n, m):
        g = mmm_cdag(n)
        moves = greedy_schedule(g, m)
        schedule_cost(g, m, moves)

    def test_chain_schedule_cost_is_two(self):
        g = chain_cdag(20)
        moves = greedy_schedule(g, m=2)
        assert schedule_cost(g, 2, moves) == 2  # 1 load + 1 store

    def test_m_too_small_for_in_degree(self):
        g = mmm_cdag(2)  # in-degree 3 needs M >= 4
        with pytest.raises(ValueError, match="cannot hold"):
            greedy_schedule(g, m=3)


class TestSandwich:
    """Q_greedy (a real schedule) must dominate the theory lower bounds."""

    @pytest.mark.parametrize("n,m", [(4, 6), (5, 6), (6, 8), (8, 12)])
    def test_lu_greedy_above_lower_bound(self, n, m):
        g = lu_cdag(n)
        q_greedy = schedule_cost(g, m, greedy_schedule(g, m))
        q_bound = lu_io_lower_bound(n, float(m))
        assert q_greedy >= q_bound * 0.999

    @pytest.mark.parametrize("n,m", [(3, 4), (4, 6), (5, 8)])
    def test_mmm_greedy_above_lower_bound(self, n, m):
        g = mmm_cdag(n)
        q_greedy = schedule_cost(g, m, greedy_schedule(g, m))
        q_bound = mmm_io_lower_bound(n, float(m))
        assert q_greedy >= q_bound * 0.999

    def test_bigger_memory_never_hurts_greedy_much(self):
        """Greedy Q should (weakly) improve with more memory on LU."""
        n = 6
        g = lu_cdag(n)
        q_small = schedule_cost(g, 6, greedy_schedule(g, 6))
        q_large = schedule_cost(g, 64, greedy_schedule(g, 64))
        assert q_large <= q_small

    def test_huge_memory_reaches_compulsory_traffic(self):
        """With M >= |V| the only I/O is reading inputs + writing
        outputs (compulsory misses)."""
        n = 4
        g = lu_cdag(n)
        m = len(g) + 10
        q = schedule_cost(g, m, greedy_schedule(g, m))
        # Inputs that are actually used + outputs that must be stored.
        used_inputs = {
            v
            for v in g.inputs
            if g.out_degree(v) > 0
        }
        computed_outputs = {v for v in g.outputs if g.in_degree(v) > 0}
        assert q == len(used_inputs) + len(computed_outputs)


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=5),
        m=st.integers(min_value=4, max_value=40),
    )
    def test_lu_greedy_always_legal_and_complete(self, n, m):
        g = lu_cdag(n)
        moves = greedy_schedule(g, m)
        q = schedule_cost(g, m, moves)
        assert q >= len({v for v in g.inputs if g.out_degree(v) > 0})

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        nv=st.integers(min_value=3, max_value=40),
        m=st.integers(min_value=5, max_value=20),
    )
    def test_random_dag_greedy_legal(self, seed, nv, m):
        """Random layered DAGs: greedy must always produce a legal,
        complete schedule."""
        import numpy as np

        rng = np.random.default_rng(seed)
        g = CDag()
        labels = [("v", 0, 0, i) for i in range(nv)]
        for i, lab in enumerate(labels):
            if i == 0:
                g.add_vertex(lab)
                continue
            max_preds = min(i, m - 1, 4)
            k = int(rng.integers(0, max_preds + 1))
            preds = (
                [labels[int(p)] for p in rng.choice(i, size=k, replace=False)]
                if k
                else []
            )
            g.add_vertex(lab, preds=preds)
        moves = greedy_schedule(g, m)
        schedule_cost(g, m, moves)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=3, max_value=6))
    def test_greedy_q_scales_reasonably(self, n):
        """Q grows with problem size for fixed small memory."""
        m = 6
        q_small = schedule_cost(lu_cdag(n), m, greedy_schedule(lu_cdag(n), m))
        big = lu_cdag(n + 2)
        q_big = schedule_cost(big, m, greedy_schedule(big, m))
        assert q_big > q_small


class TestAgainstBruteForceOptimal:
    """For very small graphs, compare greedy with an exhaustive optimum."""

    def _optimal_q(self, g: CDag, m: int, limit: int = 200_000) -> int:
        """Breadth-first search over game states (small graphs only)."""
        inputs = frozenset(g.inputs)
        outputs = frozenset(g.outputs)
        start = (frozenset(), inputs, frozenset())
        # state: (red, blue, computed-ever)
        best = {start: 0}
        frontier = [start]
        expansions = 0
        while frontier:
            frontier.sort(key=lambda s: best[s])
            state = frontier.pop(0)
            red, blue, done = state
            q = best[state]
            if outputs <= blue:
                return q
            expansions += 1
            if expansions > limit:
                raise RuntimeError("state space too large")
            succs: list[tuple[tuple, int]] = []
            for v in g.vertices:
                if v in blue and v not in red and len(red) < m:
                    succs.append(((red | {v}, blue, done), q + 1))
                if v in red and v not in blue:
                    succs.append(((red, blue | {v}, done), q + 1))
                preds = g.predecessors(v)
                if (
                    preds
                    and v not in red
                    and len(red) < m
                    and all(p in red for p in preds)
                ):
                    succs.append(((red | {v}, blue, done | {v}), q))
                if v in red:
                    succs.append(((red - {v}, blue, done), q))
            for s, cost in succs:
                if s not in best or best[s] > cost:
                    best[s] = cost
                    frontier.append(s)
        raise RuntimeError("no pebbling found")

    def test_greedy_within_2x_of_optimal_on_tiny_lu(self):
        g = lu_cdag(2)  # 4 inputs, 2 computed vertices
        m = 4
        q_greedy = schedule_cost(g, m, greedy_schedule(g, m))
        q_opt = self._optimal_q(g, m)
        assert q_opt <= q_greedy <= 2 * q_opt

    def test_greedy_optimal_on_chain(self):
        g = chain_cdag(5)
        m = 2
        q_greedy = schedule_cost(g, m, greedy_schedule(g, m))
        q_opt = self._optimal_q(g, m)
        assert q_greedy == q_opt == 2


class TestTiledLUSchedule:
    """The constructive tiled schedule (X-partition hint made concrete)."""

    @pytest.mark.parametrize("n,m", [(4, 4), (8, 16), (12, 16), (13, 25),
                                     (16, 32)])
    def test_legal_and_complete(self, n, m):
        from repro.pebbling.schedules import tiled_lu_schedule

        g = lu_cdag(n)
        q = schedule_cost(g, m, tiled_lu_schedule(n, m))
        assert q > 0

    @pytest.mark.parametrize("n,m", [(8, 16), (16, 32), (20, 50)])
    def test_above_lower_bound(self, n, m):
        from repro.pebbling.schedules import tiled_lu_schedule
        from repro.theory.bounds import lu_io_lower_bound

        g = lu_cdag(n)
        q = schedule_cost(g, m, tiled_lu_schedule(n, m))
        assert q >= lu_io_lower_bound(n, float(m)) * 0.999

    def test_beats_greedy_at_scale(self):
        """Structured tiling wins once the matrix dwarfs fast memory."""
        from repro.pebbling.schedules import tiled_lu_schedule

        n, m = 20, 50
        g = lu_cdag(n)
        q_tiled = schedule_cost(g, m, tiled_lu_schedule(n, m))
        q_greedy = schedule_cost(g, m, greedy_schedule(g, m))
        assert q_tiled < q_greedy

    def test_gap_bounded_by_constant(self):
        """Q_tiled / Q_bound stays below ~2 sqrt(3) + slack — the
        schedule is Theta(N^3/sqrt(M)) with a small constant."""
        from repro.pebbling.schedules import tiled_lu_schedule
        from repro.theory.bounds import lu_io_lower_bound

        n, m = 24, 50
        g = lu_cdag(n)
        q = schedule_cost(g, m, tiled_lu_schedule(n, m))
        assert q / lu_io_lower_bound(n, float(m)) < 4.0

    def test_single_tile_degenerate(self):
        """M large enough for one tile: only compulsory-ish traffic."""
        from repro.pebbling.schedules import tiled_lu_schedule

        n = 6
        m = 3 * n * n + 1
        g = lu_cdag(n)
        q = schedule_cost(g, m, tiled_lu_schedule(n, m))
        # loads N^2 inputs once + stores each element's final version
        assert q <= 2 * n * n + n

    def test_too_small_m_rejected(self):
        from repro.pebbling.schedules import tiled_lu_schedule

        with pytest.raises(ValueError, match="M >= 4"):
            tiled_lu_schedule(8, 3)
