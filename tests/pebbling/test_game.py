"""Rule-enforcement tests for the sequential red-blue pebble game: the
one-hue case of :class:`PebbleGame`."""

import pytest

from repro.pebbling import (
    CDag,
    Move,
    PebbleGame,
    PebblingError,
    chain_cdag,
)


@pytest.fixture
def tiny():
    """c = f(a, b) with a, b inputs."""
    g = CDag()
    g.add_vertex("c", preds=["a", "b"])
    return g


class TestGameRules:
    def test_initial_state(self, tiny):
        game = PebbleGame(tiny, m=3)
        assert game.blue == {"a", "b"}
        assert game.red[0] == set()
        assert game.q == 0

    def test_full_tiny_pebbling(self, tiny):
        game = PebbleGame(tiny, m=3)
        game.run(
            [
                Move.load("a"),
                Move.load("b"),
                Move.compute("c"),
                Move.store("c"),
            ]
        )
        assert game.is_complete()
        assert game.q == 3  # 2 loads + 1 store

    def test_load_requires_blue(self, tiny):
        game = PebbleGame(tiny, m=3)
        with pytest.raises(PebblingError, match="no pebble"):
            game.apply(Move.load("c"))

    def test_load_twice_rejected(self, tiny):
        game = PebbleGame(tiny, m=3)
        game.apply(Move.load("a"))
        with pytest.raises(PebblingError, match="already red"):
            game.apply(Move.load("a"))

    def test_compute_requires_all_preds_red(self, tiny):
        game = PebbleGame(tiny, m=3)
        game.apply(Move.load("a"))
        with pytest.raises(PebblingError, match="predecessors"):
            game.apply(Move.compute("c"))

    def test_compute_on_input_rejected(self, tiny):
        game = PebbleGame(tiny, m=3)
        with pytest.raises(PebblingError, match="inputs cannot"):
            game.apply(Move.compute("a"))

    def test_store_requires_red(self, tiny):
        game = PebbleGame(tiny, m=3)
        with pytest.raises(PebblingError, match="no red"):
            game.apply(Move.store("c"))

    def test_red_limit_enforced(self, tiny):
        game = PebbleGame(tiny, m=1)
        game.apply(Move.load("a"))
        with pytest.raises(PebblingError, match="limit"):
            game.apply(Move.load("b"))

    def test_discard_frees_capacity(self, tiny):
        game = PebbleGame(tiny, m=1)
        game.apply(Move.load("a"))
        game.apply(Move.discard_red("a"))
        game.apply(Move.load("b"))
        assert game.red[0] == {"b"}

    def test_discard_red_requires_red(self, tiny):
        game = PebbleGame(tiny, m=2)
        with pytest.raises(PebblingError, match="not red"):
            game.apply(Move.discard_red("a"))

    def test_discard_blue(self, tiny):
        game = PebbleGame(tiny, m=2)
        game.apply(Move.discard_blue("a"))
        assert "a" not in game.blue
        with pytest.raises(PebblingError, match="not blue"):
            game.apply(Move.discard_blue("a"))

    def test_unknown_vertex(self, tiny):
        game = PebbleGame(tiny, m=2)
        with pytest.raises(PebblingError, match="unknown"):
            game.apply(Move.load("zzz"))

    def test_compute_at_capacity_rejected(self):
        g = CDag()
        g.add_vertex("b", preds=["a"])
        game = PebbleGame(g, m=1)
        game.apply(Move.load("a"))
        with pytest.raises(PebblingError, match="limit"):
            game.apply(Move.compute("b"))

    def test_m_must_be_positive(self, tiny):
        with pytest.raises(ValueError):
            PebbleGame(tiny, m=0)

    def test_assert_complete_raises_when_outputs_missing(self, tiny):
        game = PebbleGame(tiny, m=3)
        with pytest.raises(PebblingError, match="outputs lack"):
            game.assert_complete()

    def test_history_recorded(self, tiny):
        game = PebbleGame(tiny, m=3)
        moves = [Move.load("a"), Move.load("b"), Move.compute("c")]
        game.run(moves)
        assert game.history == moves


class TestChainPebbling:
    def test_chain_needs_only_two_reds(self):
        """A chain can be pebbled with M = 2 and Q = 1 load + 1 store."""
        g = chain_cdag(10)
        game = PebbleGame(g, m=2)
        game.apply(Move.load(("x", 0, 0, 0)))
        for v in range(1, 10):
            game.apply(Move.compute(("x", 0, 0, v)))
            game.apply(Move.discard_red(("x", 0, 0, v - 1)))
        game.apply(Move.store(("x", 0, 0, 9)))
        assert game.is_complete()
        assert game.q == 2

    def test_chain_with_one_red_is_stuck(self):
        g = chain_cdag(3)
        game = PebbleGame(g, m=1)
        game.apply(Move.load(("x", 0, 0, 0)))
        with pytest.raises(PebblingError, match="limit"):
            game.apply(Move.compute(("x", 0, 0, 1)))

    def test_recompute_after_discard_allowed(self):
        """Recomputation is legal in the general game (the paper's model
        allows it; IOLB's doesn't — Section 10)."""
        g = chain_cdag(2)
        game = PebbleGame(g, m=2)
        v0, v1 = ("x", 0, 0, 0), ("x", 0, 0, 1)
        game.apply(Move.load(v0))
        game.apply(Move.compute(v1))
        game.apply(Move.discard_red(v1))
        game.apply(Move.compute(v1))  # recompute
        game.apply(Move.store(v1))
        assert game.is_complete()
