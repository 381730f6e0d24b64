"""Tests for the hued parallel pebble game (paper Section 5)."""

import pytest

from repro.pebbling import CDag, Move, PebbleGame, PebblingError, chain_cdag


@pytest.fixture
def diamond():
    """Two independent mid vertices feeding one sink."""
    g = CDag()
    g.add_vertex("x", preds=["a"])
    g.add_vertex("y", preds=["b"])
    g.add_vertex("z", preds=["x", "y"])
    return g


class TestParallelRules:
    def test_load_from_blue(self, diamond):
        game = PebbleGame(diamond, m=3, nprocs=2)
        game.apply(Move.load("a", proc=0))
        assert "a" in game.red[0]
        assert game.loads[0] == 1

    def test_load_from_other_hue(self, diamond):
        """Rule 2: any pebble (including another processor's red) is a
        valid source — remote fast memories are directly accessible."""
        game = PebbleGame(diamond, m=3, nprocs=2)
        game.apply(Move.load("a", proc=0))
        game.apply(Move.compute("x", proc=0))
        # x has no blue pebble, only proc 0's red one; proc 1 may load it
        game.apply(Move.load("x", proc=1))
        assert "x" in game.red[1]
        assert game.loads[1] == 1

    def test_load_with_no_pebble_rejected(self, diamond):
        game = PebbleGame(diamond, m=3, nprocs=2)
        with pytest.raises(PebblingError, match="no pebble of any hue"):
            game.apply(Move.load("x", proc=1))

    def test_compute_needs_own_hue(self, diamond):
        """Rule 1: no sharing of red pebbles between processors."""
        game = PebbleGame(diamond, m=3, nprocs=2)
        game.apply(Move.load("a", proc=0))
        with pytest.raises(PebblingError, match="red pebbles of proc 1"):
            game.apply(Move.compute("x", proc=1))

    def test_multiple_hues_on_one_vertex(self, diamond):
        game = PebbleGame(diamond, m=3, nprocs=3)
        for p in range(3):
            game.apply(Move.load("a", proc=p))
        assert all("a" in game.red[p] for p in range(3))

    def test_per_proc_memory_limits(self, diamond):
        game = PebbleGame(diamond, m=1, nprocs=2)
        game.apply(Move.load("a", proc=0))
        with pytest.raises(PebblingError, match="limit"):
            game.apply(Move.load("b", proc=0))
        # but proc 1 still has capacity
        game.apply(Move.load("b", proc=1))

    def test_store_and_completion(self, diamond):
        game = PebbleGame(diamond, m=3, nprocs=2)
        # proc 0 computes x, proc 1 computes y, proc 0 finishes z
        game.apply(Move.load("a", proc=0))
        game.apply(Move.compute("x", proc=0))
        game.apply(Move.load("b", proc=1))
        game.apply(Move.compute("y", proc=1))
        # cross-hue transfer (counts on proc 0)
        game.apply(Move.load("y", proc=0))
        game.apply(Move.discard_red("a", proc=0))
        game.apply(Move.compute("z", proc=0))
        game.apply(Move.store("z", proc=0))
        assert game.is_complete()
        # proc 0: load a, load y, store z; proc 1: load b
        assert game.q_per_proc == [3, 1]
        assert game.q == 4
        assert game.q_max == 3

    def test_discard_requires_ownership(self, diamond):
        game = PebbleGame(diamond, m=3, nprocs=2)
        game.apply(Move.load("a", proc=0))
        with pytest.raises(PebblingError, match="not red on proc 1"):
            game.apply(Move.discard_red("a", proc=1))

    def test_compute_input_rejected(self, diamond):
        game = PebbleGame(diamond, m=3, nprocs=2)
        with pytest.raises(PebblingError, match="inputs cannot"):
            game.apply(Move.compute("a", proc=0))

    def test_bad_proc_index(self, diamond):
        game = PebbleGame(diamond, m=3, nprocs=2)
        with pytest.raises(PebblingError, match="out of range"):
            game.apply(Move.load("a", proc=5))

    def test_constructor_validation(self, diamond):
        with pytest.raises(ValueError):
            PebbleGame(diamond, m=3, nprocs=0)
        with pytest.raises(ValueError):
            PebbleGame(diamond, m=0, nprocs=2)


class TestParallelChainSpeedup:
    def test_two_procs_split_chain_with_handoff(self):
        """Processor 0 computes the first half, processor 1 picks up the
        midpoint through a cross-hue load — exactly one transfer."""
        g = chain_cdag(8)
        game = PebbleGame(g, m=2, nprocs=2)
        game.apply(Move.load(("x", 0, 0, 0), proc=0))
        for v in range(1, 4):
            game.apply(Move.compute(("x", 0, 0, v), proc=0))
            game.apply(Move.discard_red(("x", 0, 0, v - 1), proc=0))
        game.apply(Move.load(("x", 0, 0, 3), proc=1))  # handoff
        for v in range(4, 8):
            game.apply(Move.compute(("x", 0, 0, v), proc=1))
            game.apply(Move.discard_red(("x", 0, 0, v - 1), proc=1))
        game.apply(Move.store(("x", 0, 0, 7), proc=1))
        assert game.is_complete()
        assert game.q_per_proc == [1, 2]
