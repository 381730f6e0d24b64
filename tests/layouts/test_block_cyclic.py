"""Tests for the block-cyclic index map."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layouts import BlockCyclic1D


class TestBlockCyclic1D:
    def test_cyclic_owner_pattern(self):
        m = BlockCyclic1D(n=10, p=3, block=1)
        assert [m.owner(g) for g in range(10)] == [
            0, 1, 2, 0, 1, 2, 0, 1, 2, 0,
        ]

    def test_block2_owner_pattern(self):
        m = BlockCyclic1D(n=12, p=2, block=2)
        assert [m.owner(g) for g in range(12)] == [
            0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1,
        ]

    def test_counts_sum_to_n(self):
        m = BlockCyclic1D(n=29, p=5, block=4)
        assert sum(len(m.global_indices(r)) for r in range(5)) == 29

    def test_balance_of_cyclic_layout(self):
        """Cyclic (block=1) never unbalances by more than one element —
        the property COnfLUX's row masking relies on."""
        m = BlockCyclic1D(n=1000, p=7, block=1)
        counts = [len(m.global_indices(r)) for r in range(7)]
        assert max(counts) - min(counts) <= 1

    def test_out_of_range_rejected(self):
        m = BlockCyclic1D(n=5, p=2)
        with pytest.raises(ValueError):
            m.owner(5)
        with pytest.raises(ValueError):
            m.owner(-1)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            BlockCyclic1D(n=-1, p=2)
        with pytest.raises(ValueError):
            BlockCyclic1D(n=4, p=0)
        with pytest.raises(ValueError):
            BlockCyclic1D(n=4, p=2, block=0)

    def test_bad_rank_rejected(self):
        m = BlockCyclic1D(n=4, p=2)
        with pytest.raises(ValueError):
            m.global_indices(2)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=200),
        p=st.integers(min_value=1, max_value=16),
        block=st.integers(min_value=1, max_value=8),
    )
    def test_partition_property(self, n, p, block):
        """Every index is owned exactly once."""
        m = BlockCyclic1D(n, p, block)
        seen = np.concatenate(
            [m.global_indices(r) for r in range(p)]
        ) if n else np.array([])
        assert len(seen) == n
        assert set(seen.tolist()) == set(range(n))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        p=st.integers(min_value=1, max_value=16),
        block=st.integers(min_value=1, max_value=8),
        g=st.integers(min_value=0, max_value=199),
    )
    def test_owner_consistent_with_global_indices(self, n, p, block, g):
        g = g % n
        m = BlockCyclic1D(n, p, block)
        r = m.owner(g)
        assert g in m.global_indices(r)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=200),
        p=st.integers(min_value=1, max_value=16),
        block=st.integers(min_value=1, max_value=8),
    )
    def test_out_of_range_int_message(self, n, p, block):
        """-1 and n are rejected with the array path's message, whether
        given as a Python int or a NumPy scalar."""
        m = BlockCyclic1D(n, p, block)
        for bad in (-1, n):
            text = re.escape(f"global index out of range [0, {n}): [{bad}]")
            for index in (bad, np.int64(bad)):
                with pytest.raises(ValueError, match=text):
                    m.owner(index)
