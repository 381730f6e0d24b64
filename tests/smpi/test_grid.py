"""Tests for cartesian process grids and derived communicators."""

import pytest

from repro.smpi import ProcessGrid3D, run_spmd


class TestGrid2D:
    """The 2D baselines' Pr x Pc grid: the one-layer ProcessGrid3D."""

    def test_coordinates_row_major(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 3, 1)
            return (g.row, g.col)

        results, _ = run_spmd(6, fn)
        assert results == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_row_and_col_comm_sizes(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 3, 1)
            return (g.row_comm.size, g.col_comm.size)

        results, _ = run_spmd(6, fn)
        assert all(r == (3, 2) for r in results)

    def test_row_comm_rank_is_col_index(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 2, 1)
            return (g.row_comm.rank, g.col_comm.rank)

        results, _ = run_spmd(4, fn)
        assert results == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_inactive_ranks_get_none_comms(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 2, 1)
            if not g.active:
                return (g.grid_comm, g.row_comm, g.col_comm)
            return "active"

        results, _ = run_spmd(6, fn)
        assert results[4] == (None, None, None)
        assert results[5] == (None, None, None)
        assert results[0] == "active"

    def test_row_bcast_stays_in_row(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 2, 1)
            data = f"row{g.row}" if g.col == 0 else None
            return g.row_comm.bcast(data, root=0)

        results, _ = run_spmd(4, fn)
        assert results == ["row0", "row0", "row1", "row1"]

    def test_rank_of_coords_roundtrip(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 3, 4, 1)
            return g.rank_of(g.row, g.col, g.layer) == comm.rank

        results, _ = run_spmd(12, fn)
        assert all(results)

    def test_oversized_grid_rejected(self):
        def fn(comm):
            ProcessGrid3D(comm, 4, 4, 1)

        from repro.smpi import RankFailure

        with pytest.raises(RankFailure):
            run_spmd(4, fn, timeout=2.0)

    def test_bad_dims_rejected(self):
        def fn(comm):
            ProcessGrid3D(comm, 0, 4, 1)

        from repro.smpi import RankFailure

        with pytest.raises(RankFailure):
            run_spmd(4, fn, timeout=2.0)


class TestGrid3D:
    def test_coordinates_layer_fastest(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 2, 2)
            return (g.row, g.col, g.layer)

        results, _ = run_spmd(8, fn)
        assert results == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
            (0, 1, 1),
            (1, 0, 0),
            (1, 0, 1),
            (1, 1, 0),
            (1, 1, 1),
        ]

    def test_subcomm_sizes(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 2, 3)
            return (
                g.layer_comm.size,
                g.fiber_comm.size,
                g.row_comm.size,
                g.col_comm.size,
                g.grid_comm.size,
            )

        results, _ = run_spmd(12, fn)
        assert all(r == (4, 3, 2, 2, 12) for r in results)

    def test_fiber_comm_rank_is_layer(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 2, 2)
            return g.fiber_comm.rank == g.layer

        results, _ = run_spmd(8, fn)
        assert all(results)

    def test_layer_comm_groups_by_layer(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 2, 2)
            return g.layer_comm.allreduce(g.layer)

        results, _ = run_spmd(8, fn)
        # each layer_comm has 4 members all with the same layer index
        for rank, total in enumerate(results):
            layer = rank % 2
            assert total == 4 * layer

    def test_fiber_reduction_sums_across_layers(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 2, 2)
            return g.fiber_comm.allreduce(100 + g.layer)

        results, _ = run_spmd(8, fn)
        assert all(r == 201 for r in results)

    def test_rank_of_coords_roundtrip(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 3, 2)
            return g.rank_of(g.row, g.col, g.layer) == comm.rank

        results, _ = run_spmd(12, fn)
        assert all(results)

    def test_inactive_tail_ranks(self):
        def fn(comm):
            g = ProcessGrid3D(comm, 2, 2, 2)
            return g.active

        results, _ = run_spmd(10, fn)
        assert results == [True] * 8 + [False] * 2

    def test_grid_metadata_is_volume_free(self):
        def fn(comm):
            ProcessGrid3D(comm, 2, 2, 2)

        _, report = run_spmd(8, fn)
        assert report.total_bytes == 0
