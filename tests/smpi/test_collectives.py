"""Correctness and volume tests for the collective layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smpi import run_spmd
from repro.smpi.collectives import maxloc


def _payload(rank: int, n: int = 4) -> np.ndarray:
    return np.full(n, float(rank + 1))


class TestBcast:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 13])
    @pytest.mark.parametrize("root", [0, "last"])
    def test_all_ranks_receive_root_payload(self, size, root):
        root = size - 1 if root == "last" else 0

        def fn(comm):
            data = _payload(comm.rank) if comm.rank == root else None
            return comm.bcast(data, root=root)

        results, _ = run_spmd(size, fn)
        for r in results:
            np.testing.assert_array_equal(r, _payload(root))

    @pytest.mark.parametrize("size", [2, 4, 7, 8])
    def test_volume_is_p_minus_1_times_payload(self, size):
        nbytes = 8 * 16

        def fn(comm):
            data = np.zeros(16) if comm.rank == 0 else None
            comm.bcast(data, root=0)

        _, report = run_spmd(size, fn)
        assert report.total_bytes == (size - 1) * nbytes

    def test_bcast_python_object(self):
        def fn(comm):
            data = {"rows": [1, 2, 3]} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        results, _ = run_spmd(4, fn)
        assert all(r == {"rows": [1, 2, 3]} for r in results)

    def test_receivers_get_independent_copies(self):
        def fn(comm):
            data = np.zeros(3) if comm.rank == 0 else None
            arr = comm.bcast(data, root=0)
            arr[0] = comm.rank  # must not leak to other ranks
            comm.barrier()
            return arr[1]

        results, _ = run_spmd(4, fn)
        assert all(v == 0.0 for v in results)


class TestReduce:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_sum_reduce_to_root(self, size):
        def fn(comm):
            return comm.reduce(_payload(comm.rank), root=0)

        results, _ = run_spmd(size, fn)
        expected = sum(range(1, size + 1))
        np.testing.assert_allclose(results[0], np.full(4, float(expected)))
        assert all(r is None for r in results[1:])

    def test_reduce_to_nonzero_root(self):
        def fn(comm):
            return comm.reduce(comm.rank, root=2)

        results, _ = run_spmd(4, fn)
        assert results[2] == 0 + 1 + 2 + 3
        assert results[0] is None

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_volume_is_p_minus_1_times_payload(self, size):
        def fn(comm):
            comm.reduce(np.zeros(32), root=0)

        _, report = run_spmd(size, fn)
        assert report.total_bytes == (size - 1) * 32 * 8

    def test_custom_op_max(self):
        def fn(comm):
            return comm.reduce(
                (comm.rank * 7) % 5, root=0, op=lambda a, b: max(a, b)
            )

        results, _ = run_spmd(5, fn)
        assert results[0] == max((r * 7) % 5 for r in range(5))

    def test_maxloc_op(self):
        values = [0.5, -3.0, 2.0, 1.0]

        def fn(comm):
            return comm.reduce((values[comm.rank], comm.rank), root=0, op=maxloc)

        results, _ = run_spmd(4, fn)
        assert results[0] == (-3.0, 1)  # largest |value|

    def test_maxloc_tie_breaks_to_lower_index(self):
        assert maxloc((2.0, 3), (-2.0, 1)) == (-2.0, 1)
        assert maxloc((2.0, 1), (-2.0, 3)) == (2.0, 1)


class TestAllreduce:
    @pytest.mark.parametrize("size", [1, 2, 3, 6, 8])
    def test_everyone_gets_sum(self, size):
        def fn(comm):
            return comm.allreduce(np.full(3, float(comm.rank)))

        results, _ = run_spmd(size, fn)
        expected = float(sum(range(size)))
        for r in results:
            np.testing.assert_allclose(r, np.full(3, expected))

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_volume_is_2_p_minus_1(self, size):
        def fn(comm):
            comm.allreduce(np.zeros(10))

        _, report = run_spmd(size, fn)
        assert report.total_bytes == 2 * (size - 1) * 80


class TestGatherScatter:
    @pytest.mark.parametrize("size", [1, 2, 5, 8])
    def test_gather_collects_in_rank_order(self, size):
        def fn(comm):
            return comm.gather(comm.rank * 2, root=0)

        results, _ = run_spmd(size, fn)
        assert results[0] == [r * 2 for r in range(size)]
        assert all(r is None for r in results[1:])

    def test_gather_volume_counts_nonroot_chunks(self):
        def fn(comm):
            comm.gather(np.zeros(4), root=0)

        _, report = run_spmd(5, fn)
        assert report.total_bytes == 4 * 32

    @pytest.mark.parametrize("size", [1, 2, 4, 7])
    def test_scatter_delivers_chunk_i_to_rank_i(self, size):
        def fn(comm):
            chunks = (
                [np.full(2, float(i)) for i in range(size)]
                if comm.rank == 0
                else None
            )
            return comm.scatter(chunks, root=0)

        results, _ = run_spmd(size, fn)
        for i, r in enumerate(results):
            np.testing.assert_array_equal(r, np.full(2, float(i)))

    def test_scatter_requires_chunk_per_rank(self):
        def fn(comm):
            chunks = [1, 2] if comm.rank == 0 else None
            comm.scatter(chunks, root=0)

        from repro.smpi import RankFailure

        with pytest.raises(RankFailure):
            run_spmd(3, fn, timeout=2.0)

    def test_scatter_volume(self):
        def fn(comm):
            chunks = (
                [np.zeros(8) for _ in range(comm.size)]
                if comm.rank == 0
                else None
            )
            comm.scatter(chunks, root=0)

        _, report = run_spmd(4, fn)
        assert report.total_bytes == 3 * 64


class TestAllgather:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_everyone_gets_everything_in_order(self, size):
        def fn(comm):
            return comm.allgather(comm.rank + 10)

        results, _ = run_spmd(size, fn)
        expected = [r + 10 for r in range(size)]
        assert all(r == expected for r in results)

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_ring_volume(self, size):
        """Ring allgather sends (P-1) blocks per rank; block payload is
        (source_tag, array) so 8 bytes of header ride along."""

        def fn(comm):
            comm.allgather(np.zeros(16))

        _, report = run_spmd(size, fn)
        block = 16 * 8 + 8
        assert report.total_bytes == size * (size - 1) * block


class TestAlltoallReduceScatter:
    @pytest.mark.parametrize("size", [1, 2, 4, 5])
    def test_alltoall_transpose(self, size):
        def fn(comm):
            chunks = [f"{comm.rank}->{d}" for d in range(size)]
            return comm.alltoall(chunks)

        results, _ = run_spmd(size, fn)
        for dest in range(size):
            assert results[dest] == [f"{s}->{dest}" for s in range(size)]

    @pytest.mark.parametrize("size", [1, 2, 4, 6])
    def test_reduce_scatter_sums_my_chunk(self, size):
        def fn(comm):
            chunks = [
                np.full(3, float(comm.rank * size + d)) for d in range(size)
            ]
            return comm.reduce_scatter(chunks)

        results, _ = run_spmd(size, fn)
        for d in range(size):
            expected = float(sum(r * size + d for r in range(size)))
            np.testing.assert_allclose(results[d], np.full(3, expected))

    def test_reduce_scatter_volume(self):
        size = 4

        def fn(comm):
            chunks = [np.zeros(8) for _ in range(size)]
            comm.reduce_scatter(chunks)

        _, report = run_spmd(size, fn)
        assert report.total_bytes == size * (size - 1) * 64


ROUNDS = ("first", "second", "third")


class TestBackToBackRounds:
    """Consecutive calls of one collective on one communicator never
    mix rounds, whichever rank runs ahead."""

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("root", [0, "last"])
    def test_gather(self, size, root):
        root = size - 1 if root == "last" else 0

        def fn(comm):
            return [comm.gather((rnd, comm.rank), root=root) for rnd in ROUNDS]

        results, report = run_spmd(size, fn)
        assert results[root] == [
            [(rnd, r) for r in range(size)] for rnd in ROUNDS
        ]
        assert report.total_messages == len(ROUNDS) * (size - 1)

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    def test_alltoall(self, size):
        def fn(comm):
            return [
                comm.alltoall([(rnd, comm.rank, d) for d in range(size)])
                for rnd in ROUNDS
            ]

        results, _ = run_spmd(size, fn)
        for dest, got in enumerate(results):
            assert got == [
                [(rnd, s, dest) for s in range(size)] for rnd in ROUNDS
            ]

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    def test_reduce_scatter(self, size):
        def fn(comm):
            return [
                comm.reduce_scatter(
                    [[(rnd, comm.rank)] for _ in range(size)],
                    op=lambda a, b: a + b,
                )
                for rnd in ROUNDS
            ]

        results, _ = run_spmd(size, fn)
        for got in results:
            assert got == [[(rnd, s) for s in range(size)] for rnd in ROUNDS]


class TestCollectivesOnSubcommunicators:
    def test_row_bcast_does_not_leak_across_rows(self):
        def fn(comm):
            row = comm.rank // 2
            sub = comm.split(color=row)
            data = f"row{row}" if sub.rank == 0 else None
            return sub.bcast(data, root=0)

        results, _ = run_spmd(4, fn)
        assert results == ["row0", "row0", "row1", "row1"]

    def test_allreduce_per_column(self):
        def fn(comm):
            col = comm.rank % 2
            sub = comm.split(color=col)
            return sub.allreduce(comm.rank)

        results, _ = run_spmd(6, fn)
        assert results == [6, 9, 6, 9, 6, 9]


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=9),
        root=st.integers(min_value=0, max_value=8),
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_bcast_arbitrary_arrays(self, size, root, n, seed):
        root = root % size
        rng = np.random.default_rng(seed)
        expected = rng.standard_normal(n)

        def fn(comm):
            data = expected if comm.rank == root else None
            return comm.bcast(data, root=root)

        results, _ = run_spmd(size, fn)
        for r in results:
            np.testing.assert_array_equal(r, expected)

    @settings(max_examples=20, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_allreduce_matches_numpy_sum(self, size, n, seed):
        rng = np.random.default_rng(seed)
        contributions = rng.standard_normal((size, n))

        def fn(comm):
            return comm.allreduce(contributions[comm.rank].copy())

        results, _ = run_spmd(size, fn)
        expected = contributions.sum(axis=0)
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-12, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(size=st.integers(min_value=1, max_value=8))
    def test_gather_scatter_roundtrip(self, size):
        def fn(comm):
            gathered = comm.gather(comm.rank * 3, root=0)
            chunks = (
                [g * 2 for g in gathered] if comm.rank == 0 else None
            )
            return comm.scatter(chunks, root=0)

        results, _ = run_spmd(size, fn)
        assert results == [r * 6 for r in range(size)]
