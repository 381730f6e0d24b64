"""Unit tests for the run-to-block SPMD runtime (point-to-point layer)."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.smpi import DeadlockError, RankFailure, run_spmd
from repro.smpi.runtime import payload_nbytes


class TestRunSpmd:
    def test_single_rank_returns_result(self):
        results, report = run_spmd(1, lambda comm: comm.rank * 10 + 7)
        assert results == [7]
        assert report.total_bytes == 0

    def test_results_ordered_by_rank(self):
        results, _ = run_spmd(8, lambda comm: comm.rank**2)
        assert results == [r**2 for r in range(8)]

    def test_size_and_rank_visible(self):
        results, _ = run_spmd(5, lambda comm: (comm.rank, comm.size))
        assert results == [(r, 5) for r in range(5)]

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
    def test_budget_that_is_not_positive_rejected(self, timeout):
        # each of these once ran with no wall budget at all
        with pytest.raises(ValueError, match="timeout must be > 0"):
            run_spmd(1, lambda comm: None, timeout=timeout)

    def test_infinite_budget_is_no_budget(self):
        results, _ = run_spmd(
            2, lambda comm: comm.rank, timeout=float("inf")
        )
        assert results == [0, 1]

    def test_rank_exception_propagates_as_rank_failure(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("boom on 2")
            return comm.rank

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(4, fn)
        assert exc_info.value.failures[0][0] == 2
        assert "boom on 2" in str(exc_info.value)

    def test_multiple_rank_failures_all_collected(self):
        def fn(comm):
            if comm.rank % 2 == 0:
                raise RuntimeError(f"fail {comm.rank}")

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(6, fn)
        failed_ranks = sorted(r for r, _ in exc_info.value.failures)
        assert failed_ranks == [0, 2, 4]


class TestPointToPoint:
    def test_send_recv_scalar(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(42, dest=1)
                return None
            return comm.recv(source=0)

        results, _ = run_spmd(2, fn)
        assert results[1] == 42

    def test_send_recv_numpy_roundtrip(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(12.0).reshape(3, 4), dest=1)
                return None
            return comm.recv(source=0)

        results, _ = run_spmd(2, fn)
        np.testing.assert_array_equal(
            results[1], np.arange(12.0).reshape(3, 4)
        )

    def test_send_copies_payload(self):
        """Mutating the array after send must not affect the receiver —
        distributed-memory semantics."""

        def fn(comm):
            if comm.rank == 0:
                arr = np.ones(4)
                comm.send(arr, dest=1)
                arr[:] = -1.0
                comm.send(0, dest=1, tag=9)
                return None
            # tag 9 leaves after the mutation: take it first
            comm.recv(source=0, tag=9)
            return comm.recv(source=0)

        results, _ = run_spmd(2, fn)
        np.testing.assert_array_equal(results[1], np.ones(4))

    def test_tag_matching_out_of_order(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            b = comm.recv(source=0, tag=2)
            a = comm.recv(source=0, tag=1)
            return (a, b)

        results, _ = run_spmd(2, fn)
        assert results[1] == ("a", "b")

    def test_fifo_within_same_tag(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=3)
                return None
            return [comm.recv(source=0, tag=3) for _ in range(5)]

        results, _ = run_spmd(2, fn)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_fan_in_receives_each_source_by_name(self):
        def fn(comm):
            if comm.rank == 0:
                return [
                    comm.recv(source=src)
                    for src in reversed(range(1, comm.size))
                ]
            comm.send(comm.rank * 100, dest=0)
            return None

        results, _ = run_spmd(4, fn)
        assert results[0] == [300, 200, 100]

    @pytest.mark.parametrize("source", [-1, 2])
    def test_recv_source_out_of_range(self, source):
        def fn(comm):
            if comm.rank == 0:
                comm.recv(source=source)

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(2, fn)
        assert isinstance(exc_info.value.failures[0][1], ValueError)
        assert f"source {source} out of range" in str(exc_info.value)

    def test_recv_status_reports_source_and_tag(self):
        def fn(comm):
            if comm.rank == 1:
                comm.send("payload", dest=0, tag=77)
                return None
            if comm.rank == 0:
                return comm.recv_status(source=1, tag=77)
            return None

        results, _ = run_spmd(2, fn)
        assert results[0] == ("payload", 1, 77)

    def test_sendrecv_exchange(self):
        def fn(comm):
            partner = comm.rank ^ 1
            return comm.sendrecv(comm.rank, dest=partner)

        results, _ = run_spmd(4, fn)
        assert results == [1, 0, 3, 2]

    def test_send_out_of_range_dest(self):
        def fn(comm):
            comm.send(1, dest=99)

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(2, fn)
        assert isinstance(exc_info.value.failures[0][1], ValueError)

    def test_recv_without_sender_times_out(self):
        def fn(comm):
            if comm.rank == 0:
                comm.recv(source=1)

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(2, fn, timeout=0.5)
        assert isinstance(exc_info.value.failures[0][1], DeadlockError)

    def test_all_ranks_blocked_census_does_not_deadlock(self):
        # A ring of receives nobody feeds: the last rank to block finds
        # nothing runnable, and every rank is failed then and there
        # with its own coordinates on top of one shared census.
        def fn(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=9)

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(12, fn, timeout=300)
        failures = exc_info.value.failures
        assert [rank for rank, _ in failures] == list(range(12))
        censuses = set()
        for rank, rank_exc in failures:
            assert isinstance(rank_exc, DeadlockError)
            head, _, census = str(rank_exc).partition("\n")
            assert head.startswith(
                f"recv(source={(rank + 1) % 12}, tag=9, context=0)"
            )
            censuses.add(census)
        (census,) = censuses
        assert census.startswith("blocked ranks:")
        assert "rank 11: awaiting (source=0, tag=9, context=0)" in census
        assert "(all mailboxes empty)" in census

    def test_stuck_rendezvous_is_a_deadlock_too(self):
        def fn(comm):
            if comm.rank:
                comm.barrier()

        with pytest.raises(RankFailure) as exc_info:
            run_spmd(3, fn, timeout=300)
        assert [rank for rank, _ in exc_info.value.failures] == [1, 2]
        text = str(exc_info.value.failures[0][1])
        assert text.startswith("rendezvous (0, 'barrier', 1) stuck at 2/3")
        assert "rank 2: in rendezvous (0, 'barrier', 1)" in text

    def test_rank_that_never_blocks_is_bounded_by_the_budget(self):
        # Deadlock detection cannot see a rank that just keeps
        # running; the wall budget can.  The caller gets its answer
        # when the budget is spent, and the rank blocked on the
        # straggler is failed when the straggler finally lets go.
        unwound = threading.Event()
        seen = []

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.5)
                return
            try:
                comm.recv(source=1, tag=3)
            except DeadlockError as exc:
                seen.append(str(exc))
                unwound.set()
                raise

        start = time.monotonic()
        with pytest.raises(RankFailure) as exc_info:
            run_spmd(2, fn, timeout=0.1)
        assert time.monotonic() - start < 0.4
        ((rank, exc),) = exc_info.value.failures
        assert rank == 1 and isinstance(exc, DeadlockError)
        assert "rank 1 still running" in str(exc)
        assert "wall budget (0.1s)" in str(exc)
        assert unwound.wait(5.0)
        assert seen[0].startswith("recv(source=1, tag=3, context=0)")
        assert "wall budget (0.1s)" in seen[0]


class TestVolumeAccounting:
    def test_numpy_message_counts_nbytes(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros((10, 10)), dest=1)
            else:
                comm.recv(source=0)

        _, report = run_spmd(2, fn)
        assert report.sent_bytes[0] == 800
        assert report.sent_bytes[1] == 0
        assert report.recv_bytes[1] == 800
        assert report.total_bytes == 800
        assert report.total_messages == 1

    def test_sent_equals_received_globally(self):
        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.zeros(comm.rank + 1), dest=right)
            comm.recv(source=left)

        _, report = run_spmd(5, fn)
        assert sum(report.sent_bytes) == sum(report.recv_bytes)

    def test_phase_attribution(self):
        def fn(comm):
            if comm.rank == 0:
                with comm.phase("alpha"):
                    comm.send(np.zeros(4), dest=1)
                with comm.phase("beta"):
                    comm.send(np.zeros(8), dest=1)
                comm.send(np.zeros(2), dest=1)  # unattributed
            else:
                for _ in range(3):
                    comm.recv(source=0)

        _, report = run_spmd(2, fn)
        assert report.phase_bytes["alpha"] == 32
        assert report.phase_bytes["beta"] == 64
        assert report.total_bytes == 32 + 64 + 16

    def test_nested_phase_restores_outer(self):
        def fn(comm):
            if comm.rank == 0:
                with comm.phase("outer"):
                    with comm.phase("inner"):
                        comm.send(np.zeros(1), dest=1)
                    comm.send(np.zeros(1), dest=1)
            else:
                comm.recv(source=0)
                comm.recv(source=0)

        _, report = run_spmd(2, fn)
        # Nested scopes report exclusive totals under their full path:
        # the inner send is *not* double-counted into "outer".
        assert report.phase_bytes == {"outer": 8, "outer/inner": 8}


class TestLedgerLanes:
    def test_rank_private_lanes_need_no_lock(self):
        # One writer per rank, two ranks hammered from two threads with
        # a switch interval short enough to interleave them constantly:
        # a counter shared between the lanes would lose updates.
        from repro.smpi.volume import VolumeLedger

        calls = 20_000
        ledger = VolumeLedger(2)

        def hammer(rank):
            ledger.push_phase(rank, "p")
            for _ in range(calls):
                ledger.record_send(rank, 8)
                ledger.record_recv(rank, 8)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(rank,))
                for rank in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        report = ledger.snapshot()
        assert report.sent_bytes == report.recv_bytes == (8 * calls,) * 2
        assert report.messages == (calls, calls)
        assert report.phase_bytes == {"p": 16 * calls}
        assert report.phase_messages == {"p": 2 * calls}


class TestPayloadNbytes:
    @pytest.mark.parametrize(
        "obj,expected",
        [
            (None, 0),
            (True, 1),
            (7, 8),
            (3.14, 8),
            (1 + 2j, 16),
            ("abcd", 4),
            (b"xyz", 3),
            (np.zeros(5, dtype=np.float64), 40),
            (np.zeros(5, dtype=np.int32), 20),
            (np.float64(1.0), 8),
            ([1, 2.0, "ab"], 8 + 8 + 2),
            ((np.zeros(2), np.zeros(3)), 40),
            ({"k": np.zeros(4)}, 1 + 32),
        ],
    )
    def test_sizes(self, obj, expected):
        assert payload_nbytes(obj) == expected

    @pytest.mark.parametrize(
        "obj",
        [
            bytes(100),
            bytearray(100),
            memoryview(bytes(100)),
            memoryview(np.zeros((5, 5), dtype=np.int32)),  # 4 B items
            memoryview(bytearray(200))[::2],  # a strided view
        ],
    )
    def test_byte_buffers_count_their_byte_length(self, obj):
        assert payload_nbytes(obj) == 100

    def test_byte_buffers_travel_as_private_copies(self):
        """A bytearray is copied at send, a memoryview arrives as the
        bytes it viewed then; the ledger books their byte lengths."""

        def fn(comm):
            if comm.rank == 0:
                buf = bytearray(b"abcd")
                comm.send(buf, dest=1, tag=1)
                comm.send(memoryview(buf)[1:3], dest=1, tag=2)
                buf[:] = b"wxyz"  # after both sends: the receiver keeps abcd
                return None
            return comm.recv(source=0, tag=1), comm.recv(source=0, tag=2)

        results, report = run_spmd(2, fn)
        assert results[1] == (bytearray(b"abcd"), b"bc")
        assert type(results[1][0]) is bytearray
        assert type(results[1][1]) is bytes
        assert report.sent_bytes == (4 + 2, 0)
        assert report.recv_bytes == (0, 4 + 2)

    def test_negative_size_rejected_by_ledger(self):
        from repro.smpi.volume import VolumeLedger

        ledger = VolumeLedger(1)
        with pytest.raises(ValueError):
            ledger.record_send(0, -1)


class TestSplitAndDup:
    def test_split_into_two_halves(self):
        def fn(comm):
            half = comm.rank // 2
            sub = comm.split(color=half)
            return (sub.rank, sub.size, sub.group)

        results, _ = run_spmd(4, fn)
        assert results[0] == (0, 2, (0, 1))
        assert results[1] == (1, 2, (0, 1))
        assert results[2] == (0, 2, (2, 3))
        assert results[3] == (1, 2, (2, 3))

    def test_split_key_reorders_ranks(self):
        def fn(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        results, _ = run_spmd(3, fn)
        # key = -rank reverses the order
        assert results == [2, 1, 0]

    def test_split_none_color_returns_none(self):
        def fn(comm):
            sub = comm.split(color=None if comm.rank == 0 else 1)
            return None if sub is None else sub.size

        results, _ = run_spmd(3, fn)
        assert results == [None, 2, 2]

    def test_messages_in_subcomm_do_not_cross(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            if sub.rank == 0:
                sub.send(f"color{comm.rank % 2}", dest=1)
                return None
            return sub.recv(source=0)

        results, _ = run_spmd(4, fn)
        assert results[2] == "color0"
        assert results[3] == "color1"

    def test_dup_isolates_traffic(self):
        """A same-group copy of a communicator (``split`` with one
        color) has its own context: equal tags do not cross."""

        def fn(comm):
            dup = comm.split(0)
            if comm.rank == 0:
                comm.send("orig", dest=1, tag=5)
                dup.send("dup", dest=1, tag=5)
                return None
            from_dup = dup.recv(source=0, tag=5)
            from_orig = comm.recv(source=0, tag=5)
            return (from_orig, from_dup)

        results, _ = run_spmd(2, fn)
        assert results[1] == ("orig", "dup")

    def test_barrier_completes(self):
        def fn(comm):
            for _ in range(3):
                comm.barrier()
            return True

        results, _ = run_spmd(6, fn)
        assert all(results)

    def test_split_groups_sorted_by_world_rank_in_group(self):
        def fn(comm):
            sub = comm.split(color=0)
            return sub.group

        results, _ = run_spmd(4, fn)
        assert all(g == (0, 1, 2, 3) for g in results)


class TestPhaseMessageCounts:
    def test_phase_messages_recorded(self):
        def fn(comm):
            if comm.rank == 0:
                with comm.phase("a"):
                    comm.send(np.zeros(2), dest=1)
                    comm.send(np.zeros(2), dest=1)
                with comm.phase("b"):
                    comm.send(np.zeros(2), dest=1)
            else:
                for _ in range(3):
                    comm.recv(source=0)

        _, report = run_spmd(2, fn)
        assert report.phase_messages == {"a": 2, "b": 1}

    def test_reset_clears_phase_messages(self):
        from repro.smpi.volume import VolumeLedger

        ledger = VolumeLedger(2)
        ledger.push_phase(0, "x")
        ledger.record_send(0, 10)
        ledger.reset()
        assert ledger.snapshot().phase_messages == {}

    def test_self_bytes_sit_beside_the_wire(self):
        def fn(comm):
            with comm.phase("a"):
                comm.record_self(24)
                if comm.rank == 0:
                    comm.send(np.zeros(2), dest=1)
            comm.record_self(8)  # outside every phase: not attributed
            if comm.rank == 1:
                comm.recv(source=0)

        _, report = run_spmd(2, fn)
        assert report.phase_self_bytes == {"a": 48}
        assert report.total_bytes == 16
        assert report.phase_bytes == {"a": 16}


def _fanin_program(comm):
    """Fan-in taken in reverse of the send order, then a split and a
    collective, with phases."""
    if comm.rank:
        with comm.phase("fanin"):
            for tag in (comm.rank, 100 + comm.rank):
                comm.send(np.full(comm.rank, 1.0), dest=0, tag=tag)
        order = None
    else:
        order = [
            comm.recv_status(source=src, tag=tag)[1:]
            for src in reversed(range(1, comm.size))
            for tag in (100 + src, src)
        ]
    half = comm.split(comm.rank % 2)
    with comm.phase("reduce"):
        return order, half.allreduce(float(comm.rank))


def _failing_program(comm):
    """Rank 2 dies; the others end up blocked on it in three ways."""
    if comm.rank == 2:
        raise ValueError("boom on 2")
    if comm.rank == 0:
        comm.recv(source=2, tag=5)
    elif comm.rank == 1:
        comm.send(1.0, dest=0, tag=6)
        comm.recv(source=2)
    else:
        comm.barrier()


class TestDeterminism:
    """The runtime must be fully deterministic: same inputs, same
    schedule, bit-identical outputs and ledgers across runs."""

    def test_twenty_runs_are_identical(self):
        runs = [repr(run_spmd(6, _fanin_program)) for _ in range(20)]
        assert len(set(runs)) == 1
        results, report = run_spmd(6, _fanin_program)
        # rank 0 takes the messages in the order it names them
        assert results[0][0] == [
            (r, tag) for r in range(5, 0, -1) for tag in (100 + r, r)
        ]
        assert [total for _, total in results] == [6.0, 9.0] * 3
        assert list(report.phase_bytes) == ["reduce", "fanin"]

    def test_twenty_failing_runs_are_identical(self):
        outcomes = set()
        for _ in range(20):
            with pytest.raises(RankFailure) as exc_info:
                run_spmd(5, _failing_program, timeout=300)
            outcomes.add(
                (
                    str(exc_info.value),
                    tuple(
                        (rank, type(exc).__name__, str(exc))
                        for rank, exc in exc_info.value.failures
                    ),
                )
            )
        ((text, failures),) = outcomes
        assert [rank for rank, _, _ in failures] == [0, 1, 2, 3, 4]
        assert [name for _, name, _ in failures] == [
            "DeadlockError", "DeadlockError", "ValueError",
            "DeadlockError", "DeadlockError",
        ]
        assert "rank 0: 1 undelivered: (source=1, tag=6, context=0)" in text
        assert "rank 1: awaiting (source=2, tag=0, context=0)" in text

    def test_two_concurrent_runs_reproduce_their_pinned_ledgers(self):
        # The service's thread-executor shape: two callers inside
        # run_spmd at once.  One scheduler per run and nothing shared,
        # so each reproduces the ledger pinned for it run alone.
        from repro.algorithms import factor
        from tests.algorithms.ledger_pins import (
            _input_matrix,
            load_pins,
            point_key,
        )

        points = (("conflux", 24, 2, 2, 4), ("confqr", 24, 2, 2, 4))
        pins = load_pins()
        volumes = {point: [] for point in points}
        start = threading.Barrier(len(points))

        def caller(point):
            impl, n, g, c, v = point
            a = _input_matrix(impl, n)
            start.wait(timeout=10.0)
            for _ in range(3):
                res = factor(impl, a, g * g * c, grid=(g, g, c), v=v)
                volumes[point].append(res.volume)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(point,))
                for point in points
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for point in points:
            pin = pins[point_key(*point)]
            assert len(volumes[point]) == 3
            for vol in volumes[point]:
                assert list(vol.sent_bytes) == pin["sent_bytes"]
                assert list(vol.recv_bytes) == pin["recv_bytes"]
                assert list(vol.messages) == pin["messages"]
                assert vol.phase_bytes == pin["phase_bytes"]
                assert vol.phase_messages == pin["phase_messages"]

    def test_conflux_runs_are_bit_identical(self):
        import numpy as np
        from repro.algorithms import factor

        a = np.random.default_rng(99).standard_normal((48, 48))
        r1 = factor("conflux", a, 8, grid=(2, 2, 2), v=4)
        r2 = factor("conflux", a, 8, grid=(2, 2, 2), v=4)
        np.testing.assert_array_equal(r1.lower, r2.lower)
        np.testing.assert_array_equal(r1.upper, r2.upper)
        np.testing.assert_array_equal(r1.perm, r2.perm)
        assert r1.volume.sent_bytes == r2.volume.sent_bytes
        assert r1.volume.phase_bytes == r2.volume.phase_bytes

    def test_scalapack_runs_are_bit_identical(self):
        import numpy as np
        from repro.algorithms import factor

        a = np.random.default_rng(98).standard_normal((48, 48))
        r1 = factor("scalapack2d", a, 4, grid=(2, 2), nb=8)
        r2 = factor("scalapack2d", a, 4, grid=(2, 2), nb=8)
        np.testing.assert_array_equal(r1.lower, r2.lower)
        assert r1.volume.sent_bytes == r2.volume.sent_bytes
