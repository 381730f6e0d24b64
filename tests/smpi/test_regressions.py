"""Regression tests for the simulated MPI runtime.

Two guarantees the distributed algorithms lean on:

* a *tag-mismatch* deadlock (receiver waits on a tag nobody sends)
  must surface as :class:`DeadlockError` through :class:`RankFailure`
  instead of hanging CI;
* the :class:`VolumeLedger` must stay symmetric — every byte counted
  as sent is counted as received — across every collective and any
  communicator split, because the paper's evaluation metric (Score-P
  aggregate bytes) assumes a closed system.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smpi import DeadlockError, RankFailure, run_spmd
from repro.smpi.runtime import UndeliveredMessages


class TestTagMismatchDeadlock:
    def test_tag_mismatch_raises_deadlock_error(self):
        """Rank 1 waits on tag 8 while rank 0 sent tag 7: a classic
        mismatch bug.  The runtime must convert it into a typed error
        on every stuck rank."""

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(4), dest=1, tag=7)
                comm.recv(source=1, tag=7)
            else:
                comm.recv(source=0, tag=8)

        with pytest.raises(RankFailure) as ei:
            run_spmd(2, fn, timeout=0.5)
        assert all(
            isinstance(exc, DeadlockError) for _, exc in ei.value.failures
        )
        # The error names what was being waited for.
        assert "tag=8" in str(ei.value.failures[-1][1])

    def test_mismatched_message_stays_pending_not_lost(self):
        """The mismatched message is still deliverable to a matching
        recv — the deadlock is the *wait*, not message loss."""

        def fn(comm):
            if comm.rank == 0:
                comm.send(1.0, dest=1, tag=7)
            else:
                with pytest.raises(DeadlockError):
                    comm.recv(source=0, tag=8)
                return comm.recv(source=0, tag=7)

        results, _ = run_spmd(2, fn, timeout=0.5)
        assert results[1] == 1.0

    def test_cross_communicator_tag_isolation_deadlocks_cleanly(self):
        """A send on a same-group communicator from ``split`` never
        matches the parent context — the recv must time out, not
        mis-deliver."""

        def fn(comm):
            sub = comm.split(0)
            if comm.rank == 0:
                sub.send(1.0, dest=1, tag=3)
            else:
                comm.recv(source=0, tag=3)

        with pytest.raises(RankFailure) as ei:
            run_spmd(2, fn, timeout=0.5)
        assert isinstance(ei.value.failures[0][1], DeadlockError)


def _exercise_all_collectives(comm) -> None:
    """Run every data collective once on ``comm``."""
    data = np.full(3, float(comm.rank))
    chunks = [np.full(2, float(i + comm.rank)) for i in range(comm.size)]
    comm.bcast(data, root=0)
    comm.reduce(data, root=comm.size - 1)
    comm.allreduce(data)
    comm.gather(data, root=0)
    comm.allgather(data)
    comm.scatter(chunks if comm.rank == 0 else None, root=0)
    comm.alltoall(chunks)
    comm.reduce_scatter(chunks)


class TestLedgerSymmetry:
    @settings(max_examples=20, deadline=None)
    @given(
        colors=st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
            min_size=2,
            max_size=6,
        ),
        key_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_sent_equals_received_across_random_splits(
        self, colors, key_seed
    ):
        """Property: for any communicator split (including disabled
        ranks via color=None) and any reordering key, running every
        collective leaves the ledger symmetric."""
        keys = np.random.default_rng(key_seed).permutation(len(colors))

        def fn(comm):
            sub = comm.split(
                colors[comm.rank], int(keys[comm.rank])
            )
            if sub is not None:
                _exercise_all_collectives(sub)

        _, report = run_spmd(len(colors), fn)
        assert sum(report.sent_bytes) == sum(report.recv_bytes)
        # Any sub-communicator of size >= 2 must have moved bytes.
        sizes = {}
        for color in colors:
            if color is not None:
                sizes[color] = sizes.get(color, 0) + 1
        if any(v >= 2 for v in sizes.values()):
            assert report.total_bytes > 0
        else:
            assert report.total_bytes == 0

    def test_symmetry_holds_on_nested_splits(self):
        def fn(comm):
            halves = comm.split(comm.rank % 2)
            _exercise_all_collectives(halves)
            quarters = halves.split(halves.rank % 2)
            _exercise_all_collectives(quarters)

        _, report = run_spmd(8, fn)
        assert sum(report.sent_bytes) == sum(report.recv_bytes)

    def test_undelivered_mail_fails_the_run(self):
        """Every receive names its channel, so a message still in a
        mailbox once every rank has returned is one no receive will
        ever take: the run raises with the census instead of handing
        back a ledger whose sent exceeds its received."""

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(8), dest=1, tag=0)

        with pytest.raises(
            UndeliveredMessages,
            match=r"rank 1: 1 undelivered: \(source=0, tag=0, context=0\)",
        ):
            run_spmd(2, fn)
