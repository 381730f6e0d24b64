"""``Comm.send_each`` / ``Comm.recv_each`` against the singular calls.

The plural forms are a host-cost device only: every observable of a
run — ledger totals and phase counts, per-channel mailbox order,
the event trace and its replayed clock, the fault log — must be what
the same sequence of ``send`` / ``recv`` calls produces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.base import FactorVerificationError
from repro.faults import FaultPlan, FaultRule, canned_plan
from repro.smpi import RankFailure, run_spmd
from repro.smpi.runtime import Comm
from tests.algorithms.ledger_pins import PINNED_POINTS, _input_matrix

#: destinations of rank 0's plural send, repeats and gaps included
DESTS = (1, 2, 1, 3, 2, 1)


def _singular_send_each(self, pieces, tag=0):
    for data, dest in pieces:
        self.send(data, dest, tag)


def _send(comm, pieces, tag, plural):
    if plural:
        comm.send_each(pieces, tag)
    else:
        _singular_send_each(comm, pieces, tag)


def _mailbox(comm):
    """This rank's undelivered messages by channel, in FIFO order."""
    box = comm._sched.mail[comm.world_rank]
    return sorted(
        (key, position, m.nbytes, repr(m.data))
        for key, queue in box.items()
        for position, m in enumerate(queue)
    )


def _program(comm, plural):
    """Rank 0 sends singly, then six pieces under one phase and tag,
    then singly again; every rank snapshots its mailbox, then drains
    it channel by channel."""
    if comm.rank == 0:
        comm.send("before", 1, 5)
        pieces = [(np.full(k + 1, float(k)), d) for k, d in enumerate(DESTS)]
        with comm.phase("fetch"):
            _send(comm, pieces, 7, plural)
        comm.send(("after", np.arange(3)), 2, 5)
    comm.barrier()
    box = _mailbox(comm)
    got = [
        repr(comm.recv_status(source, tag))
        for (_, source, tag), _, _, _ in box
    ]
    return box, got


def _report_fields(report):
    return (
        report.sent_bytes, report.recv_bytes, report.messages,
        report.phase_bytes, report.phase_messages, report.timing,
        report.faults,
    )


@pytest.mark.parametrize("machine", [None, "daint-xc50"])
def test_send_each_is_the_singular_sends(machine):
    plural, rp = run_spmd(4, _program, True, machine=machine)
    singular, rs = run_spmd(4, _program, False, machine=machine)
    assert plural == singular
    assert _report_fields(rp) == _report_fields(rs)
    assert rp.phase_messages == {"fetch": len(DESTS)}
    assert rp.messages[0] == len(DESTS) + 2
    # the mailbox really held the pieces, in send order per destination
    box1 = plural[1][0]
    assert [nbytes for (_, _, tag), _, nbytes, _ in box1 if tag == 7] == [
        8 * (k + 1) for k, d in enumerate(DESTS) if d == 1
    ]


def test_send_each_under_a_bitflip_plan_is_the_singular_sends():
    plan = FaultPlan(
        rules=(FaultRule(action="bitflip", probability=0.5),), seed=3
    )
    plural, rp = run_spmd(4, _program, True, faults=plan)
    singular, rs = run_spmd(4, _program, False, faults=plan)
    assert rp.faults["n_injected"] > 0
    assert plural == singular
    assert _report_fields(rp) == _report_fields(rs)


def _fetch_members():
    return [p for p in PINNED_POINTS if p[0] not in ("caqr25d", "confqr")]


def _factor_record(point, **opts):
    from repro.algorithms import factor

    impl, n, g, c, v = point
    try:
        res = factor(
            impl, _input_matrix(impl, n), g * g * c, grid=(g, g, c), v=v,
            **opts,
        )
    except (RankFailure, FactorVerificationError) as exc:
        return f"{type(exc).__name__}: {exc}"  # a detected fault
    return _report_fields(res.volume), res.lower.tobytes(), res.upper.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("point", _fetch_members(), ids=str)
def test_plans_on_the_pinned_points_equal_singular_sends(point, monkeypatch):
    """Ledger (clean), event trace (clock) and fault log (bitflip) of
    every member that calls the plural plans."""
    runs = (
        {},
        {"machine": "daint-xc50"},
        {"faults": canned_plan("bitflip", 1)},
    )
    plural = [_factor_record(point, **opts) for opts in runs]
    monkeypatch.setattr(Comm, "send_each", _singular_send_each)
    singular = [_factor_record(point, **opts) for opts in runs]
    assert plural == singular


# ----------------------------------------------------------------------
# payload copies and failure points
# ----------------------------------------------------------------------
def test_mutating_a_payload_after_send_each_does_not_reach_the_receiver():
    def fn(comm):
        if comm.rank == 0:
            buf = np.arange(4.0)
            nested = [np.ones(2), {"k": np.zeros(2)}]
            comm.send_each(((buf, 1), (nested, 1)), 3)
            buf[:] = -1
            nested[0][:] = -1
            nested[1]["k"][:] = -1
            return None
        if comm.rank == 1:
            return list(comm.recv_each((0, 0), 3))
        return None

    results, _ = run_spmd(2, fn)
    buf, nested = results[1]
    np.testing.assert_array_equal(buf, np.arange(4.0))
    np.testing.assert_array_equal(nested[0], np.ones(2))
    np.testing.assert_array_equal(nested[1]["k"], np.zeros(2))


@pytest.mark.parametrize("machine", [None, "daint-xc50"])
def test_a_bad_dest_raises_with_nothing_sent(machine):
    def fn(comm):
        if comm.rank == 0:
            with pytest.raises(ValueError, match="dest 9 out of range"):
                with comm.phase("p"):
                    comm.send_each(((np.ones(3), 1), (np.ones(3), 9)), 2)
        comm.barrier()
        return _mailbox(comm)

    results, report = run_spmd(2, fn, machine=machine)
    assert results == [[], []]
    assert report.total_messages == 0 and report.total_bytes == 0
    assert report.phase_messages == {}


def _recv_each_program(comm, stop_at_bad):
    """Rank 0 sends four pieces; rank 1 checks each as it arrives."""
    tag = 4
    if comm.rank == 0:
        shapes = (2, 1, 2, 2)  # the second piece is short
        comm.send_each([(np.full(k, 1.0), 1) for k in shapes], tag)
        return None
    if not stop_at_bad:
        got = [v.shape for v in comm.recv_each([0] * 4, tag)]
        return got, _mailbox(comm)
    got = []
    with pytest.raises(RuntimeError, match="short piece"):
        for vals in comm.recv_each([0] * 4, tag):
            if vals.shape != (2,):
                raise RuntimeError("short piece")
            got.append(vals.shape)
    left = len(_mailbox(comm))
    got += [comm.recv(0, tag).shape for _ in range(left)]
    return got, left


def test_recv_each_raises_at_the_first_bad_piece_before_the_next():
    results, report = run_spmd(2, _recv_each_program, True)
    got, left = results[1]
    assert got == [(2,), (2,), (2,)]
    assert left == 2  # the two pieces after the bad one stayed behind
    assert report.recv_bytes[1] == report.total_bytes


def test_recv_each_takes_exactly_what_recv_calls_take():
    results, report = run_spmd(2, _recv_each_program, False)
    got, box = results[1]
    assert got == [(2,), (1,), (2,), (2,)]
    assert box == []
    assert report.recv_bytes[1] == report.total_bytes == 7 * 8


def test_recv_each_is_lazy():
    """Rank 2 sends only after rank 1 has taken rank 0's piece: an
    iterator that took its receives up front would deadlock."""

    def fn(comm):
        if comm.rank == 0:
            comm.send("from 0", 1, 9)
        elif comm.rank == 1:
            out = []
            for src, vals in zip((0, 2), comm.recv_each((0, 2), 9)):
                out.append(vals)
                if src == 0:
                    comm.send("go", 2, 8)
            return out
        else:
            comm.recv(1, 8)
            comm.send("from 2", 1, 9)
        return None

    results, _ = run_spmd(3, fn)
    assert results[1] == ["from 0", "from 2"]
