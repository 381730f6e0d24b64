"""Discrete-event clock: determinism, limits, monotonicity, contention.

The α-β simulator's contract (see ``repro/smpi/timing.py``) is checked
at three levels: the :class:`LinkGraph` arithmetic in isolation,
hand-built :class:`EventTrace` replays, and full ``run_spmd`` runs
whose traces were recorded by real threads (where only determinism of
the *replay* protects us from the OS scheduler).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.documents import write
from repro.models.machines import (
    DAINT_XC50,
    IDEAL,
    Machine,
    list_machines,
    load_machine,
    machine_by_name,
    resolve_machine,
)
from repro.smpi import EventTrace, LinkGraph, run_spmd, simulate


def _machine(alpha=1e-6, beta=1e-9, gamma=1e9, topology="crossbar"):
    return Machine(
        name="test",
        total_ranks=64,
        memory_per_rank_bytes=1 << 30,
        alpha=alpha,
        beta=beta,
        gamma_flops=gamma,
        topology=topology,
    )


# --------------------------------------------------------------------------
# LinkGraph units
# --------------------------------------------------------------------------


class TestLinkGraph:
    def test_transfer_charges_alpha_beta(self):
        net = LinkGraph(2, alpha=1e-6, beta=1e-9)
        end = net.transfer(0, 1, 1000, ready=0.0)
        assert end == pytest.approx(1e-6 + 1e-9 * 1000)

    def test_self_transfer_is_free(self):
        net = LinkGraph(2, alpha=1e-6, beta=1e-9)
        assert net.transfer(0, 0, 10**9, ready=5.0) == 5.0

    def test_same_path_transfers_serialize(self):
        net = LinkGraph(3, alpha=0.0, beta=1e-9)
        first = net.transfer(0, 1, 1000, ready=0.0)
        second = net.transfer(0, 1, 1000, ready=0.0)
        assert second == pytest.approx(2 * first)

    def test_disjoint_paths_do_not_contend(self):
        net = LinkGraph(4, alpha=0.0, beta=1e-9)
        a = net.transfer(0, 1, 1000, ready=0.0)
        b = net.transfer(2, 3, 1000, ready=0.0)
        assert a == pytest.approx(b)
        assert b == pytest.approx(1e-9 * 1000)

    def test_rx_link_contention_across_senders(self):
        # Crossbar: two senders into one receiver share the rx link.
        net = LinkGraph(3, alpha=0.0, beta=1e-9)
        a = net.transfer(0, 2, 1000, ready=0.0)
        b = net.transfer(1, 2, 1000, ready=0.0)
        assert b == pytest.approx(a + 1e-9 * 1000)

    def test_shared_bus_serializes_everything(self):
        bus = LinkGraph(4, alpha=0.0, beta=1e-9, topology="shared-bus")
        bus.transfer(0, 1, 1000, ready=0.0)
        b = bus.transfer(2, 3, 1000, ready=0.0)
        assert b == pytest.approx(2e-6)

    def test_utilization_fractions(self):
        net = LinkGraph(2, alpha=0.0, beta=1e-9)
        net.transfer(0, 1, 1000, ready=0.0)
        util = net.utilization(horizon=2e-6)
        assert util["tx0"] == pytest.approx(0.5)
        assert util["rx1"] == pytest.approx(0.5)
        assert "tx1" not in util  # idle links are omitted


# --------------------------------------------------------------------------
# hand-built trace replays
# --------------------------------------------------------------------------


def _ping_trace(nbytes=1000):
    trace = EventTrace(2)
    sid = trace.record_send(0, 1, nbytes, "ping")
    trace.record_recv(1, sid, "ping")
    return trace


class TestSimulate:
    def test_single_message_times(self):
        m = _machine(alpha=1e-6, beta=1e-9, gamma=1e9)
        rep = simulate(_ping_trace(1000), m)
        # Sender: injection overhead only; receiver: the full transfer.
        assert rep.rank_seconds[0] == pytest.approx(1e-6)
        assert rep.rank_seconds[1] == pytest.approx(1e-6 + 1e-6)
        assert rep.overhead_seconds[0] == pytest.approx(1e-6)
        assert rep.wait_seconds[1] == pytest.approx(2e-6)

    def test_compute_advances_clock_by_flops_over_gamma(self):
        trace = EventTrace(1)
        trace.record_compute(0, 5e9, "work")
        rep = simulate(trace, _machine(gamma=1e9))
        assert rep.rank_seconds[0] == pytest.approx(5.0)
        assert rep.phase_seconds["work"] == pytest.approx(5.0)

    def test_zero_flops_not_recorded(self):
        trace = EventTrace(1)
        trace.record_compute(0, 0.0, "noop")
        assert trace.n_events() == 0

    def test_sync_aligns_to_slowest(self):
        trace = EventTrace(3)
        comps = (1.0, 3.0, 2.0)
        for r, flops in enumerate(comps):
            trace.record_compute(r, flops * 1e9, None)
            trace.record_sync(r, ("barrier", 0), 3, "bar")
        rep = simulate(trace, _machine(gamma=1e9))
        assert rep.rank_seconds == (3.0, 3.0, 3.0)
        assert rep.wait_seconds[1] == 0.0
        assert rep.wait_seconds[0] == pytest.approx(2.0)
        assert rep.phase_seconds["bar"] == pytest.approx(2.0 + 1.0)

    def test_recv_before_send_blocks_until_arrival(self):
        # Receiver reaches its recv first (no prior events); the sender
        # computes before sending — the wait is charged to the receiver.
        trace = EventTrace(2)
        trace.record_compute(0, 1e9, None)
        sid = trace.record_send(0, 1, 0, None)
        trace.record_recv(1, sid, "wait_here")
        rep = simulate(trace, _machine(alpha=1e-6, gamma=1e9))
        assert rep.rank_seconds[1] == pytest.approx(1.0 + 1e-6)
        assert rep.phase_seconds["wait_here"] == pytest.approx(1.0 + 1e-6)

    def test_compute_overlaps_in_flight_transfer(self):
        # Send at t=0 (transfer takes 1 s); receiver computes 1 s then
        # receives — transfer and compute overlap, so it finishes at
        # max(compute_end, arrival), not the sum.
        m = _machine(alpha=0.0, beta=1e-3, gamma=1e9)
        trace = EventTrace(2)
        sid = trace.record_send(0, 1, 1000, None)  # 1 s transfer
        trace.record_compute(1, 1e9, None)  # 1 s compute
        trace.record_recv(1, sid, None)
        rep = simulate(trace, m)
        assert rep.rank_seconds[1] == pytest.approx(1.0)

    def test_deadlocked_trace_raises(self):
        trace = EventTrace(2)
        trace.record_recv(1, (0, 99), None)  # no matching send
        with pytest.raises(RuntimeError, match="deadlock"):
            simulate(trace, _machine())

    def test_monotone_in_beta(self):
        trace = _ping_trace(10_000)
        slow = simulate(trace, _machine(beta=1e-6)).makespan
        fast = simulate(trace, _machine(beta=1e-9)).makespan
        assert slow > fast

    def test_monotone_in_volume(self):
        m = _machine()
        small = simulate(_ping_trace(100), m).makespan
        large = simulate(_ping_trace(100_000), m).makespan
        assert large > small

    def test_ideal_machine_predicts_zero(self):
        trace = _ping_trace(10**9)
        trace.record_compute(0, 1e15, None)
        rep = simulate(trace, IDEAL)
        assert rep.makespan == 0.0
        assert rep.total_compute_seconds == 0.0

    def test_replay_is_pure(self):
        trace = _ping_trace(1234)
        m = _machine()
        first = simulate(trace, m)
        second = simulate(trace, m)
        assert first.rank_seconds == second.rank_seconds
        assert first.phase_seconds == second.phase_seconds


# --------------------------------------------------------------------------
# recorded-by-threads end to end
# --------------------------------------------------------------------------


def _ring_fn(comm):
    """Each rank sends a 1 KiB block around a ring, then barriers."""
    data = np.zeros(128)
    with comm.phase("ring"):
        if comm.rank % 2 == 0:
            comm.send(data, (comm.rank + 1) % comm.size)
            got = comm.recv((comm.rank - 1) % comm.size)
        else:
            got = comm.recv((comm.rank - 1) % comm.size)
            comm.send(data, (comm.rank + 1) % comm.size)
    comm.compute(1e6)
    comm.barrier()
    return float(got.sum())


class TestRunSpmdIntegration:
    def test_timing_report_attached(self):
        _, report = run_spmd(4, _ring_fn, machine="daint-xc50")
        t = report.timing
        assert t is not None
        assert t.machine == "daint-xc50"
        assert t.nranks == 4
        assert t.makespan > 0
        assert "ring" in t.phase_seconds

    def test_no_machine_means_no_timing(self):
        _, report = run_spmd(4, _ring_fn)
        assert report.timing is None

    def test_byte_ledger_identical_with_and_without_clock(self):
        _, plain = run_spmd(4, _ring_fn)
        _, timed = run_spmd(4, _ring_fn, machine=DAINT_XC50)
        assert timed.sent_bytes == plain.sent_bytes
        assert timed.recv_bytes == plain.recv_bytes
        assert timed.phase_bytes == plain.phase_bytes

    def test_identical_runs_predict_identical_times(self):
        # The whole point: thread scheduling varies between runs, the
        # predicted clock must not.
        reports = [
            run_spmd(6, _ring_fn, machine="summit")[1].timing
            for _ in range(3)
        ]
        for rep in reports[1:]:
            assert rep.rank_seconds == reports[0].rank_seconds
            assert rep.phase_seconds == reports[0].phase_seconds

    def test_nested_phases_attribute_time_exclusively(self):
        def fn(comm):
            with comm.phase("outer"):
                comm.compute(1e9)
                with comm.phase("inner"):
                    comm.compute(2e9)

        _, report = run_spmd(1, fn, machine=_machine(gamma=1e9))
        t = report.timing
        assert t.phase_seconds["outer"] == pytest.approx(1.0)
        assert t.phase_seconds["outer/inner"] == pytest.approx(2.0)

    def test_collective_time_is_deterministic(self):
        def fn(comm):
            with comm.phase("coll"):
                total = comm.allreduce(np.ones(64) * comm.rank)
            return float(total[0])

        runs = [
            run_spmd(8, fn, machine="laptop-sim")[1].timing.rank_seconds
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_negative_flops_rejected(self):
        def fn(comm):
            comm.compute(-1.0)

        from repro.smpi import RankFailure

        with pytest.raises(RankFailure):
            run_spmd(1, fn, machine="ideal")


# --------------------------------------------------------------------------
# Machine specs
# --------------------------------------------------------------------------


class TestMachines:
    def test_presets_enumerate(self):
        names = {m.name for m in list_machines()}
        assert "daint-xc50" in names

    def test_lookup_normalizes(self):
        assert machine_by_name("daint_xc50") is DAINT_XC50
        assert machine_by_name("DAINT-XC50") is DAINT_XC50

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="unknown machine"):
            machine_by_name("cray-1")

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        for preset in list_machines():
            path.write_text(json.dumps(write(preset)))
            assert load_machine(path) == dataclasses.replace(preset)

    @pytest.mark.parametrize(
        "field", ["total_ranks", "memory_per_rank_bytes"]
    )
    def test_non_positive_capacity_rejected(self, field):
        with pytest.raises(ValueError, match=">= 1"):
            dataclasses.replace(DAINT_XC50, **{field: 0})

    def test_json_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        spec = write(DAINT_XC50)
        spec["latency"] = 1.0
        path.write_text(json.dumps(spec))
        with pytest.raises(ValueError, match="unknown"):
            load_machine(path)

    def test_resolve_machine_forms(self, tmp_path):
        assert resolve_machine(None) is None
        assert resolve_machine(DAINT_XC50) is DAINT_XC50
        assert resolve_machine("summit").name == "Summit"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(write(DAINT_XC50)))
        assert resolve_machine(str(path)) == DAINT_XC50

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            _machine(alpha=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", float("nan")),
            ("alpha", float("inf")),
            ("beta", float("nan")),
            ("beta", float("inf")),
            ("gamma", float("nan")),
        ],
    )
    def test_non_finite_timing_rejected(self, field, value):
        # NaN compares false both ways, so only a test written to fail
        # on it keeps it out; a clocked run would report a NaN makespan
        with pytest.raises(ValueError, match="must be"):
            _machine(**{field: value})

    def test_bad_topology_rejected(self):
        with pytest.raises(ValueError):
            _machine(topology="torus-3d")
