"""Deterministic fault injection at the runtime's send seam.

Covers the declarative plan layer (rules, matching, (de)serialisation),
the injector's action semantics and hash-stream determinism, and the
runtime integration: census-carrying deadlocks, RankFailure
aggregation order, and receive pairing determinism under injected
reordering and duplication.
"""

import json

import numpy as np
import pytest

from repro.documents import write
from repro.faults import (
    ACTIONS,
    STEP_TAG_STRIDE,
    Delivery,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    RankCrashed,
    canned_plan,
    resolve_faults,
)
from repro.smpi import DeadlockError, RankFailure, run_spmd


class TestFaultRule:
    def test_unknown_action_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown action"):
            FaultRule(action="teleport")

    def test_delay_requires_positive_delay_s(self):
        with pytest.raises(FaultPlanError, match="delay_s"):
            FaultRule(action="delay")
        FaultRule(action="delay", delay_s=1e-3)  # ok

    @pytest.mark.parametrize("delay_s", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay_s):
        with pytest.raises(FaultPlanError, match="finite"):
            FaultRule(action="delay", delay_s=delay_s)

    def test_probability_range(self):
        with pytest.raises(FaultPlanError):
            FaultRule(action="drop", probability=1.5)
        with pytest.raises(FaultPlanError):
            FaultRule(action="drop", probability=-0.1)

    def test_max_fires_positive(self):
        with pytest.raises(FaultPlanError):
            FaultRule(action="drop", max_fires=0)

    def test_matching_fields(self):
        rule = FaultRule(action="drop", rank=1, peer=2, tag=5)
        assert rule.matches(1, 2, 5, None)
        assert not rule.matches(0, 2, 5, None)
        assert not rule.matches(1, 3, 5, None)
        assert not rule.matches(1, 2, 6, None)

    def test_phase_glob_matching(self):
        rule = FaultRule(action="drop", phase="step/tournament*")
        assert rule.matches(0, 1, 0, "step/tournament-3")
        assert not rule.matches(0, 1, 0, "step/bcast")
        # a phase pattern never matches unphased traffic
        assert not rule.matches(0, 1, 0, None)

    def test_step_matching_uses_the_tag_stride(self):
        rule = FaultRule(action="drop", step=3)
        assert rule.matches(0, 1, 3 * STEP_TAG_STRIDE, None)
        assert rule.matches(0, 1, 3 * STEP_TAG_STRIDE + 7, None)
        assert not rule.matches(0, 1, 4 * STEP_TAG_STRIDE, None)

    def test_stride_matches_the_25d_schedule(self):
        # kept equal by this test rather than an import, so the fault
        # layer never depends on the algorithm layer
        from repro.algorithms.schedule25d import TAG_STRIDE

        assert STEP_TAG_STRIDE == TAG_STRIDE

    def test_round_trip(self):
        rule = FaultRule(
            action="delay", rank=1, phase="panel*", probability=0.5,
            delay_s=1e-3, after=2, max_fires=4,
        )
        assert FaultRule.from_dict(write(rule)) == rule

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultPlanError, match="unknown rule field"):
            FaultRule.from_dict({"action": "drop", "rang": 1})
        with pytest.raises(FaultPlanError, match="missing"):
            FaultRule.from_dict({"rank": 1})

    @pytest.mark.parametrize(
        "field,value,wanted",
        [
            ("rank", "1", "int"),
            ("rank", True, "int"),
            ("tag", 1.5, "int"),
            ("peer", 2.0, "int"),
            ("step", False, "int"),
            ("after", "3", "int"),
            ("max_fires", "2", "int"),
            ("phase", 7, "str"),
            ("probability", "0.5", "int or float"),
            ("probability", True, "int or float"),
            ("probability", None, "int or float"),
            ("delay_s", None, "int or float"),
            ("after", None, "int"),
        ],
    )
    def test_from_dict_rejects_mistyped_fields(self, field, value, wanted):
        """A field of the wrong JSON type is a FaultPlanError naming the
        field — never a rule that silently never fires, a bool read as
        rank 1 or a bare TypeError from a comparison."""
        text = f"rule field '{field}' must be {wanted}, got {value!r}"
        with pytest.raises(FaultPlanError) as ei:
            FaultRule.from_dict({"action": "drop", field: value})
        assert str(ei.value) == text

    def test_from_dict_accepts_null_where_the_default_is_none(self):
        rule = FaultRule.from_dict(
            {"action": "drop", "rank": None, "tag": None, "phase": None,
             "max_fires": None, "probability": 1}
        )
        assert rule == FaultRule(action="drop")
        with pytest.raises(FaultPlanError, match="'action' must be str"):
            FaultRule.from_dict({"action": None})


class TestFaultPlan:
    def test_round_trip_json(self, tmp_path):
        plan = FaultPlan(
            rules=(FaultRule(action="drop", rank=0),),
            seed=42,
            name="demo",
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(write(plan)))
        assert resolve_faults(path) == plan

    def test_with_seed(self):
        plan = canned_plan("drop", seed=0)
        assert plan.with_seed(9).seed == 9
        assert plan.with_seed(9).rules == plan.rules

    @pytest.mark.parametrize("seed", [2.7, True, "x", None, np.int64(2)])
    def test_seed_must_be_int(self, seed):
        # checked, not coerced: int(2.7) would run seed 2, int(True) 1
        text = f"seed must be int, got {seed!r}"
        with pytest.raises(FaultPlanError) as ei:
            canned_plan("drop", seed=0).with_seed(seed)
        assert str(ei.value) == text
        with pytest.raises(FaultPlanError) as ei:
            FaultPlan(seed=seed)
        assert str(ei.value) == text

    @pytest.mark.parametrize(
        "field,value,wanted",
        [
            ("seed", "3", "int"),
            ("seed", 3.0, "int"),
            ("seed", True, "int"),
            ("seed", None, "int"),
            ("name", 3, "str"),
            ("rules", {"action": "drop"}, "list or tuple"),
        ],
    )
    def test_from_dict_rejects_mistyped_fields(self, field, value, wanted):
        """The seed is checked, not coerced with ``int()``."""
        text = f"plan field '{field}' must be {wanted}, got {value!r}"
        with pytest.raises(FaultPlanError) as ei:
            FaultPlan.from_dict({field: value})
        assert str(ei.value) == text

    def test_from_dict_checks_each_rule(self):
        with pytest.raises(FaultPlanError, match="'rank' must be int"):
            FaultPlan.from_dict(
                {"seed": 1, "rules": [{"action": "drop", "rank": "1"}]}
            )

    def test_rejects_non_rule_entries(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(rules=({"action": "drop"},))

    def test_resolve_coercions(self, tmp_path):
        assert resolve_faults(None) is None
        plan = canned_plan("delay", seed=1)
        assert resolve_faults(plan) is plan
        assert resolve_faults(write(plan)) == plan
        path = tmp_path / "p.json"
        path.write_text(json.dumps(write(plan)))
        assert resolve_faults(str(path)) == plan
        with pytest.raises(FaultPlanError):
            resolve_faults(3.14)

    def test_canned_plans_cover_every_action(self):
        for action in ACTIONS:
            plan = canned_plan(action, seed=0)
            assert plan.rules[0].action == action
        with pytest.raises(FaultPlanError, match="unknown fault class"):
            canned_plan("gamma-ray")


def _send(injector, src=0, dst=1, tag=0, seq_payload=None, phase=None):
    payload = (
        np.arange(4.0) if seq_payload is None else seq_payload
    )
    return injector.process_send(
        src, dst, 0, src, tag, phase, payload, payload.nbytes,
    )


class TestInjectorActions:
    def test_drop_removes_the_delivery(self):
        plan = FaultPlan(rules=(FaultRule(action="drop"),))
        injector = FaultInjector(plan, 2)
        assert _send(injector) == []
        assert injector.report()["by_action"] == {"drop": 1}

    def test_delay_charges_seconds_without_touching_payload(self):
        plan = FaultPlan(
            rules=(FaultRule(action="delay", delay_s=0.25),)
        )
        injector = FaultInjector(plan, 2)
        payload = np.arange(4.0)
        (d,) = _send(injector, seq_payload=payload)
        assert d.delay_s == pytest.approx(0.25)
        np.testing.assert_array_equal(d.payload, payload)

    def test_duplicate_delivers_two_identical_copies(self):
        plan = FaultPlan(rules=(FaultRule(action="duplicate"),))
        injector = FaultInjector(plan, 2)
        first, second = _send(injector)
        assert not first.duplicate and second.duplicate
        np.testing.assert_array_equal(first.payload, second.payload)
        assert first.nbytes == second.nbytes

    def test_duplicate_owns_its_payload(self):
        # Regression: the copy shared the original's buffer, so what a
        # receiver wrote into one showed in the other.
        plan = FaultPlan(rules=(FaultRule(action="duplicate"),))
        first, second = _send(FaultInjector(plan, 2))
        assert not np.shares_memory(first.payload, second.payload)
        first.payload[0] = 99.0
        np.testing.assert_array_equal(second.payload, np.arange(4.0))

    def test_bitflip_after_duplicate_flips_each_copy_once(self):
        # Regression: over one shared buffer the two logged flips of the
        # same bit cancelled, and both payloads read back unchanged.
        plan = FaultPlan(
            rules=(
                FaultRule(action="duplicate"),
                FaultRule(action="bitflip"),
            )
        )
        injector = FaultInjector(plan, 2)
        deliveries = _send(injector, seq_payload=np.zeros(8))
        assert len(deliveries) == 2
        for d in deliveries:
            assert np.unpackbits(d.payload.view(np.uint8)).sum() == 1
        np.testing.assert_array_equal(
            deliveries[0].payload, deliveries[1].payload
        )
        assert injector.report()["by_action"] == {
            "duplicate": 1, "bitflip": 2,
        }

    def test_reorder_holds_until_the_next_same_channel_send(self):
        plan = FaultPlan(
            rules=(FaultRule(action="reorder", max_fires=1),)
        )
        injector = FaultInjector(plan, 2)
        assert _send(injector, tag=1) == []  # held
        out = _send(injector, tag=2)
        assert [d.tag for d in out] == [2, 1]  # swapped

    def test_reorder_held_to_run_end_counts_as_lost(self):
        plan = FaultPlan(rules=(FaultRule(action="reorder"),))
        injector = FaultInjector(plan, 2)
        assert _send(injector, tag=1) == []
        injector.finish()
        report = injector.report()
        assert report["lost_in_reorder"] == 1
        lost = [
            ev for ev in report["events"]
            if ev["action"] == "reorder-lost"
        ]
        assert len(lost) == 1 and lost[0]["rule"] == -1

    def test_bitflip_inverts_exactly_one_bit(self):
        plan = FaultPlan(rules=(FaultRule(action="bitflip"),))
        injector = FaultInjector(plan, 2)
        payload = np.zeros(8)
        (d,) = _send(injector, seq_payload=payload)
        bits = np.unpackbits(d.payload.view(np.uint8))
        assert bits.sum() == 1

    def test_bitflip_corrupts_fortran_ordered_payload(self):
        # Regression: reshape(-1) silently copies F-contiguous arrays,
        # so the flip mutated a temporary and the delivered payload
        # stayed pristine while the log claimed a successful bitflip.
        plan = FaultPlan(rules=(FaultRule(action="bitflip"),))
        injector = FaultInjector(plan, 2)
        payload = np.zeros((4, 4), order="F")
        assert payload.flags.f_contiguous
        (d,) = _send(injector, seq_payload=payload)
        assert d.payload.flags.f_contiguous  # copy kept the layout
        bits = np.unpackbits(
            np.ascontiguousarray(d.payload).view(np.uint8)
        )
        assert bits.sum() == 1
        assert injector.report()["by_action"] == {"bitflip": 1}

    def test_bitflip_corrupts_noncontiguous_payload(self):
        # The element-rewrite fallback path: a strided view payload is
        # neither C- nor F-contiguous, so no flat byte view shares its
        # memory.
        plan = FaultPlan(rules=(FaultRule(action="bitflip"),))
        injector = FaultInjector(plan, 2)
        payload = np.zeros((8, 8))[::2, ::2]
        assert not (
            payload.flags.c_contiguous or payload.flags.f_contiguous
        )
        (d,) = _send(injector, seq_payload=payload)
        bits = np.unpackbits(
            np.ascontiguousarray(d.payload).view(np.uint8)
        )
        assert bits.sum() == 1
        assert injector.report()["by_action"] == {"bitflip": 1}

    def test_bitflip_without_ndarray_is_a_logged_noop(self):
        plan = FaultPlan(rules=(FaultRule(action="bitflip"),))
        injector = FaultInjector(plan, 2)
        (d,) = injector.process_send(0, 1, 0, 0, 0, None, "hello", 5)
        assert d.payload == "hello"
        (event,) = injector.report()["events"]
        assert "skipped" in event["detail"]

    def test_crash_raises_and_logs(self):
        plan = FaultPlan(
            rules=(FaultRule(action="crash", rank=1, after=1),)
        )
        injector = FaultInjector(plan, 2)
        _send(injector, src=1, dst=0)  # first message passes
        with pytest.raises(RankCrashed, match="rank 1 crashed"):
            _send(injector, src=1, dst=0)
        assert injector.report()["by_action"] == {"crash": 1}

    def test_after_and_max_fires_are_per_channel(self):
        plan = FaultPlan(
            rules=(FaultRule(action="drop", after=1, max_fires=1),)
        )
        injector = FaultInjector(plan, 3)
        # None: no rule fired, the message is delivered as sent
        assert _send(injector, dst=1) is None     # skipped by `after`
        assert _send(injector, dst=1) == []       # fires
        assert _send(injector, dst=1) is None     # capped
        # a different channel has its own counters
        assert _send(injector, dst=2) is None
        assert _send(injector, dst=2) == []

    def test_rules_apply_in_order(self):
        plan = FaultPlan(
            rules=(
                FaultRule(action="delay", delay_s=0.1),
                FaultRule(action="duplicate"),
            )
        )
        injector = FaultInjector(plan, 2)
        out = _send(injector)
        assert len(out) == 2
        assert all(d.delay_s == pytest.approx(0.1) for d in out)


class TestInjectorDeterminism:
    def replay(self, seed):
        plan = FaultPlan(
            rules=(
                FaultRule(action="drop", probability=0.3),
                FaultRule(action="duplicate", probability=0.3),
            ),
            seed=seed,
        )
        injector = FaultInjector(plan, 4)
        for seq in range(40):
            _send(injector, src=seq % 3, dst=3, tag=seq)
        return injector.snapshot()

    def test_same_seed_same_log(self):
        first = self.replay(seed=7)
        assert first  # something fired
        assert first == self.replay(seed=7)

    def test_different_seed_different_log(self):
        assert self.replay(seed=7) != self.replay(seed=8)

    def test_snapshot_is_canonically_sorted(self):
        log = self.replay(seed=7)
        keys = [
            (ev["src"], ev["dst"], ev["seq"], ev["rule"], ev["action"])
            for ev in log
        ]
        assert keys == sorted(keys)

    def test_delivery_is_frozen(self):
        d = Delivery(None, 0, 0, 0, 0)
        with pytest.raises(AttributeError):
            d.tag = 5


class TestRuntimeIntegration:
    def test_armed_run_attaches_the_fault_report(self):
        plan = FaultPlan(
            rules=(FaultRule(action="delay", delay_s=1e-3),), seed=0
        )

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(8.0), dest=1, tag=4)
            elif comm.rank == 1:
                comm.recv(source=0, tag=4)

        _, report = run_spmd(2, fn, faults=plan)
        assert report.faults is not None
        assert report.faults["n_injected"] == 1
        assert report.faults["plan"] == write(plan)

    def test_clean_run_has_no_fault_report(self):
        def fn(comm):
            pass

        _, report = run_spmd(2, fn)
        assert report.faults is None

    def test_dropped_message_surfaces_census(self):
        plan = FaultPlan(rules=(FaultRule(action="drop", tag=4),))

        def fn(comm):
            if comm.rank == 0:
                comm.send(1.0, dest=1, tag=4)
            else:
                comm.recv(source=0, tag=4)

        with pytest.raises(RankFailure) as ei:
            run_spmd(2, fn, faults=plan, timeout=0.5)
        (rank, exc), = ei.value.failures
        assert rank == 1 and isinstance(exc, DeadlockError)
        text = str(exc)
        assert "blocked ranks:" in text
        assert "rank 1: awaiting (source=0, tag=4" in text

    def test_drop_keeps_the_ledger_closed(self):
        # accounting follows delivered traffic: a dropped message is
        # neither sent nor received, so sum(sent) == sum(recv) holds
        plan = FaultPlan(rules=(FaultRule(action="drop", tag=9),))

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(4.0), dest=1, tag=9)  # dropped
                comm.send(np.arange(4.0), dest=1, tag=2)
            else:
                with pytest.raises(DeadlockError):
                    comm.recv(source=0, tag=9)
                comm.recv(source=0, tag=2)

        _, report = run_spmd(2, fn, faults=plan, timeout=0.5)
        assert sum(report.sent_bytes) == sum(report.recv_bytes) == 32

    def test_duplicate_is_received_twice_and_both_counted(self):
        plan = FaultPlan(rules=(FaultRule(action="duplicate", tag=3),))

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(4.0), dest=1, tag=3)
                return None
            first = comm.recv(source=0, tag=3)
            second = comm.recv(source=0, tag=3)
            np.testing.assert_array_equal(first, second)
            return first

        _, report = run_spmd(2, fn, faults=plan, timeout=5.0)
        assert report.sent_bytes[0] == 64  # both copies on the wire
        assert report.recv_bytes[1] == 64

    def test_a_receiver_writing_into_one_copy_leaves_the_other(self):
        plan = FaultPlan(rules=(FaultRule(action="duplicate", tag=3),))

        def fn(comm):
            if comm.rank == 0:
                comm.send_each(((np.arange(4.0), 1),), tag=3)
                return None
            first = comm.recv(source=0, tag=3)
            first[:] = -1.0
            return comm.recv(source=0, tag=3)

        results, _ = run_spmd(2, fn, faults=plan, timeout=5.0)
        np.testing.assert_array_equal(results[1], np.arange(4.0))

    def test_crash_aggregates_by_rank_order(self):
        # the RankFailure list is sorted by rank no matter which
        # rank died first
        plan = FaultPlan(
            rules=(FaultRule(action="crash", rank=2),), seed=0
        )

        def fn(comm):
            comm.send(1.0, dest=(comm.rank + 1) % comm.size, tag=0)
            comm.recv(source=(comm.rank - 1) % comm.size, tag=0)

        with pytest.raises(RankFailure) as ei:
            run_spmd(4, fn, faults=plan, timeout=0.5)
        ranks = [rank for rank, _ in ei.value.failures]
        assert ranks == sorted(ranks)
        by_rank = dict(ei.value.failures)
        assert isinstance(by_rank[2], RankCrashed)
        # rank 3 never gets its ring message: deadlock, not crash
        assert isinstance(by_rank[3], DeadlockError)

    def test_multi_rank_failures_sorted(self):
        def fn(comm):
            raise ValueError(f"boom {comm.rank}")

        with pytest.raises(RankFailure) as ei:
            run_spmd(4, fn)
        assert [rank for rank, _ in ei.value.failures] == [0, 1, 2, 3]
        assert "rank 0" in str(ei.value)

    def test_per_tag_pairing_is_deterministic_under_chaos(self):
        # single-sender channel: rank 1 streams to rank 0, which takes
        # every copy of each tag in turn; duplication + reorder must
        # replay the identical receive sequence every time
        plan = FaultPlan(
            rules=(
                FaultRule(action="duplicate", probability=0.4),
                FaultRule(action="reorder", probability=0.4),
            ),
            seed=5,
        )

        def fn(comm, copies):
            if comm.rank == 1:
                for i in range(12):
                    comm.send(float(i), dest=0, tag=i)
                return None
            return [
                (tag, comm.recv(source=1, tag=tag))
                for tag in range(12)
                for _ in range(copies[tag])
            ]

        def copies_per_tag():
            injector = FaultInjector(plan, 2)
            copies = [0] * 12
            for i in range(12):
                made = injector.process_send(
                    1, 0, 0, 1, i, None, float(i), 8
                )
                if made is None:  # delivered as sent
                    copies[i] += 1
                for d in made or ():
                    copies[d.tag] += 1
            return copies

        copies = copies_per_tag()
        assert copies != [1] * 12  # the plan actually perturbs the stream
        results1, report1 = run_spmd(2, fn, copies, faults=plan)
        results2, report2 = run_spmd(2, fn, copies, faults=plan)
        assert results1[0] == results2[0] == [
            (tag, float(tag)) for tag in range(12) for _ in range(copies[tag])
        ]
        assert report1.faults == report2.faults

    def test_delay_only_plan_increases_predicted_wait(self):
        delay = FaultPlan(
            rules=(FaultRule(action="delay", delay_s=0.5),)
        )

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(128.0), dest=1, tag=1)
            else:
                comm.recv(source=0, tag=1)

        _, clean = run_spmd(2, fn, machine="daint-xc50")
        _, faulty = run_spmd(2, fn, machine="daint-xc50", faults=delay)
        assert faulty.timing.wait_seconds[1] > (
            clean.timing.wait_seconds[1] + 0.4
        )
        # byte accounting is identical — delays are modeled, not real
        assert faulty.sent_bytes == clean.sent_bytes

    def test_lost_message_raises_at_once_whatever_the_budget(self):
        import time

        plan = FaultPlan(rules=(FaultRule(action="drop", tag=0),))

        def fn(comm):
            if comm.rank == 1:
                comm.send(1.0, dest=0, tag=0)
            else:
                comm.recv(source=1, tag=0)

        start = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            run_spmd(2, fn, faults=plan, timeout=300)
        assert time.monotonic() - start < 1.0
        (rank, exc), = ei.value.failures
        assert rank == 0 and isinstance(exc, DeadlockError)
        assert str(exc).startswith("recv(source=1, tag=0, context=0)")
        assert "rank 0: awaiting (source=1, tag=0, context=0)" in str(exc)
