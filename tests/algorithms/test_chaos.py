"""Chaos acceptance tests: seeded fault plans through ``factor()``.

The ISSUE's acceptance criteria for the fault-injection tentpole:

* a seeded :class:`FaultPlan` replayed twice over the same ``factor()``
  call yields identical fault logs and identical outcomes;
* a delay-only plan leaves the numerics bit-identical to a clean run
  while strictly increasing the predicted wait time.
"""

import numpy as np
import pytest

from repro.algorithms import factor
from repro.documents import write
from repro.faults import FaultPlan, FaultPlanError, FaultRule, canned_plan
from repro.smpi import RankFailure

N = 48
GRID = (2, 2, 2)


def matrix(n=N, seed=0):
    return np.random.default_rng(seed).standard_normal((n, n))


def _bench_chaos():
    """``benchmarks/bench_chaos.py``, which is not a package module."""
    import sys
    from pathlib import Path

    bench_dir = str(Path(__file__).resolve().parents[2] / "benchmarks")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import bench_chaos

    return bench_chaos


def delay_plan(seed=0):
    return FaultPlan(
        rules=(
            FaultRule(action="delay", probability=0.3, delay_s=1e-4),
        ),
        seed=seed,
        name="test-delay",
    )


class TestReplayDeterminism:
    def test_same_plan_same_log_same_factors(self):
        a = matrix()
        runs = [
            factor(
                "conflux", a, grid=GRID, v=4,
                machine="daint-xc50", faults=delay_plan(seed=3),
            )
            for _ in range(2)
        ]
        first, second = runs
        assert first.volume.faults == second.volume.faults
        assert first.volume.faults["n_injected"] > 0
        np.testing.assert_array_equal(first.lower, second.lower)
        np.testing.assert_array_equal(first.upper, second.upper)
        np.testing.assert_array_equal(first.perm, second.perm)
        # predicted timing is part of the deterministic surface too
        assert (
            first.volume.timing.rank_seconds
            == second.volume.timing.rank_seconds
        )

    def test_fault_seed_changes_the_log(self):
        a = matrix()
        res = {
            seed: factor(
                "conflux", a, grid=GRID, v=4,
                faults=delay_plan(), fault_seed=seed,
            )
            for seed in (1, 2)
        }
        logs = {
            seed: r.volume.faults["events"]
            for seed, r in res.items()
        }
        assert logs[1] != logs[2]
        # but the numerics agree — delays never touch payloads
        np.testing.assert_array_equal(res[1].lower, res[2].lower)


    # a flipped exponent bit overflows in a rank thread, on purpose
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_chaos_grid_reproduces_the_committed_artifact(self):
        """A failure is as reproducible as a success: one execution of
        the 36-point chaos grid equals the reviewed ``BENCH_chaos.json``
        (what ``bench_chaos.py --check-determinism`` runs in CI)."""
        import json

        bench_chaos = _bench_chaos()
        reference = json.loads(bench_chaos.REFERENCE.read_text())
        fresh = bench_chaos.build_artifact(bench_chaos.chaos_runs())
        assert bench_chaos.validate_artifact(fresh) == []
        assert bench_chaos.diff_artifacts(fresh, reference) == []

    def test_a_rewrite_keeps_the_residuals_the_check_accepts(self):
        """``--write-reference`` keeps a committed residual the new one
        matches to rounding level, so only moved rows enter the diff."""
        bench_chaos = _bench_chaos()

        def doc(*residuals):
            points = [
                {"fault_class": "delay", "fault_seed": seed,
                 "residual": residual}
                for seed, residual in enumerate(residuals)
            ]
            return {"runs": [{"sweep": "chaos-lu", "points": points,
                              "observed": {"wall_s": 1.0}}]}

        committed = doc(6.08e-16, 6.08e-16, None, 1e-3)
        fresh = doc(6.93e-16, 2e-10, 5e-16, 1e-3 * (1 + 1e-9))
        settled = bench_chaos.settle_residuals(fresh, committed)
        assert [p["residual"] for p in settled["runs"][0]["points"]] == [
            6.08e-16, 2e-10, 5e-16, 1e-3,
        ]
        assert "observed" not in settled["runs"][0]
        assert fresh["runs"][0]["points"][0]["residual"] == 6.93e-16


def test_nan_residual_is_silent_corruption(monkeypatch):
    """A flipped bit can leave a NaN that no check on the path sees;
    ``nan > tol`` is false, which used to classify such a run as
    ``recovered``."""
    import dataclasses

    import repro.algorithms
    from repro.harness.specs import CHAOS_SILENT, chaos_task

    real = repro.algorithms.factor

    def nan_residual(*args, **kwargs):
        return dataclasses.replace(
            real(*args, **kwargs), residual=float("nan")
        )

    monkeypatch.setattr(repro.algorithms, "factor", nan_residual)
    row = chaos_task("conflux", 32, 4, "delay")
    assert row["outcome"] == CHAOS_SILENT
    assert row["detail"].startswith("residual nan")


class TestDelayOnlySemantics:
    def test_bit_identical_to_clean_with_larger_wait(self):
        a = matrix()
        clean = factor(
            "conflux", a, grid=GRID, v=4, machine="daint-xc50"
        )
        chaotic = factor(
            "conflux", a, grid=GRID, v=4, machine="daint-xc50",
            faults=delay_plan(),
        )
        np.testing.assert_array_equal(clean.lower, chaotic.lower)
        np.testing.assert_array_equal(clean.upper, chaotic.upper)
        np.testing.assert_array_equal(clean.perm, chaotic.perm)
        assert chaotic.residual == clean.residual
        assert sum(chaotic.volume.timing.wait_seconds) > sum(
            clean.volume.timing.wait_seconds
        )
        assert (
            chaotic.volume.timing.makespan
            > clean.volume.timing.makespan
        )
        # the communication ledger is unchanged: same messages, same
        # bytes, just later
        assert chaotic.volume.sent_bytes == clean.volume.sent_bytes
        assert chaotic.volume.messages == clean.volume.messages


class TestDestructiveClasses:
    def test_targeted_drop_is_detected(self):
        plan = FaultPlan(
            rules=(FaultRule(action="drop", after=5, max_fires=1),),
            seed=0,
        )
        with pytest.raises(RankFailure):
            factor(
                "conflux", matrix(), grid=GRID, v=4,
                faults=plan, timeout_s=1.0,
            )

    def test_crash_plan_is_detected(self):
        from repro.faults import RankCrashed

        plan = canned_plan("crash", seed=0)
        with pytest.raises(RankFailure) as ei:
            factor(
                "conflux", matrix(), grid=GRID, v=4,
                faults=plan, timeout_s=1.0,
            )
        # the crashed rank carries the typed error; its peers show up
        # as deadlocks waiting on the corpse
        kinds = {type(exc) for _, exc in ei.value.failures}
        assert RankCrashed in kinds


class TestFactorArgValidation:
    def test_fault_seed_requires_faults(self):
        with pytest.raises(ValueError, match="without faults"):
            factor("conflux", matrix(), grid=GRID, v=4, fault_seed=3)

    def test_plan_dict_and_seed_override(self):
        res = factor(
            "conflux", matrix(), grid=GRID, v=4,
            faults=write(delay_plan(seed=0)), fault_seed=7,
        )
        assert res.volume.faults["plan"]["seed"] == 7

    @pytest.mark.parametrize("seed", [2.7, True])
    def test_fault_seed_is_not_coerced(self, seed):
        with pytest.raises(FaultPlanError, match="seed must be int"):
            factor(
                "conflux", matrix(), grid=GRID, v=4,
                faults=delay_plan(seed=0), fault_seed=seed,
            )

    @pytest.mark.parametrize("timeout_s", [float("nan"), 0, -1.0])
    def test_wall_budget_must_be_positive(self, timeout_s):
        # run_spmd reads a budget <= 0 (or NaN) as none at all
        with pytest.raises(ValueError, match="timeout_s must be > 0"):
            factor("conflux", matrix(), grid=GRID, v=4, timeout_s=timeout_s)

    def test_infinite_wall_budget_is_allowed(self):
        res = factor(
            "conflux", matrix(), grid=GRID, v=4, timeout_s=float("inf")
        )
        assert res.residual < 1e-10
