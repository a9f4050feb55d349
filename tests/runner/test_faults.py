"""Fault-plan determinism and the runner's failure paths.

The heavyweight end-to-end proofs (crashed-worker-retried,
hung-task-times-out, corrupted-cache-quarantined, interrupted-sweep-
resumes) live in the :func:`repro.runner.run_fault_suite` scenario
harness, exercised here and by ``repro faults`` in CI.  The unit tests
around it pin down the pieces: the injection function's purity, the
serial retry/timeout/fail-fast logic, and the structure of
:class:`SweepExecutionError`.
"""

import pytest

from repro.runner import (
    FAULT_KINDS,
    FaultPlan,
    SweepExecutionError,
    SweepRunner,
    run_fault_suite,
)
from repro.runner.keys import config_key
from repro.sim.system import run_simulation

from ..conftest import fast_config


def _tiny(**overrides):
    overrides.setdefault("duration_us", 40_000.0)
    overrides.setdefault("warmup_us", 10_000.0)
    return fast_config(**overrides)


class TestFaultPlanDeterminism:
    def test_decide_is_a_pure_function(self):
        plan = FaultPlan(seed=7, crash=0.5)
        draws = [plan.decide("crash", f"key{i}") for i in range(64)]
        assert draws == [plan.decide("crash", f"key{i}") for i in range(64)]
        assert any(draws) and not all(draws)  # rate 0.5 splits the keys

    def test_seed_changes_the_schedule(self):
        keys = [f"key{i}" for i in range(64)]
        a = FaultPlan(seed=1, error=0.5).affected("error", keys)
        b = FaultPlan(seed=2, error=0.5).affected("error", keys)
        assert a != b

    def test_rate_bounds(self):
        keys = [f"key{i}" for i in range(16)]
        never = FaultPlan(seed=1, hang=0.0)
        always = FaultPlan(seed=1, hang=1.0)
        assert never.affected("hang", keys) == []
        assert always.affected("hang", keys) == keys

    def test_max_faulty_attempts_bounds_injection(self):
        plan = FaultPlan(seed=1, error=1.0, max_faulty_attempts=2)
        assert plan.decide("error", "k", attempt=1)
        assert plan.decide("error", "k", attempt=2)
        assert not plan.decide("error", "k", attempt=3)
        permanent = FaultPlan(seed=1, error=1.0, max_faulty_attempts=None)
        assert permanent.decide("error", "k", attempt=99)

    def test_only_keys_restricts(self):
        plan = FaultPlan(seed=1, crash=1.0, only_keys=("a",))
        assert plan.decide("crash", "a")
        assert not plan.decide("crash", "b")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan().decide("meteor", "k")
        assert set(FAULT_KINDS) == {"crash", "hang", "error", "corrupt",
                                    "interrupt", "drop", "delay",
                                    "duplicate", "partition", "kill"}


class TestSerialFailurePaths:
    def test_transient_error_is_retried_to_success(self):
        configs = [_tiny(seed=s) for s in (1, 2)]
        reference = [run_simulation(c) for c in configs]
        plan = FaultPlan(seed=1, error=1.0, max_faulty_attempts=1)
        runner = SweepRunner(jobs=0, retries=1, backoff_base_s=0.0,
                             fault_plan=plan)
        assert runner.run_many(configs) == reference
        assert runner.stats.retries == 2
        assert runner.stats.failures == 0

    def test_permanent_error_exhausts_retries(self):
        configs = [_tiny(seed=s) for s in (1, 2)]
        keys = [config_key(c) for c in configs]
        plan = FaultPlan(seed=1, error=1.0, max_faulty_attempts=None,
                         only_keys=(keys[1],))
        runner = SweepRunner(jobs=0, retries=2, backoff_base_s=0.0,
                             fault_plan=plan)
        with pytest.raises(SweepExecutionError) as err:
            runner.run_many(configs)
        exc = err.value
        assert len(exc.failures) == 1
        report = exc.failures[0]
        assert report.index == 1
        assert report.key == keys[1]
        assert report.kind == "error"
        assert report.attempts == 3  # 1 + retries
        assert "injected failure" in report.error
        # The healthy task still completed before the error was raised.
        assert exc.results[0] == run_simulation(configs[0])
        assert exc.results[1] is None
        assert "failed permanently" in str(exc)

    def test_serial_timeout_reported(self):
        configs = [_tiny(seed=1)]
        plan = FaultPlan(seed=1, hang=1.0, max_faulty_attempts=None,
                         hang_s=30.0)
        runner = SweepRunner(jobs=0, timeout_s=0.3, retries=0,
                             fault_plan=plan)
        with pytest.raises(SweepExecutionError) as err:
            runner.run_many(configs)
        assert err.value.failures[0].kind == "timeout"
        assert runner.stats.timeouts == 1

    def test_fail_fast_skips_remaining_work(self):
        configs = [_tiny(seed=s) for s in (1, 2, 3)]
        keys = [config_key(c) for c in configs]
        plan = FaultPlan(seed=1, error=1.0, max_faulty_attempts=None,
                         only_keys=(keys[0],))
        runner = SweepRunner(jobs=0, retries=0, fail_fast=True,
                             fault_plan=plan)
        with pytest.raises(SweepExecutionError) as err:
            runner.run_many(configs)
        assert len(err.value.failures) == 1
        # Nothing after the failure was executed.
        assert runner.stats.executed == 0
        assert err.value.results[1] is None and err.value.results[2] is None

    def test_inline_crash_degrades_to_error(self):
        # A real os._exit in serial mode would kill the test process; the
        # plan must degrade it to a raised (and here retried) fault.
        configs = [_tiny(seed=1)]
        plan = FaultPlan(seed=1, crash=1.0, max_faulty_attempts=1)
        runner = SweepRunner(jobs=0, retries=1, backoff_base_s=0.0,
                             fault_plan=plan)
        assert runner.run_many(configs) == [run_simulation(configs[0])]
        assert runner.stats.retries == 1

    def test_validation_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SweepRunner(retries=-1)
        with pytest.raises(ValueError):
            SweepRunner(timeout_s=0.0)

    def test_negative_failure_budget_rejected(self):
        # The one agent-loss budget for both fleets lives on the runner.
        with pytest.raises(ValueError, match="max_pool_failures"):
            SweepRunner(max_pool_failures=-1)


class TestInterruptCheckpoint:
    def test_interrupt_leaves_loadable_checkpoint(self, tmp_path):
        """KeyboardInterrupt mid-sweep flushes a journal that a resumed
        runner replays without recomputing (acceptance criterion:
        0 completed tasks recomputed)."""
        from repro.runner import CheckpointJournal, sweep_id

        configs = [_tiny(seed=s) for s in (1, 2, 3, 4)]
        keys = [config_key(c) for c in configs]
        plan = FaultPlan(seed=1, interrupt=1.0, max_faulty_attempts=None,
                         only_keys=(keys[2],))
        runner = SweepRunner(jobs=0, checkpoint_dir=tmp_path,
                             fault_plan=plan)
        with pytest.raises(KeyboardInterrupt):
            runner.run_many(configs)
        journal = CheckpointJournal(tmp_path / f"{sweep_id(keys)}.log",
                                    sweep=sweep_id(keys))
        assert journal.exists()
        entries = journal.load()
        assert sorted(entries) == sorted(keys[:2])
        assert entries[keys[0]] == run_simulation(configs[0])

        resumed = SweepRunner(jobs=0, checkpoint_dir=tmp_path, resume=True)
        results = resumed.run_many(configs)
        assert results == [run_simulation(c) for c in configs]
        assert resumed.stats.resumed == 2
        assert resumed.stats.executed == 2
        # Clean completion deletes the journal.
        assert not journal.exists()


@pytest.mark.slow
class TestFaultSuite:
    COMMON = [
        "crash-retry-completes",
        "hang-times-out-not-deadlocked",
        "corrupt-entry-quarantined-and-recomputed",
        "interrupt-checkpoint-resume",
        "happy-path-bit-identical",
    ]
    EXTRA = {
        "warm": [
            "warm-crash-cold-respawn-bit-identical",
            "warm-hung-worker-does-not-block",
        ],
        "distributed": [
            "dist-duplicate-delivery-committed-once",
            "dist-dropped-frames-lease-expiry-requeues",
            "dist-hung-worker-lease-expires",
            "dist-partitioned-worker-heals-and-rejoins",
            "dist-stale-result-discarded-not-double-counted",
            "dist-fleet-loss-finishes-inline",
        ],
    }

    @pytest.mark.parametrize("backend", ["warm", "distributed"])
    def test_every_scenario_passes(self, tmp_path, backend):
        results = run_fault_suite(tmp_path, jobs=2, seed=1, backend=backend)
        expected = self.COMMON + self.EXTRA[backend]
        assert [r.name for r in results] == expected
        failed = [r for r in results if not r.ok]
        assert failed == [], "\n".join(f"{r.name}: {r.detail}" for r in failed)
