"""Unit tests for the sweep execution backends.

Covers the pieces the warm backend is built from — the shared task
queue and its per-batch chunk cap, the in-process chunk path, the
backend factory — plus small end-to-end warm==serial checks.  The heavyweight bit-identity contracts live in
``tests/properties/test_backend_determinism.py`` and the fault suite.
"""

import dataclasses
import importlib
import os
import signal
from collections import deque

import pytest

import repro.runner
from repro.core.params import PAPER_COSTS
from repro.runner import (
    DistributedOptions,
    FaultPlan,
    ResultCache,
    SweepRunner,
    config_key,
    use_runner,
)
from repro.runner.backends import BACKEND_NAMES, make_backend
from repro.runner.backends import fleet as fleet_mod
from repro.runner.backends import warm as warm_mod
from repro.runner.backends.base import BatchState, _WorkerTask, chunk_cap, take
from repro.runner.backends.fleet import _run_chunk
from repro.runner.backends.warm import reset_warm_state
from repro.runner.cache import RecordLog, encode_body
from repro.runner.checkpoint import CheckpointJournal
from repro.sim.system import run_simulation

from ..conftest import fast_config


def _tiny(**overrides):
    overrides.setdefault("duration_us", 40_000.0)
    overrides.setdefault("warmup_us", 10_000.0)
    return fast_config(**overrides)


# ----------------------------------------------------------------------
# Shared task queue
# ----------------------------------------------------------------------
class TestSharedQueue:
    def test_chunk_cap_is_a_share_of_the_batch(self):
        # ceil(n / (2 * jobs * slots)): with 2 workers x 2 in-flight
        # slots, the first fill of 4 chunks takes about half the batch.
        assert chunk_cap(30, 2, 2) == 4
        assert chunk_cap(150, 2, 2) == 19
        assert chunk_cap(30, 2, 1) == 8   # one lease per agent
        assert chunk_cap(1, 8, 2) == 1    # never below one task

    def test_take_pops_from_the_head_in_order(self):
        queue = deque([(3, 1), (0, 1), (5, 2)])
        assert take(queue, 2) == [(3, 1), (0, 1)]
        assert take(queue, 4) == [(5, 2)]
        assert take(queue, 1) == [] and not queue


# ----------------------------------------------------------------------
# Worker-side chunk path (driven in-process)
# ----------------------------------------------------------------------
def _worker_task(cfg):
    return _WorkerTask(cfg, None, 1, None, None)


def _costly(cfg, factor):
    """``cfg`` with a different exec-model parameter set."""
    return dataclasses.replace(cfg, costs=dataclasses.replace(
        PAPER_COSTS, t_cold_us=PAPER_COSTS.t_cold_us * factor))


class TestWarmChunkPath:
    def test_chunk_matches_serial(self):
        configs = [_tiny(seed=s) for s in (1, 2, 3)]
        meta, results, interrupted = _run_chunk(
            tuple(_worker_task(c) for c in configs))
        assert not interrupted
        assert all(ok for ok, *_ in meta)
        # One (summary, frame body) per task: the body is encoded here,
        # where the summary is made.
        serial = [run_simulation(c) for c in configs]
        assert results == tuple((s, encode_body(s)) for s in serial)

    def test_chunk_may_mix_exec_model_params(self):
        configs = [_tiny(seed=1), _costly(_tiny(seed=2), 2),
                   _tiny(seed=3), _costly(_tiny(seed=4), 2)]
        _, results, _ = _run_chunk(tuple(_worker_task(c) for c in configs))
        assert tuple(s for s, _ in results) == \
            tuple(run_simulation(c) for c in configs)

    def test_reset_clears_everything_in_ledger(self):
        reset_warm_state()
        for name in warm_mod._WARM_LEDGER:
            assert not getattr(warm_mod, name)


# ----------------------------------------------------------------------
# Factory / options / runner integration
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("serial", "warm", "distributed")

    def test_factory_builds_each(self):
        for name in BACKEND_NAMES:
            backend = make_backend(name)
            assert backend.name == name
            backend.close()

    def test_factory_rejects_unknown(self):
        for name in ("threads", "pool"):
            with pytest.raises(ValueError, match="unknown backend"):
                make_backend(name)

    def test_runner_rejects_unknown(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=2, backend="threads")

    def test_warm_options_validation(self):
        # The warm backend takes no options: lease sizing is a module
        # constant (_TARGET_CHUNK_S under _MAX_LEASE_TASKS), not a knob,
        # and so is the watchdog factor.
        assert not hasattr(repro.runner, "WarmOptions")
        for knob in ("warm_options", "hard_timeout_factor"):
            with pytest.raises(TypeError, match=knob):
                SweepRunner(jobs=2, **{knob: None})

    def test_jobs_label_names_backend(self):
        assert "backend=warm" in SweepRunner(jobs=2, backend="warm").jobs_label()
        assert "backend" not in SweepRunner(jobs=0).jobs_label()


@pytest.mark.slow
class TestWarmEndToEnd:
    def test_warm_matches_serial_and_counts_chunks(self, monkeypatch):
        # 12 tasks on 2 workers x 2 slots: four one-task probes fill the
        # slots, then, with the sizing target out of reach, every chunk
        # takes the per-batch cap of ceil(12 / 8) = 2 tasks.
        monkeypatch.setattr(fleet_mod, "_TARGET_CHUNK_S", 1e9)
        configs = [_tiny(seed=s) for s in range(1, 13)]
        serial = SweepRunner(jobs=0).run_many(configs)
        runner = SweepRunner(jobs=2, backend="warm")
        try:
            assert runner.run_many(configs) == serial
            assert runner.stats.chunks == 4 + (len(configs) - 4) // 2
            assert "chunks" in runner.stats.summary_line(runner.jobs_label())
        finally:
            runner.close()

    def test_workers_survive_across_batches_and_close_is_reusable(self):
        runner = SweepRunner(jobs=2, backend="warm")
        try:
            first = runner.run_many([_tiny(seed=1), _tiny(seed=2)])
            assert runner.run_many([_tiny(seed=1), _tiny(seed=2)]) == first
            runner.close()  # retire the fleet ...
            # ... and a later batch lazily respawns it.
            assert runner.run_many([_tiny(seed=1), _tiny(seed=2)]) == first
        finally:
            runner.close()

    def test_backends_used_via_default_runner(self):
        configs = [_tiny(seed=s) for s in (1, 2)]
        serial = SweepRunner(jobs=0).run_many(configs)
        with use_runner(SweepRunner(jobs=2, backend="warm")) as runner:
            assert runner.run_many(configs) == serial
            runner.close()

    def test_wedged_agent_is_killed_and_respawned(self):
        # A SIGSTOPped agent holds its leases in silence, beyond its own
        # SIGALRM guard.  After the hard watchdog's 4 x 0.25 + 1 = 2 s the
        # leases expire, the agent is killed and a fresh one forked, and
        # the requeued tasks still come out bit-identical.
        configs = [_tiny(seed=s) for s in range(1, 13)]
        serial = SweepRunner(jobs=0).run_many(configs)
        runner = SweepRunner(jobs=2, backend="warm", timeout_s=0.25,
                             retries=2, backoff_base_s=0.0)
        stopped = []
        try:
            runner.run_many(configs[:2])  # the fleet is up and idle
            backend = runner._get_backend("warm")
            grant = backend._grant

            def grant_then_stop(run, slot, size):
                grant(run, slot, size)
                if not stopped:
                    os.kill(slot.process.pid, signal.SIGSTOP)
                    stopped.append(slot.process.pid)

            backend._grant = grant_then_stop
            assert runner.run_many(configs) == serial
        finally:
            runner.close()
        assert stopped
        assert runner.stats.lease_expiries >= 1
        assert runner.stats.pool_respawns >= 1
        assert runner.stats.failures == 0

    def test_fleet_over_budget_finishes_inline_and_says_so(self):
        # One crash against a budget of zero: the fleet is retired and the
        # batch finishes in-process, the crashed task from attempt 2.
        configs = [_tiny(seed=s) for s in range(1, 7)]
        serial = SweepRunner(jobs=0).run_many(configs)
        plan = FaultPlan(seed=1, crash=1.0, max_faulty_attempts=1,
                         only_keys=(config_key(configs[0]),))
        runner = SweepRunner(jobs=2, backend="warm", retries=1,
                             backoff_base_s=0.0, fault_plan=plan,
                             max_pool_failures=0)
        try:
            assert runner.run_many(configs) == serial
        finally:
            runner.close()
        assert runner.stats.fleet_fallbacks == 1
        assert runner.stats.pool_respawns == 0
        assert runner.stats.retries == 1
        assert "1 fleet fallback" in runner.stats.summary_line()


# ----------------------------------------------------------------------
# Result frames: encoded by whoever ran the task, appended as they came
# ----------------------------------------------------------------------
def _bodies(path):
    """key -> frame body of every valid frame in one record log."""
    log = RecordLog(path)
    try:
        return {key: body for _, key, body in log.scan() if key is not None}
    finally:
        log.close()


class TestResultFrames:
    def test_commit_appends_one_frame_to_cache_and_journal(self, tmp_path):
        config = _tiny(seed=1)
        key = config_key(config)
        summary = run_simulation(config)
        runner = SweepRunner(jobs=0, cache=ResultCache(tmp_path / "cache"))
        journal = CheckpointJournal(tmp_path / "j.log", sweep="s")
        journal.start(resume=False)
        batch = BatchState([0], [config], [key], [key], [None], journal, [])
        runner._complete(batch, 0, summary, encode_body(summary))
        runner.cache.log.sync()
        journal.sync()
        cached = (tmp_path / "cache" / "results.log").read_bytes()
        assert (tmp_path / "j.log").read_bytes().endswith(cached)
        assert _bodies(tmp_path / "j.log")[key] == encode_body(summary)
        assert runner.cache.get(key) == summary
        journal.close()

    @staticmethod
    def _count_encodes(monkeypatch):
        """Count ``encode_body`` calls wherever the runner may make them."""
        calls = []

        def counting(summary):
            calls.append(summary)
            return encode_body(summary)
        for name in ("repro.runner.backends.base", "repro.runner.runner"):
            monkeypatch.setattr(importlib.import_module(name), "encode_body",
                                counting)
        return calls

    def test_uncached_inline_run_encodes_no_body(self, monkeypatch):
        calls = self._count_encodes(monkeypatch)
        configs = [_tiny(seed=s) for s in range(1, 4)]
        runner = SweepRunner(jobs=0)
        assert runner.run_many(configs) == [run_simulation(c) for c in configs]
        assert runner.stats.executed == len(configs)
        assert calls == []

    def test_cached_inline_run_encodes_each_body_once(self, tmp_path,
                                                       monkeypatch):
        calls = self._count_encodes(monkeypatch)
        configs = [_tiny(seed=s) for s in range(1, 4)]
        runner = SweepRunner(jobs=0, cache=ResultCache(tmp_path))
        runner.run_many(configs)
        runner.cache.log.sync()
        assert len(calls) == len(configs)
        assert _bodies(tmp_path / "results.log") == {
            config_key(c): encode_body(run_simulation(c)) for c in configs}

    @pytest.mark.slow
    def test_every_backend_writes_the_same_frames(self, tmp_path):
        configs = [_tiny(seed=s) for s in range(1, 7)]
        expected = {config_key(c): encode_body(run_simulation(c))
                    for c in configs}
        for name, jobs in (("serial", 0), ("warm", 2), ("distributed", 2)):
            root = tmp_path / name
            runner = SweepRunner(jobs=jobs, backend=name,
                                 cache=ResultCache(root),
                                 distributed_options=DistributedOptions(
                                     lease_timeout_s=30.0, idle_poll_s=0.1))
            try:
                runner.run_many(configs)
            finally:
                runner.close()
            assert runner.stats.executed == len(configs), name
            assert _bodies(root / "results.log") == expected, name

    @pytest.mark.slow
    def test_serial_cache_is_all_hits_for_warm(self, tmp_path):
        configs = [_tiny(seed=s) for s in range(1, 9)]
        serial = SweepRunner(jobs=0, cache=ResultCache(tmp_path))
        expected = serial.run_many(configs)
        runner = SweepRunner(jobs=2, backend="warm",
                             cache=ResultCache(tmp_path))
        try:
            assert runner.run_many(configs) == expected
        finally:
            runner.close()
        assert runner.stats.cache_hits == len(configs)
        assert runner.stats.executed == 0
        assert (runner.cache.stats.hits, runner.cache.stats.misses) == \
            (len(configs), 0)
