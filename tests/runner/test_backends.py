"""Unit tests for the sweep execution backends.

Covers the pieces the warm backend is built from — affinity keys and
the MRU/steal scheduler, the in-process chunk path with its model cache,
options validation, the backend factory — plus small end-to-end
warm==serial checks.  The heavyweight bit-identity contracts live in
``tests/properties/test_backend_determinism.py`` and the fault suite.
"""

import dataclasses

import pytest

from repro.core.exec_model import ExecutionTimeModel
from repro.core.params import PAPER_COMPOSITION, PAPER_COSTS
from repro.core.policies import make_locking_policy
from repro.runner import SweepRunner, use_runner
from repro.runner.affinity import (
    AffinityScheduler,
    QueuedTask,
    affinity_key,
    workload_family,
)
from repro.runner.backends import BACKEND_NAMES, WarmOptions, make_backend
from repro.runner.backends import warm as warm_mod
from repro.runner.backends.base import _WorkerTask
from repro.runner.backends.warm import (
    _MODEL_CACHE,
    _run_chunk,
    reset_warm_state,
)
from repro.sim.system import NetworkProcessingSystem, run_simulation

from ..conftest import fast_config


def _tiny(**overrides):
    overrides.setdefault("duration_us", 40_000.0)
    overrides.setdefault("warmup_us", 10_000.0)
    return fast_config(**overrides)


# ----------------------------------------------------------------------
# Affinity keys
# ----------------------------------------------------------------------
class TestAffinityKey:
    def test_per_run_knobs_do_not_fragment(self):
        # Seed, rate and horizon vary *within* a sweep: same key.
        a = affinity_key(_tiny(seed=1))
        assert a == affinity_key(_tiny(seed=2))
        assert a == affinity_key(_tiny(duration_us=80_000.0))

    def test_family_splits_on_structure(self):
        assert workload_family(_tiny()) != workload_family(_tiny(paradigm="ips"))
        assert affinity_key(_tiny()) != affinity_key(_tiny(paradigm="ips"))

    def test_uncacheable_config_falls_back_to_family(self):
        cfg = _tiny(policy=make_locking_policy("mru"))
        key = affinity_key(cfg)
        assert isinstance(key, str) and len(key) == 16
        # Same policy instance type -> same family-only key.
        assert key == affinity_key(_tiny(policy=make_locking_policy("mru")))


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
def _tasks(key, indices, attempt=1):
    return [QueuedTask(i, attempt, key) for i in indices]


class TestAffinityScheduler:
    def test_single_key_splits_fair_share(self):
        sched = AffinityScheduler(2)
        sched.assign(_tasks("a", range(4)))
        assert [len(q) for q in sched.queues] == [2, 2]

    def test_mru_worker_preferred(self):
        sched = AffinityScheduler(2)
        sched.assign(_tasks("a", [0]) + _tasks("b", [1]))
        first = sched.next_chunk(0, 8)   # worker 0 now warm for its key
        warm_key = first[0].key
        sched.next_chunk(1, 8)
        before = sched.stats.routed_affine
        sched.assign(_tasks(warm_key, [2]))
        assert sched.stats.routed_affine == before + 1
        assert sched.queues[0][0].key == warm_key

    def test_chunks_are_single_key_runs(self):
        sched = AffinityScheduler(1)
        sched.assign(_tasks("a", [0, 1]) + _tasks("b", [2]))
        chunk = sched.next_chunk(0, 8)
        assert [t.key for t in chunk] == ["a", "a"]
        assert [t.key for t in sched.next_chunk(0, 8)] == ["b"]

    def test_idle_worker_steals_from_tail(self):
        sched = AffinityScheduler(2)
        # Force everything onto worker 0's queue, head run "a", tail run "b".
        sched.queues[0].extend(_tasks("a", [0, 1]) + _tasks("b", [2, 3]))
        stolen = sched.next_chunk(1, 8)
        assert [t.key for t in stolen] == ["b", "b"]
        assert [t.index for t in stolen] == [2, 3]       # order preserved
        assert [t.key for t in sched.queues[0]] == ["a", "a"]  # victim keeps head
        assert sched.stats.steals == 2
        assert sched.mru[1] == "b"

    def test_no_work_returns_empty(self):
        sched = AffinityScheduler(2)
        assert sched.next_chunk(0, 4) == []

    def test_drain_returns_batch_index_order(self):
        sched = AffinityScheduler(3)
        sched.assign(_tasks("a", [5, 1]) + _tasks("b", [3, 0]))
        drained = sched.drain()
        assert [t.index for t in drained] == [0, 1, 3, 5]
        assert sched.pending() == 0

    def test_scatter_round_robins(self):
        sched = AffinityScheduler(2, route="scatter")
        sched.assign(_tasks("a", range(4)))
        assert [t.index for t in sched.queues[0]] == [0, 2]
        assert [t.index for t in sched.queues[1]] == [1, 3]
        assert sched.stats.routed_affine == 0

    def test_push_requeues_retry(self):
        sched = AffinityScheduler(1)
        sched.push(QueuedTask(7, 2, "a"))
        assert sched.pending() == 1
        assert sched.queues[0][0].attempt == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AffinityScheduler(0)
        with pytest.raises(ValueError):
            AffinityScheduler(1, route="bogus")
        with pytest.raises(ValueError):
            AffinityScheduler(1).next_chunk(0, 0)


# ----------------------------------------------------------------------
# Worker-side chunk path (driven in-process)
# ----------------------------------------------------------------------
def _worker_task(cfg):
    return _WorkerTask(cfg, None, 1, None, None)


class TestWarmChunkPath:
    def test_chunk_matches_serial_and_caches_model(self):
        reset_warm_state()
        try:
            configs = [_tiny(seed=s) for s in (1, 2, 3)]
            akey = affinity_key(configs[0])
            meta, summaries, interrupted = _run_chunk(
                akey, tuple(_worker_task(c) for c in configs))
            assert not interrupted
            assert all(ok for ok, *_ in meta)
            assert summaries == tuple(run_simulation(c) for c in configs)
            assert list(_MODEL_CACHE) == [akey]
            model = _MODEL_CACHE[akey]
            _run_chunk(akey, (_worker_task(_tiny(seed=9)),))
            assert _MODEL_CACHE[akey] is model  # reused, not rebuilt
        finally:
            reset_warm_state()

    def test_mismatched_cache_entry_degrades_to_cold_build(self):
        # A wrong model under a key (routing bug by construction) must
        # produce a correct result anyway.
        reset_warm_state()
        try:
            cfg = _tiny(seed=6)
            akey = affinity_key(cfg)
            wrong = ExecutionTimeModel(
                dataclasses.replace(PAPER_COSTS, t_cold_us=PAPER_COSTS.t_cold_us * 2),
                PAPER_COMPOSITION, cfg.platform.hierarchy)
            _MODEL_CACHE[akey] = wrong
            _, summaries, _ = _run_chunk(akey, (_worker_task(cfg),))
            assert summaries == (run_simulation(cfg),)
        finally:
            reset_warm_state()

    def test_model_cache_is_bounded(self):
        reset_warm_state()
        try:
            cfg = _tiny()
            for i in range(warm_mod._MODEL_CACHE_MAX + 3):
                warm_mod._model_for(f"key-{i}", cfg)
            assert len(_MODEL_CACHE) == warm_mod._MODEL_CACHE_MAX
            assert "key-0" not in _MODEL_CACHE  # FIFO eviction
        finally:
            reset_warm_state()

    def test_reset_clears_everything_in_ledger(self):
        warm_mod._model_for("k", _tiny())
        reset_warm_state()
        assert _MODEL_CACHE == {}


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
        with pytest.raises(ValueError):
            WarmOptions(chunk_tasks=0)
        with pytest.raises(ValueError):
            WarmOptions(route="spray")
        with pytest.raises(ValueError):
            WarmOptions(target_chunk_s=0.0)
        with pytest.raises(ValueError):
            WarmOptions(max_chunk_tasks=0)

    def test_jobs_label_names_backend(self):
        assert "backend=warm" in SweepRunner(jobs=2, backend="warm").jobs_label()
        assert "backend" not in SweepRunner(jobs=0).jobs_label()


class TestModelInjection:
    def test_matching_model_accepted(self):
        cfg = _tiny(seed=2)
        model = ExecutionTimeModel(cfg.costs, cfg.composition,
                                   cfg.platform.hierarchy)
        assert NetworkProcessingSystem(cfg, model=model).run() == \
            run_simulation(cfg)

    def test_mismatched_model_rejected(self):
        cfg = _tiny()
        wrong = ExecutionTimeModel(
            dataclasses.replace(PAPER_COSTS, dispatch_us=99.0),
            PAPER_COMPOSITION, cfg.platform.hierarchy)
        with pytest.raises(ValueError, match="different exec-model"):
            NetworkProcessingSystem(cfg, model=wrong)


@pytest.mark.slow
class TestWarmEndToEnd:
    def test_warm_matches_serial_and_counts_chunks(self):
        configs = [_tiny(seed=s) for s in range(1, 7)]
        serial = SweepRunner(jobs=0).run_many(configs)
        runner = SweepRunner(jobs=2, backend="warm",
                             warm_options=WarmOptions(chunk_tasks=2))
        try:
            assert runner.run_many(configs) == serial
            assert runner.stats.chunks >= 3
            assert "chunks" in runner.stats.summary_line(runner.jobs_label())
        finally:
            runner.close()

    def test_scatter_routing_cannot_change_results(self):
        configs = [_tiny(seed=s) for s in range(1, 5)]
        serial = SweepRunner(jobs=0).run_many(configs)
        with SweepRunner(jobs=2, backend="warm",
                         warm_options=WarmOptions(route="scatter")) as runner:
            assert runner.run_many(configs) == serial

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
