"""SweepRunner behaviour: determinism, caching, dedup, default rebinding.

The determinism tests are the repository's contract that parallel
execution is *bit-identical* to serial — they run two real experiments
(e06 and e10, fast mode) under ``jobs=4`` and compare every row against
the serial reference.  They are the slowest tests in the suite after the
full-suite integration test.
"""

import pytest

from repro.experiments.base import run_experiment
from repro.runner import (
    ResultCache,
    SweepRunner,
    get_runner,
    set_runner,
    use_runner,
)
from repro.sim.system import run_simulation

from ..conftest import fast_config


def _tiny(**overrides):
    overrides.setdefault("duration_us", 40_000.0)
    overrides.setdefault("warmup_us", 10_000.0)
    return fast_config(**overrides)


class TestRunMany:
    def test_results_align_with_input_order(self):
        configs = [_tiny(seed=s) for s in (3, 1, 2)]
        runner = SweepRunner(jobs=0)
        expected = [run_simulation(c) for c in configs]
        assert runner.run_many(configs) == expected

    def test_empty_batch(self):
        runner = SweepRunner(jobs=0)
        assert runner.run_many([]) == []
        assert runner.stats.batches == 1
        assert runner.stats.simulations == 0

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=-1)

    def test_within_batch_dedup(self, tmp_path):
        runner = SweepRunner(jobs=0, cache=ResultCache(tmp_path))
        configs = [_tiny(seed=5), _tiny(seed=5), _tiny(seed=6)]
        results = runner.run_many(configs)
        assert results[0] == results[1]
        assert runner.stats.executed == 2
        assert runner.stats.deduplicated == 1

    def test_duplicate_keys_dedup_without_cache(self):
        # Content keys are computed whether or not a cache is attached,
        # so identical configs in one batch simulate once either way.
        runner = SweepRunner(jobs=0, cache=None)
        configs = [_tiny(seed=7), _tiny(seed=7), _tiny(seed=7)]
        results = runner.run_many(configs)
        assert results[0] == results[1] == results[2]
        assert runner.stats.executed == 1
        assert runner.stats.deduplicated == 2

    def test_jobs_one_matches_serial_bitwise(self):
        configs = [_tiny(seed=s) for s in (1, 2, 3)]
        serial = SweepRunner(jobs=0).run_many(configs)
        assert SweepRunner(jobs=1).run_many(configs) == serial

    def test_uncacheable_configs_still_run(self, tmp_path):
        from repro.core.policies import make_locking_policy

        runner = SweepRunner(jobs=0, cache=ResultCache(tmp_path))
        cfg = _tiny(policy=make_locking_policy("mru"))
        results = runner.run_many([cfg, cfg])
        assert results[0] == results[1] == run_simulation(cfg)
        # Policy instances cannot be keyed, so nothing lands in the cache.
        assert len(runner.cache) == 0
        assert runner.stats.executed == 2


class TestCacheBehaviour:
    def test_second_run_is_all_hits(self, tmp_path):
        configs = [_tiny(seed=s) for s in (1, 2, 3)]
        first = SweepRunner(jobs=0, cache=ResultCache(tmp_path))
        cold = first.run_many(configs)
        assert first.stats.executed == 3

        second = SweepRunner(jobs=0, cache=ResultCache(tmp_path))
        warm = second.run_many(configs)
        assert warm == cold
        assert second.stats.cache_hits == 3
        assert second.stats.executed == 0

    def test_no_cache_bypasses(self, tmp_path):
        configs = [_tiny(seed=1)]
        SweepRunner(jobs=0, cache=ResultCache(tmp_path)).run_many(configs)

        uncached = SweepRunner(jobs=0, cache=None)
        uncached.run_many(configs)
        assert uncached.stats.cache_hits == 0
        assert uncached.stats.executed == 1

    def test_stats_summary_line(self, tmp_path):
        runner = SweepRunner(jobs=0, cache=ResultCache(tmp_path))
        runner.run_many([_tiny(seed=1)])
        runner.run_many([_tiny(seed=1)])
        line = runner.stats.summary_line(runner.jobs_label())
        assert "2 simulations" in line
        assert "1 cache hits" in line
        assert "1 executed" in line
        assert "jobs=0, cache on" in line


class TestDefaultRunner:
    def test_use_runner_restores_previous(self):
        before = get_runner()
        mine = SweepRunner(jobs=0)
        with use_runner(mine):
            assert get_runner() is mine
        assert get_runner() is before

    def test_set_runner_returns_previous(self):
        before = get_runner()
        mine = SweepRunner(jobs=0)
        try:
            assert set_runner(mine) is before
            assert get_runner() is mine
        finally:
            set_runner(before)


@pytest.mark.slow
class TestParallelDeterminism:
    """``jobs=4`` must reproduce serial output exactly (common random
    numbers: every grid point carries its own seed)."""

    @pytest.mark.parametrize("backend", ["warm"])
    @pytest.mark.parametrize("eid", ["e06", "e10"])
    def test_parallel_matches_serial(self, eid, backend):
        serial = run_experiment(eid, fast=True)
        runner = SweepRunner(jobs=4, backend=backend)
        with use_runner(runner):
            parallel = run_experiment(eid, fast=True)
        runner.close()
        assert parallel.rows == serial.rows
        assert parallel.text == serial.text

    def test_parallel_cache_round_trip(self, tmp_path):
        """A cached parallel run replays bit-identically from disk."""
        with use_runner(SweepRunner(jobs=4, cache=ResultCache(tmp_path))) as r:
            first = run_experiment("e06", fast=True)
            executed = r.stats.executed
            assert executed > 0
        with use_runner(SweepRunner(jobs=0, cache=ResultCache(tmp_path))) as r:
            replay = run_experiment("e06", fast=True)
            assert r.stats.executed == 0
            assert r.stats.cache_hits == r.stats.simulations
        assert replay.rows == first.rows
