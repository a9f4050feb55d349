"""Tests for independent replications and paired comparisons."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sps

import repro.sim.system
from repro.analysis.replications import paired_comparison, replicate
from repro.workloads.traffic import TrafficSpec

from ..conftest import fast_config


def small_config(**overrides):
    return fast_config(
        traffic=TrafficSpec.homogeneous_poisson(4, 8_000.0),
        duration_us=80_000, warmup_us=10_000, **overrides,
    )


class TestReplicate:
    def test_runs_requested_replications(self):
        r = replicate(small_config(), n_replications=3)
        assert r.n_replications == 3
        assert len(r.per_run_means) == 3

    def test_ci_contains_mean(self):
        r = replicate(small_config(), n_replications=4)
        assert r.ci_us[0] <= r.mean_delay_us <= r.ci_us[1]

    def test_different_seeds_give_different_means(self):
        r = replicate(small_config(), n_replications=3)
        assert len(set(r.per_run_means)) == 3

    def test_deterministic_given_base_seed(self):
        a = replicate(small_config(), n_replications=2, base_seed=77)
        b = replicate(small_config(), n_replications=2, base_seed=77)
        assert a.per_run_means == b.per_run_means

    def test_custom_metric(self):
        r = replicate(small_config(), n_replications=2,
                      metric=lambda s: s.mean_exec_us)
        assert all(150.0 < m < 300.0 for m in r.per_run_means)

    def test_relative_half_width(self):
        r = replicate(small_config(), n_replications=4)
        assert 0.0 <= r.relative_half_width < 1.0

    def test_single_replication_zero_width(self):
        r = replicate(small_config(), n_replications=1)
        assert r.half_width_us == 0.0

    def test_stability_flag(self):
        r = replicate(small_config(), n_replications=2)
        assert r.all_stable

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate(small_config(), n_replications=0)


class TestPairedComparison:
    def test_affinity_significantly_better_than_baseline(self):
        cmp = paired_comparison(
            small_config(policy="fcfs"),
            small_config(policy="stream-mru"),
            n_replications=4,
        )
        # fcfs minus affinity: positive difference, CI excludes zero.
        assert cmp.mean_difference_us > 0
        assert cmp.significant

    def test_identical_configs_not_significant(self):
        cmp = paired_comparison(
            small_config(policy="mru"),
            small_config(policy="mru"),
            n_replications=3,
        )
        assert cmp.mean_difference_us == pytest.approx(0.0)
        assert not cmp.significant

    def test_pairing_uses_common_seeds(self):
        cmp = paired_comparison(
            small_config(policy="fcfs"),
            small_config(policy="mru"),
            n_replications=3, base_seed=55,
        )
        again = replicate(small_config(policy="fcfs"), n_replications=3,
                          base_seed=55)
        assert cmp.a.per_run_means == again.per_run_means


def _scipy_t_interval(values, confidence):
    """The replication CI as computed with ``scipy.stats.t`` directly."""
    values = np.asarray(values)
    mean = float(values.mean())
    sem = float(values.std(ddof=1) / math.sqrt(len(values)))
    t = float(sps.t.ppf(0.5 + confidence / 2.0, df=len(values) - 1))
    return (mean - t * sem, mean + t * sem)


class TestFixedInputCI:
    """On fixed per-run means, the CIs equal the scipy formula bit for
    bit, from the pinned table (95%, few replications) and from the
    scipy fallback (90%, or df beyond the table)."""

    @pytest.fixture
    def fixed_runs(self, monkeypatch):
        def fake_run(config):
            # A fixed metric of seed and policy: no simulation runs.
            value = 100.0 + (config.seed * 7919 % 101) / 3.0
            if config.policy == "fcfs":
                value *= 1.25
            return SimpleNamespace(mean_delay_us=value, stable=True)
        monkeypatch.setattr(repro.sim.system, "run_simulation", fake_run)

    @pytest.mark.parametrize("confidence", [0.95, 0.90])
    @pytest.mark.parametrize("n", [2, 5, 39, 45])
    def test_replicate(self, fixed_runs, confidence, n):
        r = replicate(small_config(), n_replications=n, confidence=confidence)
        assert r.ci_us == _scipy_t_interval(r.per_run_means, confidence)

    @pytest.mark.parametrize("confidence", [0.95, 0.90])
    def test_paired_comparison(self, fixed_runs, confidence):
        cmp = paired_comparison(small_config(policy="fcfs"),
                                small_config(policy="mru"), n_replications=6,
                                confidence=confidence, base_seed=3)
        diffs = np.asarray(cmp.a.per_run_means) - np.asarray(cmp.b.per_run_means)
        assert cmp.ci_us == _scipy_t_interval(diffs, confidence)
        assert cmp.ci_us[0] < cmp.ci_us[1]
