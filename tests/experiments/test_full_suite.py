"""End-to-end regeneration of every paper artifact (the `repro all` path).

One integration test runs the full E01-E15 suite in fast mode and asserts
the paper's headline findings on the actual artifact outputs, and that
every config it submits gets the content key of the key's definition.  This is
the slowest test in the suite (~40 s) but guards exactly what the
repository is for.
"""

import math

import pytest

from repro.experiments.base import EXPERIMENT_IDS, all_experiments
from repro.runner import SweepRunner, config_key

from ..runner.test_keys import definition_key, outcome


class RecordingRunner(SweepRunner):
    """The default runner (serial, uncached) that keeps every config the
    experiments submit."""

    def __init__(self):
        super().__init__(jobs=0, cache=None)
        self.configs = []

    def run_many(self, configs, label=""):
        self.configs.extend(configs)
        return super().run_many(configs, label)


@pytest.fixture(scope="module")
def suite():
    runner = RecordingRunner()
    out = {r.experiment_id: r
           for r in all_experiments(fast=True, runner=runner)}
    assert set(out) == set(EXPERIMENT_IDS)
    return out, runner.configs


@pytest.fixture(scope="module")
def results(suite):
    return suite[0]


def test_every_submitted_config_keys_like_the_definition(suite):
    configs = suite[1]
    assert len(configs) > 400
    for config in configs:
        assert outcome(config_key, config) == outcome(definition_key, config)


class TestSuiteRuns:
    def test_every_artifact_produces_rows_and_text(self, results):
        for eid, r in results.items():
            assert r.rows, eid
            assert r.text.strip(), eid

    def test_renderings_are_printable(self, results):
        for r in results.values():
            assert str(r)  # no formatting crashes


class TestHeadlineFindings:
    """The paper's conclusions, asserted on the regenerated artifacts."""

    def test_v0_benefit_in_band(self, results):
        costs = results["e01"].meta["anchored_costs"]
        assert 0.40 <= costs.max_affinity_benefit <= 0.50

    def test_l2_flushes_much_slower(self, results):
        assert results["e03"].meta["l2_over_l1_ratio"] > 50

    def test_mru_beats_baseline_under_locking(self, results):
        for row in results["e06"].rows:
            fcfs, mru = row["fcfs(baseline)"], row["mru"]
            if math.isfinite(fcfs) and math.isfinite(mru) and row["rate_pps"] <= 32_000:
                assert mru < fcfs, row

    def test_wired_streams_wins_at_high_rate(self, results):
        # At the highest rate where wired is stable, it beats (or outlives)
        # MRU.
        last = results["e06"].rows[-1]
        assert last["wired-streams"] < last["mru"]

    def test_ips_saturates_after_locking(self, results):
        rate_rows = [r for r in results["e08"].rows if "rate_pps" in r]
        last = rate_rows[-1]
        assert last["ips-wired"] < last["locking-mru"]

    def test_ips_highest_capacity(self, results):
        caps = results["e09"].meta["capacities"]
        assert caps["ips-wired"] == max(caps.values())

    def test_reduction_curves_have_v0_envelope_at_light_load(self, results):
        first = results["e10"].rows[0]
        assert first["V=0.0"] >= first["V=1.0"]

    def test_ips_reduction_reaches_band(self, results):
        assert results["e11"].meta["v0_peak_percent"] >= 40.0

    def test_ips_flat_intra_stream(self, results):
        rows = results["e12"].rows
        assert rows[-1]["ips_speedup"] < 1.5
        assert rows[-1]["locking_speedup"] > 4.0

    def test_ips_less_robust_to_bursts(self, results):
        burst_rows = [r for r in results["e13"].rows if "mean_burst" in r]
        biggest = burst_rows[-1]
        assert biggest["ips-wired"] > 2 * biggest["locking-mru"]

    def test_data_touching_dilutes(self, results):
        rows = results["e14"].rows
        assert rows[0]["reduction_pct"] > rows[-1]["reduction_pct"]
