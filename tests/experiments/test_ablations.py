"""Tests for the ablation studies (A01-A04)."""

from repro.experiments.base import ABLATION_IDS, run_experiment


class TestRegistry:
    def test_ablation_ids_run(self):
        # Cheap structural check: every id resolves and dispatches.
        from repro.experiments.base import load_experiment
        for aid in ABLATION_IDS:
            mod = load_experiment(aid)
            assert hasattr(mod, f"run_{aid}")


class TestA01LockCosts:
    def test_ips_margin_grows_with_lock_cost(self):
        r = run_experiment("a01")
        margins = r.meta["margins"]
        assert margins == sorted(margins)
        assert margins[-1] > margins[0]


class TestA02SharedWritable:
    def test_locking_penalty_scales_ips_immune(self):
        r = run_experiment("a02")
        locking = r.meta["locking_execs"]
        ips = r.meta["ips_execs"]
        assert locking == sorted(locking)
        assert locking[-1] > locking[0] + 5.0
        assert max(ips) - min(ips) < 1.0  # structurally unaffected


class TestA03Composition:
    def test_stream_weight_strengthens_wired(self):
        r = run_experiment("a03")
        advantages = r.meta["advantages"]
        assert advantages == sorted(advantages)
        assert advantages[-1] > advantages[0]


class TestA04Geometry:
    def test_bigger_l2_flushes_slower(self):
        r = run_experiment("a04")
        by_geo = {row["geometry"]: row for row in r.rows}
        assert (by_geo["4M L2"]["l2_half_flush_us"]
                > by_geo["paper (16K split L1, 1M L2)"]["l2_half_flush_us"]
                > by_geo["256K L2"]["l2_half_flush_us"])

    def test_unified_l1_flushes_faster(self):
        r = run_experiment("a04")
        by_geo = {row["geometry"]: row for row in r.rows}
        assert (by_geo["unified L1"]["l1_half_flush_us"]
                < by_geo["paper (16K split L1, 1M L2)"]["l1_half_flush_us"])


class TestA05LockGranularity:
    def test_lock_waits_shrink_with_granularity(self):
        r = run_experiment("a05")
        waits = r.meta["lock_waits"]
        assert waits == sorted(waits, reverse=True)
        assert waits[0] > waits[-1]
