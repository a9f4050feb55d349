"""Mutation-style coverage for the cross-engine parity rules.

Each test copies the real package, seeds exactly the defect class the rule
exists to catch (a fused read deleted, an untraceable RNG draw, a summary
key nobody pins), and asserts the rule fires naming the defect — plus a
true-negative per rule showing declarations and suppressions both silence
it cleanly.
"""

import pathlib
import shutil

import pytest

from repro.lint import lint_paths

REPO = pathlib.Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"


@pytest.fixture()
def pkg(tmp_path):
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE, copy)
    return copy


def run_lint(pkg):
    return lint_paths([pkg], package_root=pkg, repo_root=REPO)


def edit(path, old, new, count=None):
    source = path.read_text()
    found = source.count(old)
    assert found, f"mutation anchor {old!r} not found in {path.name}"
    if count is not None:
        assert found == count
    path.write_text(source.replace(old, new))


# ----------------------------------------------------------------------
# RPR008 — config-read parity
# ----------------------------------------------------------------------
class TestConfigReadParity:
    def test_deleted_fused_read_fires(self, pkg):
        # The fused engine stops reading fixed_overhead_us: the scalar
        # dispatcher still charges it, so the engines would drift.
        edit(pkg / "sim" / "batch.py", "cfg.fixed_overhead_us", "0.0")
        rpr008 = [f for f in run_lint(pkg) if f.code == "RPR008"]
        assert len(rpr008) == 1
        assert "SystemConfig.fixed_overhead_us" in rpr008[0].message
        assert "dispatch.py" in rpr008[0].path

    def test_declared_irrelevant_field_is_clean(self, pkg):
        edit(pkg / "sim" / "batch.py", "cfg.fixed_overhead_us", "0.0")
        edit(pkg / "sim" / "batch.py",
             "_BATCH_IRRELEVANT_FIELDS: Dict[str, str] = {}",
             '_BATCH_IRRELEVANT_FIELDS: Dict[str, str] = {\n'
             '    "SystemConfig.fixed_overhead_us": "charged at fold-back",\n'
             '}')
        assert [f for f in run_lint(pkg) if f.code == "RPR008"] == []

    def test_suppression_silences_the_anchor(self, pkg):
        edit(pkg / "sim" / "batch.py", "cfg.fixed_overhead_us", "0.0")
        edit(pkg / "sim" / "dispatch.py",
             "self._extra_us = system.fixed_overhead_us",
             "self._extra_us = system.fixed_overhead_us"
             "  # repro-lint: ignore[RPR008] test fixture", count=1)
        assert [f for f in run_lint(pkg) if f.code == "RPR008"] == []

    def test_stale_declaration_fires(self, pkg):
        # Declaring a field the batched engine *does* read is a lie the
        # rule must reject, not a no-op.
        edit(pkg / "sim" / "batch.py",
             "_BATCH_IRRELEVANT_FIELDS: Dict[str, str] = {}",
             '_BATCH_IRRELEVANT_FIELDS: Dict[str, str] = {\n'
             '    "SystemConfig.duration_us": "never needed",\n'
             '}')
        rpr008 = [f for f in run_lint(pkg) if f.code == "RPR008"]
        assert len(rpr008) == 1
        assert "stale" in rpr008[0].message
        assert "SystemConfig.duration_us" in rpr008[0].message

    def test_missing_declaration_dict_fires(self, pkg):
        edit(pkg / "sim" / "batch.py",
             "_BATCH_IRRELEVANT_FIELDS: Dict[str, str] = {}", "", count=1)
        rpr008 = [f for f in run_lint(pkg) if f.code == "RPR008"]
        assert any("must declare _BATCH_IRRELEVANT_FIELDS" in f.message
                   for f in rpr008)


# ----------------------------------------------------------------------
# RPR009 — RNG provenance + policy fallback coverage
# ----------------------------------------------------------------------
class TestRngProvenance:
    def test_untraceable_draw_fires(self, pkg):
        # A draw whose receiver never traces to RandomStreams: classic
        # "private warm-up generator" drift hazard.
        edit(pkg / "sim" / "dispatch.py",
             "    def random_choice",
             "    def warm_choice(self, items):\n"
             "        return items[int(self._warm_rng.integers(0, 2))]\n"
             "\n"
             "    def random_choice", count=1)
        rpr009 = [f for f in run_lint(pkg) if f.code == "RPR009"]
        assert len(rpr009) == 1
        assert ".integers()" in rpr009[0].message
        assert "dispatch.py" in rpr009[0].path

    def test_suppressed_draw_is_clean(self, pkg):
        edit(pkg / "sim" / "dispatch.py",
             "    def random_choice",
             "    def warm_choice(self, items):\n"
             "        return items[int(self._warm_rng.integers(0, 2))]"
             "  # repro-lint: ignore[RPR009] test fixture\n"
             "\n"
             "    def random_choice", count=1)
        assert [f for f in run_lint(pkg) if f.code == "RPR009"] == []

    @staticmethod
    def add_rng_policy(pkg):
        """Register a synthetic RNG-consuming policy that no fused loop
        runs (every real registered policy is fused)."""
        edit(pkg / "core" / "policies.py",
             "# Registries\n",
             "# Registries\n"
             "class CoinPolicy(_GlobalQueuePolicy):\n"
             "    name = \"coin\"\n"
             "\n"
             "    def _select_processor(self, packet, idle):\n"
             "        return self.view.random_choice(idle)\n"
             "\n"
             "\n", count=1)
        edit(pkg / "core" / "policies.py",
             '    "grouped": GroupedAffinityPolicy,\n',
             '    "grouped": GroupedAffinityPolicy,\n    "coin": CoinPolicy,\n',
             count=1)

    def test_undeclared_fallback_policy_fires(self, pkg):
        # An RNG-consuming registered policy with neither a fused path
        # nor a fallback declaration.
        self.add_rng_policy(pkg)
        rpr009 = [f for f in run_lint(pkg) if f.code == "RPR009"]
        assert len(rpr009) == 1
        assert "CoinPolicy" in rpr009[0].message
        assert "policies.py" in rpr009[0].path

    def test_contradictory_fallback_declaration_fires(self, pkg):
        # Declaring a policy that IS fused is a stale ledger entry; the
        # genuine fallback declared beside it stays clean.
        self.add_rng_policy(pkg)
        edit(pkg / "sim" / "batch.py",
             "_SCALAR_FALLBACK_POLICIES: Dict[str, str] = {}",
             "_SCALAR_FALLBACK_POLICIES: Dict[str, str] = {\n"
             '    "CoinPolicy": "test fixture",\n'
             '    "MRUPolicy": "pretend",\n'
             "}", count=1)
        rpr009 = [f for f in run_lint(pkg) if f.code == "RPR009"]
        assert len(rpr009) == 1
        assert "contradictory" in rpr009[0].message
        assert "MRUPolicy" in rpr009[0].message


# ----------------------------------------------------------------------
# RPR010 — metrics schema parity
# ----------------------------------------------------------------------
class TestMetricsSchemaParity:
    def test_unpinned_summary_key_fires(self, pkg):
        edit(pkg / "sim" / "metrics.py",
             '"n_packets": self.n_packets,',
             '"n_packets": self.n_packets,\n'
             '            "p50_delay_us": 0.0,', count=1)
        rpr010 = [f for f in run_lint(pkg) if f.code == "RPR010"]
        assert len(rpr010) == 1
        assert "p50_delay_us" in rpr010[0].message

    def test_declared_uncovered_key_is_clean(self, pkg):
        edit(pkg / "sim" / "metrics.py",
             '"n_packets": self.n_packets,',
             '"n_packets": self.n_packets,\n'
             '            "p50_delay_us": 0.0,', count=1)
        edit(pkg / "sim" / "metrics.py",
             '_GOLDEN_UNCOVERED_KEYS = {',
             '_GOLDEN_UNCOVERED_KEYS = {\n'
             '    "p50_delay_us": "median too seed-sensitive to pin",',
             count=1)
        assert [f for f in run_lint(pkg) if f.code == "RPR010"] == []

    def test_suppressed_key_is_clean(self, pkg):
        edit(pkg / "sim" / "metrics.py",
             '"n_packets": self.n_packets,',
             '"n_packets": self.n_packets,\n'
             '            "p50_delay_us": 0.0,', count=1)
        edit(pkg / "sim" / "metrics.py",
             "    def row(self)",
             "    # repro-lint: ignore[RPR010] test fixture\n"
             "    def row(self)", count=1)
        assert [f for f in run_lint(pkg) if f.code == "RPR010"] == []

    def test_dropped_column_extend_fires(self, pkg):
        # The batched fold-back forgets one column: scalar and batched
        # summaries would silently diverge on exec-time stats.
        edit(pkg / "sim" / "metrics.py",
             "        self._col_exec.extend(execs_us)\n", "", count=1)
        rpr010 = [f for f in run_lint(pkg) if f.code == "RPR010"]
        assert any("extend different columns" in f.message for f in rpr010)
        assert any("_col_exec" in f.message for f in rpr010)

    def test_dropped_counter_fold_fires(self, pkg):
        edit(pkg / "sim" / "metrics.py",
             "        self.completions += n_completions\n", "", count=1)
        rpr010 = [f for f in run_lint(pkg) if f.code == "RPR010"]
        assert any("mutate different counters" in f.message for f in rpr010)

    def test_stale_golden_declaration_fires(self, pkg):
        edit(pkg / "sim" / "metrics.py",
             '_GOLDEN_UNCOVERED_KEYS = {',
             '_GOLDEN_UNCOVERED_KEYS = {\n'
             '    "no_such_key": "never produced",', count=1)
        rpr010 = [f for f in run_lint(pkg) if f.code == "RPR010"]
        assert len(rpr010) == 1
        assert "stale" in rpr010[0].message and "no_such_key" in rpr010[0].message


# ----------------------------------------------------------------------
# RPR012 — warm-state ledger
# ----------------------------------------------------------------------
class TestWarmStateLedger:
    WARM = pathlib.Path("runner") / "backends" / "warm.py"

    def add_cache(self, pkg, register=None, reset=False):
        """Seed a new module-level cache in warm.py, optionally with a
        ledger entry (``register`` = reason string) and a reset hook."""
        warm = pkg / self.WARM
        anchor = '__all__ = ["WarmBackend", "reset_warm_state"]'
        edit(warm, anchor, anchor + "\n_EXTRA_CACHE: Dict[str, int] = {}",
             count=1)
        if register is not None:
            edit(warm, "_WARM_LEDGER: Dict[str, str] = {}",
                 "_WARM_LEDGER: Dict[str, str] = {\n"
                 f"    \"_EXTRA_CACHE\": {register!r},\n}}", count=1)
        if reset:
            edit(warm, '(today: none).\n    """\n',
                 '(today: none).\n    """\n    _EXTRA_CACHE.clear()\n',
                 count=1)

    def test_unregistered_cache_fires(self, pkg):
        self.add_cache(pkg)
        rpr012 = [f for f in run_lint(pkg) if f.code == "RPR012"]
        assert len(rpr012) == 1
        assert "_EXTRA_CACHE" in rpr012[0].message
        assert "not registered in _WARM_LEDGER" in rpr012[0].message
        assert "warm.py" in rpr012[0].path

    def test_registered_and_reset_cache_is_clean(self, pkg):
        self.add_cache(pkg, register="pure memo of a pure function",
                       reset=True)
        assert [f for f in run_lint(pkg) if f.code == "RPR012"] == []

    def test_registered_but_never_reset_fires(self, pkg):
        self.add_cache(pkg, register="pure memo of a pure function",
                       reset=False)
        rpr012 = [f for f in run_lint(pkg) if f.code == "RPR012"]
        assert len(rpr012) == 1
        assert "never referenced inside reset_warm_state()" in rpr012[0].message

    def test_empty_reason_fires(self, pkg):
        self.add_cache(pkg, register="", reset=True)
        rpr012 = [f for f in run_lint(pkg) if f.code == "RPR012"]
        assert len(rpr012) == 1
        assert "non-empty reason" in rpr012[0].message

    def test_stale_ledger_entry_fires(self, pkg):
        edit(pkg / self.WARM, "_WARM_LEDGER: Dict[str, str] = {}",
             '_WARM_LEDGER: Dict[str, str] = {"_GHOST_CACHE": "long gone"}',
             count=1)
        rpr012 = [f for f in run_lint(pkg) if f.code == "RPR012"]
        assert len(rpr012) == 1
        assert "stale _WARM_LEDGER entry '_GHOST_CACHE'" in rpr012[0].message

    def test_real_package_is_clean(self):
        from repro.lint.project import check_warm_state_ledger
        assert check_warm_state_ledger(
            PACKAGE / "runner" / "backends") == []
