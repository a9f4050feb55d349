"""Project-level rules: RPR004 cache-key hygiene, RPR005 registry/golden
conformance — including the regression the rule exists for: adding a
``SystemConfig`` field without touching ``runner/keys.py`` must fail with
RPR004 naming the field.
"""

import json
import pathlib
import shutil

from repro.lint import check_cache_key_conformance, check_registry_conformance
from repro.lint.project import system_config_fields

REPO = pathlib.Path(__file__).resolve().parents[2]
SYSTEM_PY = REPO / "src" / "repro" / "sim" / "system.py"
KEYS_PY = REPO / "src" / "repro" / "runner" / "keys.py"
EXPERIMENTS_DIR = REPO / "src" / "repro" / "experiments"
BASE_PY = EXPERIMENTS_DIR / "base.py"
MANIFEST = REPO / "tests" / "goldens" / "MANIFEST.json"


# ----------------------------------------------------------------------
# RPR004
# ----------------------------------------------------------------------
class TestRPR004:
    def test_repo_is_conformant(self):
        assert check_cache_key_conformance(SYSTEM_PY, KEYS_PY) == []

    def test_parses_real_system_config(self):
        fields = system_config_fields(SYSTEM_PY)
        assert "traffic" in fields and "seed" in fields
        assert "trace" in fields and "check_invariants" in fields

    def test_new_field_without_keys_py_update_fires(self, tmp_path):
        """The satellite regression: mutate SystemConfig, leave keys.py
        alone, and RPR004 must fail naming the new field."""
        mutated = tmp_path / "system.py"
        source = SYSTEM_PY.read_text()
        anchor = "    seed: int = 1\n"
        assert anchor in source
        mutated.write_text(source.replace(
            anchor, anchor + "    brand_new_knob: int = 0\n"))
        findings = check_cache_key_conformance(mutated, KEYS_PY)
        assert len(findings) == 1
        f = findings[0]
        assert f.code == "RPR004"
        assert "brand_new_knob" in f.message
        # Anchored to the field's own line in the mutated file.
        assert f.path == str(mutated)
        assert "brand_new_knob" in mutated.read_text().splitlines()[f.line - 1]

    def test_full_engine_reports_the_new_field(self, tmp_path):
        """End-to-end through the lint engine: mutate a copy of the whole
        package and the only new finding is RPR004 naming the field."""
        from repro.lint import lint_paths

        pkg = tmp_path / "repro"
        shutil.copytree(REPO / "src" / "repro", pkg)
        system = pkg / "sim" / "system.py"
        anchor = "    seed: int = 1\n"
        system.write_text(system.read_text().replace(
            anchor, anchor + "    brand_new_knob: int = 0\n"))

        # Point the engine at the copied package explicitly.
        findings = lint_paths([pkg], package_root=pkg, repo_root=REPO)
        rpr004 = [f for f in findings if f.code == "RPR004"]
        assert len(rpr004) == 1
        assert "brand_new_knob" in rpr004[0].message

    def test_stale_entry_fires(self, tmp_path):
        mutated = tmp_path / "keys.py"
        source = KEYS_PY.read_text()
        mutated.write_text(source.replace('"seed",', '"seed",\n    "ghost_field",'))
        findings = check_cache_key_conformance(SYSTEM_PY, mutated)
        assert any(f.code == "RPR004" and "ghost_field" in f.message
                   and "stale" in f.message for f in findings)

    def test_field_in_both_lists_fires(self, tmp_path):
        mutated = tmp_path / "keys.py"
        source = KEYS_PY.read_text()
        mutated.write_text(source.replace('"seed",', '"seed",\n    "trace",'))
        findings = check_cache_key_conformance(SYSTEM_PY, mutated)
        assert any(f.code == "RPR004" and "'trace'" in f.message
                   and "exactly one" in f.message for f in findings)

    def test_missing_acknowledgement_set_fires(self, tmp_path):
        mutated = tmp_path / "keys.py"
        mutated.write_text("_OBSERVABILITY_FIELDS = {}\n")
        findings = check_cache_key_conformance(SYSTEM_PY, mutated)
        assert any(f.code == "RPR004" and "_CONTENT_KEY_FIELDS" in f.message
                   for f in findings)


# ----------------------------------------------------------------------
# RPR005
# ----------------------------------------------------------------------
class TestRPR005:
    def test_repo_is_conformant(self):
        assert check_registry_conformance(EXPERIMENTS_DIR, BASE_PY, MANIFEST) == []

    def test_unregistered_module_fires(self, tmp_path):
        exp = tmp_path / "experiments"
        shutil.copytree(EXPERIMENTS_DIR, exp)
        (exp / "e16_rogue.py").write_text(
            'EXPERIMENT_ID = "e16"\nTITLE = "rogue"\n')
        findings = check_registry_conformance(exp, exp / "base.py", MANIFEST)
        assert any(f.code == "RPR005" and "e16_rogue" in f.message
                   and "not registered" in f.message for f in findings)
        # ...and it has no golden either.
        assert any(f.code == "RPR005" and "golden" in f.message
                   and "'e16'" in f.message for f in findings)

    def test_registry_entry_without_module_fires(self, tmp_path):
        exp = tmp_path / "experiments"
        shutil.copytree(EXPERIMENTS_DIR, exp)
        (exp / "e14_data_touching.py").unlink()
        findings = check_registry_conformance(exp, exp / "base.py", MANIFEST)
        assert any(f.code == "RPR005" and "'e14'" in f.message
                   and "no module file" in f.message for f in findings)

    def test_missing_golden_fires(self, tmp_path):
        manifest = json.loads(MANIFEST.read_text())
        del manifest["goldens"]["e07"]
        mutated = tmp_path / "MANIFEST.json"
        mutated.write_text(json.dumps(manifest))
        findings = check_registry_conformance(EXPERIMENTS_DIR, BASE_PY, mutated)
        assert any(f.code == "RPR005" and "'e07'" in f.message
                   and "golden" in f.message for f in findings)

    def test_orphan_golden_fires(self, tmp_path):
        manifest = json.loads(MANIFEST.read_text())
        manifest["goldens"]["e99"] = "0" * 64
        mutated = tmp_path / "MANIFEST.json"
        mutated.write_text(json.dumps(manifest))
        findings = check_registry_conformance(EXPERIMENTS_DIR, BASE_PY, mutated)
        assert any(f.code == "RPR005" and "'e99'" in f.message for f in findings)

    def test_malformed_manifest_fires(self, tmp_path):
        mutated = tmp_path / "MANIFEST.json"
        mutated.write_text("{not json")
        findings = check_registry_conformance(EXPERIMENTS_DIR, BASE_PY, mutated)
        assert any(f.code == "RPR005" and "manifest" in f.message
                   for f in findings)
