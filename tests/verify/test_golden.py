"""Golden-result regression: record/check round-trips and drift detection.

Uses e01 (the protocol cost table — cheap to regenerate) against a tmp
directory; the checked-in goldens under ``tests/goldens/`` are exercised
end-to-end by the CI ``verify`` job (``repro verify check``).
"""

from __future__ import annotations

import json

import pytest

from repro.verify import golden


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One e01 golden recorded into a module-scoped tmp directory."""
    directory = tmp_path_factory.mktemp("goldens")
    written = golden.record(ids=["e01"], directory=directory)
    return directory, written


def test_record_writes_golden_and_manifest(recorded):
    directory, written = recorded
    assert golden.golden_path(directory, "e01").exists()
    assert (directory / "MANIFEST.json").exists()
    assert len(written) == 2
    entry = json.loads(golden.golden_path(directory, "e01").read_text())
    assert entry["experiment_id"] == "e01"
    assert entry["seed"] == 1 and entry["fast"] is True
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    assert manifest["goldens"]["e01"] == entry["sha256"]


def test_record_is_deterministic(recorded, tmp_path):
    directory, _ = recorded
    golden.record(ids=["e01"], directory=tmp_path)
    assert (golden.golden_path(tmp_path, "e01").read_bytes()
            == golden.golden_path(directory, "e01").read_bytes())


def test_check_passes_fresh_goldens(recorded):
    directory, _ = recorded
    report = golden.check(directory=directory)
    assert report.ok
    assert report.failed_ids == []
    assert "1/1 experiments ok" in report.format()


def test_check_detects_value_drift(recorded, tmp_path):
    """A perturbed numeric field fails with a readable report naming the
    experiment — the same failure mode as a changed timing constant."""
    directory, _ = recorded
    path = golden.golden_path(directory, "e01")
    entry = json.loads(path.read_text())

    def perturb(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if isinstance(v, float) and v > 0:
                    node[k] = v * 1.05  # 5% drift: well past rtol=1e-3
                    return True
                if perturb(v):
                    return True
        if isinstance(node, list):
            return any(perturb(v) for v in node)
        return False

    assert perturb(entry["rows"])
    payload = {k: entry[k] for k in
               ("experiment_id", "seed", "fast", "rows", "meta", "meta_skipped")}
    entry["sha256"] = golden._payload_digest(payload)  # keep integrity valid
    drifted = tmp_path / "e01.json"
    drifted.write_text(json.dumps(entry))

    report = golden.check(ids=["e01"], directory=tmp_path)
    assert not report.ok
    assert report.failed_ids == ["e01"]
    text = report.format()
    assert "FAIL e01 [mismatch]" in text
    assert "relative error" in text
    assert "affected experiments: e01" in text


def test_check_detects_tampered_golden(recorded, tmp_path):
    directory, _ = recorded
    original = golden.golden_path(directory, "e01").read_text()
    tampered = tmp_path / "e01.json"
    tampered.write_text(original.replace(":", ";", 1))  # invalid JSON
    report = golden.check(ids=["e01"], directory=tmp_path)
    assert report.failed_ids == ["e01"]
    assert report.checks[0].status == "corrupt"

    # valid JSON whose content no longer matches its digest
    entry = json.loads(original)
    entry["seed"] = 999
    tampered.write_text(json.dumps(entry))
    report = golden.check(ids=["e01"], directory=tmp_path)
    assert report.checks[0].status == "corrupt"
    assert "digest mismatch" in report.checks[0].note


def test_check_reports_missing_golden(recorded):
    directory, _ = recorded
    report = golden.check(ids=["e01", "e02"], directory=directory)
    assert report.failed_ids == ["e02"]
    assert report.checks[1].status == "missing"


def test_check_empty_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="no goldens"):
        golden.check(directory=tmp_path)


def test_compare_semantics():
    out = []
    golden._compare("x", {"a": 1, "b": 1.0, "c": True, "s": "p"},
                    {"a": 1, "b": 1.0 + 1e-12, "c": True, "s": "p"},
                    rtol=1e-3, atol=1e-9, out=out)
    assert out == []  # bit-level / sub-tolerance diffs pass

    out = []
    golden._compare("x", {"n": 100.0}, {"n": 102.0}, 1e-3, 1e-9, out)
    assert len(out) == 1 and "relative error" in out[0].detail

    out = []
    golden._compare("x", {"i": 3}, {"i": 4}, 1e-3, 1e-9, out)
    assert len(out) == 1 and "integer" in out[0].detail

    out = []
    golden._compare("x", {"f": True}, {"f": False}, 1e-3, 1e-9, out)
    assert len(out) == 1 and "boolean" in out[0].detail

    out = []
    golden._compare("x", {"v": float("inf")}, {"v": 5.0}, 1e-3, 1e-9, out)
    assert len(out) == 1 and "non-finite" in out[0].detail

    out = []
    golden._compare("x", {"v": float("nan")}, {"v": float("nan")},
                    1e-3, 1e-9, out)
    assert out == []  # NaN marks the same empty-run state on both sides

    out = []
    golden._compare("x", {"a": 1}, {"b": 1}, 1e-3, 1e-9, out)
    details = {m.detail for m in out}
    assert details == {"field disappeared", "new field"}

    out = []
    golden._compare("x", [1, 2], [1, 2, 3], 1e-3, 1e-9, out)
    assert len(out) == 1 and "length" in out[0].detail


def test_checked_in_goldens_are_intact():
    """Integrity-only scan of the committed goldens (no re-simulation):
    every golden parses, matches its digest, and matches the manifest."""
    directory = golden.default_goldens_dir()
    paths = sorted(directory.glob("e*.json"))
    assert len(paths) >= 14, f"expected the e01..e14 goldens in {directory}"
    manifest = json.loads((directory / "MANIFEST.json").read_text())["goldens"]
    for path in paths:
        entry, error = golden._load_golden(path)
        assert entry is not None, f"{path.name}: {error}"
        assert manifest[path.stem] == entry["sha256"]


def test_every_registered_policy_appears_in_a_golden():
    """Coverage gate: each policy in the registries is pinned by at least
    one committed golden (E15's reordering table names the full registry
    in its ``policy`` column), so adding a policy without extending the
    golden suite fails here rather than going unregressed."""
    from repro.core.policies import IPS_POLICIES, LOCKING_POLICIES

    directory = golden.default_goldens_dir()
    covered = set()
    for path in sorted(directory.glob("e*.json")):
        entry, _error = golden._load_golden(path)
        assert entry is not None
        for row in entry["rows"]:
            value = row.get("policy")
            if isinstance(value, str):
                covered.add(value)
    # E11's golden rows are keyed by V, so no row carries the name of
    # its ips-random baseline.
    registered = set(LOCKING_POLICIES) | {
        n for n in IPS_POLICIES if n != "ips-random"
    }
    missing = {
        name for name in registered
        if name not in covered
        and not any(name in label for label in covered)
    }
    assert not missing, f"policies with no golden coverage: {sorted(missing)}"


def test_rtol_zero_check_is_bit_exact(recorded, tmp_path):
    """``rtol=0`` drops the atol floor: a sub-1e-9 float change fails,
    while NaN still equals NaN."""
    directory, _ = recorded
    entry = json.loads(golden.golden_path(directory, "e01").read_text())

    def nudge(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if isinstance(v, float) and v > 0:
                    node[k] = v + v * 2.0 ** -40  # far below atol=1e-9
                    return True
                if nudge(v):
                    return True
        if isinstance(node, list):
            return any(nudge(v) for v in node)
        return False

    assert nudge(entry["rows"])
    payload = {k: entry[k] for k in
               ("experiment_id", "seed", "fast", "rows", "meta", "meta_skipped")}
    entry["sha256"] = golden._payload_digest(payload)
    (tmp_path / "e01.json").write_text(json.dumps(entry))
    assert golden.check(ids=["e01"], directory=tmp_path, rtol=1e-3).ok
    assert not golden.check(ids=["e01"], directory=tmp_path, rtol=0.0).ok
    assert golden.check(ids=["e01"], directory=directory, rtol=0.0).ok

    out = []
    golden._compare("x", [float("nan"), 1.0], [float("nan"), 1.0],
                    rtol=0.0, atol=0.0, out=out)
    assert out == []
