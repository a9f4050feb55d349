"""Documentation sanity: the shipped docs stay consistent with the code."""

import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def docs():
    return {
        name: (ROOT / name).read_text()
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/MODEL.md")
    }


class TestDocsExist:
    def test_all_present_and_substantial(self, docs):
        for name, text in docs.items():
            assert len(text) > 2_000, f"{name} suspiciously short"


class TestQuotedConstants:
    """The paper's quoted numbers appear in the docs and match the code."""

    def test_t_cold_quoted_everywhere(self, docs):
        from repro.core.params import PAPER_COSTS
        assert PAPER_COSTS.t_cold_us == 284.3
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert "284.3" in docs[name], name

    def test_mvs_constants_in_design(self, docs):
        from repro.cache.footprint import MVS_WORKLOAD
        for token in ("2.19827", "0.033233", "0.827457", "0.13025"):
            assert token in docs["DESIGN.md"]
        assert MVS_WORKLOAD.W == 2.19827

    def test_checksum_rate_documented(self, docs):
        assert "32 B/µs" in docs["DESIGN.md"] or "32 bytes" in docs["DESIGN.md"]

    def test_fddi_payload_documented(self, docs):
        assert "4432" in docs["DESIGN.md"]


class TestExperimentIndexConsistency:
    def test_every_experiment_in_design_and_experiments(self, docs):
        from repro.experiments.base import EXPERIMENT_IDS
        for eid in EXPERIMENT_IDS:
            token = eid.upper()  # E01 .. E14
            assert token in docs["DESIGN.md"], eid
            assert token in docs["EXPERIMENTS.md"], eid

    def test_ablations_and_extensions_documented(self, docs):
        from repro.experiments.base import ABLATION_IDS, EXTENSION_IDS
        for aid in ABLATION_IDS:
            assert aid.upper() in docs["EXPERIMENTS.md"], aid
        for xid in EXTENSION_IDS:
            assert xid.upper() in docs["EXPERIMENTS.md"], xid

    def test_examples_listed_in_readme(self, docs):
        for script in (ROOT / "examples").glob("*.py"):
            assert script.name in docs["README.md"], script.name

    def test_policy_names_in_readme_exist(self, docs):
        from repro.core.policies import IPS_POLICIES, LOCKING_POLICIES
        for name in list(LOCKING_POLICIES) + list(IPS_POLICIES):
            assert name in docs["README.md"], name
