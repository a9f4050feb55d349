"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.cache.hierarchy import sgi_challenge_hierarchy
from repro.core.exec_model import ExecutionTimeModel
from repro.core.params import PAPER_COMPOSITION, PAPER_COSTS
from repro.sim.system import SystemConfig
from repro.workloads.traffic import TrafficSpec

# CI runs property suites with a fixed, reproducible profile: derandomized
# (the example sequence is a function of the test, not of a timestamp) and
# without per-example deadlines (shared runners have noisy clocks).
# Select with HYPOTHESIS_PROFILE=ci; the default profile is untouched.
hypothesis_settings.register_profile("ci", deadline=None, derandomize=True)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def hierarchy():
    return sgi_challenge_hierarchy()


@pytest.fixture
def model(hierarchy) -> ExecutionTimeModel:
    return ExecutionTimeModel(PAPER_COSTS, PAPER_COMPOSITION, hierarchy)


def fast_config(**overrides) -> SystemConfig:
    """A small, quick simulation config for integration tests."""
    defaults = dict(
        traffic=TrafficSpec.homogeneous_poisson(4, 8_000.0),
        paradigm="locking",
        policy="mru",
        duration_us=120_000.0,
        warmup_us=20_000.0,
        seed=7,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


@pytest.fixture
def quick_config() -> SystemConfig:
    return fast_config()
