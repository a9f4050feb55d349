"""Independent replications: across-run confidence intervals.

The batch-means CI in :mod:`repro.analysis.stats` works within one long
run.  For results near saturation — where a single run's autocorrelation
time explodes — the standard alternative is **independent replications**:
run the same configuration R times with different seeds and apply a
t-interval across the per-run means.  This module provides that
orchestration plus a two-configuration comparison that exploits common
random numbers (same seed per replication pair) for a paired-t difference
interval, the sharpest way to compare scheduling policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Tuple

import numpy as np

from .stats import _t_critical

# NOTE: repro.sim imports repro.analysis.stats, so sim types are imported
# lazily inside the functions to avoid a package-level cycle.
if TYPE_CHECKING:  # pragma: no cover
    from ..sim.metrics import SimulationSummary
    from ..sim.system import SystemConfig

__all__ = ["ReplicatedResult", "replicate", "paired_comparison"]


@dataclass(frozen=True)
class ReplicatedResult:
    """Across-replication statistics for one configuration."""

    n_replications: int
    per_run_means: Tuple[float, ...]
    mean_delay_us: float
    ci_us: Tuple[float, float]
    all_stable: bool

    @property
    def half_width_us(self) -> float:
        return (self.ci_us[1] - self.ci_us[0]) / 2.0

    @property
    def relative_half_width(self) -> float:
        if self.mean_delay_us == 0 or math.isnan(self.mean_delay_us):
            return math.inf
        return self.half_width_us / abs(self.mean_delay_us)


def _t_interval(values: np.ndarray, confidence: float) -> Tuple[float, float]:
    mean = float(values.mean())
    if len(values) < 2:
        return (mean, mean)
    sem = float(values.std(ddof=1) / math.sqrt(len(values)))
    if sem == 0.0:
        return (mean, mean)
    t = _t_critical(0.5 + confidence / 2.0, len(values) - 1)
    return (mean - t * sem, mean + t * sem)


def replicate(
    config: "SystemConfig",
    n_replications: int = 5,
    confidence: float = 0.95,
    base_seed: int = 1000,
    metric: Callable[["SimulationSummary"], float] = lambda s: s.mean_delay_us,
) -> ReplicatedResult:
    """Run ``n_replications`` seeds of one configuration.

    ``metric`` selects the per-run statistic (default: mean delay).
    Replication seeds are ``base_seed + k`` so two *different*
    configurations replicated with the same ``base_seed`` see pairwise
    common random numbers.
    """
    from ..sim.system import run_simulation

    if n_replications < 1:
        raise ValueError("n_replications must be >= 1")
    means = []
    stable = True
    for k in range(n_replications):
        summary = run_simulation(config.with_(seed=base_seed + k))
        means.append(float(metric(summary)))
        stable = stable and summary.stable
    arr = np.asarray(means)
    return ReplicatedResult(
        n_replications=n_replications,
        per_run_means=tuple(means),
        mean_delay_us=float(arr.mean()),
        ci_us=_t_interval(arr, confidence),
        all_stable=stable,
    )


@dataclass(frozen=True)
class PairedComparison:
    """Paired-t comparison of two configurations under common random
    numbers."""

    mean_difference_us: float
    ci_us: Tuple[float, float]
    significant: bool
    a: ReplicatedResult
    b: ReplicatedResult


def paired_comparison(
    config_a: "SystemConfig",
    config_b: "SystemConfig",
    n_replications: int = 5,
    confidence: float = 0.95,
    base_seed: int = 1000,
    metric: Callable[["SimulationSummary"], float] = lambda s: s.mean_delay_us,
) -> PairedComparison:
    """Paired difference ``mean(A) - mean(B)`` with a t-interval.

    Each replication pair shares a seed, so arrival processes are
    identical and the difference isolates the configuration change
    (common-random-numbers variance reduction).  ``significant`` is true
    when the CI excludes zero.
    """
    a = replicate(config_a, n_replications, confidence, base_seed, metric)
    b = replicate(config_b, n_replications, confidence, base_seed, metric)
    diffs = np.asarray(a.per_run_means) - np.asarray(b.per_run_means)
    lo, hi = _t_interval(diffs, confidence)
    return PairedComparison(
        mean_difference_us=float(diffs.mean()),
        ci_us=(lo, hi),
        significant=(lo > 0.0) or (hi < 0.0),
        a=a,
        b=b,
    )
