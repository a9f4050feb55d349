"""Analytic cache model and trace-driven cache simulation substrate.

Implements the cache-modelling machinery of the paper's Section 3 and
Appendix A:

- :mod:`repro.cache.footprint` — Singh-Stone-Thiebaut footprint function
  ``u(R; L)`` with the published MVS workload constants;
- :mod:`repro.cache.flush` — set-occupancy model turning unique intervening
  lines into a displaced fraction ``F``;
- :mod:`repro.cache.hierarchy` — two-level R4400/Challenge hierarchy
  producing the paper's ``F1(x)`` and ``F2(x)``;
- :mod:`repro.cache.simulator` / :mod:`repro.cache.traces` /
  :mod:`repro.cache.validation` — exact trace-driven LRU simulation and the
  fit-and-compare pipeline used to validate the analytic model.
"""

from .flush import flushed_fraction, flushed_fraction_poisson, survival_fraction
from .footprint import MVS_WORKLOAD, FootprintFunction, mvs_footprint
from .fractal import FractalFit, estimate_fractal_dimension, predict_miss_ratio
from .hierarchy import (
    CHALLENGE_L2,
    R4400_L1D,
    R4400_L1I,
    CacheHierarchy,
    CacheLevelConfig,
    sgi_challenge_hierarchy,
)
from .simulator import AccessStats, CacheSimulator, measure_flushed_fraction
from .validation import (
    FlushComparison,
    FootprintSample,
    compare_flush_model,
    fit_footprint_constants,
    measure_footprint_samples,
)

__all__ = [
    "AccessStats",
    "CacheHierarchy",
    "CacheLevelConfig",
    "CacheSimulator",
    "CHALLENGE_L2",
    "FlushComparison",
    "FootprintFunction",
    "FootprintSample",
    "FractalFit",
    "MVS_WORKLOAD",
    "R4400_L1D",
    "R4400_L1I",
    "compare_flush_model",
    "estimate_fractal_dimension",
    "fit_footprint_constants",
    "flushed_fraction",
    "flushed_fraction_poisson",
    "measure_flushed_fraction",
    "measure_footprint_samples",
    "mvs_footprint",
    "predict_miss_ratio",
    "sgi_challenge_hierarchy",
    "survival_fraction",
]
