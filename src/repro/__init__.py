"""repro — reproduction of Salehi, Kurose & Towsley (HPDC-4, 1995):
"The Performance Impact of Scheduling for Cache Affinity in Parallel
Network Processing".

Public API highlights
---------------------
- :class:`repro.SystemConfig` / :class:`repro.NetworkProcessingSystem` —
  configure and run one multiprocessor protocol-processing simulation.
- :class:`repro.TrafficSpec` — describe multi-stream traffic.
- :class:`repro.ExecutionTimeModel` — the analytic packet execution-time
  model (reload-transient interpolation over the cache hierarchy).
- :mod:`repro.cache` — footprint function, flush model, trace-driven cache
  simulator.
- :mod:`repro.experiments` — one module per paper table/figure.
- :class:`repro.SweepRunner` / :class:`repro.ResultCache` — parallel sweep
  execution with a persistent content-addressed result cache
  (:mod:`repro.runner`).
- :mod:`repro.verify` — golden-result regression, online runtime
  invariant checking (:class:`repro.InvariantChecker`, enabled with
  ``SystemConfig(check_invariants=True)``), and statistical equivalence
  of result sets across seeds.
"""

from .cache import (
    MVS_WORKLOAD,
    CacheHierarchy,
    CacheLevelConfig,
    CacheSimulator,
    FootprintFunction,
    flushed_fraction,
    sgi_challenge_hierarchy,
)
from .core import (
    COLD,
    PAPER_COMPOSITION,
    PAPER_COSTS,
    PAPER_PLATFORM,
    ComponentState,
    ExecutionTimeModel,
    FootprintComposition,
    PlatformConfig,
    ProtocolCosts,
    make_ips_policy,
    make_locking_policy,
)
from .runner import (
    ResultCache,
    SweepRunner,
    config_key,
    get_runner,
    use_runner,
)
from .sim import (
    NetworkProcessingSystem,
    SimulationSummary,
    Simulator,
    SystemConfig,
    run_simulation,
)
from .verify import InvariantChecker, InvariantViolation
from .workloads import (
    BatchPoissonSpec,
    DeterministicSpec,
    OnOffSpec,
    PacketTrainSpec,
    PoissonSpec,
    TrafficSpec,
)

__version__ = "1.0.0"

__all__ = [
    "BatchPoissonSpec",
    "COLD",
    "CacheHierarchy",
    "CacheLevelConfig",
    "CacheSimulator",
    "ComponentState",
    "DeterministicSpec",
    "ExecutionTimeModel",
    "FootprintComposition",
    "FootprintFunction",
    "InvariantChecker",
    "InvariantViolation",
    "MVS_WORKLOAD",
    "NetworkProcessingSystem",
    "OnOffSpec",
    "PAPER_COMPOSITION",
    "PAPER_COSTS",
    "PAPER_PLATFORM",
    "PacketTrainSpec",
    "PlatformConfig",
    "PoissonSpec",
    "ProtocolCosts",
    "ResultCache",
    "SimulationSummary",
    "Simulator",
    "SweepRunner",
    "SystemConfig",
    "TrafficSpec",
    "__version__",
    "config_key",
    "flushed_fraction",
    "get_runner",
    "make_ips_policy",
    "make_locking_policy",
    "run_simulation",
    "sgi_challenge_hierarchy",
    "use_runner",
]
