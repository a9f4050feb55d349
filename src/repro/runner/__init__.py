"""Parallel sweep runner, persistent result cache, and fault tolerance.

The experiment suite is embarrassingly parallel — dozens of independent
:func:`~repro.sim.system.run_simulation` calls per artifact — and highly
repetitive across invocations (tests, benchmarks, and ``repro all`` re-run
identical grid points).  This package provides:

- :class:`SweepRunner` — fans a batch of :class:`SystemConfig` runs out
  over one lease coordinator's agent fleet, local or over tcp (``jobs=N``;
  ``jobs=0`` = serial fallback) with deterministic, submission-ordered
  results that are bit-identical to serial execution, and with
  fault-tolerant execution: per-task timeouts, bounded retries with
  deterministic backoff, crashed-worker recovery, and checkpoint/resume
  (``docs/ROBUSTNESS.md``);
- :class:`ResultCache` — a content-addressed on-disk cache of
  :class:`~repro.sim.metrics.SimulationSummary` objects keyed by
  :func:`config_key` (canonical config serialization + simulator code
  version), stored as one append-only checksummed record log with group
  commit and quarantine of damaged records;
- :class:`CheckpointJournal` — the completed-task journal behind
  ``--resume``, a record log in the same format;
- :class:`FaultPlan` / :func:`run_fault_suite` — deterministic fault
  injection and the scenario harness behind ``repro faults``;
- :func:`use_runner` / :func:`get_runner` — the default-runner hook the
  CLI and tests use to rewire every sweep without touching experiment
  signatures.

See ``docs/RUNNER.md`` for the cache key scheme and invalidation rules,
and ``docs/ROBUSTNESS.md`` for the failure taxonomy and resume workflow.
"""

from .backends import (
    BACKEND_NAMES,
    DistributedOptions,
    ExecutionBackend,
    make_backend,
    reset_warm_state,
)
from .backends.distributed import run_worker_agent
from .cache import CacheStats, ResultCache, default_cache_dir
from .checkpoint import CheckpointJournal, journal_status, sweep_id
from .faults import (
    FAULT_KINDS,
    NETWORK_FAULT_KINDS,
    FaultPlan,
    InjectedFault,
    ScenarioResult,
    TaskTimeout,
    run_fault_suite,
)
from .keys import (
    UncacheableConfig,
    canonicalize,
    code_version,
    config_key,
    config_keys,
)
from .runner import (
    FailureReport,
    RunnerStats,
    SweepExecutionError,
    SweepRunner,
    get_runner,
    set_runner,
    use_runner,
)

__all__ = [
    "BACKEND_NAMES",
    "CacheStats",
    "CheckpointJournal",
    "DistributedOptions",
    "ExecutionBackend",
    "FAULT_KINDS",
    "FailureReport",
    "FaultPlan",
    "InjectedFault",
    "NETWORK_FAULT_KINDS",
    "ResultCache",
    "RunnerStats",
    "ScenarioResult",
    "SweepExecutionError",
    "SweepRunner",
    "TaskTimeout",
    "UncacheableConfig",
    "canonicalize",
    "code_version",
    "config_key",
    "config_keys",
    "default_cache_dir",
    "get_runner",
    "journal_status",
    "make_backend",
    "reset_warm_state",
    "run_fault_suite",
    "run_worker_agent",
    "set_runner",
    "sweep_id",
    "use_runner",
]
