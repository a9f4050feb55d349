"""Parallel sweep execution with transparent caching and fault tolerance.

Every paper artifact is a sweep of *independent* ``run_simulation`` calls
(one per rate/policy/knob grid point).  :class:`SweepRunner` fans those
runs out over an :class:`~repro.runner.backends.ExecutionBackend` while
guaranteeing the output is **bit-identical** to serial execution:

- each run carries its own seed inside its :class:`SystemConfig` (the
  common-random-numbers semantics of the sweeps), so results do not depend
  on which worker executes them or in what order;
- results are returned in the exact order the configs were submitted.

``jobs=0`` (or 1) is a strict serial fallback executing in-process;
``jobs=None`` uses one worker per CPU.  With ``jobs>1`` the ``backend``
parameter picks the execution engine: ``"warm"`` (default) leases
chunks from one shared queue to persistent local agents on pipes,
``"distributed"`` runs the same lease coordinator over tcp, and
``"serial"`` forces in-process execution regardless of ``jobs`` (see
:mod:`repro.runner.backends`).
A :class:`ResultCache` makes re-runs of ``repro all``, the tests, and
the benchmarks skip already-computed points; identical configs *within*
one batch are also deduplicated so e.g. a repeated baseline run is
simulated once.

Fault tolerance (``docs/ROBUSTNESS.md``)
----------------------------------------
The runner assumes workers can crash, hang, or raise, and that the whole
process can be interrupted, without throwing away completed work:

- **Timeouts** — ``timeout_s`` bounds each task's wall clock (SIGALRM
  deadline inside the worker, plus a hard parent-side watchdog that
  kills and replaces a wedged agent), so a hung config is *reported*,
  never a deadlock.
- **Retries** — each failed/timed-out task is retried up to ``retries``
  times with deterministic (seedless, jitter-free) exponential backoff.
- **Worker recovery** — a crashed or wedged agent of either fleet is
  respawned and only its lost tasks requeued; a fleet that loses more
  than ``max_pool_failures`` agents in a batch is retired and the rest
  of the batch runs inline, counted in ``fleet_fallbacks``.
- **Checkpoint/resume** — completed tasks are journaled (see
  :mod:`repro.runner.checkpoint`); SIGINT/SIGTERM commit the cache and
  journal and print a resume hint, and ``resume=True`` replays completed
  entries so an interrupted sweep recomputes nothing already done.
- **Group commit** — cache and journal appends are fsynced once per
  ``run_many`` batch (and on the interrupt/failure paths), so a result
  is durable once ``run_many`` has returned it.
- **Failure reporting** — tasks that exhaust their attempts become
  structured :class:`FailureReport` entries inside a
  :class:`SweepExecutionError` (raised after the rest of the sweep
  completes, or immediately with ``fail_fast=True``).
- **Fault injection** — an optional
  :class:`~repro.runner.faults.FaultPlan` deterministically exercises
  every one of those paths against the real runner (CLI ``repro
  faults``); with ``fault_plan=None`` the hooks are inert.

Experiments reach the runner through a module-level default (serial, no
cache — the historical behaviour) that the CLI or tests rebind with
:func:`use_runner`, keeping every experiment's ``run(fast, seed)``
signature unchanged.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..sim.metrics import SimulationSummary
from ..sim.system import SystemConfig
from .backends import (
    BACKEND_NAMES,
    BatchState,
    DistributedOptions,
    ExecutionBackend,
    make_backend,
)
from .backends.base import Task, _execute_task, _WorkerTask
from .cache import ResultCache, encode_body, frame
from .checkpoint import CheckpointJournal, sweep_id
from .faults import FaultPlan
from .keys import config_key, config_keys

__all__ = [
    "FailureReport",
    "RunnerStats",
    "SweepExecutionError",
    "SweepRunner",
    "get_runner",
    "set_runner",
    "use_runner",
]

#: Multiple of ``timeout_s`` behind the parent-side watchdog
#: (:meth:`SweepRunner._hard_timeout_s`).
_HARD_TIMEOUT_FACTOR = 4.0


@dataclass
class RunnerStats:
    """Cumulative accounting of one runner's activity."""

    simulations: int = 0     # runs requested (incl. hits and dedups)
    cache_hits: int = 0      # served from the persistent cache
    resumed: int = 0         # served from a checkpoint journal
    deduplicated: int = 0    # identical to another config in the same batch
    executed: int = 0        # actually simulated to completion
    retries: int = 0         # re-submissions after a failed attempt
    timeouts: int = 0        # attempts that exceeded the task budget
    failures: int = 0        # tasks that exhausted every attempt
    pool_respawns: int = 0   # worker processes replaced after breaking
    batches: int = 0
    chunks: int = 0          # warm/distributed lease grants
    lease_expiries: int = 0  # leases forfeited to an agent's silence
    dup_results: int = 0     # duplicate identical results discarded
    stale_results: int = 0   # results delivered for retired leases
    fleet_fallbacks: int = 0  # batches finished inline, fleet over budget
    elapsed_s: float = 0.0   # wall-clock spent inside run_many

    def snapshot(self) -> "RunnerStats":
        return RunnerStats(**vars(self))

    def since(self, earlier: "RunnerStats") -> "RunnerStats":
        """Delta between this snapshot and an earlier one."""
        return RunnerStats(**{
            k: getattr(self, k) - getattr(earlier, k) for k in vars(self)
        })

    def summary_line(self, jobs_label: str = "") -> str:
        parts = [
            f"{self.simulations} simulations:",
            f"{self.cache_hits} cache hits,",
            f"{self.executed} executed",
        ]
        if self.resumed:
            parts.append(f"+ {self.resumed} resumed")
        if self.deduplicated:
            parts.append(f"({self.deduplicated} deduplicated)")
        if self.retries:
            parts.append(f"({self.retries} retries, {self.timeouts} timeouts)")
        if self.pool_respawns:
            parts.append(f"({self.pool_respawns} worker respawns)")
        if self.chunks:
            parts.append(f"({self.chunks} chunks, {self.lease_expiries} "
                         f"expired, {self.dup_results} dup, "
                         f"{self.stale_results} stale)")
        if self.fleet_fallbacks:
            parts.append(f"[{self.fleet_fallbacks} fleet fallback(s)]")
        if self.failures:
            parts.append(f"[{self.failures} FAILED]")
        parts.append(f"in {self.elapsed_s:.1f}s")
        if jobs_label:
            parts.append(f"[{jobs_label}]")
        return " ".join(parts)


@dataclass(frozen=True)
class FailureReport:
    """One task that exhausted every attempt, with its full context."""

    index: int               # position in the submitted batch
    key: Optional[str]       # content key (None for uncacheable configs)
    kind: str                # "timeout" | "crash" | "error"
    attempts: int            # attempts consumed (1 + retries performed)
    error: str               # formatted exception chain of the last attempt
    elapsed_s: float         # wall-clock of the last attempt
    label: str = ""          # sweep label, when the caller provided one

    def render(self) -> str:
        where = f"#{self.index}" + (f" [{self.label}]" if self.label else "")
        key = (self.key or "uncacheable")[:12]
        return (f"task {where} key={key} failed ({self.kind}) after "
                f"{self.attempts} attempt(s), last took {self.elapsed_s:.2f}s: "
                f"{self.error}")


class SweepExecutionError(RuntimeError):
    """One or more sweep tasks failed permanently.

    Raised *after* every other task has completed (so the failure list is
    exhaustive and completed work is checkpointed/cached), or at the
    first permanent failure under ``fail_fast``.  ``results`` holds the
    partial output (``None`` at failed indices) and ``failures`` the
    structured reports.
    """

    def __init__(self, failures: Sequence[FailureReport],
                 results: Sequence[Optional[SimulationSummary]],
                 resume_hint: str = "") -> None:
        self.failures = list(failures)
        self.results = list(results)
        self.resume_hint = resume_hint
        lines = [f"{len(self.failures)} sweep task(s) failed permanently:"]
        lines += [f"  {report.render()}" for report in self.failures[:10]]
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more")
        if resume_hint:
            lines.append(resume_hint)
        super().__init__("\n".join(lines))


@contextmanager
def _sigterm_as_interrupt() -> Iterator[None]:
    """Convert SIGTERM into KeyboardInterrupt for the duration of a sweep
    so orchestrators' terminations also take the graceful-shutdown path
    (checkpoint flush + resume hint).  Main-thread only; elsewhere a
    no-op."""
    if not hasattr(signal, "SIGTERM") or \
            threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_term(signum: int, frame: object) -> None:
        raise KeyboardInterrupt("SIGTERM")

    previous = signal.signal(signal.SIGTERM, _on_term)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class SweepRunner:
    """Execute batches of independent simulation configs, fault-tolerantly.

    Parameters
    ----------
    jobs:
        Worker processes.  ``0``/``1`` = serial in-process execution (the
        deterministic reference path); ``None`` = one per CPU.
    cache:
        Optional :class:`ResultCache`.  ``None`` disables caching.
    check_invariants:
        Force ``SystemConfig.check_invariants`` on for every config run
        through this runner, so a whole sweep/experiment suite executes
        under the online :class:`~repro.verify.invariants.InvariantChecker`
        (the CI invariant gate).  Because the flag is pure observability it
        does not change content keys — but note that cache *hits* skip
        execution entirely, so an invariant-checking gate should run with
        the cache disabled.
    backend:
        Execution engine for ``jobs>1``: ``"warm"`` (default; the lease
        coordinator over persistent local agents on pipes),
        ``"distributed"`` (the same coordinator over tcp), or
        ``"serial"`` (force in-process).
        Backend choice can never change results — only wall-clock
        (``docs/RUNNER.md``, ``docs/DISTRIBUTED.md``).
    distributed_options:
        Optional :class:`~repro.runner.backends.DistributedOptions`
        tuning the distributed backend (bind address, lease timeout,
        poll cadence — ``docs/DISTRIBUTED.md``).  Ignored by the others.
    timeout_s:
        Per-task wall-clock budget; ``None`` (default) = unbounded.  A
        task over budget is reported as a ``timeout`` failure and retried.
    retries:
        Extra attempts per failed task (so each task runs at most
        ``retries + 1`` times).
    backoff_base_s:
        Base of the deterministic exponential backoff between attempts:
        attempt *k* waits ``backoff_base_s * 2**(k-1)`` seconds (capped
        at :data:`BACKOFF_CAP_S`; no jitter, so retry schedules replay
        exactly).
    fail_fast:
        Stop scheduling new work at the first permanent task failure
        instead of completing the rest of the sweep first.
    checkpoint_dir:
        Where sweep journals live.  Defaults to ``<cache>/checkpoints``
        when a cache is attached, else checkpointing is off.
    resume:
        Serve completed tasks from an existing journal of the same sweep
        before executing anything.
    fault_plan:
        Optional deterministic fault injector (tests/CI only).
    max_pool_failures:
        Agents either fleet may lose per batch (deaths, and kills of
        agents silent past their budget), each replaced by a fresh one.
        One more, and the fleet is retired and the rest of the batch runs
        inline with attempts carried over, counted in
        ``stats.fleet_fallbacks``.
    """

    def __init__(self, jobs: Optional[int] = 0,
                 cache: Optional[ResultCache] = None,
                 check_invariants: bool = False,
                 *,
                 backend: str = "warm",
                 distributed_options: Optional[DistributedOptions] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = 0,
                 backoff_base_s: float = 0.05,
                 fail_fast: bool = False,
                 checkpoint_dir: Optional["os.PathLike[str]"] = None,
                 resume: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 max_pool_failures: int = 2) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = serial)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if max_pool_failures < 0:
            raise ValueError("max_pool_failures must be >= 0")
        if backend not in BACKEND_NAMES:
            raise ValueError(f"unknown backend {backend!r}; expected one "
                             f"of {BACKEND_NAMES}")
        self.jobs = jobs
        self.cache = cache
        self.check_invariants = check_invariants
        self.backend = backend
        self.distributed_options = distributed_options
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.fail_fast = fail_fast
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.resume = resume
        self.fault_plan = fault_plan
        self.max_pool_failures = max_pool_failures
        self.stats = RunnerStats()
        self._backends: Dict[str, ExecutionBackend] = {}

    #: Upper bound on a single backoff sleep.
    BACKOFF_CAP_S = 2.0

    # ------------------------------------------------------------------
    # backend plumbing
    # ------------------------------------------------------------------
    def _get_backend(self, name: str) -> ExecutionBackend:
        """The (lazily created, runner-lifetime) backend instance for
        ``name`` — long-lived so a fleet's agents survive across
        batches."""
        instance = self._backends.get(name)
        if instance is None:
            instance = make_backend(name, self.distributed_options)
            self._backends[name] = instance
        return instance

    def _backend_for(self, n_work: int) -> ExecutionBackend:
        """Pick the engine for a batch: single-task batches and serial
        runners always take the in-process reference path."""
        if self.jobs <= 1 or n_work == 1:
            return self._get_backend("serial")
        return self._get_backend(self.backend)

    def close(self) -> None:
        """Release backend resources (persistent fleet agents).  The
        runner remains usable — backends respawn lazily on demand."""
        backends, self._backends = self._backends, {}
        for instance in backends.values():
            instance.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # keys / checkpoint plumbing
    # ------------------------------------------------------------------
    def _checkpoint_root(self) -> Optional[Path]:
        if self.checkpoint_dir is not None:
            return self.checkpoint_dir
        if self.cache is not None:
            return self.cache.root / "checkpoints"
        return None

    def _journal(
        self, keys: Sequence[Optional[str]], label: str,
    ) -> Tuple[Optional[CheckpointJournal], Dict[str, SimulationSummary]]:
        """The sweep's journal, not yet opened, and with ``resume`` the
        entries a prior run of the same sweep completed."""
        root = self._checkpoint_root()
        if root is None or not any(k is not None for k in keys):
            return None, {}
        sid = sweep_id(keys)
        journal = CheckpointJournal(root / f"{sid}.log", sweep=sid,
                                    label=label, total=len(keys))
        return journal, journal.load() if self.resume else {}

    # ------------------------------------------------------------------
    # the batch entrypoint
    # ------------------------------------------------------------------
    def run_many(self, configs: Sequence[SystemConfig],
                 label: str = "") -> List[SimulationSummary]:
        """Run every config; results align index-for-index with input.

        Raises :class:`SweepExecutionError` if any task fails permanently
        (after the rest completed, unless ``fail_fast``), and re-raises
        :class:`KeyboardInterrupt` after flushing the checkpoint journal
        and printing a resume hint.
        """
        t0 = time.perf_counter()
        if self.check_invariants:
            configs = [
                cfg if cfg.check_invariants else cfg.with_(check_invariants=True)
                for cfg in configs
            ]
        n = len(configs)
        results: List[Optional[SimulationSummary]] = [None] * n
        # Through this module's name, so a wrapper of `config_key` here
        # (perfbench's `runner.keys` span) still sees every key.
        keys = config_keys(configs, config_key)
        # Stable per-task identity for fault decisions, independent of
        # whether the config is cacheable.
        fault_keys = [k if k is not None else f"@{i}"
                      for i, k in enumerate(keys)]

        journal: Optional[CheckpointJournal] = None
        failures: List[FailureReport] = []
        hits = resumed = dedups = 0
        self._label = label
        try:
            journal, prior = self._journal(keys, label)

            # Serve journal + cache hits; collect misses with dedup.
            work: List[int] = []
            followers: List[Tuple[int, int]] = []   # (index, leader_index)
            leader_for_key: Dict[str, int] = {}
            for i, key in enumerate(keys):
                if key is not None:
                    replay = prior.get(key)
                    if replay is not None:
                        results[i] = replay
                        resumed += 1
                        continue
                    if self.cache is not None:
                        cached = self.cache.get(key)
                        if cached is not None:
                            results[i] = cached
                            hits += 1
                            continue
                    leader = leader_for_key.get(key)
                    if leader is not None:
                        followers.append((i, leader))
                        dedups += 1
                        continue
                    leader_for_key[key] = i
                work.append(i)

            # The journal is opened only for a batch with work to run; a
            # batch with nothing left deletes any journal of its sweep (a
            # complete resumed one, or a stale one it did not resume).
            if work:
                if journal is not None:
                    journal.start(resume=bool(prior))
                batch = BatchState(work, configs, keys, fault_keys,
                                   results, journal, failures)
                with _sigterm_as_interrupt():
                    self._backend_for(len(work)).run_batch(self, batch)
            elif journal is not None:
                journal.delete()
            for i, leader in followers:
                results[i] = results[leader]
        except KeyboardInterrupt:
            self._note_interrupt(journal)
            raise
        finally:
            self.stats.simulations += n
            self.stats.cache_hits += hits
            self.stats.resumed += resumed
            self.stats.deduplicated += dedups
            self.stats.failures += len(failures)
            self.stats.batches += 1
            # Group commit: one fsync per log per batch.
            if self.cache is not None:
                self.cache.log.sync()
            if journal is not None and journal.is_open:
                if failures:
                    journal.sync()
                    journal.close()
                else:
                    journal.delete()
            self.stats.elapsed_s += time.perf_counter() - t0

        if failures:
            hint = ""
            if journal is not None:
                hint = (f"completed work is checkpointed in {journal.path}; "
                        f"re-run with --resume to skip it")
            raise SweepExecutionError(failures, results, hint)
        return results  # type: ignore[return-value]

    def _note_interrupt(self, journal: Optional[CheckpointJournal]) -> None:
        """Graceful-shutdown bookkeeping: commit partial results, print a
        resume hint, leave the journal on disk."""
        if self.cache is not None:
            self.cache.log.sync()
        if journal is None or not journal.is_open:
            return
        journal.sync()
        journal.close()
        print(f"[runner] interrupted: {journal.recorded} completed task(s) "
              f"checkpointed in {journal.path}; re-run with --resume to "
              f"continue without recomputing them", file=sys.stderr)

    # ------------------------------------------------------------------
    # completion / retry plumbing shared by every backend
    # ------------------------------------------------------------------
    def _complete(self, batch: BatchState, i: int,
                  summary: SimulationSummary, body: bytes) -> None:
        """Commit one result; ``body`` is its frame body, encoded where
        it ran, or ``b""`` (an inline run) to encode it here if needed.  The
        frame is built once, for the cache and the journal, and only when
        one of them keeps it."""
        batch.results[i] = summary
        self.stats.executed += 1
        key = batch.keys[i]
        if key is not None and (self.cache is not None
                                or batch.journal is not None):
            blob = frame(key, body or encode_body(summary))
            if self.cache is not None:
                self.cache.put(key, summary, blob)
            if batch.journal is not None:
                batch.journal.record(key, summary, blob)

    def _backoff(self, attempt: int) -> None:
        """Deterministic exponential backoff before attempt ``attempt+1``
        — no jitter, so a replayed fault run waits identically."""
        delay_s = min(self.backoff_base_s * (2.0 ** (attempt - 1)),
                      self.BACKOFF_CAP_S)
        if delay_s > 0:
            time.sleep(delay_s)

    def _retry_or_fail(self, batch: BatchState, pending: Deque[Task],
                       i: int, attempt: int, kind: str, error: str,
                       elapsed_s: float) -> None:
        """Count a failed attempt; queue the next one on ``pending``, or
        report the task failed once its attempts are spent."""
        if kind == "timeout":
            self.stats.timeouts += 1
        if attempt <= self.retries:
            self.stats.retries += 1
            self._backoff(attempt)
            pending.append((i, attempt + 1))
            return
        batch.failures.append(FailureReport(
            index=i, key=batch.keys[i], kind=kind, attempts=attempt,
            error=error, elapsed_s=elapsed_s,
            label=getattr(self, "_label", "")))

    def _run_inline(self, batch: BatchState, i: int, attempt: int) -> None:
        """Attempt loop for one task, executed in-process."""
        pending: Deque[Task] = deque([(i, attempt)])
        while pending:
            i, attempt = pending.popleft()
            outcome = _execute_task(_WorkerTask(
                batch.configs[i], batch.fault_keys[i], attempt,
                self.timeout_s, self.fault_plan, inline=True))
            if outcome.summary is not None:
                self._complete(batch, i, outcome.summary, outcome.body)
            else:
                self._retry_or_fail(batch, pending, i, attempt, outcome.kind,
                                    outcome.error, outcome.elapsed_s)

    def _hard_timeout_s(self) -> Optional[float]:
        """Parent-side watchdog: how long a fleet agent holding leases may
        stay silent.  A generous multiple of the soft budget, so it only
        fires when an agent is wedged beyond its own SIGALRM guard."""
        if self.timeout_s is None:
            return None
        return self.timeout_s * _HARD_TIMEOUT_FACTOR + 1.0

    # ------------------------------------------------------------------
    def run_seeds(self, config: SystemConfig,
                  seeds: Sequence[int]) -> List[SimulationSummary]:
        """Run one config under several seeds (replication helper for the
        statistical-equivalence harness; results align with ``seeds``)."""
        return self.run_many([config.with_(seed=int(s)) for s in seeds])

    def jobs_label(self) -> str:
        cache = "cache on" if self.cache is not None else "cache off"
        label = f"jobs={self.jobs}, {cache}"
        if self.jobs > 1:
            label += f", backend={self.backend}"
        if self.check_invariants:
            label += ", invariants on"
        if self.timeout_s is not None:
            label += f", timeout={self.timeout_s:g}s"
        if self.retries:
            label += f", retries={self.retries}"
        if self.resume:
            label += ", resume"
        return label


#: Default runner: serial, uncached — exactly the pre-runner behaviour.
_default_runner = SweepRunner(jobs=0, cache=None)


def get_runner() -> SweepRunner:
    """The runner sweeps use when none is passed explicitly."""
    return _default_runner


def set_runner(runner: SweepRunner) -> SweepRunner:
    """Replace the default runner; returns the previous one."""
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    return previous


@contextmanager
def use_runner(runner: SweepRunner) -> Iterator[SweepRunner]:
    """Temporarily install ``runner`` as the default (CLI/tests)."""
    previous = set_runner(runner)
    try:
        yield runner
    finally:
        set_runner(previous)
