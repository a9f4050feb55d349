"""Deterministic fault injection for the sweep runner.

Resilience must be *tested*, not assumed: the related work this repo
draws on (Flow Director's reordering pathology, work-stealing's cache
misbehaviour) only surfaced failure modes under adversarial conditions.
This module provides the adversary — a :class:`FaultPlan` that injects
worker crashes, hangs, raised exceptions, cache corruption, and
interrupts into the *real* execution paths of
:class:`~repro.runner.runner.SweepRunner` and
:class:`~repro.runner.cache.ResultCache` — plus a scenario harness
(:func:`run_fault_suite`, CLI ``repro faults``) that proves each failure
path behaves as specified.

Every injection decision is a pure function of ``(plan seed, fault kind,
task key, attempt number)`` — a SHA-256 threshold test, no RNG object,
no wall clock — so a fault run replays bit-identically: the same tasks
crash, hang, or corrupt on the same attempts, on any machine, under any
worker count.  With ``plan=None`` (the default everywhere) the injection
hooks are inert and the happy path is untouched.

Fault kinds
-----------
``crash``
    The worker process exits abnormally (``os._exit``) mid-task.  In
    inline/serial execution (where a real crash would kill the caller)
    it degrades to a raised :class:`InjectedFault` tagged as a simulated
    crash.
``hang``
    The worker sleeps for ``hang_s`` before simulating — long enough to
    trip any configured task timeout.
``error``
    The worker raises :class:`InjectedFault` instead of returning.
``corrupt``
    :meth:`ResultCache.put` writes a whole frame whose payload fails its
    CRC, exercising the quarantine-and-recompute path on the next read
    while the log stays parseable.
``interrupt``
    The task raises :class:`KeyboardInterrupt`, exercising the graceful
    shutdown + checkpoint-flush path exactly as a user Ctrl-C would.

Network fault kinds (either fleet)
----------------------------------
These are decided at the lease coordinator's transport edge by
:class:`~repro.runner.backends.transport.ChaosCoordinatorTransport`,
which wraps the pipe and the tcp transport alike,
keyed per ``"<worker>|<message-type>"`` with a per-key sequence number
as the attempt — same sha256 threshold test, so a chaos run replays
bit-identically from its seed (``repro faults --backend distributed``).

``drop``
    The message silently vanishes (the sender believes it was sent).
``delay``
    The message is held for ``delay_polls`` coordinator polls before
    delivery (counted, never timed), arriving late and out of order
    relative to other workers.
``duplicate``
    The message is delivered twice — the at-least-once adversary the
    idempotent commit gate must absorb.
``partition``
    All of one worker's traffic (both directions) vanishes for whole
    windows of ``partition_window`` messages; the partition heals as
    the worker's traffic (e.g. idle re-hellos) advances the window.
``kill``
    The worker agent process exits abnormally on receipt of its Nth
    lease — the fleet-loss adversary behind ``max_pool_failures``.

Network and kill faults also respect ``max_faulty_attempts`` per task,
so no task loses more attempts to chaos than budgeted however often its
agents are respawned under fresh worker ids.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from ..sim.system import SystemConfig
    from .backends.distributed import DistributedOptions

__all__ = [
    "FAULT_KINDS",
    "NETWORK_FAULT_KINDS",
    "FaultPlan",
    "InjectedFault",
    "ScenarioResult",
    "TaskTimeout",
    "run_fault_suite",
]

#: Every fault kind a plan can inject (see module docstring).
FAULT_KINDS: Tuple[str, ...] = (
    "crash", "hang", "error", "corrupt", "interrupt",
    "drop", "delay", "duplicate", "partition", "kill",
)

#: The kinds decided at the transport edge (message-level); any nonzero
#: rate among these makes the lease coordinator wrap its transport in
#: the chaos layer.
NETWORK_FAULT_KINDS: Tuple[str, ...] = (
    "drop", "delay", "duplicate", "partition")


class InjectedFault(RuntimeError):
    """An artificial failure raised by an active :class:`FaultPlan`."""


class TaskTimeout(RuntimeError):
    """A task exceeded its wall-clock budget (raised by the runner's
    deadline guard, and reported as a ``timeout`` failure)."""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, reproducible fault-injection schedule.

    Each per-kind field is an injection probability in ``[0, 1]``
    evaluated *deterministically* per ``(key, attempt)`` — see
    :meth:`decide`.  ``max_faulty_attempts`` bounds injection to the
    first N attempts of a task (the default ``1`` makes every fault
    transient, so a single retry succeeds); ``None`` injects on every
    attempt (permanent faults, for exercising retry exhaustion).
    ``only_keys`` restricts injection to an explicit set of task keys.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    error: float = 0.0
    corrupt: float = 0.0
    interrupt: float = 0.0
    drop: float = 0.0
    delay: float = 0.0
    duplicate: float = 0.0
    partition: float = 0.0
    kill: float = 0.0
    #: Inject only while ``attempt <= max_faulty_attempts`` (None = always).
    max_faulty_attempts: Optional[int] = 1
    #: How long a ``hang`` injection sleeps before (never) completing.
    hang_s: float = 30.0
    #: Restrict injection to these task keys (None = any key).
    only_keys: Optional[Tuple[str, ...]] = None
    #: Messages per partition window: a partitioned worker loses whole
    #: windows of traffic and heals as its traffic advances the window.
    partition_window: int = 8
    #: Coordinator polls a delayed message is held for.
    delay_polls: int = 3

    def rate(self, kind: str) -> float:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; known: {FAULT_KINDS}")
        return float(getattr(self, "error" if kind == "error" else kind))

    def decide(self, kind: str, key: str, attempt: int = 1) -> bool:
        """Whether to inject ``kind`` into attempt ``attempt`` of task
        ``key`` — a pure function of the plan and its arguments."""
        probability = self.rate(kind)
        if probability <= 0.0:
            return False
        if self.only_keys is not None and key not in self.only_keys:
            return False
        if not self.faulty(attempt):
            return False
        blob = f"{self.seed}|{kind}|{key}|{attempt}".encode()
        digest = hashlib.sha256(blob).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < probability

    def faulty(self, attempt: int) -> bool:
        """Whether attempt ``attempt`` of a task is still within the
        plan's ``max_faulty_attempts`` budget."""
        return self.max_faulty_attempts is None or \
            attempt <= self.max_faulty_attempts

    def affected(self, kind: str, keys: List[str], attempt: int = 1) -> List[str]:
        """The subset of ``keys`` this plan injects ``kind`` into at
        ``attempt`` (harness/test helper)."""
        return [k for k in keys if self.decide(kind, k, attempt)]


# ----------------------------------------------------------------------
# Scenario harness: prove each failure path against the real runner.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one fault-injection scenario."""

    name: str
    ok: bool
    detail: str


def _scenario_grid(n: int, seed: int) -> "List[SystemConfig]":
    """``n`` tiny, fast, independent simulation configs."""
    from ..sim.system import SystemConfig
    from ..workloads.traffic import TrafficSpec

    return [
        SystemConfig(
            traffic=TrafficSpec.homogeneous_poisson(2, 6_000.0),
            paradigm="locking",
            policy="mru",
            duration_us=30_000.0,
            warmup_us=5_000.0,
            seed=seed * 100 + i,
        )
        for i in range(n)
    ]


def _grid_keys(configs: "List[SystemConfig]") -> List[str]:
    from .keys import config_key

    return [config_key(cfg) for cfg in configs]


def _tcp(lease_timeout_s: float,
         idle_poll_s: float = 0.5) -> "DistributedOptions":
    """A network-chaos scenario's tuning of the distributed backend."""
    from .backends.distributed import DistributedOptions

    return DistributedOptions(lease_timeout_s=lease_timeout_s,
                              idle_poll_s=idle_poll_s)


def _scenario_crash_retry(workdir: Path, jobs: int, seed: int,
                          backend: str) -> ScenarioResult:
    """A worker crashes mid-task; the runner respawns it, requeues
    the lost tasks, retries the crasher, and the sweep completes with
    results identical to a fault-free serial run."""
    from .runner import SweepRunner

    configs = _scenario_grid(6, seed)
    reference = SweepRunner(jobs=0).run_many(configs)
    # Fixed victims, like every other scenario: task keys include the
    # simulation code digest, so a rate below 1.0 over all keys could
    # pick no victim at all for some source tree.
    keys = _grid_keys(configs)
    plan = FaultPlan(seed=seed, crash=1.0, max_faulty_attempts=1,
                     only_keys=(keys[1], keys[4]))
    runner = SweepRunner(jobs=max(2, jobs), backend=backend, retries=2,
                         backoff_base_s=0.0, timeout_s=60.0, fault_plan=plan)
    results = runner.run_many(configs)
    runner.close()
    crashed = len(plan.affected("crash", keys))
    ok = (results == reference and crashed > 0
          and runner.stats.pool_respawns >= 1 and runner.stats.retries >= crashed)
    return ScenarioResult(
        "crash-retry-completes", ok,
        f"{crashed} injected crash(es), {runner.stats.pool_respawns} worker "
        f"respawn(s), {runner.stats.retries} retries; results "
        f"{'bit-identical to' if results == reference else 'DIVERGED from'} "
        f"serial reference")


def _scenario_hang_timeout(workdir: Path, jobs: int, seed: int,
                           backend: str) -> ScenarioResult:
    """A permanently hung task times out on every attempt and is reported
    in a FailureReport; the rest of the sweep still completes — no
    deadlock."""
    import time

    from .runner import SweepExecutionError, SweepRunner

    configs = _scenario_grid(5, seed)
    keys = _grid_keys(configs)
    plan = FaultPlan(seed=seed, hang=1.0, max_faulty_attempts=None,
                     hang_s=30.0, only_keys=(keys[2],))
    runner = SweepRunner(jobs=jobs, backend=backend, retries=1,
                         backoff_base_s=0.0, timeout_s=0.5, fault_plan=plan)
    t0 = time.perf_counter()
    try:
        runner.run_many(configs)
    except SweepExecutionError as exc:
        runner.close()
        elapsed_s = time.perf_counter() - t0
        reports = exc.failures
        completed = sum(1 for r in exc.results if r is not None)
        ok = (len(reports) == 1 and reports[0].kind == "timeout"
              and reports[0].key == keys[2] and reports[0].attempts == 2
              and completed == len(configs) - 1 and elapsed_s < 25.0)
        return ScenarioResult(
            "hang-times-out-not-deadlocked", ok,
            f"hung task reported as {reports[0].kind!r} after "
            f"{reports[0].attempts} attempts, {completed}/{len(configs)} "
            f"others completed in {elapsed_s:.1f}s")
    runner.close()
    return ScenarioResult("hang-times-out-not-deadlocked", False,
                          "sweep completed despite a permanently hung task")


def _scenario_corrupt_quarantine(workdir: Path, jobs: int, seed: int,
                                 backend: str) -> ScenarioResult:
    """Corrupted cache frames are quarantined (copied aside, never served
    or deleted) and transparently recomputed; results stay identical."""
    from .cache import ResultCache
    from .runner import SweepRunner

    configs = _scenario_grid(4, seed)
    reference = SweepRunner(jobs=0).run_many(configs)
    cache_dir = workdir / "corrupt-cache"
    writer_plan = FaultPlan(seed=seed, corrupt=1.0, max_faulty_attempts=None)
    SweepRunner(jobs=0, cache=ResultCache(cache_dir, fault_plan=writer_plan)
                ).run_many(configs)
    clean_cache = ResultCache(cache_dir)
    runner = SweepRunner(jobs=0, cache=clean_cache)
    results = runner.run_many(configs)
    n = len(configs)
    ok = (results == reference
          and clean_cache.stats.quarantined == n
          and clean_cache.stats.errors == n
          and clean_cache.quarantined_entries() == n
          and runner.stats.executed == n
          and clean_cache.get(_grid_keys(configs)[0]) == reference[0])
    return ScenarioResult(
        "corrupt-entry-quarantined-and-recomputed", ok,
        f"{clean_cache.stats.quarantined} corrupted entries quarantined to "
        f"{clean_cache.quarantine_dir.name}/, {runner.stats.executed} "
        f"recomputed, clean entries re-cached")


def _scenario_interrupt_resume(workdir: Path, jobs: int, seed: int,
                               backend: str) -> ScenarioResult:
    """An interrupted sweep leaves a checkpoint journal; ``resume=True``
    replays completed tasks from it and recomputes nothing already done."""
    from .runner import SweepRunner

    configs = _scenario_grid(6, seed)
    reference = SweepRunner(jobs=0).run_many(configs)
    keys = _grid_keys(configs)
    cut = len(configs) // 2  # interrupt while executing this task
    checkpoint_dir = workdir / "checkpoints"
    plan = FaultPlan(seed=seed, interrupt=1.0, max_faulty_attempts=None,
                     only_keys=(keys[cut],))
    interrupted = SweepRunner(jobs=0, checkpoint_dir=checkpoint_dir,
                              fault_plan=plan)
    try:
        interrupted.run_many(configs)
        return ScenarioResult("interrupt-checkpoint-resume", False,
                              "injected interrupt did not propagate")
    except KeyboardInterrupt:
        pass
    resumed = SweepRunner(jobs=0, checkpoint_dir=checkpoint_dir, resume=True)
    results = resumed.run_many(configs)
    ok = (results == reference
          and resumed.stats.resumed == cut
          and resumed.stats.executed == len(configs) - cut)
    return ScenarioResult(
        "interrupt-checkpoint-resume", ok,
        f"{interrupted.stats.executed} tasks checkpointed before interrupt; "
        f"resume served {resumed.stats.resumed} from the journal and "
        f"re-executed {resumed.stats.executed} "
        f"({0 if ok else 'some'} completed work recomputed)")


def _scenario_happy_path_identity(workdir: Path, jobs: int, seed: int,
                                  backend: str) -> ScenarioResult:
    """With injection disabled, the fully hardened runner (timeouts,
    retries, checkpointing, parallel workers) is bit-identical to the plain
    serial reference."""
    from .cache import ResultCache
    from .runner import SweepRunner

    configs = _scenario_grid(5, seed)
    reference = SweepRunner(jobs=0).run_many(configs)
    hardened = SweepRunner(jobs=jobs, backend=backend,
                           cache=ResultCache(workdir / "happy-cache"),
                           timeout_s=120.0, retries=2,
                           checkpoint_dir=workdir / "happy-checkpoints")
    results = hardened.run_many(configs)
    hardened.close()
    ok = (results == reference and hardened.stats.failures == 0
          and hardened.stats.retries == 0)
    return ScenarioResult(
        "happy-path-bit-identical", ok,
        f"hardened runner (timeout+retry+checkpoint, jobs={jobs}, "
        f"backend={backend}) "
        f"{'matches' if ok else 'DIVERGED from'} the serial reference "
        f"with zero retries/failures")


def _scenario_warm_crash_cache_loss(workdir: Path, jobs: int, seed: int,
                                    backend: str) -> ScenarioResult:
    """A crashed warm worker loses its warm caches; the requeued tasks
    re-run on a cold respawned worker and stay bit-identical — warm
    state is a pure accelerator, never load-bearing."""
    from .runner import SweepRunner

    configs = _scenario_grid(8, seed)
    reference = SweepRunner(jobs=0).run_many(configs)
    keys = _grid_keys(configs)
    crash_keys = (keys[1], keys[5])
    plan = FaultPlan(seed=seed, crash=1.0, max_faulty_attempts=1,
                     only_keys=crash_keys)
    runner = SweepRunner(jobs=max(2, jobs), backend="warm", retries=2,
                         backoff_base_s=0.0, timeout_s=60.0,
                         fault_plan=plan, max_pool_failures=4)
    results = runner.run_many(configs)
    runner.close()
    ok = (results == reference
          and runner.stats.pool_respawns >= len(crash_keys)
          and runner.stats.retries >= len(crash_keys)
          and runner.stats.failures == 0)
    return ScenarioResult(
        "warm-crash-cold-respawn-bit-identical", ok,
        f"{len(crash_keys)} warm worker crash(es), "
        f"{runner.stats.pool_respawns} cold respawn(s), "
        f"{runner.stats.retries} retries; results "
        f"{'bit-identical to' if results == reference else 'DIVERGED from'} "
        f"serial reference")


def _scenario_warm_hung_does_not_block(workdir: Path, jobs: int, seed: int,
                                       backend: str) -> ScenarioResult:
    """A hung warm worker does not block the batch: its peer takes every
    other task from the shared queue while it hangs, and the slow task
    still completes in place, last."""
    from .cache import ResultCache
    from .runner import SweepRunner

    configs = _scenario_grid(8, seed)
    reference = SweepRunner(jobs=0).run_many(configs)
    keys = _grid_keys(configs)
    # Stall only the first task of the batch; no timeout configured, so
    # progress must come from the peers, not the watchdog.
    plan = FaultPlan(seed=seed, hang=1.0, max_faulty_attempts=1,
                     hang_s=2.0, only_keys=(keys[0],))
    cache_dir = workdir / "hung-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)  # a hit would not hang
    cache = ResultCache(cache_dir)
    runner = SweepRunner(jobs=max(2, jobs), backend="warm", retries=0,
                         fault_plan=plan, cache=cache)
    results = runner.run_many(configs)
    runner.close()
    # Results are appended to the log in completion order: the hung
    # task's frame comes last only if every other task finished first.
    order = [key for _, key, _ in ResultCache(cache_dir).log.scan()]
    last = order[-1:] == [keys[0]]
    ok = (results == reference
          and last
          and runner.stats.timeouts == 0
          and runner.stats.failures == 0)
    return ScenarioResult(
        "warm-hung-worker-does-not-block", ok,
        f"hung task committed {'last' if last else 'NOT last'} of "
        f"{len(order)} ({runner.stats.timeouts} timeouts, "
        f"{runner.stats.failures} failures); results "
        f"{'bit-identical to' if results == reference else 'DIVERGED from'} "
        f"serial reference")


def _scenario_dist_duplicate_delivery(workdir: Path, jobs: int, seed: int,
                                      backend: str) -> ScenarioResult:
    """Every message on the wire is delivered twice; the idempotent
    commit gate absorbs every duplicate (byte-compared, discarded) and
    results stay bit-identical — at-least-once delivery, exactly-once
    commit."""
    from .runner import SweepRunner

    configs = _scenario_grid(5, seed)
    reference = SweepRunner(jobs=0).run_many(configs)
    plan = FaultPlan(seed=seed, duplicate=1.0, max_faulty_attempts=None)
    runner = SweepRunner(jobs=max(2, jobs), backend="distributed", retries=2,
                         backoff_base_s=0.0, fault_plan=plan)
    results = runner.run_many(configs)
    runner.close()
    n = len(configs)
    ok = (results == reference and runner.stats.failures == 0
          and runner.stats.dup_results >= 1 and runner.stats.executed == n)
    return ScenarioResult(
        "dist-duplicate-delivery-committed-once", ok,
        f"every frame duplicated: {runner.stats.dup_results} duplicate "
        f"result(s) discarded at the commit gate, {runner.stats.executed}/{n} "
        f"committed once; results "
        f"{'bit-identical to' if results == reference else 'DIVERGED from'} "
        f"serial reference")


def _scenario_dist_drop_lease_recovery(workdir: Path, jobs: int, seed: int,
                                       backend: str) -> ScenarioResult:
    """The first frame of every (worker, message-type) stream silently
    vanishes — first leases and first results included.  Lease expiry
    detects the loss, requeues the work (charging an attempt), and the
    sweep converges bit-identically."""
    from .runner import SweepRunner

    configs = _scenario_grid(6, seed)
    reference = SweepRunner(jobs=0).run_many(configs)
    plan = FaultPlan(seed=seed, drop=1.0, max_faulty_attempts=1)
    runner = SweepRunner(jobs=max(2, jobs), backend="distributed", retries=4,
                         backoff_base_s=0.0, fault_plan=plan,
                         distributed_options=_tcp(lease_timeout_s=0.5))
    results = runner.run_many(configs)
    runner.close()
    ok = (results == reference and runner.stats.failures == 0
          and runner.stats.lease_expiries >= 1
          and runner.stats.retries >= runner.stats.lease_expiries)
    return ScenarioResult(
        "dist-dropped-frames-lease-expiry-requeues", ok,
        f"dropped first lease/result per worker: {runner.stats.lease_expiries} "
        f"lease(s) expired, {runner.stats.retries} retries charged; results "
        f"{'bit-identical to' if results == reference else 'DIVERGED from'} "
        f"serial reference")


def _scenario_dist_lease_expiry_no_timeout(workdir: Path, jobs: int, seed: int,
                                           backend: str) -> ScenarioResult:
    """A worker hangs mid-task with *no* task timeout configured: its
    silence alone expires the lease, the hung agent is killed and
    respawned, and the task is requeued (consuming an attempt) and
    re-executed."""
    from .runner import SweepRunner

    configs = _scenario_grid(5, seed)
    keys = _grid_keys(configs)
    reference = SweepRunner(jobs=0).run_many(configs)
    plan = FaultPlan(seed=seed, hang=1.0, max_faulty_attempts=1,
                     hang_s=2.5, only_keys=(keys[1],))
    runner = SweepRunner(jobs=max(2, jobs), backend="distributed", retries=3,
                         backoff_base_s=0.0, fault_plan=plan,
                         distributed_options=_tcp(lease_timeout_s=0.6))
    results = runner.run_many(configs)
    runner.close()
    ok = (results == reference and runner.stats.failures == 0
          and runner.stats.lease_expiries >= 1
          and runner.stats.timeouts >= 1)
    return ScenarioResult(
        "dist-hung-worker-lease-expires", ok,
        f"hung worker's lease expired on its silence "
        f"({runner.stats.lease_expiries} expiries, {runner.stats.timeouts} "
        f"timeout attempts charged, {runner.stats.pool_respawns} agent(s) "
        f"respawned) with no task timeout configured; results "
        f"{'bit-identical to' if results == reference else 'DIVERGED from'} "
        f"serial reference")


def _scenario_dist_partition_heal(workdir: Path, jobs: int, seed: int,
                                  backend: str) -> ScenarioResult:
    """One worker is fully partitioned (both directions) for its first
    traffic window, then the partition heals; the worker's idle re-hello
    re-registers it and the sweep completes bit-identically with no
    failed tasks."""
    from .runner import SweepRunner

    configs = _scenario_grid(6, seed)
    reference = SweepRunner(jobs=0).run_many(configs)
    plan = FaultPlan(seed=seed, partition=1.0, max_faulty_attempts=1,
                     only_keys=("w0.1",), partition_window=4)
    runner = SweepRunner(jobs=max(2, jobs), backend="distributed", retries=2,
                         backoff_base_s=0.0, fault_plan=plan,
                         distributed_options=_tcp(lease_timeout_s=1.0,
                                                  idle_poll_s=0.1))
    results = runner.run_many(configs)
    runner.close()
    ok = (results == reference and runner.stats.failures == 0)
    return ScenarioResult(
        "dist-partitioned-worker-heals-and-rejoins", ok,
        f"worker w0.1 partitioned for its first {plan.partition_window}"
        f"-message window, healed by idle re-hello; "
        f"{runner.stats.lease_expiries} lease expiries, "
        f"{runner.stats.failures} failed tasks; results "
        f"{'bit-identical to' if results == reference else 'DIVERGED from'} "
        f"serial reference")


def _scenario_dist_stale_result_discarded(workdir: Path, jobs: int, seed: int,
                                          backend: str) -> ScenarioResult:
    """The regression scenario from the issue: a worker's result is
    delayed past its lease expiry (a partition that heals after the
    coordinator gave up), the task is re-executed and committed, and the
    worker's late result for the already-committed task is discarded —
    never double-counted."""
    from .runner import SweepRunner

    configs = _scenario_grid(4, seed)
    reference = SweepRunner(jobs=0).run_many(configs)
    plan = FaultPlan(seed=seed, delay=1.0, max_faulty_attempts=1,
                     only_keys=("w0.1|result",), delay_polls=40)
    runner = SweepRunner(jobs=max(2, jobs), backend="distributed", retries=2,
                         backoff_base_s=0.0, fault_plan=plan,
                         distributed_options=_tcp(lease_timeout_s=0.5))
    results = runner.run_many(configs)
    runner.close()
    n = len(configs)
    discarded = runner.stats.dup_results + runner.stats.stale_results
    ok = (results == reference and runner.stats.failures == 0
          and runner.stats.lease_expiries >= 1 and discarded >= 1
          and runner.stats.executed == n)
    return ScenarioResult(
        "dist-stale-result-discarded-not-double-counted", ok,
        f"w0.1's first result held past lease expiry: task re-executed, "
        f"{discarded} late/duplicate delivery(ies) discarded, "
        f"{runner.stats.executed}/{n} tasks committed exactly once; results "
        f"{'bit-identical to' if results == reference else 'DIVERGED from'} "
        f"serial reference")


def _scenario_dist_fleet_loss_fallback(workdir: Path, jobs: int, seed: int,
                                       backend: str) -> ScenarioResult:
    """Every worker agent dies on receipt of every lease: past
    ``max_pool_failures`` the coordinator stops burning respawns, retires
    the fleet and finishes the batch inline, bit-identically and with
    zero failed tasks."""
    from .runner import SweepRunner

    configs = _scenario_grid(5, seed)
    reference = SweepRunner(jobs=0).run_many(configs)
    plan = FaultPlan(seed=seed, kill=1.0, max_faulty_attempts=None)
    runner = SweepRunner(jobs=max(2, jobs), backend="distributed", retries=4,
                         backoff_base_s=0.0, fault_plan=plan,
                         max_pool_failures=2)
    results = runner.run_many(configs)
    runner.close()
    ok = (results == reference and runner.stats.failures == 0
          and runner.stats.fleet_fallbacks == 1
          and runner.stats.pool_respawns >= 1)
    return ScenarioResult(
        "dist-fleet-loss-finishes-inline", ok,
        f"agents killed on every lease: {runner.stats.pool_respawns} "
        f"respawn(s) before giving up, {runner.stats.fleet_fallbacks} "
        f"batch finished inline, {runner.stats.failures} "
        f"failed tasks; results "
        f"{'bit-identical to' if results == reference else 'DIVERGED from'} "
        f"serial reference")


_SCENARIOS = (
    _scenario_crash_retry,
    _scenario_hang_timeout,
    _scenario_corrupt_quarantine,
    _scenario_interrupt_resume,
    _scenario_happy_path_identity,
)

#: Extra scenarios exercising warm-backend-specific machinery
#: (persistent caches, the shared task queue); appended when the suite runs
#: against the warm backend.
_WARM_SCENARIOS = (
    _scenario_warm_crash_cache_loss,
    _scenario_warm_hung_does_not_block,
)

#: Network-chaos scenarios exercising the distributed backend's lease,
#: commit-gate, and degradation machinery; appended when the suite runs
#: against the distributed backend.
_DISTRIBUTED_SCENARIOS = (
    _scenario_dist_duplicate_delivery,
    _scenario_dist_drop_lease_recovery,
    _scenario_dist_lease_expiry_no_timeout,
    _scenario_dist_partition_heal,
    _scenario_dist_stale_result_discarded,
    _scenario_dist_fleet_loss_fallback,
)


def run_fault_suite(workdir: Path, jobs: int = 2, seed: int = 1,
                    backend: str = "warm") -> List[ScenarioResult]:
    """Run every fault-injection scenario against the real runner.

    ``workdir`` holds the scratch caches/journals the scenarios create;
    the suite is deterministic in ``(jobs, seed, backend)``
    and is the CI ``faults`` gate (CLI: ``repro faults``).  ``backend``
    selects the execution engine for the parallel scenarios; ``"warm"``
    additionally runs the warm-specific scenarios (worker-cache loss, a
    hung worker that must not block), and ``"distributed"`` the
    network-chaos scenarios (duplicate delivery, dropped frames, lease
    expiry, partitions, stale results, fleet loss).
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    scenarios = _SCENARIOS
    if backend == "warm":
        scenarios = scenarios + _WARM_SCENARIOS
    if backend == "distributed":
        scenarios = scenarios + _DISTRIBUTED_SCENARIOS
    return [scenario(workdir, jobs, seed, backend)
            for scenario in scenarios]
