"""The benchmark's three workloads: inputs, timed bodies and output gates.

``suite-cold``
    Every experiment e01-e15 on its fast grid at the workload seed,
    through a serial, uncached runner: what ``repro all`` runs by default.
``sweep-cold``
    Sessions of E06-style batches (5 locking policies x 6 rates, 8 Poisson
    streams, 1 ms horizon; one ``run_many`` batch per seed replicate)
    through ``SweepRunner(jobs=2, backend="warm")`` with a fresh on-disk
    ``ResultCache`` per session.
``sweep-cached``
    The same session submitted again, five replicates to a batch, to a
    cache filled before timing, so only key, cache read and decode run.

Everything is driven through public entry points: ``run_experiment``,
``SweepRunner.run_many``, ``ResultCache``, ``config_key`` and
``canonicalize``.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import ResultCache, SweepRunner, SystemConfig, TrafficSpec
from repro.experiments.base import EXPERIMENT_IDS, load_experiment, run_experiment
from repro.runner import UncacheableConfig, canonicalize, config_key, use_runner

WORKLOADS = ("suite-cold", "sweep-cold", "sweep-cached")

#: Warm workers of the sweeps.  Fixed, so that every host runs the same
#: workload: ``jobs <= 1`` would send the batches down the serial path,
#: bypassing warm dispatch and IPC.  ``run.py`` refuses a host with fewer
#: CPUs rather than measure oversubscription.
SWEEP_JOBS = 2
SWEEP_POLICIES = ("fcfs", "mru", "stream-mru", "pools", "wired-streams")
SWEEP_RATES = (2_000, 8_000, 16_000, 24_000, 32_000, 38_000)
SWEEP_STREAMS = 8
SWEEP_REPLICATES = 20
SWEEP_DURATION_US = 1_000.0
#: Seed replicates per ``run_many`` batch on ``sweep-cached``.  An all-hit
#: 30-config batch takes about 4 ms, so stalls of a few ms on a shared
#: host set its tail; five replicates (150 configs) take about 20 ms.
CACHED_REPLICATES_PER_BATCH = 5


# ----------------------------------------------------------------------
# Inputs and runners
# ----------------------------------------------------------------------
def sweep_batches(seed: int) -> List[List[SystemConfig]]:
    """One session: a 30-config batch per seed replicate."""
    return [
        [
            SystemConfig(
                traffic=TrafficSpec.homogeneous_poisson(SWEEP_STREAMS, float(rate)),
                paradigm="locking", policy=policy,
                duration_us=SWEEP_DURATION_US,
                warmup_us=SWEEP_DURATION_US * 0.125,
                seed=seed * SWEEP_REPLICATES + replicate,
            )
            for rate in SWEEP_RATES
            for policy in SWEEP_POLICIES
        ]
        for replicate in range(SWEEP_REPLICATES)
    ]


def cached_batches(seed: int) -> List[List[SystemConfig]]:
    """The session of ``sweep_batches``, in the same order, with
    ``CACHED_REPLICATES_PER_BATCH`` replicates to a batch."""
    batches = sweep_batches(seed)
    step = CACHED_REPLICATES_PER_BATCH
    return [[config for batch in batches[i:i + step] for config in batch]
            for i in range(0, len(batches), step)]


class BatchTimedRunner(SweepRunner):
    """Serial, uncached runner that records the latency of each batch the
    experiments submit (the suite's ``run_many`` calls come from inside
    the experiments, not from the benchmark)."""

    def __init__(self) -> None:
        super().__init__(jobs=0, cache=None)
        self.batch_s: List[float] = []

    def run_many(self, configs: Sequence[SystemConfig],
                 label: str = "") -> list:
        t0 = time.perf_counter()
        try:
            return super().run_many(configs, label)
        finally:
            self.batch_s.append(time.perf_counter() - t0)


def build_runner(workload: str) -> SweepRunner:
    """Everything ``setup_s`` covers after the imports: the runner, and for
    the sweeps a warm fleet that has already served one batch."""
    if workload == "suite-cold":
        for eid in EXPERIMENT_IDS:
            load_experiment(eid)
        return BatchTimedRunner()
    runner = SweepRunner(jobs=SWEEP_JOBS, backend="warm")
    runner.run_many([
        SystemConfig(traffic=TrafficSpec.homogeneous_poisson(SWEEP_STREAMS, 1_000.0),
                     policy=policy, duration_us=SWEEP_DURATION_US,
                     warmup_us=SWEEP_DURATION_US * 0.125, seed=0)
        for policy in SWEEP_POLICIES[:SWEEP_JOBS]
    ])
    return runner


def repeat_for(seconds: float, body: Callable[[], float]) -> List[float]:
    """Run ``body`` (which returns its own wall time) at least once, and
    again while another repetition is expected to end within ``seconds``."""
    walls: List[float] = []
    start = time.perf_counter()
    while True:
        walls.append(body())
        typical = sorted(walls)[len(walls) // 2]
        if time.perf_counter() - start + typical > seconds:
            return walls


# ----------------------------------------------------------------------
# suite-cold
# ----------------------------------------------------------------------
def snapshot(result: Any) -> Dict[str, object]:
    """An experiment's rows and JSON-able meta, canonicalized the way the
    goldens store them."""
    meta: Dict[str, object] = {}
    skipped: List[str] = []
    for key in sorted(result.meta):
        try:
            meta[key] = canonicalize(result.meta[key])
        except UncacheableConfig:
            skipped.append(key)
    return {"rows": canonicalize(result.rows), "meta": meta,
            "meta_skipped": skipped}


def _canonical_json(value: object) -> str:
    # repr-exact floats, NaN/inf spelled out, so equal text = equal values.
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(payload: Dict[str, object]) -> str:
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def run_suite(runner: BatchTimedRunner, seed: int, ids: Sequence[str],
              span: Optional[Callable[[str], Any]] = None,
              ) -> Dict[str, Dict[str, Any]]:
    """Run ``ids`` in order; per experiment: payload digest, wall, sims."""
    out: Dict[str, Dict[str, Any]] = {}
    with use_runner(runner):
        for eid in ids:
            sims0 = runner.stats.simulations
            t0 = time.perf_counter()
            if span is None:
                result = run_experiment(eid, fast=True, seed=seed)
            else:
                with span(f"experiments.{eid}"):
                    result = run_experiment(eid, fast=True, seed=seed)
            wall = time.perf_counter() - t0
            payload = snapshot(result)
            out[eid] = {"payload": payload, "digest": digest(payload),
                        "wall_s": wall,
                        "sims": runner.stats.simulations - sims0}
    return out


def golden_seed(goldens: Path) -> Optional[int]:
    """The seed the goldens were recorded at (``None`` without goldens)."""
    seeds = {json.loads(p.read_text())["seed"]
             for p in sorted(goldens.glob("e*.json"))}
    return seeds.pop() if len(seeds) == 1 else None


def check_goldens(suite: Dict[str, Dict[str, Any]], goldens: Path) -> List[str]:
    """Experiments whose rows, meta or skipped-meta list differ from the
    golden at all (rtol=0, atol=0; NaN equals NaN), each with the first
    differing part."""
    bad: List[str] = []
    for eid, run in suite.items():
        path = goldens / f"{eid}.json"
        if not path.is_file():
            bad.append(f"{eid}: no golden")
            continue
        golden = json.loads(path.read_text())
        for part in ("rows", "meta", "meta_skipped"):
            if _canonical_json(golden[part]) != _canonical_json(run["payload"][part]):
                bad.append(f"{eid}: {part} differ from {path.name}")
                break
    return bad


# ----------------------------------------------------------------------
# sweep-cold / sweep-cached
# ----------------------------------------------------------------------
def differing(a: Sequence[Any], b: Sequence[Any]) -> List[int]:
    """Indices where two result lists differ, comparing rendered values so
    that NaN sentinels of empty runs compare equal."""
    if len(a) != len(b):
        return list(range(max(len(a), len(b))))
    return [i for i, (x, y) in enumerate(zip(a, b)) if repr(x) != repr(y)]


def serial_reference(batches: Sequence[Sequence[SystemConfig]]) -> List[Any]:
    """The whole session through a serial, uncached runner."""
    runner = SweepRunner(jobs=0, cache=None)
    return [s for batch in batches for s in runner.run_many(batch)]


def prepare_sweep(seed: int, fill_root: Optional[str]) -> List[Any]:
    """The serial reference of the seed's session; with ``fill_root``, also
    a cache there that holds every reference result under its content key
    (what ``sweep-cached`` reads)."""
    batches = sweep_batches(seed)
    reference = serial_reference(batches)
    if fill_root is not None:
        cache = ResultCache(Path(fill_root))
        configs = [config for batch in batches for config in batch]
        for config, summary in zip(configs, reference):
            cache.put(config_key(config), summary)
    return reference


def sweep_session(runner: SweepRunner,
                  batches: Sequence[Sequence[SystemConfig]],
                  cache_root: Path) -> Tuple[float, List[float], List[Any], int]:
    """Submit every batch to ``runner`` against the cache at ``cache_root``.

    Returns (wall_s, per-batch latencies, results, executed simulations).
    """
    runner.cache = ResultCache(cache_root)
    executed0 = runner.stats.executed
    results: List[Any] = []
    batch_s: List[float] = []
    t0 = time.perf_counter()
    for batch in batches:
        t1 = time.perf_counter()
        results.extend(runner.run_many(batch))
        batch_s.append(time.perf_counter() - t1)
    wall = time.perf_counter() - t0
    return wall, batch_s, results, runner.stats.executed - executed0
