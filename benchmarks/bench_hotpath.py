"""Hot-path benchmark of the discrete-event core (both paradigms).

Measures three 500 ms-horizon single-run workloads and reports, per case:

- wall-clock time for the run,
- engine events per second (the headline throughput number),
- host µs per injected packet,
- the exec-model fast-path hit rate (acceptance gate: >= 0.90).

Cases:

``locking/mru`` and ``ips/ips-mru``
    The PR-4 gate workload — 8 homogeneous Poisson streams at 20k
    packets/s aggregate, seed 2 — kept verbatim so the events/s
    trajectory stays comparable PR over PR.
``locking/mru@det-saturated``
    8 phase-staggered deterministic streams at 200k packets/s aggregate:
    a deep-overload dispatch stress in which every event is either a
    queue insertion or a completion-dispatch, with zero penalty-cache
    probes (all penalties resolve analytically).  This is the batched
    engine's headline case: the fused array core sustains >= 1M events/s
    on it in pure Python (see ``BENCH_hotpath.json``).

Runnable three ways::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # report
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check    # CI gate
    pytest benchmarks/bench_hotpath.py -s --benchmark-only       # pytest-benchmark

``--check`` is the CI perf-smoke gate: it loads the recorded numbers from
``BENCH_hotpath.json`` at the repo root (frozen history, no longer
re-recorded) and fails when the measured events/s drop below a conservative absolute
floor or regress more than :data:`MAX_REGRESSION` against the recorded
run.  When the recording is missing (a branch stacked before the file
lands) the check auto-skips, mirroring the runner benchmark's
slow-machine policy; set ``REPRO_BENCH_STRICT=1`` to also enforce the
relative gate on hardware comparable to the recording.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict

from repro.sim import batch
from repro.sim.system import NetworkProcessingSystem, SystemConfig
from repro.workloads.arrivals import DeterministicSpec
from repro.workloads.traffic import FixedSize, TrafficSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_hotpath.json"

#: The gated workloads (keep in sync with BENCH_hotpath.json's
#: "workloads").  ``poisson-20k`` is the PR-4 gate workload, unchanged;
#: ``det-saturated-200k`` is the batched engine's >= 1M events/s case.
WORKLOADS = {
    "poisson-20k": {
        "kind": "poisson",
        "n_streams": 8,
        "total_rate_pps": 20_000.0,
        "duration_us": 500_000.0,
        "warmup_us": 50_000.0,
        "seed": 2,
    },
    "det-saturated-200k": {
        "kind": "deterministic",
        "n_streams": 8,
        "total_rate_pps": 200_000.0,
        "phase_step_us": 7.0,
        "duration_us": 500_000.0,
        "warmup_us": 250_000.0,
        "seed": 2,
    },
}

#: Benchmarked cases: (case key, paradigm, policy, workload name).  The
#: two Poisson keys predate the workload suffix and stay bare so the
#: recorded trajectory in ``BENCH_hotpath.json`` remains directly
#: comparable.
CASES = (
    ("locking/mru", "locking", "mru", "poisson-20k"),
    ("ips/ips-mru", "ips", "ips-mru", "poisson-20k"),
    ("locking/mru@det-saturated", "locking", "mru", "det-saturated-200k"),
)

#: Absolute events/s floors for ``--check``: conservative enough for a
#: slow shared CI runner (observed machine-period swings reach ~40%).
#: The pre-overhaul code sustained ~74k ev/s on the Poisson workload;
#: the fused batched core does ~450-700k there and ~1M+ on the
#: saturated case.
MIN_EVENTS_PER_SEC = {
    "poisson-20k": 100_000.0,
    "det-saturated-200k": 300_000.0,
}

#: Maximum tolerated events/s regression vs the recorded run when the
#: strict (same-machine) gate is enabled.
MAX_REGRESSION = 0.30

#: Exec-model fast-path hit-rate acceptance gate (always enforced).
MIN_HIT_RATE = 0.90


def build_config(paradigm: str, policy: str,
                 workload: str = "poisson-20k") -> SystemConfig:
    spec = WORKLOADS[workload]
    if spec["kind"] == "poisson":
        traffic = TrafficSpec.homogeneous_poisson(
            spec["n_streams"], spec["total_rate_pps"]
        )
    else:
        per_stream = spec["total_rate_pps"] / spec["n_streams"]
        traffic = TrafficSpec(
            stream_specs=tuple(
                DeterministicSpec(per_stream, phase_us=spec["phase_step_us"] * i)
                for i in range(spec["n_streams"])
            ),
            size_model=FixedSize(1024),
        )
    return SystemConfig(
        paradigm=paradigm,
        policy=policy,
        traffic=traffic,
        duration_us=spec["duration_us"],
        warmup_us=spec["warmup_us"],
        seed=spec["seed"],
    )


def run_once(paradigm: str, policy: str,
             workload: str = "poisson-20k") -> Dict[str, float]:
    """One timed run; returns the per-run measurement row."""
    system = NetworkProcessingSystem(build_config(paradigm, policy, workload))
    engine = "scalar"
    if batch.engine_mode() != "scalar" and batch.unsupported_reason(system) is None:
        engine = "batched"
    t0 = time.perf_counter()
    summary = system.run()
    elapsed_s = time.perf_counter() - t0
    events = system.sim.events_processed
    injected = system.metrics.arrivals
    stats = system.model.stats()
    return {
        "engine": engine,
        "elapsed_s": elapsed_s,
        "events": float(events),
        "events_per_sec": events / elapsed_s,
        "us_per_packet": elapsed_s * 1e6 / injected,
        "packets_injected": float(injected),
        "n_packets_measured": float(summary.n_packets),
        "mean_delay_us": summary.mean_delay_us,
        "hit_rate": stats["hit_rate"],
        "component_reuse_rate": stats["component_reuse_rate"],
    }


def measure(paradigm: str, policy: str, workload: str = "poisson-20k",
            repeats: int = 5) -> Dict[str, float]:
    """Best-of-``repeats`` measurement (minimum wall time wins: the run is
    deterministic, so the fastest repetition is the least-noisy one)."""
    best = min((run_once(paradigm, policy, workload) for _ in range(repeats)),
               key=lambda row: row["elapsed_s"])
    return best


def report(repeats: int = 5) -> Dict[str, Dict[str, float]]:
    """Measure every case and print the table; returns the rows."""
    rows: Dict[str, Dict[str, float]] = {}
    for case, paradigm, policy, workload in CASES:
        row = measure(paradigm, policy, workload, repeats=repeats)
        rows[case] = row
        print(
            f"[bench_hotpath] {case}: "
            f"{row['elapsed_s']:.4f} s  "
            f"{row['events_per_sec']:,.0f} events/s  "
            f"{row['us_per_packet']:.2f} us/packet  "
            f"hit_rate={row['hit_rate']:.4f}  "
            f"engine={row['engine']}"
        )
    return rows


def check(repeats: int = 5) -> int:
    """CI perf-smoke gate; returns a process exit code."""
    if not BENCH_JSON.exists():
        print(f"[bench_hotpath] SKIP: {BENCH_JSON.name} missing "
              "(frozen history: restore it from git)")
        return 0
    recorded = json.loads(BENCH_JSON.read_text())["current"]
    strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
    rows = report(repeats=repeats)
    workload_of = {case: workload for case, _, _, workload in CASES}
    failures = []
    for case, row in rows.items():
        if row["hit_rate"] < MIN_HIT_RATE:
            failures.append(
                f"{case}: fast-path hit rate {row['hit_rate']:.3f} "
                f"< {MIN_HIT_RATE}"
            )
        floor = MIN_EVENTS_PER_SEC[workload_of[case]]
        if row["events_per_sec"] < floor:
            failures.append(
                f"{case}: {row['events_per_sec']:,.0f} events/s below the "
                f"conservative floor {floor:,.0f}"
            )
        ref = recorded.get(case)
        if strict and ref is not None:
            allowed = (1.0 - MAX_REGRESSION) * ref["events_per_sec"]
            if row["events_per_sec"] < allowed:
                failures.append(
                    f"{case}: {row['events_per_sec']:,.0f} events/s is a "
                    f">{MAX_REGRESSION:.0%} regression vs the recorded "
                    f"{ref['events_per_sec']:,.0f}"
                )
    if failures:
        for f in failures:
            print(f"[bench_hotpath] FAIL: {f}")
        return 1
    print("[bench_hotpath] OK")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry points (skipped in plain test runs; see
# benchmarks/conftest.py)
# ----------------------------------------------------------------------
def test_hotpath_locking(benchmark):
    row = benchmark.pedantic(run_once, args=CASES[0][1:], rounds=3, iterations=1)
    assert row["hit_rate"] >= MIN_HIT_RATE


def test_hotpath_ips(benchmark):
    row = benchmark.pedantic(run_once, args=CASES[1][1:], rounds=3, iterations=1)
    assert row["hit_rate"] >= MIN_HIT_RATE


def test_hotpath_saturated(benchmark):
    row = benchmark.pedantic(run_once, args=CASES[2][1:], rounds=3, iterations=1)
    assert row["hit_rate"] >= MIN_HIT_RATE


if __name__ == "__main__":
    if "--check" in sys.argv:
        sys.exit(check())
    report()
