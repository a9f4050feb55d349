"""Benchmark of the parallel sweep runner (the acceptance gate for the
``repro.runner`` subsystem).

Times a rate-grid sweep shaped like E10's fast grid — independent
simulations at several arrival rates — serially (``jobs=0``) and fanned
out over 4 worker processes, and reports the speedup.  On a >= 4-core
machine the parallel sweep must be at least 2x faster; on smaller
machines (e.g. a 1-CPU CI container, where worker processes cannot beat
serial) the speedup is reported but not asserted.

Also exercises the warm-cache path: a second pass over the same grid must
execute zero simulations.

The second half benchmarks the *execution backends* against each other on
an E06-style 300-point grid of very short simulations — the regime where
per-task overhead (process spawn, config pickling, model rebuild, result
pickling) dominates and the warm backend's persistent workers and chunked
dispatch pay off.  The distributed backend rides
the same comparison so its happy-path tax over the warm fleet (framing,
leases, heartbeats, the commit gate; docs/DISTRIBUTED.md) is recorded,
not guessed.  ``BENCH_sweep.json`` holds the frozen recording of this
comparison (the trajectory now lives in ``BENCH_perfbench.json``);
``--check`` is the CI perf-smoke gate against it (per-backend
conservative throughput floors, auto-skipping when the recording is
absent).

Runnable three ways::

    pytest benchmarks/bench_runner.py -s --benchmark-only
    PYTHONPATH=src python benchmarks/bench_runner.py [--sweep]
    PYTHONPATH=src python benchmarks/bench_runner.py --check   # CI gate
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from repro.runner import ResultCache, SweepRunner
from repro.sim.system import SystemConfig
from repro.workloads.traffic import TrafficSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
SWEEP_JSON = REPO_ROOT / "BENCH_sweep.json"

#: E10's fast-mode rate grid (packets/s), one Locking/MRU run per point.
RATE_GRID = (2_000, 8_000, 16_000, 28_000, 38_000)

#: Assert the >=2x speedup only where the hardware can deliver it.
MIN_CORES_FOR_ASSERT = 4
REQUIRED_SPEEDUP = 2.0


def sweep_configs(duration_us: float = 400_000.0) -> list:
    """One independent simulation per rate point (E10 fast shape)."""
    return [
        SystemConfig(
            traffic=TrafficSpec.homogeneous_poisson(8, float(rate)),
            paradigm="locking", policy="mru",
            duration_us=duration_us, warmup_us=duration_us * 0.15,
            seed=1,
        )
        for rate in RATE_GRID
    ]


def time_sweep(jobs: int, configs, cache=None):
    """Run the sweep once; returns (elapsed_s, results)."""
    runner = SweepRunner(jobs=jobs, cache=cache)
    t0 = time.perf_counter()
    results = runner.run_many(configs)
    return time.perf_counter() - t0, results, runner.stats


def compare(duration_us: float = 400_000.0):
    """Serial vs jobs=4 vs warm cache; returns a report dict."""
    configs = sweep_configs(duration_us)
    t_serial, serial, _ = time_sweep(0, configs)
    t_par, par, _ = time_sweep(4, configs)
    assert par == serial, "parallel sweep diverged from serial reference"

    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        time_sweep(0, configs, cache=cache)
        t_warm, warm, warm_stats = time_sweep(0, configs, cache=cache)
        assert warm == serial, "cached sweep diverged from serial reference"
        assert warm_stats.executed == 0, "warm cache re-executed simulations"

    return {
        "points": len(configs),
        "serial_s": t_serial,
        "parallel_s": t_par,
        "speedup": t_serial / t_par if t_par > 0 else float("inf"),
        "warm_cache_s": t_warm,
        "cpus": os.cpu_count() or 1,
    }


def measure_overhead(repeats: int = 5, duration_us: float = 200_000.0):
    """Happy-path cost of the hardened runner (docs/ROBUSTNESS.md).

    Times the same sweep two ways, best-of-``repeats``: a bare
    ``run_simulation`` loop, and a serial ``SweepRunner`` with the full
    fault-tolerance machinery armed (timeout, retries, key computation)
    but no faults firing.  The difference is the per-run hardening tax —
    budgeted at < 2% (``docs/PERFORMANCE.md``), since the dominant cost
    of every real sweep is the simulation itself.
    """
    import gc

    from repro.sim.system import run_simulation

    configs = sweep_configs(duration_us)

    def timed(fn):
        # Collect first and keep the collector off while timing: the
        # repeats allocate identically, so an automatic gen-2 pass
        # phase-locks into one section and best-of-N cannot filter it.
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            out = fn()
            return time.perf_counter() - t0, out
        finally:
            gc.enable()

    raw_times = []
    runner_times = []
    for _ in range(repeats):
        elapsed, reference = timed(lambda: [run_simulation(c) for c in configs])
        raw_times.append(elapsed)

        hardened = SweepRunner(jobs=0, cache=None, timeout_s=300.0, retries=2)
        elapsed, results = timed(lambda: hardened.run_many(configs))
        runner_times.append(elapsed)
        assert results == reference, "hardened runner diverged from raw loop"
    # The overhead estimate uses the *median of paired differences*:
    # each repeat's raw and runner sweeps run back-to-back, so machine
    # drift cancels within a pair, and the median discards the odd
    # repeat that caught a scheduler hiccup (best-of-N cannot — a spike
    # on one side only inflates the difference).
    diffs = sorted(b - a for a, b in zip(raw_times, runner_times))
    median_diff_s = diffs[len(diffs) // 2]
    raw_s = min(raw_times)
    return {
        "raw_s": round(raw_s, 4),
        "runner_s": round(raw_s + median_diff_s, 4),
        "overhead_pct": round(median_diff_s / raw_s * 100.0, 2),
    }


# ----------------------------------------------------------------------
# Backend comparison: the BENCH_sweep.json trajectory
# ----------------------------------------------------------------------

#: E06-style 300-config session: the Fig. 6 fast grid (5 policies x 6
#: rates = 30 configs) replicated over 10 seeds, submitted one
#: ``run_many`` batch per replicate — exactly how the experiment harness
#: drives the runner (one batch per figure series / search round / seed
#: replicate), which is the calling pattern that motivates persistent
#: workers: the warm backend spawns and warms its fleet on the first
#: batch only.
SWEEP_POLICIES = ("fcfs", "mru", "stream-mru", "pools", "wired-streams")
SWEEP_RATES = (2_000, 8_000, 16_000, 24_000, 32_000, 38_000)
SWEEP_REPLICATES = 10

#: Horizon per point: short on purpose.  The batched core finishes one
#: of these simulations in ~1 ms, which is where sweep campaigns now
#: live (the motivation section of the backend PR) — runner overhead,
#: not simulation, is the contended resource being measured.
SWEEP_DURATION_US = 1_000.0

#: Fleet width for the parallel backends.  Sized for a sweep box, not
#: for a small CI runner: the warm backend amortizes its fleet spawn
#: (cost linear in ``jobs``) across the session.
SWEEP_JOBS = 8

#: Conservative configs/s floors for ``--check``, sized for a slow shared
#: 1-CPU CI runner (>= 3x headroom vs the recorded numbers; see
#: BENCH_sweep.json for what the recording machine actually sustains).
MIN_CONFIGS_PER_SEC = {
    "serial": 60.0,
    "warm": 50.0,
    "distributed": 10.0,
}


def backend_sweep_batches(duration_us: float = SWEEP_DURATION_US) -> list:
    """The session's batches: one Fig. 6 fast grid per seed replicate."""
    batches = []
    for seed in range(1, SWEEP_REPLICATES + 1):
        batches.append([
            SystemConfig(
                traffic=TrafficSpec.homogeneous_poisson(8, float(rate)),
                paradigm="locking", policy=policy,
                duration_us=duration_us, warmup_us=duration_us * 0.125,
                seed=seed,
            )
            for rate in SWEEP_RATES
            for policy in SWEEP_POLICIES
        ])
    return batches


def _one_session(runner, batches):
    """One cold-cache session: the batch sequence start to finish."""
    t0 = time.perf_counter()
    out = []
    for batch in batches:
        out.extend(runner.run_many(batch))
    return time.perf_counter() - t0, out


def _same_results(a, b) -> bool:
    """Bit-identity check that treats NaN == NaN.

    The 1 ms horizon legitimately produces zero-measured-packet runs at
    the lightest rate, whose delay fields are NaN sentinels; dataclass
    ``==`` would report those as diverging even when the backends agree
    bit for bit, so compare the rendered values instead.
    """
    return len(a) == len(b) and repr(a) == repr(b)


def compare_backends(repeats: int = 5,
                     duration_us: float = SWEEP_DURATION_US):
    """serial vs warm vs distributed on the E06-style session.

    Each backend keeps **one runner for all its sessions**, so it is
    measured the way it runs in practice: the warm backend spawns
    workers once and carries models, MRU state and chunk-size estimates
    across batches.

    Sessions are **interleaved round-robin** (serial, warm, distributed,
    serial, ...) rather than run as per-backend legs: on a shared box
    the machine drifts over the minutes the comparison takes (thermal
    throttling, competing load), and sequential legs would hand whole
    degraded phases to whichever backend ran last.  Interleaving spreads
    drift across all three, and best-of-``repeats`` then clips the slow
    rounds for each backend independently.
    """
    batches = backend_sweep_batches(duration_us)
    points = sum(len(b) for b in batches)
    order = ("serial", "warm", "distributed")
    runners = {
        backend: SweepRunner(jobs=0 if backend == "serial" else SWEEP_JOBS,
                             backend=backend)
        for backend in order
    }
    best = {backend: float("inf") for backend in order}
    reference = None
    try:
        for _ in range(repeats):
            for backend in order:
                elapsed, results = _one_session(runners[backend], batches)
                if reference is None:
                    reference = results
                else:
                    assert _same_results(results, reference), \
                        f"{backend} backend diverged from the serial reference"
                best[backend] = min(best[backend], elapsed)
        rows = {}
        for backend in order:
            stats = runners[backend].stats
            rows[backend] = {
                "backend": backend,
                "jobs": 0 if backend == "serial" else SWEEP_JOBS,
                "points": points,
                "batches": len(batches),
                "best_s": round(best[backend], 4),
                "configs_per_sec": round(points / best[backend], 2),
                "chunks": stats.chunks,
            }
            if backend == "distributed":
                rows[backend]["lease_expiries"] = stats.lease_expiries
                rows[backend]["dup_results"] = stats.dup_results
    finally:
        for runner in runners.values():
            runner.close()
    for backend in order:
        row = rows[backend]
        extra = ""
        if backend == "warm":
            extra = f"  ({row['chunks']} chunks)"
        elif backend == "distributed":
            extra = (f"  ({row['chunks']} chunks, "
                     f"{row['lease_expiries']} expired, "
                     f"{row['dup_results']} dups)")
        print(f"[bench_runner] {backend}: {row['best_s']:.3f} s  "
              f"{row['configs_per_sec']:,.1f} configs/s" + extra)
    warm_vs_serial = (rows["warm"]["configs_per_sec"]
                      / rows["serial"]["configs_per_sec"])
    # The distributed backend's happy-path tax vs the warm fleet it
    # degrades to: how much the network seam (framing, leases,
    # heartbeats, the commit gate) costs when nothing goes wrong.
    dist_overhead_pct = (rows["warm"]["configs_per_sec"]
                         / rows["distributed"]["configs_per_sec"] - 1.0) * 100.0
    print(f"[bench_runner] warm vs serial: {warm_vs_serial:.2f}x on "
          f"{os.cpu_count()} CPUs")
    print(f"[bench_runner] distributed happy-path overhead vs warm: "
          f"{dist_overhead_pct:+.1f}%")
    return {
        "points": points,
        "batches": len(batches),
        "grid": {
            "policies": list(SWEEP_POLICIES),
            "rates_pps": list(SWEEP_RATES),
            "replicates": SWEEP_REPLICATES,
            "duration_us": duration_us,
        },
        "jobs": SWEEP_JOBS,
        "cpus": os.cpu_count() or 1,
        "backends": rows,
        "warm_vs_serial": round(warm_vs_serial, 3),
        "distributed_overhead_vs_warm_pct": round(dist_overhead_pct, 1),
    }


def check(repeats: int = 3) -> int:
    """CI perf-smoke gate for the backend sweep; returns an exit code."""
    if not SWEEP_JSON.exists():
        print(f"[bench_runner] SKIP: {SWEEP_JSON.name} missing "
              "(frozen history: restore it from git)")
        return 0
    report = compare_backends(repeats=repeats)
    failures = []
    for backend, floor in MIN_CONFIGS_PER_SEC.items():
        got = report["backends"][backend]["configs_per_sec"]
        if got < floor:
            failures.append(
                f"{backend}: {got:,.1f} configs/s below the conservative "
                f"floor {floor:,.1f}")
    if failures:
        for f in failures:
            print(f"[bench_runner] FAIL: {f}")
        return 1
    print("[bench_runner] OK")
    return 0


def test_parallel_sweep_speedup(benchmark):
    """jobs=4 over E10's rate grid: >=2x on >=4 cores, identical always."""
    configs = sweep_configs()
    t_serial, serial, _ = time_sweep(0, configs)

    def parallel():
        elapsed, results, _ = time_sweep(4, configs)
        assert results == serial
        return elapsed

    t_par = benchmark.pedantic(parallel, rounds=1, iterations=1)
    speedup = t_serial / t_par if t_par > 0 else float("inf")
    print(f"\nserial {t_serial:.2f}s, jobs=4 {t_par:.2f}s, "
          f"speedup {speedup:.2f}x on {os.cpu_count()} CPUs")
    if (os.cpu_count() or 1) >= MIN_CORES_FOR_ASSERT:
        assert speedup >= REQUIRED_SPEEDUP


def test_warm_cache_executes_nothing(benchmark):
    """Second pass over a cached grid is pure lookup."""
    import tempfile

    configs = sweep_configs(duration_us=100_000.0)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        _, cold, _ = time_sweep(0, configs, cache=cache)

        def warm():
            elapsed, results, stats = time_sweep(0, configs, cache=cache)
            assert results == cold
            assert stats.executed == 0
            assert stats.cache_hits == len(configs)
            return elapsed

        t_warm = benchmark.pedantic(warm, rounds=1, iterations=1)
        print(f"\nwarm-cache sweep: {t_warm*1000:.1f} ms "
              f"for {len(configs)} points")


if __name__ == "__main__":
    if "--check" in sys.argv:
        sys.exit(check())
    if "--sweep" in sys.argv:
        compare_backends()
        sys.exit(0)
    report = compare()
    print(f"{report['points']}-point sweep on {report['cpus']} CPUs")
    print(f"  serial (jobs=0): {report['serial_s']:.2f}s")
    print(f"  jobs=4:          {report['parallel_s']:.2f}s "
          f"({report['speedup']:.2f}x)")
    print(f"  warm cache:      {report['warm_cache_s']*1000:.1f} ms")
    if report["cpus"] >= MIN_CORES_FOR_ASSERT:
        ok = report["speedup"] >= REQUIRED_SPEEDUP
        print(f"  speedup gate (>= {REQUIRED_SPEEDUP}x): "
              f"{'PASS' if ok else 'FAIL'}")
        raise SystemExit(0 if ok else 1)
    print(f"  speedup gate skipped (< {MIN_CORES_FOR_ASSERT} CPUs)")
