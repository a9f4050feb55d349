#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the body once untraced and once with every layer entry
point wrapped (``spans.py``), and reports the per-layer split, the tracing
overhead and the share of the traced wall time no layer span covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run's stamp (commit, CPUs, jobs, versions, host calibration).
Workloads, layers and the metric map are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

#: Fresh processes timed for ``setup_s`` before the timed body, and as many
#: again after it; the median of all is reported.  Consecutive probes fall
#: in the same host phase (0.8 s or 1.1 s for a sweep runner), so two
#: groups far apart keep one phase from setting a run's median.
SETUP_PROBES = 3

#: Percentiles tried for ``runner.run_many.tail_ms``, highest first: the first with
#: at least ``TAIL_BEYOND`` samples above it sets the tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

#: Share of a sweep run's sessions, fastest first, that the end-to-end
#: metrics come from.  On a shared VM, host phases of one to a few seconds
#: slow every session that falls in them by up to 75%, and how much of a
#: run they cover moves from run to run; the fastest sessions are the ones
#: that ran at full host speed (see README.md, "Host noise").
FASTEST_SHARE = 0.25


# ----------------------------------------------------------------------
# Small measurement helpers
# ----------------------------------------------------------------------
def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: a host-speed covariate
    stored beside each run, never a metric."""
    def loop() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        return time.perf_counter() - t0
    return statistics.median(loop() for _ in range(5))


def percentile(values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile used, mean of the samples beyond it) for the highest
    ladder percentile with ``TAIL_BEYOND`` samples beyond it (the median
    when none has).  The mean of those samples, rather than the single
    sample at the percentile, is what keeps the tail steady when the batch
    mix changes with the seed."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        _, beyond = percentile(ordered, pct)
        if beyond >= TAIL_BEYOND:
            return pct, statistics.fmean(ordered[-beyond:])
    return 50.0, percentile(ordered, 50.0)[0]


def fastest(walls: Sequence[float]) -> List[int]:
    """Indices of the fastest ``FASTEST_SHARE`` of ``walls`` (at least one)."""
    order = sorted(range(len(walls)), key=walls.__getitem__)
    return order[:max(1, round(len(walls) * FASTEST_SHARE))]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live worker processes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


def setup_samples(workload: str) -> List[float]:
    """``SETUP_PROBES`` fresh processes timed from start through imports
    to runner ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "setup_probe.py"), workload],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline() if probe.stdout else ""
            elapsed = time.perf_counter() - t0
            if probe.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe for {workload} failed")
        samples.append(elapsed)
    return samples


def commit() -> str:
    """``git describe --dirty`` of the checkout, or ``unknown``."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


# ----------------------------------------------------------------------
# Workload bodies
# ----------------------------------------------------------------------
class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.walls: List[float] = []         # untraced bodies the metrics use
        self.bodies_run = 0                  # untraced bodies run
        self.traced_walls: List[float] = []
        self.batch_s: List[float] = []
        self.sims = 0                        # simulations in untraced bodies
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.experiment_walls: Dict[str, float] = {}
        self.runner_delta: Dict[str, float] = {}
        self.rss_mb = 0.0


def _send_reference(conn: Any, seed: int, fill_root: Optional[str]) -> None:
    import workloads as wl

    conn.send(wl.prepare_sweep(seed, fill_root))
    conn.close()


def sweep_reference(seed: int, fill_root: Optional[Path]) -> List[Any]:
    """The session's serial, uncached results (and, with ``fill_root``, a
    cache filled with them), computed in a child process so that the
    benchmark process's peak RSS covers only what it runs itself.

    A forked process and a pipe, not a spawn-context pool: the pool's
    queues start a resource-tracker process that outlives the benchmark."""
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=_send_reference, name="perfbench-reference",
                         args=(send, seed, None if fill_root is None else str(fill_root)))
    child.start()
    send.close()
    try:
        return receive.recv()
    except EOFError:
        raise RuntimeError("serial reference child failed") from None
    finally:
        receive.close()
        child.join()


def run_suite_cold(args: argparse.Namespace, runner: Any, tracer: Any) -> Outcome:
    import workloads as wl
    from repro.experiments.base import EXPERIMENT_IDS as ids

    out = Outcome()
    goldens = ROOT / "tests" / "goldens"
    gseed = wl.golden_seed(goldens) if goldens.is_dir() else None
    suites: List[Dict[str, Dict[str, Any]]] = []

    def account(suite: Dict[str, Dict[str, Any]], bad: Sequence[str]) -> None:
        for eid, run in suite.items():
            units = max(1, run["sims"])
            out.attempted += units
            if any(b.startswith(f"{eid}:") for b in bad):
                out.failed += units
        out.problems.extend(bad)

    def body(span: Any = None) -> float:
        t0 = time.perf_counter()
        suite = wl.run_suite(runner, args.seed, ids, span)
        wall = time.perf_counter() - t0
        suites.append(suite)
        account(suite, wl.check_goldens(suite, goldens)
                if args.seed == gseed else [])
        return wall

    seconds = args.seconds / 2 if args.trace else args.seconds
    out.walls = wl.repeat_for(seconds, body)
    out.bodies_run = len(out.walls)
    out.batch_s = list(runner.batch_s)
    out.sims = sum(run["sims"] for suite in suites for run in suite.values())
    if args.trace:
        before = runner.stats.snapshot()
        tracer.install()
        try:
            out.traced_walls = [body(tracer.span)]
        finally:
            tracer.uninstall()
        out.runner_delta = vars(runner.stats.since(before))
        out.experiment_walls = {eid: run["wall_s"] for eid, run in suites[-1].items()}
    elif len(suites) == 1:
        # One repetition in the timed window: repeat one experiment
        # (chosen by seed) untimed, so every seed gets a repetition check.
        eid = ids[args.seed % len(ids)]
        suites.append({eid: wl.run_suite(runner, args.seed, [eid])[eid]})
        account(suites[-1], [])
    for suite in suites[1:]:
        for eid, run in suite.items():
            if run["digest"] != suites[0][eid]["digest"]:
                out.problems.append(f"{eid}: repetition digest differs")
                out.failed += max(1, run["sims"])
    out.rss_mb = peak_rss_mb()
    return out


def run_sweep(args: argparse.Namespace, runner: Any, tracer: Any,
              reference: List[Any], work: Path) -> Outcome:
    import workloads as wl

    out = Outcome()
    cached = args.workload == "sweep-cached"
    batches = wl.cached_batches(args.seed) if cached else wl.sweep_batches(args.seed)
    n_configs = sum(len(b) for b in batches)
    filled = work / "filled"
    sessions = 0
    session_batch_s: List[List[float]] = []

    def body(traced: bool) -> float:
        nonlocal sessions
        sessions += 1
        root = filled if cached else work / f"cold-{sessions}"
        wall, batch_s, results, executed = wl.sweep_session(runner, batches, root)
        if not cached:
            shutil.rmtree(root, ignore_errors=True)
        bad = wl.differing(results, reference)
        if bad:
            out.problems.append(f"session {sessions}: {len(bad)} results differ "
                                f"from the serial reference")
        if cached and executed:
            out.problems.append(f"session {sessions}: {executed} simulations "
                                f"executed on a filled cache")
        out.attempted += n_configs
        out.failed += min(n_configs, len(bad) + (executed if cached else 0))
        if not traced:
            session_batch_s.append(batch_s)
        return wall

    seconds = args.seconds / 2 if args.trace else args.seconds
    walls = wl.repeat_for(seconds, lambda: body(False))
    kept = fastest(walls)
    out.bodies_run = len(walls)
    out.walls = [walls[i] for i in kept]
    out.batch_s = [b for i in kept for b in session_batch_s[i]]
    out.sims = n_configs * len(kept)
    if args.trace:
        before = runner.stats.snapshot()
        tracer.install()
        try:
            out.traced_walls = wl.repeat_for(seconds, lambda: body(True))
        finally:
            tracer.uninstall()
        out.runner_delta = vars(runner.stats.since(before))
    out.rss_mb = peak_rss_mb()
    return out


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(out: Outcome, setup: Sequence[float]) -> Dict[str, Tuple[float, str]]:
    wall = statistics.median(out.walls)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "sims_per_s": (out.sims / sum(out.walls), "1/s"),
        "peak_rss_mb": (out.rss_mb, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(out: Outcome, tracer: Any) -> Dict[str, Tuple[float, str]]:
    from repro.experiments.base import EXPERIMENT_IDS

    totals = tracer.totals()
    counters = tracer.counters

    def calls(name: str) -> float:
        return totals[name]["calls"]

    def busy(name: str) -> float:
        return totals[name]["busy_s"]

    traced = statistics.median(out.traced_walls[i] for i in fastest(out.traced_walls))
    untraced = statistics.median(out.walls)
    delta = out.runner_delta
    m: Dict[str, Tuple[float, str]] = {
        "sim.batch.runs": (calls("sim.batch"), "count"),
        "sim.batch.busy_s": (busy("sim.batch"), "s"),
        "sim.engine.runs": (calls("sim.engine"), "count"),
        "sim.engine.busy_s": (busy("sim.engine"), "s"),
        "sim.engine.events": (counters["sim.engine.events"], "count"),
        "sim.engine.share": (_ratio(busy("sim.engine"),
                                    busy("sim.engine") + busy("sim.batch")), "frac"),
    }
    for name in spans.FALLBACK_NAMES:
        m[f"sim.fallback.{name}.runs"] = (counters[f"sim.fallback.{name}.runs"], "count")
        m[f"sim.fallback.{name}.busy_s"] = (counters[f"sim.fallback.{name}.busy_s"], "s")
    evals = counters["core.exec_model.component_evals"]
    reused = sum(counters[f"core.exec_model.{k}"]
                 for k in ("analytic_hits", "dedup_hits", "cache_hits"))
    m.update({
        "workloads.arrivals.calls": (calls("workloads.arrivals"), "count"),
        "workloads.arrivals.busy_s": (busy("workloads.arrivals"), "s"),
        "core.exec_model.hit_rate": (_ratio(counters["core.exec_model.fast_calls"],
                                            counters["core.exec_model.calls"]), "frac"),
        "core.exec_model.component_reuse_rate": (_ratio(reused, evals), "frac"),
        "sim.system.build_s": (busy("sim.system.build"), "s"),
        "sim.metrics.summarize_s": (busy("sim.metrics.summarize"), "s"),
    })
    for eid in EXPERIMENT_IDS:
        m[f"experiments.{eid}.wall_s"] = (out.experiment_walls.get(eid, 0.0), "s")
    m.update({
        "runner.run_many.calls": (calls("runner.run_many"), "count"),
        "runner.run_many.busy_s": (busy("runner.run_many"), "s"),
        "runner.run_many.self_s": (totals["runner.run_many"]["self_s"], "s"),
        "runner.run_many.p50_ms": (statistics.median(out.batch_s) * 1e3, "ms"),
        "runner.run_many.tail_ms": (tail(out.batch_s)[1] * 1e3, "ms"),
        "runner.keys.calls": (calls("runner.keys"), "count"),
        "runner.keys.busy_s": (busy("runner.keys"), "s"),
        "runner.cache.get.calls": (calls("runner.cache.get"), "count"),
        "runner.cache.get.busy_s": (busy("runner.cache.get"), "s"),
        "runner.cache.get.hit_ratio": (_ratio(counters["runner.cache.get.hits"],
                                              calls("runner.cache.get")), "frac"),
        "runner.cache.put.calls": (calls("runner.cache.put"), "count"),
        "runner.cache.put.busy_s": (busy("runner.cache.put"), "s"),
        "runner.checkpoint.record.calls": (calls("runner.checkpoint.record"), "count"),
        "runner.checkpoint.record.busy_s": (busy("runner.checkpoint.record"), "s"),
        "runner.backends.run_batch.busy_s": (busy("runner.backends.run_batch"), "s"),
        "runner.backends.chunks": (delta.get("chunks", 0), "count"),
        "runner.backends.steals": (delta.get("steals", 0), "count"),
        "runner.backends.affinity_hit_ratio": (
            _ratio(delta.get("affinity_hits", 0), delta.get("executed", 0)), "frac"),
        "runner.backends.retries": (delta.get("retries", 0), "count"),
        "trace.overhead_frac": (traced / untraced - 1.0, "frac"),
        "trace.unattributed_frac": (
            (sum(out.traced_walls) - tracer.top_level_s) / sum(out.traced_walls), "frac"),
    })
    return m


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-cold", "sweep-cold", "sweep-cached"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads as wl

    nproc = len(os.sched_getaffinity(0))
    jobs = 0 if args.workload == "suite-cold" else wl.SWEEP_JOBS
    if jobs > nproc:
        print(f"perfbench: {args.workload} needs jobs={jobs} with {nproc} CPUs "
              f"available; refusing to measure oversubscription", file=sys.stderr)
        return 2
    calibration_before = calibration_s()

    setup = [] if args.trace else setup_samples(args.workload)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = spans.Tracer()
    try:
        if args.workload == "suite-cold":
            with wl.build_runner(args.workload) as runner:
                out = run_suite_cold(args, runner, tracer)
        else:
            fill = work / "filled" if args.workload == "sweep-cached" else None
            reference = sweep_reference(args.seed, fill)
            with wl.build_runner(args.workload) as runner:
                out = run_sweep(args, runner, tracer, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    if not args.trace:
        setup += setup_samples(args.workload)

    if args.trace:
        metrics = per_layer(out, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.dump(str(OUT / f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = end_to_end(out, setup)
    tail_pct, _ = tail(out.batch_s)
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "nproc": nproc,
        "jobs": jobs,
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "REPRO_ENGINE": os.environ.get("REPRO_ENGINE", ""),
        "calibration_before_s": calibration_before,
        "calibration_after_s": calibration_s(),
        "setup_samples_s": setup, "bodies_run": out.bodies_run,
        "bodies": len(out.walls),
        "traced_bodies": len(out.traced_walls),
        "batch_samples": len(out.batch_s), "batch_tail_pct": tail_pct,
        "problems": out.problems[:20],
    }
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    samples = {"body_walls_s": out.walls, "traced_body_walls_s": out.traced_walls,
               "batch_s": out.batch_s}
    with open(OUT / "records.jsonl", "a") as fh:
        fh.write(json.dumps({"stamp": stamp, "result": result,
                             "samples": samples}) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
