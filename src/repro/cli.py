"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Commands
--------
``repro list``
    Show the experiment index (id, title).
``repro run e06 [--full] [--seed N] [--jobs N] [--no-cache] [--cache-dir P]``
    Run one experiment and print its table/series.
``repro all [--full] [--seed N] [--with-extras] [--jobs N] [...]``
    Run the whole suite in order (the content of EXPERIMENTS.md);
    ``--with-extras`` appends the ablations (a01..a05) and extensions
    (x01..x03).
``repro csv OUTDIR [--full] [--seed N] [--with-extras] [--jobs N] [...]``
    Run every experiment and write its structured rows as
    ``OUTDIR/<id>.csv`` (for plotting outside the terminal).
``repro cache [--clear] [--cache-dir P]``
    Inspect (or clear) the persistent result cache, including the
    quarantine ledger (unreadable entries and mismatched distributed
    results parked for inspection).
``repro sweep status [SWEEP_ID] [--checkpoint-dir P]``
    Inspect checkpointed sweeps: done/pending/failed per journal, plus
    live worker/lease state when a distributed coordinator is running.
``repro sweep worker --address HOST:PORT [--id W]``
    Join a distributed sweep as an external worker agent
    (``docs/DISTRIBUTED.md``); exits when the coordinator says stop.
``repro verify record [--ids e01 e02] [--seed N] [--goldens DIR] [...]``
    Snapshot experiment outputs as golden JSON files (tests/goldens/).
``repro verify check [--ids e01 e02] [--rtol X] [--goldens DIR] [...]``
    Re-run the experiments and diff against the recorded goldens;
    exits non-zero with a per-experiment report on any drift.
``repro lint [--select CODES] [--ignore CODES] [paths]``
    Run the domain-specific static-analysis pass (determinism, ordering,
    units, cache keys, registry, pickle safety, engine parity, warm state
    and the clock seam; rules RPR001..RPR013, see ``docs/LINTING.md``);
    exits non-zero on findings.
``repro faults [--seed N] [--jobs N] [--backend B] [--workdir P]``
    Run the deterministic fault-injection suite (worker crashes, hangs,
    cache corruption, interrupts — plus network chaos when
    ``--backend distributed``: dropped/delayed/duplicated frames,
    partitions, fleet loss) against the real runner and report PASS/FAIL
    per scenario (``docs/ROBUSTNESS.md``, ``docs/DISTRIBUTED.md``);
    exits non-zero on any failure.
``repro simulate --paradigm locking --policy mru --rate 12000 ...``
    One ad-hoc simulation with a summary printout.

Verification
------------
``--check-invariants`` (on ``run``/``all``/``csv``/``simulate`` and the
``verify`` subcommands) runs every simulation under the online
:class:`~repro.verify.invariants.InvariantChecker`; the first violated
invariant aborts with a diagnostic.  Combine with ``--no-cache`` when the
point is to *exercise* the checker — cache hits skip simulation entirely.

Parallelism and caching
-----------------------
``run``/``all``/``csv`` execute their sweeps through the
:mod:`repro.runner` subsystem: ``--jobs N`` fans the independent
simulations of each sweep out over N worker processes (``--jobs 0``, the
default, is the serial fallback; ``--jobs -1`` uses every CPU), with
output guaranteed identical to serial.  Results are cached on disk keyed
by config content + simulator code version (``docs/RUNNER.md``), so
re-runs skip already-computed points; ``--no-cache`` bypasses the cache
and ``--cache-dir`` relocates it.  Each invocation ends with a summary
line reporting simulations run, cache hits, and elapsed wall-clock.

Fault tolerance
---------------
Sweeps are fault-tolerant (``docs/ROBUSTNESS.md``): ``--timeout S``
bounds each simulation's wall clock, ``--retries N`` re-runs failed or
timed-out tasks with deterministic exponential backoff, crashed workers
are respawned transparently, and completed work is checkpointed so
an interrupted invocation (Ctrl-C, SIGTERM) can continue with
``--resume`` without recomputing anything.  Permanent failures are
reported as a structured summary and exit non-zero; ``--fail-fast``
stops at the first one.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from .analysis.tables import format_kv
from .experiments.base import ALL_IDS, EXPERIMENT_IDS, load_experiment, run_experiment
from .runner import (
    BACKEND_NAMES,
    ResultCache,
    SweepExecutionError,
    SweepRunner,
    default_cache_dir,
    use_runner,
)
from .sim.system import SystemConfig, run_simulation
from .workloads.traffic import TrafficSpec

__all__ = ["main", "build_parser"]


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes for sweep fan-out (0 = serial, the default; "
             "-1 = one per CPU)")
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default="warm",
        help="execution engine for --jobs > 1: 'warm' keeps persistent "
             "workers alive across sweeps (default), "
             "'serial' forces in-process execution, "
             "'distributed' leases task chunks to "
             "worker agents over a network transport (docs/DISTRIBUTED.md); "
             "results are bit-identical across backends (see docs/RUNNER.md)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache")
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help=f"result cache location (default: {default_cache_dir()})")
    parser.add_argument(
        "--check-invariants", action="store_true",
        help="run every simulation under the online invariant checker "
             "(conservation, busy-interval non-overlap, causality, lock "
             "mutual exclusion); combine with --no-cache to force execution")
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-simulation wall-clock budget in seconds; over-budget "
             "tasks are reported as timeouts and retried (default: none)")
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts per failed/timed-out simulation, with "
             "deterministic exponential backoff (default: 0)")
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from its checkpoint journal, "
             "recomputing nothing already completed")
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first permanent task failure instead of "
             "completing the rest of the sweep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Salehi/Kurose/Towsley (HPDC-4 1995): "
            "scheduling for cache affinity in parallel network processing"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiment index")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment", choices=list(ALL_IDS))
    p_run.add_argument("--full", action="store_true",
                       help="publication-length horizons (slower)")
    p_run.add_argument("--seed", type=int, default=1)
    _add_runner_flags(p_run)

    p_all = sub.add_parser("all", help="run the whole suite")
    p_all.add_argument("--full", action="store_true")
    p_all.add_argument("--seed", type=int, default=1)
    p_all.add_argument("--with-extras", action="store_true",
                       help="also run ablations a01..a05 and extensions x01..x03")
    _add_runner_flags(p_all)

    p_csv = sub.add_parser("csv", help="write every experiment's rows as CSV")
    p_csv.add_argument("outdir")
    p_csv.add_argument("--full", action="store_true")
    p_csv.add_argument("--seed", type=int, default=1)
    p_csv.add_argument("--with-extras", action="store_true",
                       help="also write ablations a01..a05 and extensions "
                            "x01..x03 (matching `repro all --with-extras`)")
    _add_runner_flags(p_csv)

    p_cache = sub.add_parser("cache", help="inspect the persistent result cache")
    p_cache.add_argument("--clear", action="store_true",
                         help="delete every cached result")
    p_cache.add_argument("--cache-dir", default=None, metavar="PATH")

    p_sweep = sub.add_parser(
        "sweep", help="inspect checkpointed sweeps / join one as a worker")
    ssub = p_sweep.add_subparsers(dest="sweep_command", required=True)
    p_status = ssub.add_parser(
        "status", help="done/pending/leased/failed state of checkpointed "
                       "sweeps (live lease detail for running distributed "
                       "coordinators)")
    p_status.add_argument("sweep_id", nargs="?", default=None, metavar="SWEEP_ID",
                          help="sweep identity (prefix ok; default: list "
                               "every journal)")
    p_status.add_argument("--checkpoint-dir", default=None, metavar="PATH",
                          help="journal directory (default: "
                               "<cache-dir>/checkpoints)")
    p_status.add_argument("--cache-dir", default=None, metavar="PATH")
    p_worker = ssub.add_parser(
        "worker", help="run one external worker agent for a distributed "
                       "sweep coordinator")
    p_worker.add_argument("--address", required=True, metavar="ADDR",
                          help="coordinator tcp address, host:port")
    p_worker.add_argument("--id", default="ext0", metavar="WORKER_ID",
                          dest="worker_id",
                          help="worker identity reported to the coordinator "
                               "(must be unique per agent; default: ext0)")

    p_verify = sub.add_parser(
        "verify", help="golden-result regression (record / check)")
    vsub = p_verify.add_subparsers(dest="verify_command", required=True)
    p_rec = vsub.add_parser(
        "record", help="snapshot experiment outputs as goldens")
    p_rec.add_argument("--ids", nargs="+", default=None, metavar="ID",
                       choices=list(ALL_IDS),
                       help="experiments to record (default: e01..e14)")
    p_rec.add_argument("--seed", type=int, default=1)
    p_rec.add_argument("--full", action="store_true",
                       help="record publication-length grids (slower)")
    p_rec.add_argument("--goldens", default=None, metavar="DIR",
                       help="golden directory (default: tests/goldens)")
    _add_runner_flags(p_rec)
    p_chk = vsub.add_parser(
        "check", help="re-run experiments and diff against goldens")
    p_chk.add_argument("--ids", nargs="+", default=None, metavar="ID",
                       help="experiments to check (default: every golden)")
    p_chk.add_argument("--rtol", type=float, default=None,
                       help="relative tolerance for float fields "
                            "(default: 1e-3; 0 = bit-exact)")
    p_chk.add_argument("--goldens", default=None, metavar="DIR")
    _add_runner_flags(p_chk)

    p_faults = sub.add_parser(
        "faults", help="run the deterministic fault-injection suite "
                       "against the real runner (see docs/ROBUSTNESS.md)")
    p_faults.add_argument("--seed", type=int, default=1,
                          help="fault-plan seed (same seed = same faults)")
    p_faults.add_argument("--jobs", type=int, default=2, metavar="N",
                          help="worker processes for the parallel scenarios")
    p_faults.add_argument("--backend", choices=BACKEND_NAMES,
                          default="warm",
                          help="execution engine for the parallel scenarios; "
                               "'warm' also runs the warm-specific scenarios "
                               "(worker-cache loss, queue stealing) and "
                               "'distributed' the network-chaos scenarios "
                               "(drops, delays, duplicates, partitions, "
                               "fleet loss)")
    p_faults.add_argument("--workdir", default=None, metavar="PATH",
                          help="scratch directory for the scenarios' "
                               "caches/journals (default: a temp dir)")

    p_lint = sub.add_parser(
        "lint", help="run the domain-specific static-analysis pass "
                     "(RPR001..RPR013; see docs/LINTING.md)")
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint (default: the "
                             "installed repro package)")
    p_lint.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(e.g. RPR001,RPR003)")
    p_lint.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated rule codes to skip")
    p_lint.add_argument("--format", choices=("text", "github"),
                        default="text", dest="fmt",
                        help="output style: human-readable report or "
                             "GitHub Actions ::error annotations")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")

    p_sim = sub.add_parser("simulate", help="one ad-hoc simulation")
    p_sim.add_argument("--paradigm", choices=("locking", "ips"), default="locking")
    p_sim.add_argument("--policy", default="mru")
    p_sim.add_argument("--rate", type=float, default=12_000.0,
                       help="aggregate arrival rate (packets/s)")
    p_sim.add_argument("--streams", type=int, default=8)
    p_sim.add_argument("--processors", type=int, default=8)
    p_sim.add_argument("--intensity", type=float, default=1.0,
                       help="non-protocol displacement intensity")
    p_sim.add_argument("--stacks", type=int, default=None,
                       help="IPS stack count (default: one per processor)")
    p_sim.add_argument("--burst", type=float, default=1.0,
                       help="mean burst size on stream 0 (1 = smooth)")
    p_sim.add_argument("--fixed-overhead-us", type=float, default=0.0,
                       help="cache-independent per-packet overhead (the V knob)")
    p_sim.add_argument("--lock-granularity", type=int, default=1,
                       help="Locking paradigm: number of per-layer locks")
    p_sim.add_argument("--duration-ms", type=float, default=500.0)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--check-invariants", action="store_true",
                       help="run under the online invariant checker")
    return parser


def _make_runner(args: argparse.Namespace) -> SweepRunner:
    """Build the sweep runner requested by --jobs/--no-cache/--cache-dir."""
    jobs = None if args.jobs is not None and args.jobs < 0 else args.jobs
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return SweepRunner(
        jobs=jobs, cache=cache,
        check_invariants=getattr(args, "check_invariants", False),
        backend=getattr(args, "backend", "warm"),
        timeout_s=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 0),
        resume=getattr(args, "resume", False),
        fail_fast=getattr(args, "fail_fast", False))


def _print_runner_summary(runner: SweepRunner) -> None:
    runner.close()  # retire persistent warm workers before reporting
    print(f"[runner] {runner.stats.summary_line(runner.jobs_label())}")


def _cmd_list() -> int:
    for eid in EXPERIMENT_IDS:
        module = load_experiment(eid)
        print(f"{eid}: {module.TITLE}")
    from .experiments import ablations, extensions
    for aid in ("a01", "a02", "a03", "a04", "a05"):
        doc = getattr(ablations, f"run_{aid}").__doc__.splitlines()[0]
        print(f"{aid}: [ablation] {doc}")
    for xid in ("x01", "x02", "x03"):
        doc = getattr(extensions, f"run_{xid}").__doc__.splitlines()[0]
        print(f"{xid}: [extension] {doc}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    with use_runner(runner):
        result = run_experiment(args.experiment, fast=not args.full,
                                seed=args.seed)
    print(result)
    _print_runner_summary(runner)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    ids = ALL_IDS if args.with_extras else EXPERIMENT_IDS
    runner = _make_runner(args)
    with use_runner(runner):
        for eid in ids:
            t0 = time.perf_counter()
            before = runner.stats.snapshot()
            result = run_experiment(eid, fast=not args.full, seed=args.seed)
            delta = runner.stats.since(before)
            print(result)
            print(f"[{eid}] {delta.simulations} simulations "
                  f"({delta.cache_hits} cached) in "
                  f"{time.perf_counter() - t0:.1f}s")
            print()
    _print_runner_summary(runner)
    return 0


def _cmd_csv(args: argparse.Namespace) -> int:
    import os

    os.makedirs(args.outdir, exist_ok=True)
    ids = ALL_IDS if args.with_extras else EXPERIMENT_IDS
    runner = _make_runner(args)
    with use_runner(runner):
        for eid in ids:
            result = run_experiment(eid, fast=not args.full, seed=args.seed)
            path = os.path.join(args.outdir, f"{eid}.csv")
            result.to_csv(path)
            print(f"wrote {path} ({len(result.rows)} rows)")
    _print_runner_summary(runner)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.prune()
        print(f"cleared {removed} cached results from {cache.root}")
        return 0
    print(f"cache dir: {cache.root}")
    print(f"entries:   {len(cache)}")
    legacy = sum(1 for _ in cache.legacy_entries())
    if legacy:
        print(f"ignored:   {legacy} entries in the old one-file-per-key "
              f"layout (not migrated; --clear removes them)")
    # Always surfaced, zero included: the quarantine ledger is where both
    # damaged cache frames and mismatched distributed results land,
    # and "0 quarantined" is itself the health signal worth reading.
    print(f"quarantined: {cache.quarantined_entries()} entries parked in "
          f"{cache.quarantine_dir} (damaged cache frames and mismatched "
          f"distributed results; see docs/ROBUSTNESS.md)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from .runner import run_fault_suite

    if args.workdir is not None:
        results = run_fault_suite(Path(args.workdir), jobs=args.jobs,
                                  seed=args.seed, backend=args.backend)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
            results = run_fault_suite(Path(tmp), jobs=args.jobs,
                                      seed=args.seed, backend=args.backend)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    failed = sum(1 for r in results if not r.ok)
    print(f"[faults] {len(results) - failed}/{len(results)} scenarios passed "
          f"(seed={args.seed}, jobs={args.jobs}, backend={args.backend})")
    return 1 if failed else 0


def _sweep_status_dir(args: argparse.Namespace) -> Path:
    if args.checkpoint_dir is not None:
        return Path(args.checkpoint_dir)
    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    return Path(cache_dir) / "checkpoints"


def _print_sweep_entry(path: Path, verbose: bool) -> bool:
    """One journal's status block; returns False when unreadable."""
    import json

    from .runner import journal_status

    status = journal_status(path)
    if status is None:
        return False
    done, total = status["done"], status["total"]
    label = f" [{status['label']}]" if status["label"] else ""
    print(f"{status['sweep']}{label}: {done}/{total} done")
    state_path = path.with_name(path.stem + ".state.json")
    try:
        live = json.loads(state_path.read_text())
    except (OSError, ValueError):
        live = None
    if live is None:
        remaining = (total - done
                     if isinstance(total, int) and isinstance(done, int)
                     else 0)
        if remaining > 0:
            print(f"  no live coordinator; resume with --resume to finish "
                  f"the remaining {remaining} task(s)")
        return True
    workers = live.get("workers") or []
    leases = live.get("leases") or []
    print(f"  live {live.get('backend', '?')} coordinator: "
          f"{live.get('pending', '?')} pending, {len(leases)} leased, "
          f"{live.get('failed', '?')} failed; "
          f"{len(workers)} worker(s) registered")
    if verbose:
        for lease in leases:
            tasks = lease.get("tasks", [])
            print(f"  lease #{lease.get('lease')} -> {lease.get('worker')}: "
                  f"{len(tasks)} task(s), age {lease.get('age_s', 0):.1f}s, "
                  f"last beat {lease.get('beat_age_s', 0):.1f}s ago")
    return True


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.sweep_command == "worker":
        from .runner import run_worker_agent

        print(f"[worker {args.worker_id}] joining coordinator at "
              f"{args.address}", file=sys.stderr)
        run_worker_agent(args.address, args.worker_id)
        return 0
    directory = _sweep_status_dir(args)
    journals = sorted(directory.glob("*.log")) if directory.is_dir() else []
    if args.sweep_id is not None:
        journals = [p for p in journals if p.stem.startswith(args.sweep_id)]
        if not journals:
            print(f"repro sweep status: no journal matching "
                  f"{args.sweep_id!r} in {directory}", file=sys.stderr)
            return 1
    if not journals:
        print(f"no checkpointed sweeps in {directory} (journals are "
              f"deleted on clean completion — nothing to resume)")
        return 0
    shown = 0
    for path in journals:
        shown += 1 if _print_sweep_entry(path, args.sweep_id is not None) else 0
    if shown == 0:
        print(f"repro sweep status: no readable journal in {directory}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import golden

    runner = _make_runner(args)
    directory = args.goldens
    if args.verify_command == "record":
        with use_runner(runner):
            written = golden.record(ids=args.ids, seed=args.seed,
                                    fast=not args.full, directory=directory)
        for path in written:
            print(f"recorded {path}")
        _print_runner_summary(runner)
        return 0
    rtol = args.rtol if args.rtol is not None else golden.DEFAULT_RTOL
    with use_runner(runner):
        report = golden.check(ids=args.ids, directory=directory, rtol=rtol)
    print(report.format())
    _print_runner_summary(runner)
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .lint import (
        RULES, lint_paths, parse_code_list, render_github, render_report,
    )

    if args.list_rules:
        for code, summary in sorted(RULES.items()):
            print(f"{code}  {summary}")
        return 0
    try:
        select = parse_code_list(args.select)
        ignore = parse_code_list(args.ignore)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    paths = [Path(p) for p in args.paths] if args.paths else None
    findings = lint_paths(paths, select=select, ignore=ignore)
    render = render_github if args.fmt == "github" else render_report
    print(render(findings))
    return 1 if findings else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.params import PlatformConfig

    if args.burst > 1.0:
        traffic = TrafficSpec.one_bursty_among_smooth(
            args.streams, args.rate, mean_batch=args.burst
        )
    else:
        traffic = TrafficSpec.homogeneous_poisson(args.streams, args.rate)
    cfg = SystemConfig(
        traffic=traffic,
        paradigm=args.paradigm,
        policy=args.policy,
        platform=PlatformConfig(n_processors=args.processors),
        nonprotocol_intensity=args.intensity,
        n_stacks=args.stacks,
        fixed_overhead_us=args.fixed_overhead_us,
        lock_granularity=args.lock_granularity,
        duration_us=args.duration_ms * 1000.0,
        warmup_us=args.duration_ms * 150.0,  # 15% warm-up
        seed=args.seed,
        check_invariants=args.check_invariants,
    )
    s = run_simulation(cfg)
    print(format_kv({
        "paradigm/policy": f"{args.paradigm}/{args.policy}",
        "offered rate (pps)": s.offered_rate_pps,
        "throughput (pps)": round(s.throughput_pps, 1),
        "packets measured": s.n_packets,
        "mean delay (us)": round(s.mean_delay_us, 1),
        "95% CI (us)": f"[{s.delay_ci_us[0]:.1f}, {s.delay_ci_us[1]:.1f}]",
        "mean service (us)": round(s.mean_exec_us, 1),
        "mean queueing (us)": round(s.mean_queueing_us, 1),
        "mean lock wait (us)": round(s.mean_lock_wait_us, 2),
        "p95 delay (us)": round(s.p95_delay_us, 1),
        "mean utilization": round(s.mean_utilization, 3),
        "stable": s.stable,
    }, title="simulation summary"))
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "all":
        return _cmd_all(args)
    if args.command == "csv":
        return _cmd_csv(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SweepExecutionError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # The runner has already flushed its checkpoint journal and
        # printed a resume hint by the time this propagates.
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
