"""Record benchmark results into ``BENCH_hotpath.json`` / ``BENCH_sweep.json``.

Writes the repo-root trajectory files that track simulator throughput
(``BENCH_hotpath.json``) and sweep-executor throughput
(``BENCH_sweep.json``) PR-over-PR::

    PYTHONPATH=src python benchmarks/record_bench.py

The file has five sections:

``baseline``
    The pre-overhaul measurement (commit ``af16703``, frozen — never
    rewritten by this script) that the hot-path PR's >=3x claim is
    measured against.
``baseline_pr4``
    The scalar hot-path overhaul's numbers (commit ``13cf1ab``, frozen)
    — the per-event-dispatch core at its fastest, i.e. the reference the
    batched engine's speedup is measured against.
``current``
    Best-of-N measurement of the checked-out tree on this machine,
    refreshed on every invocation.
``workloads``
    The exact configurations the cases were measured with.
``runner_overhead``
    Happy-path cost of the fault-tolerant sweep runner (timeouts,
    retries, checkpoint plumbing armed, no faults firing) vs a bare
    ``run_simulation`` loop over the same sweep — the hardening tax,
    budgeted at < 2% (``docs/ROBUSTNESS.md``).

``BENCH_sweep.json`` records the execution-backend comparison (serial vs
warm vs distributed on the E06-style replicated session, best of
5, cold cache) — the acceptance trajectory for the affinity-aware sweep
executor (``docs/PERFORMANCE.md``) and the distributed backend's
happy-path overhead vs the warm fleet (``docs/DISTRIBUTED.md``), gated
in CI by ``bench_runner.py --check``.

Numbers are machine-relative: re-record on the machine whose numbers you
want to compare, and treat cross-machine deltas as noise.  CI only
enforces a conservative absolute floor (see ``bench_hotpath.py --check``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any, Dict

from bench_hotpath import BENCH_JSON, WORKLOADS, report
from bench_runner import SWEEP_JSON, compare_backends, measure_overhead

#: Frozen pre-overhaul reference (commit af16703, same machine/workload
#: as the initial "current" recording).  Kept in-code so a fresh
#: recording can never silently erase the comparison point.
BASELINE: Dict[str, Any] = {
    "commit": "af16703",
    "note": "pre hot-path overhaul (seed workload, best of 5)",
    "locking/mru": {
        "elapsed_s": 0.2731,
        "events_per_sec": 73_880.0,
        "us_per_packet": 27.06,
    },
    "ips/ips-mru": {
        "elapsed_s": 0.2487,
        "events_per_sec": 81_154.0,
        "us_per_packet": 24.64,
    },
}

#: Frozen scalar hot-path reference (commit 13cf1ab: the per-event
#: dispatch core after the PR-4 overhaul, before the batched engine).
#: Same machine/workload as BASELINE.
BASELINE_PR4: Dict[str, Any] = {
    "commit": "13cf1ab",
    "note": "scalar per-event core after the hot-path overhaul (best of 5)",
    "locking/mru": {
        "elapsed_s": 0.0910,
        "events_per_sec": 221_703.0,
        "us_per_packet": 9.02,
    },
    "ips/ips-mru": {
        "elapsed_s": 0.0800,
        "events_per_sec": 252_366.0,
        "us_per_packet": 7.92,
    },
}


def current_commit() -> str:
    """Short hash of HEAD, with a ``-dirty`` suffix for uncommitted edits.

    Recordings are usually taken *before* the PR's final commit exists,
    so a bare ``rev-parse HEAD`` stamps the parent commit and silently
    misattributes the numbers (BENCH_hotpath.json once recorded the seed
    commit for a post-overhaul measurement).  The suffix makes a
    mid-work recording self-describing: ``<hash>-dirty`` means "HEAD
    plus the working tree this PR was about to commit".
    """
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{head}-dirty" if status else head


def main(repeats: int = 5) -> int:
    rows = report(repeats=repeats)
    overhead = measure_overhead(repeats=7)
    payload: Dict[str, Any] = {
        "workloads": WORKLOADS,
        "baseline": BASELINE,
        "baseline_pr4": BASELINE_PR4,
        "current": {
            "commit": current_commit(),
            **{case: row for case, row in rows.items()},
        },
        "speedup_vs_baseline": {
            case: round(BASELINE[case]["elapsed_s"] / rows[case]["elapsed_s"], 3)
            for case in rows
            if case in BASELINE
        },
        "speedup_vs_pr4": {
            case: round(
                BASELINE_PR4[case]["elapsed_s"] / rows[case]["elapsed_s"], 3
            )
            for case in rows
            if case in BASELINE_PR4
        },
        "runner_overhead": overhead,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[record_bench] wrote {BENCH_JSON}")
    for case, speedup in payload["speedup_vs_pr4"].items():
        print(f"[record_bench] {case}: {speedup}x vs PR-4 scalar core")
    print(f"[record_bench] runner overhead: {overhead['overhead_pct']}% "
          f"(raw {overhead['raw_s']}s vs hardened {overhead['runner_s']}s)")

    sweep: Dict[str, Any] = {
        "commit": current_commit(),
        "note": ("execution-backend comparison: E06-style replicated "
                 "session, best of 5, cold cache"),
        **compare_backends(repeats=repeats),
    }
    SWEEP_JSON.write_text(json.dumps(sweep, indent=2, sort_keys=True) + "\n")
    print(f"[record_bench] wrote {SWEEP_JSON}")
    print(f"[record_bench] warm vs serial: {sweep['warm_vs_serial']}x")
    print(f"[record_bench] distributed overhead vs warm: "
          f"{sweep['distributed_overhead_vs_warm_pct']:+.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
