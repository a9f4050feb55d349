"""Smoke test for the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once with a one-second run length, traced and untraced,
and must print every metric that ``BENCHMARK.json`` names, with its unit.
``suite-cold`` still runs the whole suite, so the test takes a few
minutes.  The golden gate must trip on a copy of one golden perturbed by
one ulp.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Largest share of the traced wall time that no layer span may cover.
UNATTRIBUTED_TOLERANCE = 0.10

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, **popen: Any) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, **popen)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_present_with_its_unit(workload: str, trace: int) -> None:
    done = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    if trace:
        unattributed = result["metrics"]["trace.unattributed_frac"]["value"]
        assert unattributed < UNATTRIBUTED_TOLERANCE


def test_golden_gate_trips_on_a_perturbed_golden(tmp_path: Path) -> None:
    goldens = ROOT / "tests" / "goldens"
    suite = workloads.run_suite(workloads.BatchTimedRunner(), 1, ["e01"])
    assert workloads.check_goldens(suite, goldens) == []

    golden = json.loads((goldens / "e01.json").read_text())
    row = golden["rows"][0]
    key = next(k for k, v in row.items() if isinstance(v, float) and math.isfinite(v))
    row[key] = math.nextafter(row[key], math.inf)
    (tmp_path / "e01.json").write_text(json.dumps(golden))
    assert workloads.check_goldens(suite, tmp_path) == ["e01: rows differ from e01.json"]


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sweep-cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_refuses_more_jobs_than_cpus() -> None:
    # One CPU against the sweeps' fixed two warm workers.
    done = bench("--workload", "sweep-cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0", preexec_fn=lambda: os.sched_setaffinity(0, {0}))
    assert done.returncode == 2
    assert "refusing" in done.stderr
    assert "correct" not in done.stdout


def session_members(sid: int) -> list:
    members = []
    for entry in Path("/proc").iterdir():
        try:
            # Fields after the parenthesised command: state, ppid, pgrp, session.
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members.append(entry.name)
    return members


@pytest.mark.parametrize("workload", ["sweep-cold", "sweep-cached"])
def test_leaves_no_process_behind(workload: str) -> None:
    # The run leads a session of its own; every process it starts joins
    # that session, so any member left once it has exited outlived it.
    with subprocess.Popen([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.DEVNULL,
                          start_new_session=True) as run:
        assert run.wait(timeout=600) == 0
    assert session_members(run.pid) == []


def test_fallback_reasons_map_to_metric_names() -> None:
    assert spans.fallback_name("locking policy 'wired-streams' is not fused") \
        == "wired-streams"
    assert spans.fallback_name("IPS policy 'ips-random' is not fused") == "ips-random"
    assert spans.fallback_name(
        "arrival spec BatchPoissonSpec has no order-preserving block "
        "pregeneration") == "BatchPoissonSpec"
    assert spans.fallback_name(
        "layered locks pipeline per-packet reservations") == "layered-locks"
    assert spans.fallback_name("execution tracing is enabled") == "other"
    names = {m["name"] for m in BENCH["per_layer"]}
    for name in spans.FALLBACK_NAMES:
        assert {f"sim.fallback.{name}.runs", f"sim.fallback.{name}.busy_s"} <= names
