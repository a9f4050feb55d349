"""Start-up footprint: no code path of a default run loads scipy.

``import scipy.stats`` costs a process about 1 s and 65 MB, which every
CLI call, setup probe and forked warm agent would pay.  scipy is imported
only inside the functions that need it (a non-default Student-t quantile,
a set-associative flush, the Poisson cross-check), so these checks run a
fresh interpreter through the default paths and look for any scipy
import, in the process and in the warm agents it forks.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs in a fresh interpreter.  A meta-path finder, installed before
#: ``repro`` is imported and inherited by forked agents, appends every
#: attempt to import a scipy module to the log named by ``argv[1]``.
_SCRIPT = textwrap.dedent("""
    import importlib.abc, os, sys

    LOG = sys.argv[1]

    class Watch(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                with open(LOG, "a") as out:
                    out.write(f"{os.getpid()} {name}\\n")
            return None

    sys.meta_path.insert(0, Watch())

    def loaded():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    def check(stage):
        assert not loaded(), (stage, loaded()[:5])

    import repro
    import repro.cli
    from repro import (ResultCache, SweepRunner, SystemConfig, TrafficSpec,
                       run_simulation)
    from repro.analysis.stats import _t_critical
    from repro.experiments.base import run_experiment
    check("import")

    for df in range(1, 39):
        _t_critical(0.975, df)
    check("table")

    full = run_simulation(SystemConfig(
        traffic=TrafficSpec.homogeneous_poisson(4, 8_000.0), seed=3))
    assert full.n_packets >= 40, full.n_packets
    short = run_simulation(SystemConfig(
        traffic=TrafficSpec.homogeneous_poisson(2, 2_000.0),
        duration_us=12_000.0, warmup_us=1_000.0, seed=5))
    assert 2 <= short.n_packets < 39, short.n_packets
    check("simulations")

    run_experiment("e06", fast=True)
    check("e06")

    batch = [SystemConfig(
        traffic=TrafficSpec.homogeneous_poisson(8, float(rate)),
        paradigm="locking", policy=policy, duration_us=1_000.0,
        warmup_us=0.0, seed=seed)
        for policy in ("fcfs", "mru", "wired-streams")
        for rate in (2_000, 16_000) for seed in (1, 2)]
    with SweepRunner(jobs=2, cache=ResultCache(sys.argv[2]),
                     backend="warm") as runner:
        results = runner.run_many(batch)
    assert len(results) == len(batch)
    assert runner.stats.executed == len(batch), runner.stats
    check("warm sweep")
    print("ok")
""")


def test_default_paths_never_import_scipy(tmp_path):
    log = tmp_path / "scipy-imports.log"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(log), str(tmp_path / "cache")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
    # The finder saw every process, forked agents included.
    assert not log.exists(), log.read_text()


def test_the_watch_sees_a_lazy_scipy_import(tmp_path):
    """The guard is live: a non-default quantile does load scipy, and the
    finder logs it."""
    log = tmp_path / "scipy-imports.log"
    script = _SCRIPT.split("import repro\n")[0] + textwrap.dedent("""
        from repro.analysis.stats import _t_critical
        _t_critical(0.995, 3)
        print(",".join(loaded()[:1]))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, str(log)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "scipy"
    assert "scipy.stats" in log.read_text()
