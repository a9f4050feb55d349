"""One ``setup_s`` sample: a fresh process imports the program, builds the
workload's runner (with a warm fleet for the sweeps), prints ``ready`` and
shuts the runner down.  ``run.py`` times process start to ``ready``.

Usage: ``python3 perfbench/setup_probe.py <workload>``
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)

runner = workloads.build_runner(sys.argv[1])
print("ready", flush=True)
runner.close()
