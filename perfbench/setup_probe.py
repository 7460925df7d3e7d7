"""Set-up work of one benchmark run, in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports the package, builds the workload's configs and finishes one warm-up
trial. run.py times this whole process from start to exit; the thread pins
come from its environment.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402

w = wl.WORKLOADS[sys.argv[1]]
wl.config_hashes(w)
wl.warm_up(w, int(sys.argv[2]))
