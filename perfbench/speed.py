"""Machine-speed probe: a fixed piece of numpy work, timed between batches.

On a small shared VM the speed of one vCPU drifts by up to 2x over tens of
seconds (work on the sibling hyperthread of a co-tenant), which makes the
raw trials/s of a 24 s run spread by 8-33% between runs. The probe is a
frozen copy of the engine's hot loop shape (32x32 matvec, dot products,
axpy and clip in a Python loop) that never calls ``sapsm``, so no change to
the package can move it. Timing it between batches measures the current
speed; scaling each batch's rate by ``probe_s / REFERENCE_PROBE_S`` gives
the rate the batch would have had on the reference machine speed.

The probe is kept out of the reach of the program under test, so that a
change which slows the benchmark process shows in the scaled rate instead
of cancelling out:

- it runs in a child interpreter of its own (``Probe``) that imports numpy
  but never ``sapsm``, so heap or allocator growth and numpy state set by
  the package do not touch it;
- it is timed in the child's own CPU time, not wall time. A busy thread or
  process the package leaves running is pinned to the same CPU (below) and
  takes turns with the probe, which does not slow the probe's CPU time; the
  batches are timed in wall time and do slow down. Hyperthread contention
  slows CPU time as much as wall time (steal time is near zero on such a
  VM), so the probe still follows the drift;
- the benchmark pins itself, and with it the child, to one CPU
  (``pin_to_current_cpu``), because the two vCPUs drift apart: the probe
  then measures the CPU the batches ran on.

    python3 perfbench/speed.py    # serves probes: one line in, one time out
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

# Probe time on the machine the first baseline was taken on (2-vCPU Xeon VM
# at 2.0 GHz, numpy 2.4.6, one BLAS thread), in its faster phase.
REFERENCE_PROBE_S = 0.0125
PROBE_TIMEOUT_S = 30

_DIM = 32
_rng = np.random.default_rng(20_220_301)
_A = _rng.standard_normal((_DIM, _DIM))
_G = _A @ _A.T
_H = _rng.standard_normal(_DIM)


def probe() -> float:
    """CPU seconds this thread spends on a fixed amount of small-matrix
    Python/numpy work."""
    t0 = time.thread_time()
    for _ in range(20):
        z = np.zeros(_DIM)
        for _ in range(50):
            gz = _G @ z
            float(z @ gz - 2.0 * (_H @ z))
            z = np.clip(z - 1e-3 * (2.0 * (gz - _H)), -1.0, 1.0)
    return time.thread_time() - t0


def pin_to_current_cpu() -> int:
    """Restrict this process, and every process it starts afterwards, to
    the CPU it is running on; returns that CPU."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Probe:
    """A child interpreter that runs ``probe()`` each time it is called and
    returns its time; the caller waits, so the child has the CPU to itself.
    Use as a context manager: leaving it stops the child and waits for it."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe exited with code {self._proc.wait()}")
        return float(line)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    probe()  # warm-up: first-call costs stay out of the first answer
    for _ in sys.stdin:
        print(repr(probe()), flush=True)
