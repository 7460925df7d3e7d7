"""Regenerate reference.json: the SER each sweep workload should reproduce.

    python3 perfbench/make_reference.py

Runs each sweep workload's batch on seeds that the benchmark's own seed
mixing does not produce, sums symbol errors per (detector, x) cell, and
measures how far errors cluster beyond the binomial model (the dispersion D
used by the SER check). Rerun only when the workloads change; a program
change that moves SER legitimately must say so where it lands.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from sapsm.mimo import trial_seed  # noqa: E402

# Distinct from any seed a benchmark run mixes: runs use trial_seed(seed, b).
REFERENCE_SEED = 2_203_011_160
BATCHES = 120


def dispersion(per_batch: dict) -> float:
    """Largest per-cell ratio of the between-batch variance of error counts
    to the binomial variance; at least 1."""
    worst = 1.0
    for counts in per_batch.values():
        e = np.array([c[0] for c in counts], dtype=float)
        n = counts[0][1]
        p = e.sum() / (n * len(e))
        if 0.0 < p < 1.0 and len(e) > 1:
            worst = max(worst, float(e.var(ddof=1) / (n * p * (1.0 - p))))
    return worst


def sweep_reference(w) -> dict:
    per_batch: dict = {}
    for b in range(BATCHES):
        counts = wl.checked_cells(w, wl.run_batch(w, trial_seed(REFERENCE_SEED, b)))
        for key, v in counts.items():
            per_batch.setdefault(key, []).append(v)
    cells = [{"detector": det, "x": x,
              "errors": sum(c[0] for c in v), "symbols": sum(c[1] for c in v)}
             for (det, x), v in sorted(per_batch.items())]
    return {"batches": BATCHES, "trials": BATCHES * w.trials_per_batch,
            "dispersion": dispersion(per_batch), "cells": cells}


def main() -> int:
    out = {"seed": REFERENCE_SEED, "workloads": {}}
    for w in wl.WORKLOADS.values():
        if w.kind == "validate":
            continue
        out["workloads"][w.name] = sweep_reference(w)
        print(w.name, json.dumps(out["workloads"][w.name])[:200], flush=True)
    with open(wl.REFERENCE_FILE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
