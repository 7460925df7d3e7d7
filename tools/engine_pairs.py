"""Interleaved in-process timer of the engine: a parent checkout's
``apsm_run_batch`` against this checkout's, on the same stacks.

    python3 tools/engine_pairs.py --parent ../parent [--stacks 6] [--runs 20]

The parent's ``src/sapsm`` is copied into a temporary directory as the
package ``sapsm_parent`` (the package imports itself relatively, so it runs
under another name), and both sides run in this one process with one BLAS
thread. Each shape builds ``--stacks`` stacks from consecutive seeds, with
the same costs and configs for both sides, and runs them as their callers
do; the sweep-shaped stacks (all but the last two) with ``certify=True``:

- ``rows_15``: 5 realizations x the three standard variants, Kronecker 0.8
  channel at 18 dB, 16x64 16-QAM (the ``corr_snr`` batch);
- ``rows_45``: 15 realizations at 5, 9 and 13 dB, iid (the ``ref_snr`` batch);
- ``rows_45_observed``: 15 realizations at 9 dB, iid, observed, each array
  it hands over counted with ``mimo.interval_errors`` as ``sim`` counts a
  per-iteration sweep (the ``ref_iter`` batch), the last counts repeated
  from a stop to the end of the budget;
- ``rows_192``: 64 realizations at 9 dB, iid (a 64-trial sweep batch);
- ``never_quiet`` and ``l1_beta_1.7``: 5 realizations at 9 dB iid, never
  certified: under the constant radius 0.5, which no row meets, and with
  an l1 row whose constant beta is 1.7 added;
- ``validate_18_recorded``: 6 realizations, 2K = 8 QPSK at 8 dB, 260
  iterations, recorded, as ``validation`` runs them;
- ``single_runs``: one realization at 9 dB iid, one unrecorded
  ``apsm_run`` per standard variant, as ``detect`` runs them.

Each stack runs ``--runs`` times per side, the sides alternating which goes
first. The first runs of the two sides must give bitwise the same final
iterates, thetas, recorded iterates, observed arrays and counts, unless a
certified stack stops at other chunk ends on the two sides (a parent with
another ``CHUNK``): then its counts, its observed iterates up to the
earlier stop and its final decisions must agree. The
JSON printed holds, per shape, the change-over-parent ratio of each
stack's minimum times, their median, and which comparison (``bitwise`` or
``decisions``) each stack got.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ("rows_15", "rows_45", "rows_45_observed", "rows_192", "never_quiet", "l1_beta_1.7",
          "validate_18_recorded", "single_runs")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="parent checkout")
    p.add_argument("--stacks", type=int, default=6, help="stacks per shape")
    p.add_argument("--runs", type=int, default=20, help="timed runs per stack and side")
    p.add_argument("--seed", type=int, default=0, help="seed of the first stack")
    p.add_argument("--shape", action="append", choices=SHAPES,
                   help="shape to time (repeatable; default all)")
    args = p.parse_args(argv)
    if args.stacks < 1 or args.runs < 1:
        p.error("--stacks and --runs must be at least 1")
    if not (args.parent / "src" / "sapsm" / "apsm.py").is_file():
        p.error("--parent has no src/sapsm/apsm.py")
    return args


@contextlib.contextmanager
def sides(parent: Path):
    """(the parent's package, imported from a temporary copy, this
    checkout's package); the copy and its modules are gone on exit."""
    saved = sys.path[:]
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(parent / "src" / "sapsm", Path(tmp) / "sapsm_parent")
        sys.path[:0] = [str(ROOT / "src"), tmp]
        try:
            yield importlib.import_module("sapsm_parent"), importlib.import_module("sapsm")
        finally:
            sys.path[:] = saved
            for name in [m for m in sys.modules if m.partition(".")[0] == "sapsm_parent"]:
                del sys.modules[name]


def certified(shape: str) -> bool:
    """Whether a stack of ``shape`` runs with certify=True, as a sweep runs it."""
    return shape not in ("validate_18_recorded", "single_runs")


def stack(pkg, shape: str, seed: int):
    """(costs, cfgs, constellation, each realization's transmit vector) of
    one stack of ``shape`` from package ``pkg``, rows ordered variant by
    realization."""
    mimo, cost = pkg.mimo, pkg.cost
    k, n, mod, iters, model = 16, 64, "16qam", 300, mimo.ChannelModel("iid")
    snrs = {"rows_15": [18.0] * 5, "rows_45": [5.0, 9.0, 13.0] * 5, "rows_45_observed": [9.0] * 15,
            "rows_192": [9.0] * 64, "validate_18_recorded": [8.0] * 6,
            "single_runs": [9.0]}.get(shape, [9.0] * 5)
    if shape == "rows_15":
        model = mimo.ChannelModel("kronecker", 0.8, 0.8)
    elif shape == "validate_18_recorded":
        k, n, mod, iters = 4, 8, "qpsk", 260
    c = pkg.geometry.constellation(mod)
    insts = [mimo.make_instance(model, c, k, n, snr, mimo.trial_seed(seed, t))
             for t, snr in enumerate(snrs)]
    cfgs = [cost.standard_config(v, max_iters=iters) for v in cost.VARIANTS for _ in insts]
    costs = [cost.QuadraticResidualCost(inst.H, inst.y) for _ in cost.VARIANTS
             for inst in insts]
    sent = [inst.s for inst in insts]
    if shape == "never_quiet":
        cfgs = [replace(cfg, rho=cost.RhoSchedule(0.5)) for cfg in cfgs]
    elif shape == "l1_beta_1.7":
        cfgs.append(replace(cfgs[-1], beta=cost.BetaSchedule.constant(1.7)))
        costs.append(costs[-1])
    return costs, cfgs, c, sent


def timed(pkg, shape: str, case, keep: bool = False) -> tuple[float, tuple]:
    """(seconds, (final iterates, traces, observed arrays, counts)) of one
    run of a stack of ``shape``; the observed arrays are copied only when
    ``keep``."""
    costs, cfgs, c, sent = case
    seen, counts, kw = [], [], {}
    if shape == "rows_45_observed":
        bounds = pkg.mimo.slicing_interval(sent, c)
        errors = pkg.mimo.interval_errors
        rows = (len(cfgs) // len(sent), len(sent), -1)

        def observe(xs):
            # the count is part of the timed work, as in a per-iteration sweep
            counts.append(errors(xs.reshape(len(xs), *rows), *bounds))
            if keep:
                seen.append(xs.copy())
        kw["observe"] = observe
    t0 = time.perf_counter()
    if shape == "single_runs":
        runs = [pkg.apsm.apsm_run(cost, cfg, c) for cost, cfg in zip(costs, cfgs)]
    else:
        x, traces = pkg.apsm.apsm_run_batch(costs, cfgs, c, **kw, certify=certified(shape),
                                            record_iterates=shape == "validate_18_recorded")
    seconds = time.perf_counter() - t0
    if shape == "single_runs":
        # numpy loads with the packages, after the BLAS thread pin in __main__
        import numpy as np
        x, traces = np.stack([run[0] for run in runs]), [run[1] for run in runs]
    if counts:
        counts += [counts[-1][-1:]] * (cfgs[0].max_iters - sum(map(len, counts)))
    return seconds, (x, traces, seen, counts)


def stop(pkg, case) -> int:
    """The iteration at which a certified stack of ``case`` on package ``pkg`` stops."""
    ends = []
    pkg.apsm.apsm_run_batch(*case[:3], certify=True, observe=lambda xs: ends.append(len(xs)))
    return sum(ends)


def _bits(arrays) -> bytes:
    """The bytes of ``arrays`` end to end (None adds none)."""
    return b"".join(b"" if a is None else a.tobytes() for a in arrays)


def same_bits(a, b) -> bool:
    """Whether two runs' final iterates, thetas, recorded iterates,
    concatenated observed arrays and counts are bitwise the same."""
    def bits(x, traces, seen, counts):
        return [x.tobytes(), _bits(seen), _bits(counts),
                [(t.theta.tobytes(), _bits([t.iterates])) for t in traces]]
    return bits(*a) == bits(*b)


def same_decisions(a, b, c, n: int) -> bool:
    """Whether two runs' per-iteration counts, first ``n`` observed iterates
    and the slices of their final iterates on constellation ``c`` are the
    same."""
    def kept(x, traces, seen, counts):
        # an observed array holds iterates shaped as the final ones
        return [_bits(counts), _bits(seen)[:n * x.nbytes], c.nearest(x).tobytes()]
    return kept(*a) == kept(*b)


def comparison(pkgs, shape: str, seed: int, cases, results) -> str:
    """``bitwise`` when the two sides' runs of the stack of ``seed`` are
    bitwise the same, ``decisions`` when it is certified, stops at other
    chunk ends on each side and keeps its counts, its observed iterates up
    to the earlier stop and its decisions; SystemExit when the sides differ
    otherwise."""
    if same_bits(*results):
        return "bitwise"
    stops = [stop(*side) for side in zip(pkgs, cases)] if certified(shape) else [0, 0]
    if stops[0] != stops[1] and same_decisions(*results, cases[0][2], min(stops)):
        return "decisions"
    raise SystemExit(f"{shape} stack {seed}: the sides differ")


def time_shape(pkgs, shape: str, seed: int, stacks: int, runs: int) -> dict:
    ratios, compared = [], []
    for s in range(stacks):
        cases = [stack(pkg, shape, seed + s) for pkg in pkgs]
        best = [float("inf")] * 2
        for r in range(runs):
            results = [None, None]
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                seconds, results[side] = timed(pkgs[side], shape, cases[side], keep=r == 0)
                best[side] = min(best[side], seconds)
            if r == 0:
                compared.append(comparison(pkgs, shape, seed + s, cases, results))
        ratios.append(round(best[1] / best[0], 4))
    return {"ratios": ratios, "median": round(statistics.median(ratios), 4),
            "compared": compared}


def main(argv=None) -> int:
    args = parse_args(argv)
    with sides(args.parent) as pkgs:
        report = {shape: time_shape(pkgs, shape, args.seed, args.stacks, args.runs)
                  for shape in args.shape or SHAPES}
    print(json.dumps({"stacks": args.stacks, "runs": args.runs, "seed": args.seed,
                      "shapes": report}, indent=1))
    return 0


if __name__ == "__main__":
    # one BLAS thread, set before the packages load numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    raise SystemExit(main())
