"""Interleaved in-process timer of the engine: a parent checkout's
``apsm_run_batch`` against this checkout's, on the same stacks.

    python3 tools/engine_pairs.py --parent ../parent [--stacks 6] [--runs 20]

The parent's ``src/sapsm`` is copied into a temporary directory as the
package ``sapsm_parent`` (the package imports itself relatively, so it runs
under another name), and both sides run in this one process with one BLAS
thread. Each shape builds ``--stacks`` stacks from consecutive seeds, with
the same costs and configs for both sides:

- ``rows_15``: 5 realizations x the three standard variants, Kronecker 0.8
  channel at 18 dB, 16x64 16-QAM (the ``corr_snr`` batch);
- ``rows_45``: 15 realizations at 5, 9 and 13 dB, iid (the ``ref_snr`` batch);
- ``rows_192``: 64 realizations at 9 dB, iid (a full sweep batch);
- ``validate_18``: 6 realizations, 2K = 8 QPSK at 8 dB, 260 iterations (the
  ``validate`` stack);
- ``never_quiet``: the ``rows_15`` shape at 9 dB iid with the constant
  radius 0.5, which no row meets, so no chunk runs quiet;
- ``l1_beta_1.7``: the ``rows_15`` shape plus an l1 row whose constant beta
  is 1.7;
- ``validate_18_recorded``: the ``validate_18`` stack recording its
  iterates, as ``validation`` runs it;
- ``rows_45_observed``: the ``rows_45`` stack observed, each array it hands
  over reshaped to (m, 3, 15, d) and counted with ``mimo.interval_errors``
  against the 15 realizations' slicing intervals, found once, as ``sim``
  counts a per-iteration sweep (the ``ref_iter`` batch);
- ``rows_45_certified``: the ``rows_45_observed`` stack run as ``sim``
  runs it, with ``certify=True`` where the side's engine takes it; a
  stack stopped early repeats its last counts to the end of the budget;
- ``rows_15_certified``: the ``rows_15`` stack run as ``sim`` runs the
  ``corr_snr`` batch, unobserved, with ``certify=True`` where the side's
  engine takes it.

Each stack runs ``--runs`` times per side, the sides alternating which goes
first; the first run of each side must give bitwise the same final iterates,
thetas, recorded iterates, concatenated observed arrays and counts. A
certified stop returns other final iterates and thetas by design, so the
``*_certified`` shapes compare the per-iteration counts (none for
``rows_15_certified``) and the final decisions (the slice of each final
iterate) alone. The JSON printed holds, per shape, the change-over-parent
ratio of each stack's minimum times and their median.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ("rows_15", "rows_45", "rows_192", "validate_18", "never_quiet", "l1_beta_1.7",
          "validate_18_recorded", "rows_45_observed", "rows_45_certified",
          "rows_15_certified")


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


def stack(pkg, shape: str, seed: int):
    """(costs, cfgs, constellation, each realization's transmit vector) of
    one stack of ``shape`` from package ``pkg``, rows ordered variant by
    realization."""
    mimo, cost = pkg.mimo, pkg.cost
    k, n, mod, iters, model = 16, 64, "16qam", 300, mimo.ChannelModel("iid")
    snrs = [9.0] * 5
    if shape.startswith("rows_15"):
        model, snrs = mimo.ChannelModel("kronecker", 0.8, 0.8), [18.0] * 5
    elif shape.startswith("rows_45"):
        snrs = [5.0, 9.0, 13.0] * 5
    elif shape == "rows_192":
        snrs = [9.0] * 64
    elif shape.startswith("validate_18"):
        k, n, mod, iters, snrs = 4, 8, "qpsk", 260, [8.0] * 6
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
    if shape.startswith("rows_45_"):
        bounds = pkg.mimo.slicing_interval(sent, c)
        errors = pkg.mimo.interval_errors
        rows = (len(cfgs) // len(sent), len(sent), -1)

        def observe(xs):
            # the count is part of the timed work, as in a per-iteration sweep
            counts.append(errors(xs.reshape(len(xs), *rows), *bounds))
            if keep:
                seen.append(xs.copy())
        kw["observe"] = observe
    if (shape.endswith("_certified")
            and "certify" in inspect.signature(pkg.apsm.apsm_run_batch).parameters):
        kw["certify"] = True
    t0 = time.perf_counter()
    x, traces = pkg.apsm.apsm_run_batch(costs, cfgs, c, **kw,
                                        record_iterates=shape == "validate_18_recorded")
    seconds = time.perf_counter() - t0
    if counts:
        counts += [counts[-1][-1:]] * (cfgs[0].max_iters - sum(map(len, counts)))
    return seconds, (x, traces, seen, counts)


def _bits(a) -> bytes | None:
    return None if a is None else a.tobytes()


def same_counts(a, b) -> bool:
    """Whether two runs' concatenated per-iteration counts are the same."""
    return b"".join(map(_bits, a[3])) == b"".join(map(_bits, b[3]))


def same_bits(a, b) -> bool:
    """Whether two runs' final iterates, thetas, recorded iterates,
    concatenated observed arrays and counts are bitwise the same."""
    (xa, ta, sa, _), (xb, tb, sb, _) = a, b
    return (xa.tobytes() == xb.tobytes() and same_counts(a, b)
            and b"".join(map(_bits, sa)) == b"".join(map(_bits, sb))
            and all(s.theta.tobytes() == t.theta.tobytes()
                    and _bits(s.iterates) == _bits(t.iterates)
                    for s, t in zip(ta, tb, strict=True)))


def same_decisions(a, b, c) -> bool:
    """Whether two runs' per-iteration counts and the slices of their final
    iterates on constellation ``c`` are the same."""
    return same_counts(a, b) and c.nearest(a[0]).tobytes() == c.nearest(b[0]).tobytes()


def time_shape(pkgs, shape: str, seed: int, stacks: int, runs: int) -> dict:
    ratios = []
    for s in range(stacks):
        cases = [stack(pkg, shape, seed + s) for pkg in pkgs]
        check = (partial(same_decisions, c=cases[0][2]) if shape.endswith("_certified")
                 else same_bits)
        best = [float("inf")] * 2
        for r in range(runs):
            results = [None, None]
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                seconds, results[side] = timed(pkgs[side], shape, cases[side], keep=r == 0)
                best[side] = min(best[side], seconds)
            if r == 0 and not check(*results):
                raise SystemExit(f"{shape} stack {seed + s}: the sides differ")
        ratios.append(round(best[1] / best[0], 4))
    return {"ratios": ratios, "median": round(statistics.median(ratios), 4)}


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
