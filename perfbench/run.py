"""Sweep benchmark of the sapsm package: one workload per invocation.

    python3 perfbench/run.py --workload ref_snr --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (``src/sapsm`` next to this
directory), in one process, closed loop, with ``workers=1`` and every BLAS
pinned to one thread. With ``--trace 0`` it reports the end-to-end metrics:
``trials_per_s_at_ref_speed`` (median over whole batches of the workload's
public entry point, scaled to a reference machine speed; the raw rate is
printed beside it), ``setup_s`` (median over fresh interpreters that import
the package, build its configs and finish one warm-up trial) and
``peak_rss_mb``. With
``--trace 1`` it runs half the time untraced and half traced, then reports the
per-layer metrics of ``layers.py`` and the tracing overhead, and writes the
spans to ``perfbench/out/``. Either way it checks the outputs and counts
failed trials; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# Pin every BLAS to one thread before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
WORKLOAD_NAMES = ("ref_snr", "corr_snr", "ref_iter", "validate")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read from the library
    itself: threadpoolctl is not required, so the pin is verified here."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    held = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                held[Path(path).name] = fn()
                break
    return held


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def manifest(w, seed: int) -> dict:
    import numpy as np
    import scipy

    import sapsm
    import workloads as wl

    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sapsm": sapsm.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(np.show_config), "scipy": blas(scipy.show_config)},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads_held": blas_threads(),
        "threadpoolctl_installed": importlib.util.find_spec("threadpoolctl") is not None,
        "git_commit": git_commit(),
        "workload": w.name,
        "seed": seed,
        "batch_seeds": "batch b: sapsm.mimo.trial_seed(seed, b)",
        "check_seed": wl.trial_seed(seed, wl.CHECK_SALT),
        "config_hash": wl.config_hashes(w),
        "check_config_hash": wl.config_hashes(w.check_setup()),
    }


def setup_once(name: str, seed: int) -> float:
    """Wall time of one fresh interpreter running setup_probe.py.

    Waits with a blocking wait and a kill timer: ``subprocess.run(timeout=)``
    polls in steps of up to 50 ms, which would quantize the time."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(xs) -> str:
    if len(xs) < 2:
        return f"{xs[0]:.4g}" if xs else "-"
    q = statistics.quantiles(xs, n=4)
    return f"p25 {q[0]:.4g}, p75 {q[2]:.4g}"


def describe_loop(w, loop, label="") -> None:
    import speed

    print(f"{label}{loop.batches} batches of {w.trials_per_batch} trials, "
          f"{loop.busy_s:.1f} s inside batches")
    print(f"{label}trials/s per batch, raw: median {loop.trials_per_s:.4g} "
          f"({quartiles(loop.batch_tps)}); at reference speed: median "
          f"{loop.trials_per_s_at_ref_speed:.4g} ({quartiles(loop.batch_tps_ref)})")
    print(f"{label}speed probe ms: median {1e3 * statistics.median(loop.probes):.4g} "
          f"({quartiles([1e3 * p for p in loop.probes])}); reference "
          f"{1e3 * speed.REFERENCE_PROBE_S:g}")


def report_checks(tally, ser, check) -> None:
    import workloads as wl

    if ser:
        print(f"SER check: {ser} cells compared with the reference by a "
              f"Z={wl.SER_Z:g} two-proportion test")
    for v, (checked, violations) in sorted(check.audits.items()):
        print(f"audits on {check.trials} check realizations, {v}: "
              f"{violations} violations / {checked} checks")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"failure_ratio {tally.failed}/{tally.attempted} trials = {ratio:g}")
    for p in tally.problems:
        print(f"FAILED: {p}")


def run_untraced(w, args, tally):
    import workloads as wl

    wl.warm_up(w, args.seed)
    print("manifest " + json.dumps(manifest(w, args.seed), sort_keys=True))
    setup = []
    # set-up runs are spread over the timed loop, between batches, so they
    # sample the same stretch of machine time as the batches
    loop = wl.timed_loop(w, args.seed, args.seconds, tally,
                         pause=lambda: setup.append(setup_once(w.name, args.seed)),
                         pauses=SETUP_REPEATS)
    ser = wl.check_ser(w, loop, wl.load_reference(), tally)
    check = wl.check_pass(w, args.seed, tally)
    metrics = {
        "trials_per_s_at_ref_speed": (loop.trials_per_s_at_ref_speed, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    describe_loop(w, loop)
    print(f"setup_s over {len(setup)} fresh interpreters: "
          f"{', '.join(f'{t:.4f}' for t in setup)}")
    report_checks(tally, ser, check)
    return metrics


def run_traced(w, args, tally):
    import layers
    import spans
    import workloads as wl

    wl.warm_up(w, args.seed)
    print("manifest " + json.dumps(manifest(w, args.seed), sort_keys=True))
    half = args.seconds / 2.0
    reference = wl.load_reference()
    untraced = wl.timed_loop(w, args.seed, half, tally)
    ser = wl.check_ser(w, untraced, reference, tally)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        loop = wl.timed_loop(w, args.seed, half, tally)
        timed_end = len(tracer.spans)
        check = wl.check_pass(w, args.seed, tally)
    ser += wl.check_ser(w, loop, reference, tally)
    values = layers.layer_metrics(tracer.spans, timed_end, loop.busy_s, loop.trials)
    traced_rate = loop.trials_per_s_at_ref_speed
    values["trace.overhead_ratio"] = (untraced.trials_per_s_at_ref_speed / traced_rate
                                      if traced_rate else 0.0)
    values["e2e.raw_trials_per_s"] = untraced.trials_per_s
    values["machine.probe_ms"] = 1e3 * statistics.median(untraced.probes + loop.probes)
    values = {name: values[name] for name, _, _ in layers.PER_LAYER}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{w.name}-seed{args.seed}"
    tracer.write_csv_gz(stem.with_name(stem.name + "-spans.csv.gz"))
    with open(stem.with_name(stem.name + "-layers.json"), "w") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
    describe_loop(w, untraced, "untraced: ")
    describe_loop(w, loop, "traced:   ")
    report_checks(tally, ser, check)
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return {name: (value, units[name]) for name, value in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sapsm" / "__init__.py").is_file():
        print(f"error: no sapsm package at {SRC.relative_to(ROOT)}/sapsm; "
              "run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed
    import workloads as wl

    speed.pin_to_current_cpu()

    w = wl.WORKLOADS[args.workload]
    tally = wl.Tally()
    print(f"workload {w.name} (seed {args.seed}): {w.why}")
    if args.trace:
        metrics = run_traced(w, args, tally)
    else:
        metrics = run_untraced(w, args, tally)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
