"""Alternating parent/change benchmark pairs, written as ``BENCH_<tag>.json``.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload ref_iter --pairs 10 --seed 201 --tag iter_bookkeeping

Each side runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` from the root of its own source checkout, one run at a time; T
is always the change's ``BENCHMARK.json`` ``run_seconds``, so both sides run
as long as the benchmark itself does.

Pair p uses seed S + p and both sides run it; the parent goes first on the
1st, 3rd, ... pair of the whole sequence (all workloads in the order given)
and the change on the others. Each run's JSON result (the last line of its
stdout) goes into ``runs``, and ``summary`` gives, per workload and
end-to-end metric, both sides' quartiles, the ratio of medians, how many
pairs the change won (by the metric's direction in ``BENCHMARK.json``),
the change-minus-parent median gain in that direction, the parent's
interquartile range and a ``verdict`` (see ``compare``). A run that
fails is kept in ``runs`` with its exit code and the tail of its stderr,
and the sequence goes on; the summary
reads the runs that succeeded, counts the failed runs per side, and the
script exits 1 once the file is written. The script reads ``perfbench/``
output only; it imports and writes nothing there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="parent checkout")
    p.add_argument("--change", required=True, type=Path, help="change checkout")
    p.add_argument("--workload", required=True, action="append",
                   help="perfbench workload (repeatable)")
    p.add_argument("--pairs", required=True, type=int)
    p.add_argument("--seed", required=True, type=int,
                   help="seed of the first pair; pair p uses seed + p")
    p.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    p.add_argument("--out-dir", type=Path, default=ROOT)
    p.add_argument("--parent-label", help="commit or name of the parent side")
    p.add_argument("--change-label", help="commit or name of the change side")
    p.add_argument("--what", default="", help="what the change does")
    p.add_argument("--claim", default="none; reported, not claimed")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    for side in ("parent", "change"):
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            p.error(f"--{side} has no perfbench/run.py")
    return args


class RunFailed(RuntimeError):
    """A perfbench run that exited nonzero or printed no result."""

    def __init__(self, exit_code: int, stderr_tail: str):
        super().__init__(f"exited {exit_code}")
        self.exit_code, self.stderr_tail = exit_code, stderr_tail


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The JSON result and the manifest of one perfbench run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(proc.returncode, proc.stderr[-2000:])
    manifest = next((json.loads(line[len("manifest "):]) for line in lines
                     if line.startswith("manifest ")), {})
    return json.loads(lines[-1]), manifest


def quartiles(xs: list[float]) -> list[float]:
    if len(xs) == 1:
        return [xs[0]] * 3
    q25, q50, q75 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q25, q50, q75]


def compare(par: dict, chg: dict, sign: float, bound: float) -> dict:
    """One metric of one workload; ``par`` and ``chg`` map seed -> value of
    each side's runs that succeeded, and a pair counts toward the wins only
    when both its runs did. ``sign`` is +1 where higher is better, and
    ``bound`` is the metric's ``BENCHMARK.json`` bound, a fraction of the
    parent's median. The verdict is

    - ``gain`` when at least ten pairs ran, the change wins at least 9/10
      of them and its median gain exceeds the parent's interquartile range;
    - ``worse`` when the change's median is worse than the parent's by
      more than the bound;
    - ``unresolved`` when the parent's interquartile range exceeds the
      bound and not every change run beats every parent run;
    - ``no_change`` otherwise.
    """
    pq, cq = quartiles(list(par.values())), quartiles(list(chg.values()))
    paired = par.keys() & chg.keys()
    wins = sum(sign * (chg[seed] - par[seed]) > 0 for seed in paired)
    gain, iqr, scale = sign * (cq[1] - pq[1]), pq[2] - pq[0], abs(pq[1])
    if len(paired) >= 10 and 10 * wins >= 9 * len(paired) and gain > iqr:
        verdict = "gain"
    elif gain < -bound * scale:
        verdict = "worse"
    elif iqr > bound * scale and not (min(sign * v for v in chg.values())
                                      > max(sign * v for v in par.values())):
        verdict = "unresolved"
    else:
        verdict = "no_change"
    return {
        "parent_q25_median_q75": [round(v, 4) for v in pq],
        "change_q25_median_q75": [round(v, 4) for v in cq],
        "change_over_parent_median": round(cq[1] / pq[1], 4),
        "change_wins": f"{wins}/{len(paired)}",
        "median_gain": round(gain, 4),
        "parent_iqr": round(iqr, 4),
        "verdict": verdict,
    }


def summarize(runs: list[dict], workloads: list[str], metrics: dict) -> dict:
    """``metrics`` maps each end-to-end metric to its ``BENCHMARK.json``
    entry, for its direction and bound."""
    summary = {}
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        # side -> seed -> result, of the runs that succeeded
        ok = {s: {r["seed"]: r["result"] for r in mine if r["side"] == s and "result" in r}
              for s in SIDES}
        entry = {}
        for metric, spec in metrics.items():
            par, chg = ({seed: r["metrics"][metric]["value"] for seed, r in ok[s].items()}
                        for s in SIDES)
            if par and chg:
                entry[metric] = compare(par, chg, 1.0 if spec["better"] == "higher" else -1.0,
                                        spec["bound"])
        failed = {}
        for s in SIDES:
            results = ok[s].values()
            failed[s] = (f"{sum(r['failed'] for r in results)}/"
                         f"{sum(r['attempted'] for r in results)}")
            failed[f"{s}_all_correct"] = all(r["correct"] for r in results)
        entry["failed_over_attempted"] = failed
        entry["failed_runs"] = {s: sum(r["side"] == s and "result" not in r for r in mine)
                                for s in SIDES}
        summary[w] = entry
    return summary


def machine(manifest: dict) -> str:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    threads = sorted(set((manifest.get("thread_env") or {}).values()) - {None})
    return (f"{manifest.get('nproc')} CPUs ({model or 'unknown model'}), "
            f"BLAS threads {','.join(threads) or 'default'}, "
            f"Python {manifest.get('python')}, numpy {manifest.get('numpy')}, "
            f"scipy {manifest.get('scipy')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(args.change / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = float(bench["run_seconds"])
    runs, manifest, k = [], {}, 0
    for w in args.workload:
        for p in range(args.pairs):
            seed = args.seed + p
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            k += 1
            for side in order:
                run = {"side": side, "workload": w, "seed": seed,
                       "pair_order": f"{order[0]}_first"}
                try:
                    result, manifest = run_once(getattr(args, side), w, seed, seconds)
                except RunFailed as exc:
                    runs.append(run | {"exit_code": exc.exit_code,
                                       "stderr_tail": exc.stderr_tail})
                    print(f"{w} seed {seed} {side}: failed, exit {exc.exit_code}",
                          file=sys.stderr, flush=True)
                    continue
                runs.append(run | {"result": result})
                rate = result["metrics"]["trials_per_s_at_ref_speed"]["value"]
                print(f"{w} seed {seed} {side}: {rate:.4g} trials/s", flush=True)
    doc = {
        "what": args.what,
        "parent": args.parent_label or args.parent.resolve().name,
        "change": args.change_label or args.change.resolve().name,
        "claim": args.claim,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": f"each side runs from its own source checkout; "
                    f"{args.pairs} pairs per workload, seeds {args.seed}-"
                    f"{args.seed + args.pairs - 1}; pairs alternate which side "
                    "runs first (parent first on the 1st, 3rd, ... pair of the "
                    "whole sequence); one run at a time; written by "
                    "tools/bench_pairs.py",
        "machine": machine(manifest),
        "summary": summarize(runs, args.workload, metrics),
        "runs": runs,
    }
    path = args.out_dir / f"BENCH_{args.tag}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    failures = sum("result" not in r for r in runs)
    if failures:
        print(f"{failures} of {len(runs)} runs failed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
