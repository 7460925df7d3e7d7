"""Per-layer metrics computed from the spans of one traced run.

The traced run is the timed loop with tracing on, followed by the check
pass. Per-call figures use every span of the run, so a layer the timed loop
does not reach (for example ``box_oracle`` under ``validate``) is still
measured on the check pass's realizations. Shares and per-trial counts use
the timed loop alone, because they explain ``trials_per_s``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import ATTRS, END, NAME, PARENT, START

VARIANTS = ("plain", "l2", "l1")
DETECTOR_KINDS = ("apsm_plain", "apsm_l2", "apsm_l1", "lmmse",
                  "constrained_lmmse", "box_oracle")
SWEEPS = ("sim.run_ser_vs_snr", "sim.run_ser_vs_iter")

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer.
PER_LAYER = (
    [(f"apsm.iter_us.{v}", "us", "lower") for v in VARIANTS]
    + [(f"apsm.iter_us_rec.{v}", "us", "lower") for v in VARIANTS]
    + [("apsm.computed_gflops", "GFLOP/s", "higher"),
       ("apsm.early_stop_ratio", "ratio", "higher")]
    + [(f"apsm.terminal_feasible_ratio.{v}", "ratio", "higher") for v in VARIANTS]
    + [("apsm.check_quasi_fejer_us", "us", "lower"),
       ("apsm.check_attracting_us", "us", "lower"),
       ("apsm.audit_checked", "count", "higher"),
       ("apsm.audit_violations", "count", "lower"),
       ("apsm.share_pct", "%", "lower"),
       ("geometry.perturbation_l2_us", "us", "lower"),
       ("geometry.perturbation_l1_us", "us", "lower")]
    + [(f"detectors.{k}_ms_{q}", "ms", "lower")
       for k in DETECTOR_KINDS for q in ("p50", "p99")]
    + [("detectors.box_oracle_iters_p50", "count", "lower"),
       ("detectors.box_oracle_iters_p99", "count", "lower"),
       ("detectors.box_oracle_converged_ratio", "ratio", "higher"),
       ("detectors.box_oracle_share_pct", "%", "lower"),
       ("cost.gram_builds_per_trial", "count", "lower"),
       ("cost.gram_build_us", "us", "lower"),
       ("mimo.make_instance_us", "us", "lower"),
       ("mimo.share_pct", "%", "lower"),
       ("sim.self_ms_per_trial", "ms", "lower"),
       ("sim.table_text_ms", "ms", "lower"),
       ("trace.spans_per_trial", "count", "lower"),
       # filled in by run.py from the untraced and traced timed loops
       ("trace.overhead_ratio", "ratio", "lower"),
       ("e2e.raw_trials_per_s", "1/s", "higher"),
       ("machine.probe_ms", "ms", "lower")]
)


def computed_flops_per_iter(variant: str, dim: int) -> int:
    """Floating-point operations of one engine iteration, counted from the
    loop body of ``apsm_run`` (matvecs, dots and axpys; slicing, clipping
    comparisons and Python dispatch are not counted). A perturbed iteration
    also evaluates the objective at the unperturbed point: one more matvec."""
    base = 2 * dim * dim + 14 * dim
    if variant == "plain":
        return base
    return base + 2 * dim * dim + 10 * dim


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def _pct(xs, q) -> float:
    return float(np.percentile(xs, q)) if len(xs) else 0.0


def layer_metrics(spans: list, timed_end: int, timed_busy_s: float,
                  timed_trials: int) -> dict:
    """``spans[:timed_end]`` belong to the timed loop, which spent
    ``timed_busy_s`` inside batches; the rest belong to the check pass.
    Returns {name: value} for the span-derived entries of PER_LAYER."""
    # a span whose call raised has no attrs; it counts only as time
    by_name, done = defaultdict(list), defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[ATTRS] is not None:
            done[s[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def durs_us(name):
        return [dur(i) / 1e3 for i in by_name[name]]

    def timed_share(pred):
        ns = sum(dur(i) for i, s in enumerate(spans[:timed_end]) if pred(s))
        return 100.0 * ns / 1e9 / timed_busy_s if timed_busy_s > 0 else 0.0

    m = {}
    runs = [spans[i][ATTRS] | {"ns": dur(i)} for i in done["apsm.apsm_run"]]
    for v in VARIANTS:
        mine = [r for r in runs if r["variant"] == v]
        for rec, key in ((False, "iter_us"), (True, "iter_us_rec")):
            m[f"apsm.{key}.{v}"] = _median(
                [r["ns"] / 1e3 / r["iters"] for r in mine if r["record"] is rec])
        m[f"apsm.terminal_feasible_ratio.{v}"] = (
            sum(r["feasible"] for r in mine) / len(mine) if mine else 0.0)
    flops = sum(computed_flops_per_iter(r["variant"], r["dim"]) * r["iters"] for r in runs)
    run_ns = sum(r["ns"] for r in runs)
    m["apsm.computed_gflops"] = flops / run_ns if run_ns else 0.0
    m["apsm.early_stop_ratio"] = (
        sum(r["iters"] < r["max_iters"] for r in runs) / len(runs) if runs else 0.0)
    audits = done["apsm.check_quasi_fejer"] + done["apsm.check_attracting"]
    m["apsm.check_quasi_fejer_us"] = _median(durs_us("apsm.check_quasi_fejer"))
    m["apsm.check_attracting_us"] = _median(durs_us("apsm.check_attracting"))
    m["apsm.audit_checked"] = sum(spans[i][ATTRS]["checked"] for i in audits)
    m["apsm.audit_violations"] = sum(spans[i][ATTRS]["violations"] for i in audits)
    m["apsm.share_pct"] = timed_share(lambda s: s[NAME].startswith("apsm."))
    m["geometry.perturbation_l2_us"] = _median(durs_us("geometry.perturbation_l2"))
    m["geometry.perturbation_l1_us"] = _median(durs_us("geometry.perturbation_l1"))

    per_kind = defaultdict(list)
    for i in done["detectors.detect"]:
        per_kind[spans[i][ATTRS]["kind"]].append(dur(i) / 1e6)
    for k in DETECTOR_KINDS:
        m[f"detectors.{k}_ms_p50"] = _pct(per_kind[k], 50)
        m[f"detectors.{k}_ms_p99"] = _pct(per_kind[k], 99)
    box = [spans[i][ATTRS] for i in done["detectors.box_oracle_solve"]]
    iters = [b["iters"] for b in box]
    m["detectors.box_oracle_iters_p50"] = _pct(iters, 50)
    m["detectors.box_oracle_iters_p99"] = _pct(iters, 99)
    m["detectors.box_oracle_converged_ratio"] = (
        sum(b["converged"] for b in box) / len(box) if box else 0.0)
    m["detectors.box_oracle_share_pct"] = timed_share(
        lambda s: s[NAME] == "detectors.detect"
        and (s[ATTRS] or {}).get("kind") == "box_oracle")

    builds = sum(1 for i in by_name["cost.gram_build"] if i < timed_end)
    m["cost.gram_builds_per_trial"] = builds / timed_trials if timed_trials else 0.0
    m["cost.gram_build_us"] = _median(durs_us("cost.gram_build"))
    m["mimo.make_instance_us"] = _median(durs_us("mimo.make_instance"))
    m["mimo.share_pct"] = timed_share(lambda s: s[NAME] == "mimo.make_instance")

    sweeps = [i for name in SWEEPS for i in done[name]]
    child_ns = defaultdict(int)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    self_ns = sum(dur(i) - child_ns[i] for i in sweeps)
    sweep_trials = sum(spans[i][ATTRS]["trials"] for i in sweeps)
    m["sim.self_ms_per_trial"] = self_ns / 1e6 / sweep_trials if sweep_trials else 0.0
    m["sim.table_text_ms"] = _median([d / 1e3 for d in durs_us("sim.table_text")])

    m["trace.spans_per_trial"] = timed_end / timed_trials if timed_trials else 0.0
    return m
