"""Smoke test of the benchmark harness at tiny sizes (2x4 QPSK).

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

import sapsm.apsm  # noqa: E402
import sapsm.detectors  # noqa: E402


def test_benchmark_json_matches_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOAD_NAMES) == set(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "trials_per_s_at_ref_speed", "setup_s", "peak_rss_mb"}


def test_tracing_restores_every_patch_point():
    originals = [(spans.patch_owner(spec), attr, getattr(spans.patch_owner(spec), attr))
                 for spec, attr, *_ in spans.PATCH_POINTS]
    tracer = spans.Tracer()
    with spans.traced(tracer):
        for owner, attr, fn in originals:
            assert getattr(owner, attr).__wrapped__ is fn
    # apsm looks the perturbations up in its own namespace
    assert any(owner is sapsm.apsm and attr == "perturbation_l1"
               for owner, attr, _ in originals)
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn


def test_spans_nest_and_self_time_is_nonnegative():
    w = replace(wl.WORKLOADS["ref_snr"], k=2, n=4, modulation="qpsk", trials=2)
    tally = wl.Tally()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        loop = wl.timed_loop(w, 3, 0.0, tally)
        timed_end = len(tracer.spans)
        check = wl.check_pass(w, 3, tally)
    assert tally.failed == 0, tally.problems
    assert loop.batches == 1 and loop.trials == w.trials_per_batch
    for v in wl.GATED_VARIANTS:
        assert check.audits[v][0] > 0 and check.audits[v][1] == 0
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"sim.run_ser_vs_snr", "mimo.make_instance", "detectors.detect",
            "apsm.apsm_run", "geometry.perturbation_l1", "cost.gram_build",
            "detectors.box_oracle_solve", "apsm.check_attracting"} <= names
    for s in tracer.spans:
        assert s[spans.END] >= s[spans.START]
        if s[spans.PARENT] >= 0:
            parent = tracer.spans[s[spans.PARENT]]
            assert parent[spans.START] <= s[spans.START] <= s[spans.END] <= parent[spans.END]
    m = layers.layer_metrics(tracer.spans, timed_end, loop.busy_s, loop.trials)
    assert set(m) | {"trace.overhead_ratio", "e2e.raw_trials_per_s", "machine.probe_ms"} == {
        name for name, _, _ in layers.PER_LAYER}
    assert all(math.isfinite(v) for v in m.values())
    # three APSM variants plus the box oracle build a Gram matrix per trial
    assert m["cost.gram_builds_per_trial"] == 4
    assert m["sim.self_ms_per_trial"] >= 0
    assert m["detectors.box_oracle_converged_ratio"] == 1.0


def test_each_failed_trial_counts_once():
    w = replace(wl.WORKLOADS["ref_snr"], k=2, n=4, modulation="qpsk", trials=2)
    solve = sapsm.detectors.detect_box_oracle

    def unconverged(*args, **kwargs):
        return solve(*args, **kwargs)._replace(converged=False)

    tally = wl.Tally()
    with spans.patched([(sapsm.detectors, "detect_box_oracle", unconverged)]):
        wl.timed_loop(w, 3, 0.0, tally)
        wl.check_pass(w, 3, tally)
    # every realization's box solve "failed", in the loop and in the check pass
    assert tally.attempted == w.trials_per_batch + wl.CHECK_TRIALS
    assert tally.failed == tally.attempted


def test_ser_tolerance_rejects_a_doubled_error_rate():
    assert wl.ser_within_tolerance(200, 10_000, 2_000, 100_000, 1.5)[0]
    assert not wl.ser_within_tolerance(400, 10_000, 2_000, 100_000, 1.5)[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ref_snr",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric_last(trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "validate",
                           "--seed", "5", "--seconds", "0.01", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
