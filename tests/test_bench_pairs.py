import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def checkout(root: Path) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 24, "end_to_end": [
        {"name": "trials_per_s_at_ref_speed", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25}]}))
    return root


def test_pairs_alternate_and_summary_follows_each_metric_direction(tmp_path, monkeypatch):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    calls = []

    def fake_run(path, workload, seed, seconds):
        side = path.name
        assert seconds == 24.0
        calls.append((workload, seed, side))
        rate = 100.0 + seed + (10.0 if side == "change" else 0.0)
        setup = 0.5 if side == "change" else 0.6
        result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "trials_per_s_at_ref_speed": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"}}}
        return result, {"nproc": 2, "python": "3", "numpy": "2", "scipy": "1"}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "ref_iter", "--workload", "validate",
                             "--pairs", "10", "--seed", "7", "--tag", "t",
                             "--out-dir", str(tmp_path)]) == 0
    # parent first on the 1st, 3rd, ... pair of the whole sequence
    firsts = [side for i, (_, _, side) in enumerate(calls) if i % 2 == 0]
    assert firsts == ["parent", "change"] * 10
    assert [seed for _, seed, _ in calls[:20]] == [s for s in range(7, 17) for _ in "pc"]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert len(doc["runs"]) == 40
    rate = doc["summary"]["ref_iter"]["trials_per_s_at_ref_speed"]
    assert rate["change_wins"] == "10/10"
    assert rate["parent_q25_median_q75"] == [109.25, 111.5, 113.75]
    assert rate["median_gain"] == 10.0 and rate["parent_iqr"] == 4.5
    assert rate["verdict"] == "gain"
    setup = doc["summary"]["validate"]["setup_s"]
    assert setup["change_wins"] == "10/10" and setup["median_gain"] == 0.1
    # a lower-is-better metric at no spread: a gain of 0.1 exceeds it
    assert setup["verdict"] == "gain"
    assert doc["summary"]["validate"]["failed_over_attempted"]["change"] == "0/100"


def test_a_failed_run_is_kept_and_the_sequence_goes_on(tmp_path, monkeypatch):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    calls = []

    def fake_run(path, workload, seed, seconds):
        side = path.name
        calls.append((seed, side))
        if (seed, side) == (8, "change"):
            raise bench_pairs.RunFailed(1, "Traceback ...\nMemoryError")
        rate = 100.0 + seed + (10.0 if side == "change" else 0.0)
        result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "trials_per_s_at_ref_speed": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": 0.5, "unit": "s"}}}
        return result, {"nproc": 2}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "ref_snr", "--pairs", "3", "--seed", "7",
                             "--tag", "t", "--out-dir", str(tmp_path)]) == 1
    # every run of the sequence ran, the one after the failure included
    assert len(calls) == 6 and calls[-2:] == [(9, "parent"), (9, "change")]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert len(doc["runs"]) == 6
    (failed,) = [r for r in doc["runs"] if "result" not in r]
    assert failed == {"side": "change", "workload": "ref_snr", "seed": 8,
                      "pair_order": "change_first", "exit_code": 1,
                      "stderr_tail": "Traceback ...\nMemoryError"}
    summary = doc["summary"]["ref_snr"]
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    rate = summary["trials_per_s_at_ref_speed"]
    # quartiles of the runs that succeeded; wins only over whole pairs
    assert rate["parent_q25_median_q75"] == [107.5, 108.0, 108.5]
    assert rate["change_q25_median_q75"] == [117.5, 118.0, 118.5]
    assert rate["change_wins"] == "2/2"
    assert summary["failed_over_attempted"]["change"] == "0/20"


PARENT = [100.0 + p for p in range(10)]  # median 104.5, interquartile range 4.5


@pytest.mark.parametrize("change, sign, bound, expected", [
    # 10/10 wins by 5, above the parent's interquartile range of 4.5
    ([v + 5.0 for v in PARENT], 1.0, 0.25, "gain"),
    # 10/10 wins, but by 1, inside the interquartile range
    ([v + 1.0 for v in PARENT], 1.0, 0.25, "no_change"),
    # a gain of 10 over 8/10 pairs is short of 9/10
    ([v + 10.0 if p < 8 else v - 1.0 for p, v in enumerate(PARENT)], 1.0, 0.25, "no_change"),
    # 3/3 wins by 10, past the interquartile range, but on fewer than ten pairs
    ([v + 10.0 for v in PARENT[:3]], 1.0, 0.25, "no_change"),
    # 30% slower, past the 25% bound
    ([0.7 * v for v in PARENT], 1.0, 0.25, "worse"),
    # the same values, where lower is better: 30% lower wins every pair
    ([0.7 * v for v in PARENT], -1.0, 0.25, "gain"),
    # the parent spreads by 4.3% of its median, past a 2% bound, and the
    # change's runs overlap the parent's
    ([v + 0.5 for v in PARENT], 1.0, 0.02, "unresolved"),
])
def test_verdict_follows_the_rule(change, sign, bound, expected):
    par = dict(enumerate(PARENT))
    chg = dict(enumerate(change))
    assert bench_pairs.compare(par, chg, sign, bound)["verdict"] == expected


def test_a_wide_parent_is_resolved_when_every_change_run_beats_it():
    # the parent spreads by 13.5, past a 2% bound, with its top quartile at
    # its maximum; a change that beats every parent run by less than that
    # spread is no gain, and not unresolved
    par = dict(enumerate([80.0, 81.0, 82.0] + [100.0] * 7))
    chg = dict(enumerate([100.5] * 10))
    assert bench_pairs.compare(par, chg, 1.0, 0.02)["verdict"] == "no_change"
    chg[0] = 99.0
    assert bench_pairs.compare(par, chg, 1.0, 0.02)["verdict"] == "unresolved"
