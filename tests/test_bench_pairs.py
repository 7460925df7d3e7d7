import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def checkout(root: Path) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 24, "end_to_end": [
        {"name": "trials_per_s_at_ref_speed", "better": "higher"},
        {"name": "setup_s", "better": "lower"}]}))
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
                             "--pairs", "3", "--seed", "7", "--tag", "t",
                             "--out-dir", str(tmp_path)]) == 0
    # parent first on the 1st, 3rd, ... pair of the whole sequence
    firsts = [side for i, (_, _, side) in enumerate(calls) if i % 2 == 0]
    assert firsts == ["parent", "change", "parent", "change", "parent", "change"]
    assert [seed for _, seed, _ in calls[:6]] == [7, 7, 8, 8, 9, 9]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert len(doc["runs"]) == 12
    rate = doc["summary"]["ref_iter"]["trials_per_s_at_ref_speed"]
    assert rate["change_wins"] == "3/3"
    assert rate["parent_q25_median_q75"] == [107.5, 108.0, 108.5]
    assert rate["median_gain"] == 10.0 and rate["parent_iqr"] == 1.0
    setup = doc["summary"]["validate"]["setup_s"]
    assert setup["change_wins"] == "3/3" and setup["median_gain"] == 0.1
    assert doc["summary"]["validate"]["failed_over_attempted"]["change"] == "0/30"


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
