import importlib.util
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sapsm

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("engine_pairs", ROOT / "tools" / "engine_pairs.py")
engine_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(engine_pairs)


def parent_checkout(root: Path) -> Path:
    """A checkout whose src/sapsm is this one's."""
    shutil.copytree(ROOT / "src" / "sapsm", root / "src" / "sapsm",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def one_round(capsys, parent: Path, *shapes: str, stacks: int = 1) -> dict:
    """The JSON of one round of the tool against ``parent``, checked to leave
    no trace of the parent's copy in the process."""
    path = sys.path[:]
    args = ["--parent", str(parent), "--stacks", str(stacks), "--runs", "1"]
    assert engine_pairs.main(args + [a for shape in shapes for a in ("--shape", shape)]) == 0
    assert sys.path == path and "sapsm_parent" not in sys.modules
    return json.loads(capsys.readouterr().out)


def test_one_round_of_the_uncertified_shapes(tmp_path, capsys):
    # the validate stack, recorded, and the B = 1 shape: one unrecorded
    # apsm_run per standard variant on one 16x64 realization
    shapes = ["validate_18_recorded", "single_runs"]
    doc = one_round(capsys, parent_checkout(tmp_path), *shapes)
    assert doc["stacks"] == doc["runs"] == 1 and list(doc["shapes"]) == shapes
    for report in doc["shapes"].values():
        (ratio,) = report["ratios"]
        assert ratio > 0 and report["median"] == ratio and report["compared"] == ["bitwise"]
    case = engine_pairs.stack(sapsm, "single_runs", 0)
    x, traces, seen, counts = engine_pairs.timed(sapsm, "single_runs", case)[1]
    assert x.shape == (3, 32) and seen == counts == []
    assert [trace.cfg for trace in traces] == case[1]
    assert [trace.cfg.variant for trace in traces] == ["plain", "l2", "l1"]
    assert all(trace.iterates is None and len(trace) == 300 for trace in traces)
    for (cost, cfg), final in zip(zip(case[0], case[1]), x):
        assert final.tobytes() == sapsm.apsm_run(cost, cfg, case[2])[0].tobytes()


def test_sides_that_differ_are_refused(tmp_path):
    # a parent whose relaxation differs steps otherwise on the same stack
    parent = parent_checkout(tmp_path)
    cost = parent / "src" / "sapsm" / "cost.py"
    text = cost.read_text()
    assert text.count("\nMU = 0.7\n") == 1
    cost.write_text(text.replace("\nMU = 0.7\n", "\nMU = 0.6\n"))
    with pytest.raises(SystemExit, match="validate_18_recorded stack 0: the sides differ"):
        engine_pairs.main(["--parent", str(parent), "--stacks", "1", "--runs", "1",
                           "--shape", "validate_18_recorded"])
    assert "sapsm_parent" not in sys.modules


def test_recorded_and_observed_shapes_compare_what_they_hand_over():
    recorded = engine_pairs.timed(sapsm, "validate_18_recorded",
                                  engine_pairs.stack(sapsm, "validate_18_recorded", 0))[1]
    x, traces, seen, counts = recorded
    assert len(traces) == 18 and seen == [] and counts == []
    assert all(trace.iterates.shape == (261, 8) for trace in traces)
    # the per-iteration sweep's stack hands over the iterates up to its
    # stop, and its counts run on to the budget
    case = engine_pairs.stack(sapsm, "rows_45_observed", 0)
    observed = engine_pairs.timed(sapsm, "rows_45_observed", case, keep=True)[1]
    x, traces, seen, counts = observed
    assert sum(map(len, seen)) == engine_pairs.stop(sapsm, case) < 300
    assert {xs.shape[1:] for xs in seen} == {(45, 32)} and x.tobytes() == seen[-1][-1].tobytes()
    assert np.concatenate(counts).shape == (300, 3, 15)
    assert all(trace.iterates is None for trace in traces)
    # one flipped bit in a recorded iterate, an observed array or a final
    # decision, or one count off, tells them apart; an observed iterate at
    # or after the earlier of two sides' stops is no part of the decisions
    assert all(engine_pairs.same_bits(run, run) for run in (recorded, observed))
    x, traces, seen, counts = recorded
    flipped = traces[5].iterates.copy()
    flipped[100, 3] = np.nextafter(flipped[100, 3], np.inf)
    traces = traces[:5] + [replace(traces[5], iterates=flipped)] + traces[6:]
    assert not engine_pairs.same_bits(recorded, (x, traces, seen, counts))
    x, traces, seen, counts = observed
    n, c = sum(map(len, seen)), case[2]
    seen = [xs.copy() for xs in seen]
    seen[-1][-1, 44, 31] = np.nextafter(seen[-1][-1, 44, 31], np.inf)
    assert not engine_pairs.same_bits(observed, (x, traces, seen, counts))
    assert engine_pairs.same_decisions(observed, (x, traces, seen, counts), c, n - 1)
    assert not engine_pairs.same_decisions(observed, (x, traces, seen, counts), c, n)
    x, traces, seen, counts = observed
    counts = [m.copy() for m in counts]
    counts[3][2, 1, 7] += 1
    for other in ((x, traces, seen, counts), (-x, traces, seen, observed[3])):
        assert not engine_pairs.same_bits(observed, other)
        assert not engine_pairs.same_decisions(observed, other, c, n)


def test_certified_stacks_are_bitwise_where_both_sides_stop_at_one_chunk_end(tmp_path,
                                                                            capsys):
    # the corr_snr and ref_iter batches against a copy of this checkout
    doc = one_round(capsys, parent_checkout(tmp_path), "rows_15", "rows_45_observed", stacks=2)
    assert [report["compared"] for report in doc["shapes"].values()] == [["bitwise"] * 2] * 2
    # a flipped bit of a final iterate that keeps every decision is refused
    case = engine_pairs.stack(sapsm, "rows_15", 0)
    run = engine_pairs.timed(sapsm, "rows_15", case)[1]
    x = run[0].copy()
    x[0, 0] = np.nextafter(x[0, 0], np.inf)
    assert engine_pairs.same_decisions(run, (x, *run[1:]), case[2], 300)
    with pytest.raises(SystemExit, match="rows_15 stack 0: the sides differ"):
        engine_pairs.comparison((sapsm, sapsm), "rows_15", 0, [case, case], (run, (x, *run[1:])))


def test_certified_stacks_stopped_at_other_chunk_ends_compare_decisions(tmp_path, capsys):
    # a parent that tries its certificate every 20 iterations stops these
    # stacks later (at 160 and 200, not 156 and 192; 24 iterations would
    # stop the ref_iter batch at 192 too): their bits differ, their counts,
    # decisions and observed iterates up to the earlier stop do not
    parent = parent_checkout(tmp_path)
    apsm = parent / "src" / "sapsm" / "apsm.py"
    text = apsm.read_text()
    assert text.count("\nCHUNK = 12\n") == 1
    apsm.write_text(text.replace("\nCHUNK = 12\n", "\nCHUNK = 20\n"))
    doc = one_round(capsys, parent, "rows_15", "rows_45_observed")
    assert [report["compared"] for report in doc["shapes"].values()] == [["decisions"]] * 2
