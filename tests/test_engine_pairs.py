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


def uncertified_parent(root: Path) -> Path:
    """A checkout whose engine takes no certify, so runs the full budget."""
    parent = parent_checkout(root)
    apsm = parent / "src" / "sapsm" / "apsm.py"
    text = apsm.read_text()
    signature, start = ",\n                   certify: bool = False)", "    if len(cfgs) != len(costs):"
    assert text.count(signature) == text.count(start) == 1
    apsm.write_text(text.replace(signature, ")").replace(start, "    certify = False\n" + start))
    return parent


def test_one_round_on_a_tiny_stack(tmp_path, capsys):
    parent = parent_checkout(tmp_path)
    path = sys.path[:]
    assert engine_pairs.main(["--parent", str(parent), "--stacks", "1", "--runs", "1",
                              "--shape", "validate_18", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stacks"] == doc["runs"] == 1 and list(doc["shapes"]) == ["validate_18"]
    (ratio,) = doc["shapes"]["validate_18"]["ratios"]
    assert ratio > 0 and doc["shapes"]["validate_18"]["median"] == ratio
    # the parent's copy is gone from the process
    assert sys.path == path and "sapsm_parent" not in sys.modules


def test_one_round_of_single_runs(tmp_path, capsys):
    # the B = 1 shape: one unrecorded apsm_run per standard variant on one
    # 16x64 realization, compared bitwise like the other uncertified shapes
    parent = parent_checkout(tmp_path)
    assert engine_pairs.main(["--parent", str(parent), "--stacks", "1", "--runs", "1",
                              "--shape", "single_runs"]) == 0
    assert list(json.loads(capsys.readouterr().out)["shapes"]) == ["single_runs"]
    assert "sapsm_parent" not in sys.modules
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
    with pytest.raises(SystemExit, match="validate_18 stack 0: the sides differ"):
        engine_pairs.main(["--parent", str(parent), "--stacks", "1", "--runs", "1",
                           "--shape", "validate_18"])
    assert "sapsm_parent" not in sys.modules


def test_recorded_and_observed_shapes_compare_what_they_hand_over(tmp_path, capsys):
    parent = parent_checkout(tmp_path)
    assert engine_pairs.main(["--parent", str(parent), "--stacks", "1", "--runs", "1",
                              "--shape", "validate_18_recorded",
                              "--shape", "rows_45_observed"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["shapes"]) == ["validate_18_recorded", "rows_45_observed"]
    recorded = engine_pairs.timed(sapsm, "validate_18_recorded",
                                  engine_pairs.stack(sapsm, "validate_18_recorded", 0))[1]
    x, traces, seen, counts = recorded
    assert len(traces) == 18 and seen == [] and counts == []
    assert all(trace.iterates.shape == (261, 8) for trace in traces)
    observed = engine_pairs.timed(sapsm, "rows_45_observed",
                                  engine_pairs.stack(sapsm, "rows_45_observed", 0), keep=True)[1]
    x, traces, seen, counts = observed
    assert sum(map(len, seen)) == 300 and {xs.shape[1:] for xs in seen} == {(45, 32)}
    assert np.concatenate(counts).shape == (300, 3, 15)
    assert all(trace.iterates is None for trace in traces)
    # one flipped bit in a recorded iterate or an observed array, or one
    # count off, tells them apart
    assert engine_pairs.same_bits(recorded, recorded)
    assert engine_pairs.same_bits(observed, observed)
    x, traces, seen, counts = recorded
    flipped = traces[5].iterates.copy()
    flipped[100, 3] = np.nextafter(flipped[100, 3], np.inf)
    traces = traces[:5] + [replace(traces[5], iterates=flipped)] + traces[6:]
    assert not engine_pairs.same_bits(recorded, (x, traces, seen, counts))
    x, traces, seen, counts = observed
    seen = [xs.copy() for xs in seen]
    seen[-1][-1, 44, 31] = np.nextafter(seen[-1][-1, 44, 31], np.inf)
    assert not engine_pairs.same_bits(observed, (x, traces, seen, counts))
    x, traces, seen, counts = observed
    counts = [n.copy() for n in counts]
    counts[3][2, 1, 7] += 1
    assert not engine_pairs.same_bits(observed, (x, traces, seen, counts))


def test_the_certified_shape_compares_counts_and_decisions(tmp_path, capsys):
    # a parent whose engine takes no certify runs the full budget; the
    # counts and decisions of the two sides agree, their iterates do not
    parent = uncertified_parent(tmp_path)
    assert engine_pairs.main(["--parent", str(parent), "--stacks", "1", "--runs", "1",
                              "--shape", "rows_45_certified"]) == 0
    assert list(json.loads(capsys.readouterr().out)["shapes"]) == ["rows_45_certified"]
    assert "sapsm_parent" not in sys.modules
    case = engine_pairs.stack(sapsm, "rows_45_certified", 0)
    certified = engine_pairs.timed(sapsm, "rows_45_certified", case, keep=True)[1]
    full = engine_pairs.timed(sapsm, "rows_45_observed", case, keep=True)[1]
    assert sum(map(len, certified[2])) < 300
    assert np.concatenate(certified[3]).shape == (300, 3, 15)
    assert not engine_pairs.same_bits(certified, full)
    assert engine_pairs.same_decisions(certified, full, case[2])
    x, traces, seen, counts = certified
    counts = [n.copy() for n in counts]
    counts[-1][-1, 0, 0] += 1
    assert not engine_pairs.same_decisions((x, traces, seen, counts), full, case[2])
    x = x.copy()
    x[0] = -x[0]
    assert not engine_pairs.same_decisions((x, traces, seen, certified[3]), full, case[2])


def test_the_unobserved_certified_shape_compares_decisions(tmp_path, capsys):
    # the corr_snr batch as a sweep runs it: unobserved, so the sides
    # compare final decisions alone
    parent = uncertified_parent(tmp_path)
    assert engine_pairs.main(["--parent", str(parent), "--stacks", "1", "--runs", "1",
                              "--shape", "rows_15_certified"]) == 0
    assert list(json.loads(capsys.readouterr().out)["shapes"]) == ["rows_15_certified"]
    assert "sapsm_parent" not in sys.modules
    case = engine_pairs.stack(sapsm, "rows_15_certified", 0)
    assert case[0][0].gram.tobytes() == engine_pairs.stack(sapsm, "rows_15", 0)[0][0].gram.tobytes()
    certified = engine_pairs.timed(sapsm, "rows_15_certified", case, keep=True)[1]
    full = engine_pairs.timed(sapsm, "rows_15", case, keep=True)[1]
    x, traces, seen, counts = certified
    assert len(x) == 15 and seen == counts == []
    # the certified stack stopped early, so its final iterates differ from
    # the full run's, their decisions do not
    assert not engine_pairs.same_bits(certified, full)
    assert engine_pairs.same_decisions(certified, full, case[2])
    x = x.copy()
    x[0] = -x[0]
    assert not engine_pairs.same_decisions((x, traces, seen, counts), full, case[2])
