import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("engine_pairs", ROOT / "tools" / "engine_pairs.py")
engine_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(engine_pairs)


def parent_checkout(root: Path) -> Path:
    """A checkout whose src/sapsm is this one's."""
    shutil.copytree(ROOT / "src" / "sapsm", root / "src" / "sapsm",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


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
