"""The suite's own pytest settings: a failing property test is reported as a
failure, not as an internal error of the run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n != 0
"""


def test_failing_property_test_is_reported(tmp_path):
    # on a failure hypothesis imports libcst to print the failing example;
    # under the warnings-as-errors setting that import must not abort the run
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_prop.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed" in out, out
    assert "INTERNALERROR" not in out, out
