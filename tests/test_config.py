"""The repository's pytest configuration, applied to a test file of its own.

The file runs in a fresh pytest process with this checkout's
``pyproject.toml`` and a temporary directory as its working directory.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FALSIFIED = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_falsified(n):
    assert n < 10
"""


def test_a_falsified_property_reports_its_example(tmp_path):
    # Deprecations are errors here; one raised inside hypothesis's own failure
    # report used to end the run in INTERNALERROR with the example unprinted.
    (tmp_path / "test_falsified.py").write_text(_FALSIFIED)
    args = ["-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "--rootdir", "."]
    out = subprocess.run(
        [sys.executable, "-m", "pytest", *args, "test_falsified.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "Falsifying example: test_falsified(" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
