"""Smoke tests: every demo script, and every python block of the README, runs in-process."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The fenced ```python blocks of the README, in order.
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_demos_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys, tmp_path, monkeypatch):
    # From a directory that is not the repository root: a demo finds its
    # inputs from its own location, not from the working directory.
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(index, tmp_path, monkeypatch):
    # A README example is code the reader copies: an API change must not
    # leave it stale.
    monkeypatch.chdir(tmp_path)
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"), {})
