"""Smoke tests: every demo script, every python block of the README and every
dshock command of its sh blocks runs in-process."""

import re
import runpy
import shlex
from pathlib import Path

import pytest

from dshock.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
# The fenced ```python blocks of the README, in order.
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
# Each `dshock ...` line of the fenced ```sh blocks, as its argv.
README_COMMANDS = [
    shlex.split(line, comments=True)
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("dshock ")
]


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


def test_readme_commands_found():
    assert {argv[1] for argv in README_COMMANDS} == {"run", "riemann", "oracle", "weakcheck"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[1])
def test_readme_command_runs(argv, tmp_path, monkeypatch):
    # A documented command must exist and succeed: scenarios/ is the
    # repository's, and every output lands in a fresh directory.
    monkeypatch.chdir(tmp_path)
    args = [str(ROOT / arg) if arg.startswith("scenarios/") else arg for arg in argv[1:]]
    assert main(args) == 0
