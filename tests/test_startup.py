"""What ``import dshock`` and ``import dshock.cli`` leave in a fresh process.

The package imports its modules with the cyclic GC paused and then restores
it; the CLI module freezes the import heap for the life of its process.
Scenarios are validated in-package, so no CLI run imports jsonschema. Each
case runs in a fresh interpreter, because this test process has imported
dshock already. Nothing here is timed. Which modules import scipy when they
load is read from their source.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import gc, json
{setup}
before = gc.get_freeze_count()
import dshock
after_package = {{"enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}}
check = {check}
import dshock.cli
after_cli = {{"enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}}
print(json.dumps({{"before": before, "package": after_package, "cli": after_cli, "check": check}}))
"""


def _run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout; it prints one JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout)


def _probe(setup: str, check: str = "None") -> dict:
    """GC states around the imports, after ``setup``; ``check`` is evaluated after ``import dshock``."""
    return _run_python(_PROBE.format(setup=setup, check=check))


def test_package_import_leaves_the_gc_as_found_and_the_cli_freezes():
    state = _probe("")
    assert state["before"] == 0
    assert state["package"] == {"enabled": True, "frozen": 0}
    assert state["cli"]["enabled"] is True
    assert state["cli"]["frozen"] > 0


def test_package_import_leaves_a_disabled_gc_disabled():
    state = _probe("gc.disable()")
    assert state["package"] == {"enabled": False, "frozen": 0}


def test_package_import_keeps_a_heap_the_caller_froze():
    # Freezing and unfreezing would thaw the caller's heap. gc.get_objects()
    # lists only objects that are not frozen.
    state = _probe("mine = []; gc.freeze()", "all(o is not mine for o in gc.get_objects())")
    assert state["before"] > 0
    assert state["package"]["enabled"] is True and state["package"]["frozen"] > 0
    assert state["check"] is True


_JSONSCHEMA_PROBE = """
import json, sys
from dshock.cli import main
loaded = {{"import": "jsonschema" in sys.modules}}
for name, argv in {runs!r}:
    loaded[name] = (main(argv), "jsonschema" in sys.modules)
print(json.dumps(loaded))
"""


def test_cli_runs_never_import_jsonschema(tmp_path):
    scenarios = SRC.parent / "scenarios"
    runs = [
        ("symmetric_riemann", ["run", "--config", str(scenarios / "symmetric_riemann.json"),
                               "--out", str(tmp_path / "sym")]),
        ("weakcheck_asymmetric", ["run", "--config", str(scenarios / "weakcheck_asymmetric.json"),
                                  "--out", str(tmp_path / "weak")]),
        # 500 shells, since 200 form no dominant cluster (exit 3).
        ("oracle", ["oracle", "--preset", "spherical", "--N", "500",
                    "--out", str(tmp_path / "oracle.csv")]),
    ]
    loaded = _run_python(_JSONSCHEMA_PROBE.format(runs=runs))
    assert loaded == {
        "import": False,
        "symmetric_riemann": [0, False],
        "weakcheck_asymmetric": [0, False],
        "oracle": [0, False],
    }


def _module_level_imports(tree: ast.Module):
    """Top-level names each import statement run at module load brings in.

    Statements under ``if``, ``try`` and ``with`` at module level count;
    function and class bodies do not.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module.split(".")[0]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_only_spherical_imports_scipy_when_it_loads():
    # Everything else imports scipy inside the function that needs it, so a
    # process that never integrates a spherical front could run without it.
    package = SRC / "dshock"
    importers = sorted(
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if "scipy" in _module_level_imports(ast.parse(path.read_text()))
    )
    assert importers == ["spherical.py"]
