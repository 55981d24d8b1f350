"""Checker sensitivity: each physics mutant must fail the checker its row names.

A row replaces one exact text, which must occur exactly once, in a copy of
``src/`` and runs ``dshock run`` on one config in a subprocess: the run must
exit 4 with the row's check failed. A refactor that moves the text fails the
row loudly instead of testing nothing. The same config run on the unmutated
package must pass that check, so a checker that fails everything catches
nothing here.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from dshock.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    config: dict
    checker: str


# A converging shell in the n = 3 free flow of rho0 = 1 + r/2, u0 = -1/2 - 3r/10:
# its density carries the (r0/r)^2 area factor of the characteristics.
_FREE_FLOW_N3 = {
    "kind": "spherical",
    "n": 3,
    "inner": {"kind": "vacuum"},
    "outer": {"kind": "free_flow", "rho": "1 + 0.5*r", "u": "-0.5 - 0.3*r", "support": [1.0, 3.0]},
    "phi0": 1.0,
    "e0": 0.01,
    "u_delta0": -0.6,
    "t_end": 0.6,
    "annulus": [0.0, 3.6],
}


def _scenario(name: str) -> dict:
    return json.loads((SCENARIOS / f"{name}.json").read_text())


# Measured at each mutant, against its unmutated run: the mass drift of front
# curvature 1.9e-2 (1.7e-10), free-flow area factor 0.53 (3.0e-11) and atom
# mass 1.8e-7 (1.4e-16); the largest weak residual of the initial terms 2.4
# (4.5e-10) and of the swapped pieces 0.48 (4.5e-10).
MUTANTS = [
    Mutant(
        "front ODE without its (n-1)/phi terms",
        "spherical.py",
        "curv = geom / phi * u_d",
        "curv = 0.0 * u_d",
        _scenario("spherical_converging_n3"),
        "mass_conservation",
    ),
    Mutant(
        "free flow without its (r0/r)^(n-1) factor",
        "spherical.py",
        "ratio = (r0 / r) ** (n - 1) if n > 1 else 1.0",
        "ratio = 1.0",
        _FREE_FLOW_N3,
        "mass_conservation",
    ),
    Mutant(
        "atom mass e times (1 + 1e-6 t)",
        "riemann1d.py",
        "np.ldexp(e0 + (grow * t - b_ * y), k),",
        "np.ldexp(e0 + (grow * t - b_ * y), k) * (1.0 + 1e-6 * t),",
        _scenario("seeded_atom_riemann"),
        "mass_conservation",
    ),
    Mutant(
        "weak identities without their t = 0 terms",
        "weakcheck.py",
        "tv, td = amp * tf.value(t), amp * tf.deriv(t)",
        "tv, td = amp * tf.value(t) * (t > 0.0), amp * tf.deriv(t)",
        _scenario("weakcheck_asymmetric"),
        "weak_identities",
    ),
    Mutant(
        "weak identities with the left and right pieces swapped",
        "weakcheck.py",
        "return a, np.where(b - a > _MIN_WIDTH, b, a)",
        "return a[::-1], np.where(b - a > _MIN_WIDTH, b, a)[::-1]",
        _scenario("weakcheck_asymmetric"),
        "weak_identities",
    ),
]


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_fails_its_checker(tmp_path, mutant):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(mutant.config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "head")]) == 0
    assert _report(tmp_path / "head")["checks"][mutant.checker] is True

    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "dshock" / mutant.module
    text = path.read_text()
    assert text.count(mutant.old) == 1, f"{mutant.module} must hold {mutant.old!r} exactly once"
    path.write_text(text.replace(mutant.old, mutant.new))
    proc = subprocess.run(
        [sys.executable, "-m", "dshock.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "mutant")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert mutant.checker in _report(tmp_path / "mutant")["failed"]
