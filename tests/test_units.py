"""Density-unit invariance: rho -> 2^k rho, e -> 2^k e maps a solution to a solution.

The system is homogeneous of degree one in the density, so a change of the
unit in which the densities are written moves no root and no verdict. Each
bundled scenario (and ``dshock weakcheck`` of two solutions) runs with its
densities and its initial atom mass times 2^k. The exit code and the failed
checks must equal the unscaled run's; at moderate k, where nothing under- or
overflows, every density-linear CSV column must be exactly 2^k times the
unscaled one and every other column identical, bit for bit.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from dshock.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

KS = (-900, -60, -30, 13, 30, 60)
EXACT_KS = (-60, -30, 13, 30, 60)
DENSITY_KEYS = ("rho_l", "rho_r", "e0", "rho_minus", "rho_plus")
LINEAR_COLUMNS = {
    "riemann.csv": {"e", "mass_deficit", "momentum_deficit"},
    "planar.csv": {"e", "tan_deficit", "tan_deficit_1"},
    "balance.csv": {
        "M", "m", "P_1", "p_1", "W", "w", "sum_mass", "sum_mom_1", "sum_energy", "mdot"
    },
}


def _scaled(obj: dict, k: int) -> dict:
    """``obj`` with every density and atom mass, nested solutions included, times 2^k."""
    out = {key: math.ldexp(value, k) if key in DENSITY_KEYS else value for key, value in obj.items()}
    if "solution" in out:
        out["solution"] = _scaled(out["solution"], k)
    return out


def _read_csv(path: Path):
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    return names, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _run(tmp_path: Path, command: str, obj: dict, tag: str):
    """Exit code, failed checks and output directory of ``command`` on ``obj``."""
    cfg = tmp_path / f"{tag}.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / tag
    if command == "run":
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
    else:
        code = main(["weakcheck", "--solution", str(cfg), "--out", str(out / "weak.json")])
        report = json.loads((out / "weak.json").read_text())
    return code, report["failed"], out


CASES = [
    ("run", name)
    for name in (
        "asymmetric_riemann",
        "symmetric_riemann",
        "seeded_atom_riemann",
        "relativistic_riemann",
        "time_reversed_sanity",
        "planar_2d",
        "weakcheck_asymmetric",
    )
] + [("weakcheck", "planar_2d"), ("weakcheck", "asymmetric_riemann")]


@pytest.mark.parametrize("command,name", CASES)
def test_verdicts_and_columns_do_not_depend_on_the_unit_of_density(tmp_path, command, name):
    obj = json.loads((SCENARIOS / f"{name}.json").read_text())
    code, failed, out = _run(tmp_path, command, obj, "unit")
    for k in KS:
        assert _run(tmp_path, command, _scaled(obj, k), f"k{k}")[:2] == (code, failed), k
    for k in EXACT_KS:
        scaled = tmp_path / f"k{k}"
        for csv in sorted(out.glob("*.csv")):
            names, data = _read_csv(csv)
            names2, data2 = _read_csv(scaled / csv.name)
            assert names2 == names
            for j, column in enumerate(names):
                want = data[:, j]
                if column in LINEAR_COLUMNS[csv.name]:
                    want = np.ldexp(want, k)
                assert np.array_equal(data2[:, j], want), (k, csv.name, column)


def test_the_riemann_core_takes_any_unit_of_density(tmp_path, capsys):
    # Densities whose sum overflows: the front's mass gain 1.8e308 per unit
    # time is itself out of range, so the run is a classified numerical failure.
    out = tmp_path / "huge.csv"
    argv = ["riemann", "--rho-l", "9e307", "--rho-r", "9e307", "--u-l", "1", "--u-r", "-1",
            "--t-end", "1", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv)
    assert code == 3
    assert "column 'e' holds" in capsys.readouterr().err
    # An atom mass near the largest float: every row is in range.
    argv = ["riemann", "--rho-l", "1", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
            "--t-end", "1", "--e0", "1.7e308", "--u-delta0", "0.5", "--out", str(out)]
    assert main(argv) == 0
    names, data = _read_csv(out)
    e = data[:, names.index("e")]
    assert e[0] == 1.7e308 and np.all(np.isfinite(data))
