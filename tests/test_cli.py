"""End-to-end tests of the dshock command line interface.

Everything runs in-process through main(argv) so exit codes and stderr
are observable without spawning subprocesses. The golden files under
tests/golden/ pin the byte-exact output of a reference scenario.
"""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from dshock.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _read_csv(path):
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return names, data


def test_golden_symmetric_riemann_byte_exact(tmp_path):
    rc = main(
        ["run", "--config", str(SCENARIOS / "symmetric_riemann.json"), "--out", str(tmp_path)]
    )
    assert rc == 0
    golden = GOLDEN / "symmetric_riemann"
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == sorted(p.name for p in golden.iterdir())
    for ref in golden.iterdir():
        assert (tmp_path / ref.name).read_bytes() == ref.read_bytes(), ref.name


def test_rerun_is_deterministic(tmp_path):
    # Every bundled scenario, run twice, writes byte-identical trees.
    expected_rc = {"time_reversed_sanity": 4}
    for cfg in sorted(SCENARIOS.glob("*.json")):
        trees = []
        for run in ("a", "b"):
            out = tmp_path / cfg.stem / run
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == expected_rc.get(
                cfg.stem, 0
            ), cfg.name
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "manifest.json" in trees[0], cfg.name
        assert trees[0] == trees[1], cfg.name


def test_manifest_lists_valid_checksums(tmp_path):
    main(["run", "--config", str(SCENARIOS / "relativistic_riemann.json"), "--out", str(tmp_path)])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["scenario"]["kind"] == "riemann1d"
    assert set(manifest["files"]) == {"balance.csv", "plot.gp", "report.json", "riemann.csv"}
    for name, meta in manifest["files"].items():
        blob = (tmp_path / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == meta["sha256"]
        assert len(blob) == meta["bytes"]


def test_missing_and_malformed_configs_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "wormhole"}')
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_unknown_keys_strict_vs_lenient(tmp_path, capsys):
    cfg = tmp_path / "extra.json"
    obj = json.loads((SCENARIOS / "symmetric_riemann.json").read_text())
    obj["wavelength"] = 550
    cfg.write_text(json.dumps(obj))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--strict"]) == 2
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert "wavelength" in capsys.readouterr().err


def test_rarefaction_data_exits_4_with_named_condition(tmp_path):
    cfg = tmp_path / "rarefaction.json"
    cfg.write_text(
        json.dumps(
            {
                "kind": "riemann1d",
                "rho_l": 1.0,
                "rho_r": 1.0,
                "u_l": -1.0,
                "u_r": 1.0,
                "t_end": 1.0,
            }
        )
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["failed"] == ["overcompression"]
    assert "u_plus < u_delta < u_minus" in report["failed_condition"]
    assert set(report) == {"kind", "name", "failed", "failed_condition", "error", "passed"}
    assert set(json.loads((out / "manifest.json").read_text())["files"]) == {"report.json"}


def test_numerical_failure_in_a_runner_leaves_a_report(tmp_path, capsys):
    # An outer density of 1e308 overflows the front ODE (StiffnessError):
    # the run exits 3 and still writes its report and manifest.
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["outer"] = {"kind": "constant", "rho": 1e308, "u": -1}
    cfg = tmp_path / "dense.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["failed"] == ["run"]
    assert report["exit_code"] == 3
    assert report["error_class"] == "StiffnessError"
    assert err == f"numerical failure: {report['error']}\n"
    # The right-hand side names the overflowing term before scipy's step
    # control overflows and warns.
    assert report["error"].startswith("front ODE right-hand side out of range at t = 0:")
    assert "de/dt = 5e+307" in report["error"]
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert set(json.loads((out / "manifest.json").read_text())["files"]) == {"report.json"}


def test_time_reversed_sanity_fails_energy_check(tmp_path):
    rc = main(
        ["run", "--config", str(SCENARIOS / "time_reversed_sanity.json"), "--out", str(tmp_path)]
    )
    assert rc == 4
    report = json.loads((tmp_path / "report.json").read_text())
    assert "energy_monotonicity" in report["failed"]
    # Conservation still holds backwards in time; only dissipation flips.
    assert report["checks"]["mass_conservation"] is True
    assert report["checks"]["momentum_conservation"] is True
    assert report["entropy_strict_everywhere"] is False


def test_riemann_subcommand_csv(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(
        [
            "riemann",
            "--rho-l", "4", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
            "--t-end", "1.0", "--samples", "11", "--out", str(out),
        ]
    )
    assert rc == 0
    names, data = _read_csv(out)
    assert names == ["t", "phi", "u_delta", "e", "mass_deficit", "momentum_deficit"]
    assert data.shape == (11, 6)
    np.testing.assert_allclose(data[:, 2], 1.0 / 3.0, atol=1e-12)
    np.testing.assert_allclose(data[:, 3], 4.0 * data[:, 0], atol=1e-12)
    # 17-significant-digit scientific notation, bitwise reparseable
    line = out.read_text().splitlines()[5]
    assert all("e" in cell and len(cell.split("e")[0]) >= 18 for cell in line.split(","))


def test_riemann_subcommand_relativistic_needs_c0(tmp_path):
    args = [
        "riemann", "--rho-l", "4", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
        "--t-end", "1.0", "--flux", "relativistic", "--out", str(tmp_path / "r.csv"),
    ]
    assert main(args) == 2
    assert main(args + ["--c0", "10.0"]) == 0


def test_riemann_subcommand_rejects_nan_as_config_error(tmp_path, capsys):
    args = [
        "riemann", "--rho-l", "nan", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
        "--t-end", "1.0", "--out", str(tmp_path / "r.csv"),
    ]
    assert main(args) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("t_end", ["nan", "inf"])
def test_riemann_subcommand_rejects_non_finite_t_end(tmp_path, capsys, t_end):
    args = [
        "riemann", "--rho-l", "4", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
        "--t-end", t_end, "--out", str(tmp_path / "r.csv"),
    ]
    assert main(args) == 2
    assert "finite" in capsys.readouterr().err


def test_oracle_subcommand(tmp_path):
    out = tmp_path / "oracle.csv"
    rc = main(
        ["oracle", "--preset", "riemann", "--N", "4000", "--T", "1.0", "--out", str(out)]
    )
    assert rc == 0
    names, data = _read_csv(out)
    assert names == ["t", "position_hat", "u_delta_hat", "mass_hat"]
    assert abs(data[-1, 2] - 1.0 / 3.0) < 5e-3
    assert abs(data[-1, 3] - 4.0) < 0.1


@pytest.mark.parametrize("T", ["nan", "inf"])
def test_oracle_subcommand_rejects_non_finite_T(tmp_path, capsys, T):
    # A non-finite final time is a configuration error, caught before any
    # particle moves: exit 2, no output and no numpy warnings.
    out = tmp_path / "o.csv"
    args = ["oracle", "--preset", "riemann", "--N", "1000", "--T", T, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("T", ["Infinity", "NaN", "1e400"])
def test_run_oracle_rejects_non_finite_T(tmp_path, capsys, T):
    cfg = tmp_path / "oracle.json"
    cfg.write_text(f'{{"kind": "oracle", "preset": "riemann", "N": 1000, "T": {T}}}')
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["error_class"] == "InvalidParameterError"
    assert report["exit_code"] == 2
    assert report["failed"] == ["run"]


def test_oracle_undersampled_exits_3(tmp_path):
    rc = main(
        ["oracle", "--preset", "riemann", "--N", "50", "--out", str(tmp_path / "o.csv")]
    )
    assert rc == 3


def test_spherical_subcommand(tmp_path):
    rc = main(
        [
            "spherical",
            "--config", str(SCENARIOS / "spherical_converging_n3.json"),
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    names, data = _read_csv(tmp_path / "spherical.csv")
    assert names[:4] == ["t", "phi", "u_delta", "e"]
    assert np.all(np.diff(data[:, 1]) < 0.0)  # front converges inward


def test_spherical_subcommand_rejects_nan_radius(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["phi0"] = float("nan")
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps(obj))  # Python's json writes and reads the NaN token
    assert main(["spherical", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("edge", [float("nan"), float("inf")])
def test_run_rejects_non_finite_annulus(tmp_path, capsys, edge):
    # A NaN edge used to fail the audit as a numerical error (exit 3); an
    # infinite one passed with 0 * inf in the boundary inflow (exit 0).
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["annulus"] = [0.0, edge]
    cfg = tmp_path / "annulus.json"
    cfg.write_text(json.dumps(obj))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("rho", float("nan")), ("u", float("inf"))])
def test_run_rejects_non_finite_constant_field(tmp_path, capsys, key, value):
    # A NaN density used to pass the sign check and stall the front ODE for
    # good; an infinite velocity failed as a theorem check (exit 4).
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["outer"] = {"kind": "constant", "rho": 1.0, "u": -1.0, "support": [1.0, 3.5]}
    obj["outer"][key] = value
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps(obj))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rho, fault",
    [
        ("1/(r-r)", "division by zero"),
        ("2^2000", "overflows"),
        ("(-1)^0.5", "not a real number"),
        ("1e200*1e200", "overflows"),
        ("sqrt(0-1)", "not a real number"),
    ],
)
def test_run_rejects_expression_that_cannot_be_evaluated(tmp_path, capsys, rho, fault):
    # The first three raised ZeroDivisionError, OverflowError and TypeError: a
    # traceback, exit 1 and an empty output directory. The last two gave inf
    # and NaN with a RuntimeWarning, and the front ODE failed on them (exit 3).
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["outer"] = {"kind": "expression", "rho": rho, "u": "-1"}
    cfg = tmp_path / "expr.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr(rho) in err and fault in err
    report = json.loads((out / "report.json").read_text())
    assert report["error_class"] == "InvalidParameterError"
    assert report["exit_code"] == 2


def test_run_rejects_a_literal_that_is_not_finite(tmp_path, capsys):
    # float("1e400") is inf; the field read it as a density and the front ODE
    # failed on it (exit 3).
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["outer"] = {"kind": "expression", "rho": "1e400", "u": "-1"}
    cfg = tmp_path / "expr.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'1e400'" in err and "not finite" in err
    assert json.loads((out / "report.json").read_text())["exit_code"] == 2


def test_spherical_subcommand_rejects_other_kinds(tmp_path):
    rc = main(
        [
            "spherical",
            "--config", str(SCENARIOS / "symmetric_riemann.json"),
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2


def test_weakcheck_subcommand(tmp_path):
    out = tmp_path / "weak.json"
    rc = main(
        [
            "weakcheck",
            "--solution", str(SCENARIOS / "asymmetric_riemann.json"),
            "--levels", "5", "--seed", "7", "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["identities"] == ["mass", "momentum_1"]
    assert report["max_residual"] < 1e-6
    assert min(report["orders"]) >= 4.0
    nodes = report["quadrature_nodes"]
    assert len(nodes) == 5 and nodes[0] > 0
    assert all(a < b for a, b in zip(nodes[:-1], nodes[1:]))


def test_run_planar_scenario(tmp_path):
    rc = main(["run", "--config", str(SCENARIOS / "planar_2d.json"), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["checks"]["rotation_covariance"] is True
    names, data = _read_csv(tmp_path / "planar.csv")
    assert names == ["t", "phi", "u_delta", "e", "tan_deficit", "tan_deficit_1"]
    # Constant side states slip at a constant tangential rate.
    assert data[0, 4] > 0.0
    np.testing.assert_allclose(data[:, 4], data[0, 4], rtol=1e-12)


def test_run_geom_suite(tmp_path):
    rc = main(["run", "--config", str(SCENARIOS / "geom_suite.json"), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["checks"]["curvature"] is True
    assert report["checks"]["integration_by_parts"] is True
