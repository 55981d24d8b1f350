"""End-to-end tests of the dshock command line interface.

Everything runs in-process through main(argv) so exit codes and stderr
are observable without spawning subprocesses. The golden files under
tests/golden/ pin the byte-exact output of a reference scenario.
"""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dshock.cli import _RUNNERS, main

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


def test_golden_weakcheck_asymmetric_byte_exact(tmp_path):
    # Pins every residual of the bundled weak-identity ladder, so no change
    # to the bump kernels or the quadrature can move a bit unseen.
    rc = main(
        ["run", "--config", str(SCENARIOS / "weakcheck_asymmetric.json"), "--out", str(tmp_path)]
    )
    assert rc == 0
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == ["manifest.json", "report.json", "weakcheck.json"]
    for ref in (GOLDEN / "weakcheck_asymmetric").iterdir():
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


@pytest.mark.parametrize("content", [None, '{"kind": "riemann1d",'], ids=["missing", "bad-json"])
def test_unreadable_config_leaves_a_report(tmp_path, capsys, content):
    # The file is read inside the failure handler, so a config that cannot
    # be read or parsed leaves report.json and manifest.json like any other
    # configuration error.
    cfg = tmp_path / "config.json"
    if content is not None:
        cfg.write_text(content)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["error_class"] == "ScenarioError"
    assert report["exit_code"] == 2
    assert report["failed"] == ["run"]
    assert report["kind"] is None
    assert err == f"scenario error: {report['error']}\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == {"report.json"}
    assert manifest["scenario"] is None


def test_unexpected_exception_exits_3_with_a_report(tmp_path, capsys, monkeypatch):
    # An exception that is not a package error is a defect: exit 3, one line
    # on stderr naming its type, no traceback, and still a report.
    def broken(obj, seed, strict=True):
        raise KeyError("column")

    monkeypatch.setitem(_RUNNERS, "riemann1d", broken)
    out = tmp_path / "out"
    cfg = str(SCENARIOS / "symmetric_riemann.json")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "unexpected error: KeyError: 'column'\n"
    report = json.loads((out / "report.json").read_text())
    assert report["error_class"] == "KeyError"
    assert report["exit_code"] == 3
    assert report["failed"] == ["run"]
    assert set(json.loads((out / "manifest.json").read_text())["files"]) == {"report.json"}

    # The flag subcommands fail through main; a multi-line message is one line.
    def broken_oracle(obj, seed, strict=True):
        raise ValueError("first\nsecond")

    monkeypatch.setattr("dshock.cli._run_oracle", broken_oracle)
    assert main(["oracle", "--preset", "riemann", "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == "unexpected error: ValueError: first second\n"


# Keys that set how much work a run does; mutations may shrink them, never grow them.
_SIZE_KEYS = {"samples", "N", "levels", "battery", "count", "level", "dims", "radii", "n", "dim"}


def _key_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def _mutated_scenarios(draw):
    """A bundled scenario with one key deleted, retyped, made non-finite or
    negative, or with an unknown key beside it."""
    obj = json.loads(draw(st.sampled_from(sorted(SCENARIOS.glob("*.json")))).read_text())
    *parents, key = draw(st.sampled_from(list(_key_paths(obj))))
    holder = obj
    for k in parents:
        holder = holder[k]
    old = holder[key]
    mutation = draw(st.sampled_from(["delete", "retype", "number", "unknown"]))
    if mutation == "delete":
        del holder[key]
    elif mutation == "retype":
        holder[key] = draw(st.sampled_from(["text", [1.0, 2.0], {"kind": "x"}, None, True]))
    elif mutation == "number":
        numeric = isinstance(old, (int, float)) and not isinstance(old, bool)
        bad = [math.nan, -math.inf, -abs(old) if numeric else -1.0]
        if _SIZE_KEYS.isdisjoint(k for k in (*parents, key) if isinstance(k, str)):
            bad.append(math.inf)
        holder[key] = draw(st.sampled_from(bad))
    else:
        (holder if isinstance(holder, dict) else obj)[f"{key}_unknown"] = 1
    return obj


@settings(max_examples=60, deadline=None)
@given(obj=_mutated_scenarios(), strict=st.booleans())
def test_fuzzed_scenarios_exit_with_a_report(tmp_path_factory, obj, strict):
    # Whatever a broken config holds, a run ends in a documented exit code
    # and leaves report.json; it never raises.
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "config.json"
    cfg.write_text(json.dumps(obj))
    argv = ["run", "--config", str(cfg), "--out", str(work / "out")] + ["--strict"] * strict
    rc = main(argv)
    assert rc in {0, 2, 3, 4}
    report = json.loads((work / "out" / "report.json").read_text())
    assert report["passed"] is (rc == 0)
    assert report.get("exit_code", rc) == rc


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


@pytest.mark.parametrize("preset", ["riemann", "spherical"])
@pytest.mark.parametrize("n", ["0", "50"])
def test_oracle_undersampled_exits_2(tmp_path, capsys, preset, n):
    # Too few particles is a configuration problem, not a numerical failure.
    out = tmp_path / "o.csv"
    assert main(["oracle", "--preset", preset, "--N", n, "--out", str(out)]) == 2
    assert "invalid configuration: need at least 100" in capsys.readouterr().err
    assert not out.exists()


def test_particle_count_is_bounded_before_allocation(tmp_path, capsys):
    # The bound is checked before any array is built, so a count far past
    # memory only costs the message.
    from dshock.sticky_oracle import MAX_PARTICLES

    huge = str(10**15)
    for preset in ("riemann", "spherical"):
        argv = ["oracle", "--preset", preset, "--N", huge, "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        assert f"at most {MAX_PARTICLES}" in capsys.readouterr().err
    cfg = tmp_path / "oracle.json"
    cfg.write_text(f'{{"kind": "oracle", "preset": "riemann", "N": {MAX_PARTICLES + 1}}}')
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"greater than the maximum of {MAX_PARTICLES}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", str(SCENARIOS / "symmetric_riemann.json")],
        ["oracle", "--preset", "riemann", "--mode", "random", "--N", "1000"],
        ["weakcheck", "--solution", str(SCENARIOS / "symmetric_riemann.json")],
    ],
    ids=["run", "oracle", "weakcheck"],
)
def test_negative_seed_flag_is_a_config_error(tmp_path, capsys, argv):
    # Like the scenario key "seed", every --seed flag is bounded at 0. numpy
    # refused -1 in the oracle with an unexpected ValueError (exit 3).
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seed: must be an integer >= 0, got '-1'" in capsys.readouterr().err
    assert not out.exists()


def _no_runtime_warnings(call):
    """``call()``, asserting that numpy warned about nothing on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return result


def test_riemann_subcommand_refuses_an_overflowed_table(tmp_path, capsys):
    # e = 2t overflows to inf in the last rows; it used to be written (exit 0).
    out = tmp_path / "r.csv"
    args = [
        "riemann", "--rho-l", "1", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
        "--t-end", "1e308", "--out", str(out),
    ]
    assert _no_runtime_warnings(lambda: main(args)) == 3
    assert capsys.readouterr().err == "numerical failure: r.csv: column 'e' holds inf in data row 91\n"
    assert not out.exists()


def test_oracle_subcommand_refuses_an_overflowed_table(tmp_path, capsys):
    out = tmp_path / "o.csv"
    args = ["oracle", "--preset", "riemann", "--N", "1000", "--T", "1e308", "--out", str(out)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: o.csv: column 'position_hat' holds inf")
    assert not out.exists()


@pytest.mark.parametrize("support", [True, False])
def test_run_at_the_top_of_the_float_range_leaves_a_report(tmp_path, capsys, support):
    # With its support the front leaves the window; without, riemann.csv
    # would hold inf. Either way numpy's overflow stays off stderr.
    obj = json.loads((SCENARIOS / "symmetric_riemann.json").read_text())
    obj["t_end"] = 1e308
    if not support:
        del obj["support"]
    cfg = tmp_path / "late.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert _no_runtime_warnings(lambda: main(["run", "--config", str(cfg), "--out", str(out)])) == 3
    report = json.loads((out / "report.json").read_text())
    assert capsys.readouterr().err == f"numerical failure: {report['error']}\n"
    if support:
        assert report["error_class"] == "SupportViolationError"
    else:
        assert report["error_class"] == "NonFiniteOutputError"
        assert report["error"].startswith("riemann.csv: column 'e' holds inf")
    assert set(json.loads((out / "manifest.json").read_text())["files"]) == {"report.json"}


def test_a_table_that_cannot_be_written_takes_the_others_along(tmp_path, capsys):
    # riemann.csv is finite and written first; the masses in balance.csv
    # overflow. The audit's own numpy warnings are beside the point here.
    obj = json.loads((SCENARIOS / "symmetric_riemann.json").read_text())
    obj["rho_l"] = obj["rho_r"] = 2e307
    cfg = tmp_path / "dense.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["error"] == "balance.csv: column 'M' holds inf in data row 1"
    assert capsys.readouterr().err == f"numerical failure: {report['error']}\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]


def test_schema_error_leaves_a_report(tmp_path, capsys):
    # The schema check runs inside the failure handler, after the output
    # directory exists, so it writes report.json and manifest.json too.
    from dshock.sticky_oracle import MAX_PARTICLES

    cfg = tmp_path / "oracle.json"
    cfg.write_text(f'{{"kind": "oracle", "preset": "riemann", "N": {MAX_PARTICLES + 1}}}')
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["error_class"] == "ScenarioError"
    assert report["exit_code"] == 2
    assert report["failed"] == ["run"]
    assert report["kind"] == "oracle"
    assert err == f"scenario error: {report['error']}\n"
    assert set(json.loads((out / "manifest.json").read_text())["files"]) == {"report.json"}


def test_sample_count_is_bounded_before_allocation(tmp_path, capsys):
    # The bound is checked before the time grid is built, so a count far
    # past memory only costs the message.
    from dshock.sticky_oracle import MAX_SAMPLES

    out = tmp_path / "r.csv"
    args = [
        "riemann", "--rho-l", "4", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
        "--t-end", "1.0", "--samples", str(10**12), "--out", str(out),
    ]
    assert main(args) == 2
    assert f"--samples must be at most {MAX_SAMPLES}, got {10**12}" in capsys.readouterr().err
    assert not out.exists()
    obj = json.loads((SCENARIOS / "asymmetric_riemann.json").read_text())
    obj["samples"] = MAX_SAMPLES + 1
    cfg = tmp_path / "many.json"
    cfg.write_text(json.dumps(obj))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"greater than the maximum of {MAX_SAMPLES}" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["-3", "0", "1"])
def test_riemann_needs_two_samples(tmp_path, capsys, samples):
    out = tmp_path / "r.csv"
    args = [
        "riemann", "--rho-l", "4", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
        "--t-end", "1.0", "--samples", samples, "--out", str(out),
    ]
    assert main(args) == 2
    assert f"--samples must be at least 2, got {samples}" in capsys.readouterr().err
    assert not out.exists()


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
    "outer",
    [
        {"kind": "steady_converging", "support": ["abc", 3.5]},
        {"kind": "steady_converging", "support": [float("nan"), 3.5]},
        {"kind": "constant", "rho": 1.0, "u": -1.0, "support": [1.0, "xyz"]},
        {"kind": "constant", "rho": "abc", "u": -1.0},
        {"kind": "free_flow", "rho": "1", "u": "-1", "support": ["abc", 3.5]},
    ],
    ids=["steady-string-edge", "steady-nan-edge", "constant-string-edge", "constant-string-rho",
         "free-flow-string-edge"],
)
def test_run_rejects_a_field_number_that_is_not_a_number(tmp_path, capsys, outer):
    # The schema lets a support edge be a string, for expression fields. Where
    # the field needs a number, float() raised ValueError (exit 3, unexpected);
    # a NaN edge ran on and failed the overcompression check (exit 4).
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["outer"] = outer
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "expected a number" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["error_class"] == "ScenarioError" and report["exit_code"] == 2


def test_run_free_flow_with_an_unbounded_edge(tmp_path):
    # A null edge is unbounded for every field kind; free flow used to pass it
    # to float() (exit 3, unexpected TypeError).
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["outer"] = {"kind": "free_flow", "rho": "1", "u": "-1", "support": [None, 3.5]}
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps(obj))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


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
    # The kind is checked inside the failure handler, so the refusal leaves
    # a report like any other configuration error.
    rc = main(
        [
            "spherical",
            "--config", str(SCENARIOS / "symmetric_riemann.json"),
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["error_class"] == "ScenarioError"
    assert report["exit_code"] == 2
    assert set(json.loads((tmp_path / "manifest.json").read_text())["files"]) == {"report.json"}


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_runners_write_nothing_and_name_every_output(tmp_path, monkeypatch, path):
    # A runner returns its outputs; only `dshock run` writes them, next to
    # report.json and manifest.json.
    obj = json.loads(path.read_text())
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    _, _, files = _RUNNERS[obj["kind"]](obj, int(obj.get("seed", 0)), False)
    assert list(work.iterdir()) == []
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out)])
    written = {p.name for p in out.iterdir()}
    assert set(files) | {"report.json", "manifest.json"} == written


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


@pytest.mark.parametrize("radius", [float("inf"), float("nan")])
def test_run_geom_suite_rejects_a_radius_that_is_not_finite(tmp_path, capsys, radius):
    # An infinite radius made every curvature error NaN, which lost every
    # comparison, so the run passed (exit 0) after numpy invalid-value warnings.
    obj = json.loads((SCENARIOS / "geom_suite.json").read_text())
    obj["radii"] = [0.5, radius]
    cfg = tmp_path / "geom.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "finite and positive" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["error_class"] == "ScenarioError" and report["exit_code"] == 2


def test_run_planar_rejects_a_normal_that_is_not_finite(tmp_path, capsys):
    # The normal was divided by its infinite norm first: a RuntimeWarning,
    # then exit 2 only from the NaN Riemann data it made.
    obj = json.loads((SCENARIOS / "planar_2d.json").read_text())
    obj["normal"] = [float("inf"), 0.0]
    cfg = tmp_path / "planar.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "normal vector must be finite" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["error_class"] == "ScenarioError"
