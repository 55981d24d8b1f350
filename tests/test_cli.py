"""End-to-end tests of the dshock command line interface.

Everything runs in-process through main(argv) so exit codes and stderr
are observable without spawning subprocesses. The golden files under
tests/golden/ pin the byte-exact output of a reference scenario.
"""

import contextlib
import hashlib
import importlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dshock.cli import _RUNNERS, main
from dshock.sticky_oracle import MAX_PARTICLES, MAX_SAMPLES

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
    def broken(obj, seed):
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
    def broken_oracle(obj, seed):
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
@given(obj=_mutated_scenarios())
def test_fuzzed_scenarios_exit_with_a_report(tmp_path_factory, obj):
    # Whatever a broken config holds, a run ends in a documented exit code
    # and leaves report.json; it never raises.
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "config.json"
    cfg.write_text(json.dumps(obj))
    rc = main(["run", "--config", str(cfg), "--out", str(work / "out")])
    assert rc in {0, 2, 3, 4}
    report = json.loads((work / "out" / "report.json").read_text())
    assert report["passed"] is (rc == 0)
    assert report.get("exit_code", rc) == rc


@pytest.mark.parametrize(
    "scenario, where",
    [
        ("symmetric_riemann", ()),
        ("symmetric_riemann", ("tolerances",)),
        ("relativistic_riemann", ("flux",)),
        ("spherical_converging_n3", ("outer",)),
    ],
    ids=["top-level", "tolerances", "flux", "field"],
)
def test_unknown_keys_are_refused(tmp_path, capsys, scenario, where):
    # A run used to warn and ignore an unknown key, and exit 0; only --strict
    # refused it. Now every run refuses it with the line --strict printed.
    obj = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    holder = obj
    for key in where:
        holder = holder.setdefault(key, {})
    holder["stray"] = 1
    cfg = tmp_path / "stray.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    unknown = "Additional properties are not allowed ('stray' was unexpected)"
    at = "/".join(where) or "<root>"
    assert capsys.readouterr().err == f"scenario error: scenario schema violation at {at}: {unknown}\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]


def test_tolerance_keys_are_read_or_refused(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "asymmetric_riemann.json").read_text())

    def run(tolerances):
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps(dict(obj, tolerances=tolerances)))
        return main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])

    # A misspelt key used to fall back to the default: exit 0 unless --strict.
    assert run({"mass_drfit": 1e-300}) == 2
    assert "'mass_drfit' was unexpected" in capsys.readouterr().err
    # The real key is read: no drift passes a bound of 1e-300.
    assert run({"mass_drift": 1e-300}) == 4


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


def test_a_failed_run_records_the_seed_it_resolved(tmp_path):
    # The runner raises (no overcompressive front), after the seed was taken
    # from the config; without a config seed it is 0.
    doc = {"kind": "riemann1d", "rho_l": 1.0, "rho_r": 1.0, "u_l": -1.0, "u_r": 1.0, "t_end": 1.0}
    for seed, extra in ((5, {"seed": 5}), (0, {})):
        cfg = tmp_path / f"rarefaction{seed}.json"
        cfg.write_text(json.dumps(doc | extra))
        out = tmp_path / f"out{seed}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed


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


def test_riemann_subcommand_refuses_c0_without_the_relativistic_flux(tmp_path, capsys):
    # The standard flux reads no c0; the data were meant for another flux,
    # so they are refused, not solved as the standard problem.
    out = tmp_path / "r.csv"
    for flux in ([], ["--flux", "standard"]):
        assert main(_RIEMANN_41 + ["--t-end", "1", "--c0", "0.5", *flux, "--out", str(out)]) == 2
        error = "scenario error: bad flux spec: a standard flux does not read 'c0'\n"
        assert capsys.readouterr().err == error
        assert not out.exists()


_NODES = [-2.0, -1.0, 1.0, 2.0]


@pytest.mark.parametrize(
    "flux, key",
    [
        ({"kind": "standard", "u_nodes": _NODES}, "'u_nodes'"),
        ({"kind": "relativistic", "c0": 2.0, "f_values": _NODES}, "'f_values'"),
        ({"kind": "tabulated", "c0": 2.0, "u_nodes": _NODES, "f_values": _NODES, "n_values": _NODES},
         "'c0'"),
    ],
)
@pytest.mark.parametrize("weakcheck", [False, True])
def test_run_refuses_a_flux_key_its_kind_does_not_read(tmp_path, capsys, flux, key, weakcheck):
    obj = json.loads((SCENARIOS / "symmetric_riemann.json").read_text()) | {"flux": flux}
    if weakcheck:  # the solution a weakcheck embeds is built the same way
        obj = {"kind": "weakcheck", "solution": obj}
    cfg = tmp_path / "flux.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    error = f"bad flux spec: a {flux['kind']} flux does not read {key}"
    assert capsys.readouterr().err == f"scenario error: {error}\n"
    assert json.loads((out / "report.json").read_text())["error"] == error
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]


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


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_riemann_subcommand_rejects_non_finite_t_end_on_the_ode_path(tmp_path, capsys, t_end):
    # A relativistic atom was once integrated by an ODE solver over
    # [0, t_end], which never returned on a nan or infinite span. Its closed
    # form is refused the same way.
    out = tmp_path / "r.csv"
    atom = ["--flux", "relativistic", "--c0", "1", "--e0", "0.4", "--u-delta0", "0.3"]
    assert main(_RIEMANN_41 + atom + ["--t-end", t_end, "--out", str(out)]) == 2
    error = f"invalid configuration: t_end must be positive and finite, got {t_end}\n"
    assert capsys.readouterr().err == error
    assert not out.exists()


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


@pytest.mark.parametrize(
    "T, error",
    [
        ("0", "scenario error: scenario schema violation at T: 0.0 is less than or equal to the minimum of 0"),
        ("-1", "scenario error: scenario schema violation at T: -1.0 is less than or equal to the minimum of 0"),
        ("inf", "invalid configuration: final time must be finite, got inf"),
        ("nan", "invalid configuration: final time must be finite, got nan"),
    ],
    ids=["0", "-1", "inf", "nan"],
)
def test_T_flag_is_a_finite_positive_number(tmp_path, capsys, T, error):
    # --T sets the oracle key "T", a finite number > 0: exit 2 with the
    # message run gives that document, no output and no numpy warnings.
    out = tmp_path / "o.csv"
    args = ["oracle", "--preset", "riemann", "--N", "1000", "--T", T, "--out", str(out)]
    assert _no_runtime_warnings(lambda: main(args)) == 2
    assert capsys.readouterr().err == error + "\n"
    assert not out.exists()
    assert _run_message(tmp_path, {"kind": "oracle", "preset": "riemann", "N": 1000, "T": float(T)}) == error


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
    argv = ["oracle", "--preset", preset, "--N", n, "--out", str(out)]
    assert _no_runtime_warnings(lambda: main(argv)) == 2
    error = f"scenario error: scenario schema violation at N: {n} is less than the minimum of 100"
    assert capsys.readouterr().err == error + "\n"
    assert not out.exists()
    assert _run_message(tmp_path, {"kind": "oracle", "preset": preset, "N": int(n)}) == error


def test_particle_count_is_bounded_before_allocation(tmp_path, capsys):
    # The schema bound is checked before any array is built, so a count far
    # past memory only costs the message.
    huge = 10**15
    error = f"scenario error: scenario schema violation at N: {huge} is greater than the maximum of {MAX_PARTICLES}"
    for preset in ("riemann", "spherical"):
        out = tmp_path / "o.csv"
        argv = ["oracle", "--preset", preset, "--N", str(huge), "--out", str(out)]
        assert _no_runtime_warnings(lambda: main(argv)) == 2
        assert capsys.readouterr().err == error + "\n"
        assert not out.exists()
        assert _run_message(tmp_path, {"kind": "oracle", "preset": preset, "N": huge}) == error


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


_RIEMANN_FLAT = ["riemann", "--rho-l", "1", "--rho-r", "1", "--u-l", "1", "--u-r", "-1", "--t-end", "1"]


def _exit_and_output(argv, out):
    """Exit code, stderr and output bytes (None: no file) of ``main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            rc = exc.code
    data = out.read_bytes() if out.exists() else None
    if data is not None:
        out.unlink()
    return rc, err.getvalue(), data


def test_negative_exponent_after_a_flag_is_its_value(tmp_path):
    argv = ["riemann", "--rho-l", "1", "--rho-r", "1", "--u-l", "1", "--t-end", "1"]
    out = tmp_path / "r.csv"
    spaced = _exit_and_output(argv + ["--u-r", "-1e-3"], out)
    joined = _exit_and_output(argv + ["--u-r=-1e-3"], out)
    assert spaced == joined
    assert spaced[0] == 0 and spaced[2]


def _number_flags(command):
    """The option strings of ``command`` whose values are real numbers."""
    from dshock.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.choices and command in a.choices)
    actions = sub.choices[command]._actions
    return sorted(a.option_strings[0] for a in actions if a.type is float)


@pytest.mark.parametrize(
    "command, flag",
    [("riemann", f) for f in _number_flags("riemann")] + [("oracle", "--T")],
)
@pytest.mark.parametrize("value", ["-1e-3", "-2E+1", "-inf"])
def test_every_number_flag_takes_a_negative_exponent(tmp_path, command, flag, value):
    # Spaced or joined, the value reaches the flag and gets one verdict.
    argv = _RIEMANN_FLAT if command == "riemann" else ["oracle", "--preset", "riemann", "--N", "1000"]
    if flag in argv:
        i = argv.index(flag)
        argv = argv[:i] + argv[i + 2 :]
    out = tmp_path / "o.csv"
    spaced = _exit_and_output(argv + [flag, value], out)
    assert "expected one argument" not in spaced[1]
    assert spaced == _exit_and_output(argv + [f"{flag}={value}"], out)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (_RIEMANN_FLAT + ["--samples"], "--samples"),
        (["oracle", "--preset", "riemann", "--N"], "--N"),
    ],
    ids=["samples", "N"],
)
def test_an_integer_flag_refuses_a_negative_exponent_as_not_an_integer(tmp_path, argv, flag):
    # "-1e3" reaches the integer flag as its value, and int() refuses it.
    rc, err, data = _exit_and_output(argv + ["-1e3"], tmp_path / "o.csv")
    assert rc == 2 and data is None
    assert f"argument {flag}: invalid int value: '-1e3'" in err


@given(st.text("0123456789._eEinfatyINF+- ", max_size=10))
def test_a_negative_number_is_a_flag_value_exactly_when_float_reads_it(text):
    from dshock.cli import _NEGATIVE_NUMBER

    try:
        float("-" + text)
    except ValueError:
        assert not _NEGATIVE_NUMBER.match("-" + text)
    else:
        assert _NEGATIVE_NUMBER.match("-" + text)


@pytest.mark.parametrize(
    "prefix, flag",
    [("--x", "--x0"), ("--t-e", "--t-end"), ("--u-d", "--u-delta0"), ("--c", "--c0")],
)
def test_an_abbreviated_number_flag_takes_a_negative_exponent(tmp_path, prefix, flag):
    # argparse takes a prefix that names one option for that option, and a
    # negative number after it for its value.
    argv = list(_RIEMANN_FLAT)
    if flag in argv:
        i = argv.index(flag)
        argv = argv[:i] + argv[i + 2 :]
    if flag == "--c0":
        argv += ["--flux", "relativistic"]
    out = tmp_path / "o.csv"
    for value in ("-1e-3", "-5"):
        abbreviated = _exit_and_output(argv + [prefix, value], out)
        assert "expected one argument" not in abbreviated[1]
        assert abbreviated == _exit_and_output(argv + [f"{flag}={value}"], out)


@pytest.mark.parametrize("prefix", ["--u", "--rho", "--u-"])
def test_an_ambiguous_number_flag_prefix_is_argparses_error(tmp_path, prefix):
    rc, err, data = _exit_and_output(_RIEMANN_FLAT + [prefix, "-1e-3"], tmp_path / "o.csv")
    assert rc == 2 and data is None
    assert f"error: ambiguous option: {prefix} could match" in err


def _no_runtime_warnings(call):
    """``call()``, asserting that numpy warned about nothing on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return result


def _run_message(tmp_path, obj):
    """The stderr line, without its newline, of ``run`` on the config ``obj``; it must exit 2."""
    cfg = tmp_path / "doc.json"
    cfg.write_text(json.dumps(obj))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "doc")]) == 2
    return err.getvalue().removesuffix("\n")


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


def test_a_table_that_cannot_be_written_takes_the_others_along(tmp_path, capsys, monkeypatch):
    # riemann.csv is finite and written first; balance.csv then holds an inf.
    from dshock.balance import BalanceReport

    columns = BalanceReport.columns

    def overflowed(self):
        names, data = columns(self)
        data[0, names.index("M")] = np.inf
        return names, data

    monkeypatch.setattr(BalanceReport, "columns", overflowed)
    out = tmp_path / "out"
    assert main(["run", "--config", str(SCENARIOS / "symmetric_riemann.json"), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["error"] == "balance.csv: column 'M' holds inf in data row 1"
    assert capsys.readouterr().err == f"numerical failure: {report['error']}\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]


@pytest.mark.parametrize(
    "scenario, changes, error",
    [
        (
            "seeded_atom_riemann",
            {"t_end": 1e308},
            "front leaves the support window at t=3.125e+306: 3.125e+306 .. 1.0416666666666666e+306 .. -3.125e+306",
        ),
        (
            "symmetric_riemann",
            {"rho_l": 2e307, "rho_r": 2e307},
            "balance functional M is inf at t=0.0",
        ),
    ],
    ids=["atom-late", "dense"],
)
def test_extreme_finite_data_fail_quietly_with_a_report(tmp_path, capsys, scenario, changes, error):
    # The support window closes on the atom, and the 1-D audit overflows;
    # numpy used to warn on stderr before the failure, and the audit computed
    # its drifts on inf. The atom's phi = s t + Y stays finite (it was nan).
    obj = dict(json.loads((SCENARIOS / f"{scenario}.json").read_text()), **changes)
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert _no_runtime_warnings(lambda: main(["run", "--config", str(cfg), "--out", str(out)])) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["error"] == error
    assert capsys.readouterr().err == f"numerical failure: {error}\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]


_FAST_FLOW = {"kind": "expression", "rho": "1", "u": "1e300*r"}


@pytest.mark.parametrize(
    "scenario, changes, message",
    [
        (
            "spherical_converging_n3",
            {"e0": 1e308},
            "front ODE right-hand side out of range at t = 0.00484148: de/dt = nan",
        ),
        ("geom_suite", {"radii": [1e300]}, "sphere level-set gradient is not finite near"),
        (
            "spherical_converging_n3",
            {"inner": _FAST_FLOW, "outer": _FAST_FLOW, "e0": 0.0, "u_delta0": 0.0},
            "front integration stalled: ",
        ),
        (None, None, "r.csv: column 'e' holds nan in data row 1"),
    ],
    ids=["spherical", "geom-suite", "passive", "riemann"],
)
def test_out_of_range_data_print_only_their_failure(tmp_path, capsys, scenario, changes, message):
    # numpy's overflow warnings came first, two lines each; the geom-suite
    # failure then said the gradient vanished, where |x - center| overflowed.
    # Equal sides make the massless front passive, and its flow speed of
    # 1e300 r overflows scipy's step control, whose warnings came first.
    if scenario is None:
        argv = ["riemann", "--rho-l", "9e307", "--rho-r", "9e307", "--u-l", "1", "--u-r", "-1",
                "--t-end", "1", "--out", str(tmp_path / "r.csv")]
    else:
        cfg = tmp_path / "extreme.json"
        cfg.write_text(json.dumps(dict(json.loads((SCENARIOS / f"{scenario}.json").read_text()), **changes)))
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert _no_runtime_warnings(lambda: main(argv)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {message}") and err.count("\n") == 1
    if scenario is not None:
        assert json.loads((tmp_path / "out" / "report.json").read_text())["exit_code"] == 3


def test_riemann_subcommand_atom_at_the_top_of_the_float_range(tmp_path, capsys):
    # e = 4 t + 0.5 - 3 Y overflows first, in row 46 (t = 4.5e307); no
    # intermediate may overflow before it. Once phi went nan at row 12.
    out = tmp_path / "r.csv"
    args = [
        "riemann", "--rho-l", "4", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
        "--e0", "0.5", "--u-delta0", "0", "--t-end", "1e308", "--out", str(out),
    ]
    assert _no_runtime_warnings(lambda: main(args)) == 3
    assert capsys.readouterr().err == "numerical failure: r.csv: column 'e' holds inf in data row 46\n"
    assert not out.exists()


# Flag values: ordinary, tiny, huge, negative, not finite and not a number.
_FLAG_NUMBERS = st.one_of(
    st.floats(-4.0, 4.0).map(repr),
    st.sampled_from(
        ["0", "-0", "5e-324", "1e-300", "2e307", "1e308", "-1e308", "1.7976931348623157e308",
         "nan", "inf", "-inf", "x"]
    ),
)
_FLAG_SEEDS = st.sampled_from(["0", "1", "-1", "007", "4294967296", str(2**70), "1.5", "+3", ""])


def _flag_sizes(small, bound):
    """Small enough to run at once, or past the bound the CLI refuses before allocating."""
    return st.one_of(st.integers(-3, small), st.integers(bound + 1, 2 * bound)).map(str)


# Per subcommand: each flag's usual value (None: not given) and its mutations.
_FLAGS = {
    "riemann": {
        "--rho-l": ("1", _FLAG_NUMBERS),
        "--rho-r": ("4", _FLAG_NUMBERS),
        "--u-l": ("1", _FLAG_NUMBERS),
        "--u-r": ("-1", _FLAG_NUMBERS),
        "--t-end": ("1", _FLAG_NUMBERS),
        "--e0": (None, _FLAG_NUMBERS),
        "--u-delta0": (None, _FLAG_NUMBERS),
        "--x0": (None, _FLAG_NUMBERS),
        "--flux": (None, st.sampled_from(["standard", "relativistic"])),
        "--c0": (None, _FLAG_NUMBERS),
        "--samples": (None, _flag_sizes(500, MAX_SAMPLES)),
    },
    "oracle": {
        "--preset": ("riemann", st.sampled_from(["riemann", "spherical"])),
        "--N": ("1000", _flag_sizes(5000, MAX_PARTICLES)),
        "--T": (None, _FLAG_NUMBERS),
        "--mode": (None, st.sampled_from(["midpoint", "random"])),
        "--seed": (None, _FLAG_SEEDS),
    },
    "weakcheck": {
        "--solution": (
            "symmetric_riemann",
            st.sampled_from(
                ["asymmetric_riemann", "seeded_atom_riemann", "relativistic_riemann",
                 "time_reversed_sanity", "planar_2d", "spherical_converging_n3", "missing"]
            ),
        ),
        "--levels": ("2", st.one_of(st.integers(-1, 3).map(str), st.sampled_from(["7", "1000000000"]))),
        "--seed": (None, _FLAG_SEEDS),
    },
}
# Their defaults would make a run slow: 200,000 particles, 5 levels.
_ALWAYS_GIVEN = {"--N", "--levels"}


@st.composite
def _mutated_flags(draw):
    """argv of riemann, oracle or weakcheck with flags kept, mutated or dropped."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, (usual, values) in _FLAGS[command].items():
        choices = ["keep", "keep", "keep", "mutate", "mutate"] + ["drop"] * (flag not in _ALWAYS_GIVEN)
        how = draw(st.sampled_from(choices))
        value = draw(values) if how == "mutate" else usual if how == "keep" else None
        if value is None:
            continue
        if flag == "--solution":
            value = str(SCENARIOS / f"{value}.json")
        # "--x -1e308" and "--x=-1e308" must both reach the flag as its value.
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


_RIEMANN_41 = ["riemann", "--rho-l", "4", "--rho-r", "1", "--u-l", "1", "--u-r", "-1"]


@settings(max_examples=200, deadline=None)
@given(argv=_mutated_flags())
# Faults the fuzz found: numpy warned from the atom path and the flux maps.
@example(argv=_RIEMANN_41 + ["--e0", "0.5", "--u-delta0", "0", "--t-end", "1e308"])
@example(argv=_RIEMANN_41 + ["--e0", "5e-273", "--u-delta0", "5e-273", "--t-end", "1"])
@example(argv=["riemann", "--rho-l", "1", "--rho-r", "4", "--u-l", "1", "--u-r", "2e307", "--t-end", "1"])
def test_fuzzed_flags_exit_cleanly(tmp_path_factory, argv):
    # Whatever the flags hold, a subcommand ends in a documented exit code,
    # with no traceback or numpy warning, and a failure writes no output.
    out = tmp_path_factory.mktemp("flags") / "out"
    err = io.StringIO()

    def call():
        try:
            return main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse refuses the flags
            return exc.code

    with contextlib.redirect_stderr(err):
        rc = _no_runtime_warnings(call)
    assert rc in {0, 2, 3, 4}
    for text in ("Traceback", "RuntimeWarning", "unexpected error"):
        assert text not in err.getvalue()
    if rc in (2, 3):
        assert not out.exists()


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


_RIEMANN_41_DOC = {"kind": "riemann1d", "rho_l": 4.0, "rho_r": 1.0, "u_l": 1.0, "u_r": -1.0, "t_end": 1.0}


def test_sample_count_is_bounded_before_allocation(tmp_path, capsys):
    # The schema bound is checked before the time grid is built, so a count
    # far past memory only costs the message.
    huge = 10**12
    out = tmp_path / "r.csv"
    args = _RIEMANN_41 + ["--t-end", "1.0", "--samples", str(huge), "--out", str(out)]
    assert _no_runtime_warnings(lambda: main(args)) == 2
    error = f"scenario error: scenario schema violation at samples: {huge} is greater than the maximum of {MAX_SAMPLES}"
    assert capsys.readouterr().err == error + "\n"
    assert not out.exists()
    assert _run_message(tmp_path, dict(_RIEMANN_41_DOC, samples=huge)) == error


@pytest.mark.parametrize("samples", ["-3", "0", "1"])
def test_riemann_needs_two_samples(tmp_path, capsys, samples):
    out = tmp_path / "r.csv"
    args = _RIEMANN_41 + ["--t-end", "1.0", "--samples", samples, "--out", str(out)]
    assert _no_runtime_warnings(lambda: main(args)) == 2
    error = f"scenario error: scenario schema violation at samples: {samples} is less than the minimum of 2"
    assert capsys.readouterr().err == error + "\n"
    assert not out.exists()
    assert _run_message(tmp_path, dict(_RIEMANN_41_DOC, samples=int(samples))) == error


def test_run_spherical_scenario(tmp_path):
    rc = main(
        ["run", "--config", str(SCENARIOS / "spherical_converging_n3.json"), "--out", str(tmp_path)]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    names, data = _read_csv(tmp_path / "spherical.csv")
    assert names[:4] == ["t", "phi", "u_delta", "e"]
    assert np.all(np.diff(data[:, 1]) < 0.0)  # front converges inward


def test_run_rejects_nan_radius(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["phi0"] = float("nan")
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps(obj))  # Python's json writes and reads the NaN token
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
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


@pytest.mark.parametrize("annulus", [[3.6, 0.0], [1.0, 1.0]])
def test_run_refuses_a_reversed_or_empty_annulus(tmp_path, annulus):
    # Both used to exit 3, blaming the front for leaving the annulus at t = 0.
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["annulus"] = annulus
    a, b = map(float, annulus)
    assert _run_message(tmp_path, obj) == (
        f"invalid configuration: audit box must be finite and increasing, got ({a}, {b})"
    )
    assert json.loads((tmp_path / "doc" / "report.json").read_text())["exit_code"] == 2


@pytest.mark.parametrize("rtol", [1e-20, 1.0])
def test_run_refuses_an_rtol_outside_the_solvers_range(tmp_path, rtol):
    # 1e-20 used to run at scipy's floor of 100 eps behind a UserWarning
    # (exit 0); 1.0 failed the mass and energy checks (exit 4).
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["rtol"] = rtol
    assert _run_message(tmp_path, obj) == (
        f"invalid configuration: rtol must lie in [2.22e-14, 1), got {rtol}"
    )
    assert json.loads((tmp_path / "doc" / "report.json").read_text())["exit_code"] == 2


@pytest.mark.parametrize("atol", [1.0, 1e300])
def test_run_refuses_an_atol_that_swamps_the_initial_state(tmp_path, atol):
    # Both failed the mass and energy checks (exit 4): the step control
    # measured the front's radius and mass in units that dwarf them.
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["atol"] = atol
    assert _run_message(tmp_path, obj) == (
        f"invalid configuration: atol must lie in (0, 1e-3 phi0] = (0, 0.001], got {atol}"
    )
    assert json.loads((tmp_path / "doc" / "report.json").read_text())["exit_code"] == 2


@pytest.mark.parametrize("n", [350, 1000])
def test_run_refuses_a_dimension_whose_sphere_area_overflows(tmp_path, n):
    # n = 350 exited 3 with an OverflowError from math.gamma in the audit;
    # n = 1000 leaked two RuntimeWarnings from the front ODE, then exited 3.
    obj = json.loads((SCENARIOS / "spherical_converging_n3.json").read_text())
    obj["n"] = n
    message = _no_runtime_warnings(lambda: _run_message(tmp_path, obj))
    assert message == f"invalid configuration: dimension must lie in 1 .. 343, got {n}"
    report = json.loads((tmp_path / "doc" / "report.json").read_text())
    assert (report["exit_code"], report["error_class"]) == (2, "InvalidDimensionError")


def test_run_names_the_length_of_an_array_that_is_too_long(tmp_path):
    # The message used to echo all 1,001 radii: a 5,070-byte stderr line.
    message = _run_message(tmp_path, {"kind": "geom-suite", "radii": [1.0] * 1001})
    assert len(message.encode()) < 200
    assert message.endswith("at radii: an array of 1001 items is longer than the maximum of 1000")
    report = json.loads((tmp_path / "doc" / "report.json").read_text())
    assert report["exit_code"] == 2 and message.endswith(report["error"])


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


def test_run_is_the_one_command_that_takes_a_config(tmp_path, capsys):
    # `spherical` was `run` restricted to one kind, and `run --strict` the
    # one mode that refused unknown keys; both are gone.
    from dshock.cli import build_parser

    subcommands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    assert sorted(subcommands) == ["oracle", "riemann", "run", "weakcheck"]
    cfg = str(SCENARIOS / "spherical_converging_n3.json")
    for argv in (["spherical"], ["run", "--strict"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", cfg, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_runners_write_nothing_and_name_every_output(tmp_path, monkeypatch, path):
    # A runner returns its outputs; only `dshock run` writes them, next to
    # report.json and manifest.json.
    obj = json.loads(path.read_text())
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    _, _, files = _RUNNERS[obj["kind"]](obj, int(obj.get("seed", 0)))
    assert list(work.iterdir()) == []
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out)])
    written = {p.name for p in out.iterdir()}
    assert set(files) | {"report.json", "manifest.json"} == written


def test_runners_cover_exactly_the_scenario_kinds():
    from dshock.scenario import SCENARIO_KINDS

    assert sorted(_RUNNERS) == sorted(SCENARIO_KINDS)


@pytest.mark.parametrize("planar", [False, True])
def test_run_reports_an_unknown_key_inside_the_weakcheck_solution(tmp_path, capsys, planar):
    # The embedded solution is checked against its own kind's schema.
    obj = json.loads((SCENARIOS / "weakcheck_asymmetric.json").read_text())
    if planar:
        obj["solution"] = json.loads((SCENARIOS / "planar_2d.json").read_text())
    obj["solution"]["stray"] = 1
    cfg = tmp_path / "weak.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    unknown = "Additional properties are not allowed ('stray' was unexpected)"
    assert capsys.readouterr().err == f"scenario error: scenario schema violation at solution: {unknown}\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]


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


def _count_validations(monkeypatch):
    """The kinds of the documents ``validate_scenario`` checks, wherever it is called from."""
    import dshock.scenario
    from dshock.scenario import validate_scenario

    kinds = []

    def counted(obj, *args, **kwargs):
        kinds.append(obj.get("kind") if isinstance(obj, dict) else None)
        return validate_scenario(obj, *args, **kwargs)

    monkeypatch.setattr(dshock.scenario, "validate_scenario", counted)
    monkeypatch.setattr("dshock.cli.validate_scenario", counted)
    return kinds


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_a_run_validates_its_config_once(tmp_path, monkeypatch, path):
    # The weakcheck kind's schema holds its solution's schema, so the
    # embedded solution is not validated a second time.
    kinds = _count_validations(monkeypatch)
    main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert kinds == [json.loads(path.read_text())["kind"]]


def test_flag_commands_validate_their_document_once(tmp_path, monkeypatch):
    kinds = _count_validations(monkeypatch)
    assert main(_RIEMANN_41 + ["--t-end", "1", "--out", str(tmp_path / "r.csv")]) == 0
    assert kinds == ["riemann1d"]
    kinds.clear()
    solution = str(SCENARIOS / "symmetric_riemann.json")
    # Two levels keep it quick; too few for the tolerance, so it exits 4.
    main(["weakcheck", "--solution", solution, "--levels", "2", "--out", str(tmp_path / "w.json")])
    assert kinds == ["weakcheck"]
    kinds.clear()
    assert main(["oracle", "--preset", "riemann", "--N", "1000", "--out", str(tmp_path / "o.csv")]) == 0
    assert kinds == ["oracle"]


def _count_front_evaluations(monkeypatch):
    """The number of times in each call of a front's evaluator ``rows``, in call order.

    Counts the evaluators of both 1-D paths and of the trajectory the
    spherical runner integrates.
    """
    import dshock.cli
    import dshock.riemann1d

    sizes = []

    def counted(rows):
        def counted_rows(t):
            sizes.append(t.size)
            return rows(t)

        return counted_rows

    def counted_path(path):
        def path_with_counted_rows(*args):
            rows, detail = path(*args)
            return counted(rows), detail

        return path_with_counted_rows

    for name in ("_path_constant_speed", "_path_atom"):
        path = getattr(dshock.riemann1d, name)
        monkeypatch.setattr(dshock.riemann1d, name, counted_path(path))
    integrate = dshock.cli.integrate_front

    def integrate_with_counted_rows(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        traj.rows = counted(traj.rows)
        return traj

    monkeypatch.setattr(dshock.cli, "integrate_front", integrate_with_counted_rows)
    return sizes


# A solution evaluates 33 times in its support check; a run then evaluates
# its output grid once and hands the rows to the table, the audit and the
# report. A time-reversed solution checks its window and its source's; a
# planar run evaluates its rotated copy on the grid after t = 0.
@pytest.mark.parametrize(
    "name, sizes",
    [
        ("asymmetric_riemann", [33, 41]),
        ("relativistic_riemann", [33, 41]),
        ("seeded_atom_riemann", [33, 41]),
        ("symmetric_riemann", [33, 41]),
        ("time_reversed_sanity", [33, 33, 41]),
        ("planar_2d", [33, 41, 33, 40]),
        ("spherical_converging_n3", [25]),
        ("geom_suite", []),
    ],
)
def test_a_run_evaluates_its_front_once_on_its_output_grid(tmp_path, monkeypatch, name, sizes):
    counted = _count_front_evaluations(monkeypatch)
    main(["run", "--config", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path)])
    assert counted == sizes


def test_the_weak_check_evaluates_its_front_once_per_member_and_level(tmp_path, monkeypatch):
    # After the support check, each of the 6 members evaluates its two time
    # ends (for the cuts), then its Gauss nodes and t = 0 once per level: 16,
    # 32, ..., 256 nodes per segment. No crossing is bisected here. Under the
    # command's seed 7 three members have an edge cut and so two segments.
    counted = _count_front_evaluations(monkeypatch)
    one = [2, 17, 33, 65, 129, 257]
    config = str(SCENARIOS / "weakcheck_asymmetric.json")
    assert main(["run", "--config", config, "--out", str(tmp_path / "w")]) == 0
    assert counted == [33] + one * 6
    counted.clear()
    solution = str(SCENARIOS / "asymmetric_riemann.json")
    assert main(["weakcheck", "--solution", solution, "--out", str(tmp_path / "w.json")]) == 0
    two = [2, 33, 65, 129, 257, 513]
    assert counted == [33] + one * 2 + two * 3 + one
    assert sum(counted) == 4539


def test_the_weak_check_and_the_riemann_command_evaluate_no_single_time(tmp_path, monkeypatch):
    # The spatial bounds of the battery box come from the support check's rows.
    counted = _count_front_evaluations(monkeypatch)
    config = str(SCENARIOS / "weakcheck_asymmetric.json")
    assert main(["run", "--config", config, "--out", str(tmp_path / "w")]) == 0
    assert counted[0] == 33 and 1 not in counted
    counted.clear()
    atom = ["--e0", "0.5", "--u-delta0", "0.1", "--t-end", "1"]
    assert main(_RIEMANN_41 + atom + ["--out", str(tmp_path / "r.csv")]) == 0
    assert counted == [33, 101]


@pytest.mark.parametrize("preset", ["riemann", "spherical"])
@pytest.mark.parametrize("mode", ["midpoint", "random"])
def test_oracle_subcommand_writes_the_oracle_csv_of_run(tmp_path, preset, mode):
    # The flags become an oracle document; the command writes the file run
    # writes for that document, byte for byte.
    doc = {"kind": "oracle", "preset": preset, "N": 1000, "T": 0.75, "seed": 5}
    out = tmp_path / "o.csv"
    argv = ["oracle", "--preset", preset, "--N", "1000", "--T", "0.75", "--seed", "5"]
    if preset == "riemann":  # the spherical preset refuses mode
        doc["mode"] = mode
        argv += ["--mode", mode]
    assert main(argv + ["--out", str(out)]) == 0
    cfg = tmp_path / "oracle.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert out.read_bytes() == (tmp_path / "run" / "oracle.csv").read_bytes()


@pytest.mark.parametrize("mode", ["midpoint", "random"])
def test_the_spherical_oracle_preset_refuses_mode(tmp_path, capsys, mode):
    # Shells have no sampling mode; a given mode was once ignored in silence.
    error = "the spherical oracle preset does not read 'mode'"
    out = tmp_path / "o.csv"
    assert main(["oracle", "--preset", "spherical", "--N", "1000", "--mode", mode, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"scenario error: {error}\n"
    assert not out.exists()
    cfg = tmp_path / "oracle.json"
    cfg.write_text(json.dumps({"kind": "oracle", "preset": "spherical", "N": 1000, "mode": mode}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert json.loads((tmp_path / "run" / "report.json").read_text())["error"] == error
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["manifest.json", "report.json"]


def test_bad_planar_data_is_reported_as_bad_riemann_data(tmp_path, capsys):
    # The planar builder solves its normal problem as a riemann1d document,
    # so bad data reads as it does for riemann1d.
    obj = json.loads((SCENARIOS / "planar_2d.json").read_text())
    obj["e0"] = 0.5
    cfg = tmp_path / "planar.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    error = "bad Riemann data: an initial atom needs an initial velocity u_delta0"
    assert capsys.readouterr().err == f"scenario error: {error}\n"
    report = json.loads((out / "report.json").read_text())
    assert report["error"] == error
    assert report["error_class"] == "ScenarioError"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]


def test_riemann_subcommand_keeps_a_tiny_initial_atom(tmp_path):
    # (s - sqrt(disc)) / B gave X(0) = e0 / B once s^2 underflowed, so e(0)
    # was 0 and u_delta -inf: exit 3.
    out = tmp_path / "r.csv"
    args = _RIEMANN_41 + ["--e0", "5e-273", "--u-delta0", "5e-273", "--t-end", "1", "--out", str(out)]
    assert _no_runtime_warnings(lambda: main(args)) == 0
    names, data = _read_csv(out)
    assert data[0, names.index("e")] == 5e-273
    assert np.all(np.isfinite(data))


def test_riemann_subcommand_keeps_a_huge_initial_atom(tmp_path):
    # The exact atom path squared s = e0 + A t unscaled, so at 1e200 the
    # front left its window at once (exit 3). Densities and mass ×1e200 keep
    # phi and u_delta and scale e and the deficits.
    def run(scale):
        out = tmp_path / f"r{scale}.csv"
        args = ["riemann", "--rho-l", f"4{scale}", "--rho-r", f"1{scale}", "--u-l", "1", "--u-r", "-1",
                "--e0", f"5{scale}", "--u-delta0", "0.1", "--t-end", "1", "--out", str(out)]
        assert _no_runtime_warnings(lambda: main(args)) == 0
        return _read_csv(out)

    names, unit = run("")
    assert run("e200")[0] == names
    huge = run("e200")[1]
    np.testing.assert_allclose(huge[:, :3], unit[:, :3], rtol=0.0, atol=1e-15)
    # 4.7e-16 measured: 4e200 is not 4 times a power of two.
    np.testing.assert_allclose(huge[:, 3:] / 1e200, unit[:, 3:], rtol=1e-15, atol=1e-15)


def test_the_relativistic_atom_fails_with_one_line(tmp_path, capsys):
    # The first output that overflows is e = (A - B s) t + ..., about 2.71 t,
    # in row 68 (t = 6.7e307); phi, e and their intermediates stay finite
    # before it. An ODE solve of this atom warned nine times on stderr before
    # the exit-3 line, and its phi went -inf at row 61.
    out = tmp_path / "x.csv"
    args = ["riemann", "--rho-l", "4", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
            "--flux", "relativistic", "--c0", "1", "--e0", "0.4", "--u-delta0", "0.3",
            "--t-end", "1e308", "--out", str(out)]
    assert _no_runtime_warnings(lambda: main(args)) == 3
    assert capsys.readouterr().err == "numerical failure: x.csv: column 'e' holds inf in data row 68\n"
    assert not out.exists()


@st.composite
def _riemann_flags(draw):
    """Flags of admissible riemann data, with the riemann1d document they stand for."""
    u_r = draw(st.floats(-2.0, 2.0))
    u_l = u_r + draw(st.floats(0.1, 3.0))
    doc = {
        "kind": "riemann1d",
        "rho_l": draw(st.floats(0.1, 10.0)),
        "rho_r": draw(st.floats(0.1, 10.0)),
        "u_l": u_l,
        "u_r": u_r,
        "t_end": draw(st.floats(0.1, 3.0)),
        "samples": draw(st.integers(2, 60)),
    }
    flux = draw(st.sampled_from(["standard", "relativistic"]))
    if flux == "relativistic":
        doc["flux"] = {"kind": flux, "c0": draw(st.floats(1.0, 5.0))}
    if draw(st.booleans()):
        doc["e0"] = draw(st.floats(0.01, 2.0))
        doc["u_delta0"] = u_r + draw(st.floats(0.1, 0.9)) * (u_l - u_r)
    if draw(st.booleans()):
        doc["x0"] = draw(st.floats(-2.0, 2.0))
    argv = ["riemann"]
    for key, value in doc.items():
        if key == "flux":
            argv += ["--flux", flux, "--c0", repr(value["c0"])]
        elif key != "kind":
            argv += [f"--{key.replace('_', '-')}", repr(value)]
    return argv, doc


@settings(max_examples=25, deadline=None)
@given(case=_riemann_flags())
def test_riemann_flags_write_the_csv_of_their_document(tmp_path_factory, case):
    # The two entry points cannot drift: `dshock riemann` exits as `dshock
    # run` does on the same riemann1d data, and writes the bytes `run` writes
    # to riemann.csv. (A relativistic pair may admit no front: exit 4.)
    argv, doc = case
    work = tmp_path_factory.mktemp("same")
    cfg = work / "doc.json"
    cfg.write_text(json.dumps(doc))
    rc = main(argv + ["--out", str(work / "flags.csv")])
    assert main(["run", "--config", str(cfg), "--out", str(work / "run")]) == rc
    if rc == 0:
        assert (work / "flags.csv").read_bytes() == (work / "run" / "riemann.csv").read_bytes()


def test_the_dshock_script_names_an_importable_main():
    # pyproject.toml's [project.scripts] entry is what an installed `dshock` runs.
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts["dshock"] == "dshock.cli:main"
    module, _, name = scripts["dshock"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
