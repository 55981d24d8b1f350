"""Tests for scenario loading, schema validation, and builders."""

import json
from pathlib import Path

import numpy as np
import pytest

from dshock import ScenarioError
from dshock.scenario import (
    field_from_spec,
    flux_from_spec,
    load_scenario,
    orthonormal_frame,
    planar_from_spec,
    riemann_data_from_spec,
    solution_from_spec,
    spherical_setup_from_spec,
    validate_scenario,
)
from dshock.spherical import integrate_front

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_load_scenario_reads_bundled_files():
    obj = load_scenario(SCENARIOS / "symmetric_riemann.json")
    assert obj["kind"] == "riemann1d"
    assert validate_scenario(obj) == []


def test_all_bundled_scenarios_validate_strictly():
    for path in sorted(SCENARIOS.glob("*.json")):
        obj = load_scenario(path)
        assert validate_scenario(obj, strict=True) == [], path.name


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ScenarioError):
        load_scenario(arr)


def test_validate_rejects_bad_kind_and_missing_keys():
    with pytest.raises(ScenarioError):
        validate_scenario({"kind": "warp-drive"})
    with pytest.raises(ScenarioError):
        validate_scenario({"kind": "riemann1d", "rho_l": 1.0})  # missing fields


def test_validate_unknown_keys_strict_vs_lenient():
    obj = {
        "kind": "riemann1d",
        "rho_l": 1.0,
        "rho_r": 1.0,
        "u_l": 1.0,
        "u_r": -1.0,
        "t_end": 1.0,
        "colour": "blue",
    }
    with pytest.raises(ScenarioError):
        validate_scenario(obj, strict=True)
    warnings = validate_scenario(obj, strict=False)
    assert len(warnings) == 1 and "colour" in warnings[0]


def test_validate_type_errors_raise_even_lenient():
    obj = {
        "kind": "riemann1d",
        "rho_l": -1.0,
        "rho_r": 1.0,
        "u_l": 1.0,
        "u_r": -1.0,
        "t_end": 1.0,
    }
    with pytest.raises(ScenarioError):
        validate_scenario(obj, strict=False)


def test_flux_from_spec_branches():
    assert flux_from_spec(None, 2).name == "standard"
    assert flux_from_spec({"kind": "standard"}, 1).name == "standard"
    rel = flux_from_spec({"kind": "relativistic", "c0": 5.0}, 1)
    assert rel.name == "relativistic"
    u = np.linspace(-2.0, 2.0, 9)
    tab = flux_from_spec(
        {"kind": "tabulated", "u_nodes": list(u), "f_values": list(u), "n_values": list(u**2)}
    )
    assert abs(tab.f1(0.5) - 0.5) < 1e-12
    with pytest.raises(ScenarioError):
        flux_from_spec({"kind": "relativistic", "c0": -1.0}, 1)
    with pytest.raises(ScenarioError):
        flux_from_spec(
            {"kind": "tabulated", "u_nodes": [0, 1, 2, 1], "f_values": [0, 1, 2, 3],
             "n_values": [0, 1, 4, 9]}
        )


def test_field_from_spec_branches():
    assert field_from_spec(None, 3) is None
    assert field_from_spec({"kind": "vacuum"}, 3) is None
    const = field_from_spec({"kind": "constant", "rho": 2.0, "u": -0.5}, 3)
    assert const.state(1.0, 0.3) == (2.0, -0.5)
    expr = field_from_spec(
        {"kind": "expression", "rho": "1/r^2", "u": "-1", "support": [0.5, 4.0]}, 3
    )
    assert abs(expr.state(2.0, 0.0)[0] - 0.25) < 1e-14
    steady = field_from_spec({"kind": "steady_converging", "support": [0.5, 4.0]}, 3)
    assert abs(steady.state(1.7, 0.9)[1] + 1.0) < 1e-12
    free = field_from_spec({"kind": "free_flow", "rho": "1", "u": "0.1*r"}, 3)
    # u = r/(10 + t) for this profile
    assert abs(free.state(2.0, 1.0)[1] - 2.0 / 11.0) < 1e-9
    with pytest.raises(ScenarioError):
        field_from_spec({"kind": "expression", "rho": "1/", "u": "0"}, 3)


def test_riemann_data_from_spec_defaults_and_errors():
    obj = load_scenario(SCENARIOS / "symmetric_riemann.json")
    data = riemann_data_from_spec(obj)
    assert data.e0 == 0.0 and data.x0 == 0.0 and data.u_delta0 is None
    assert data.flux.name == "standard"
    bad = dict(obj, rho_l=-2.0)
    with pytest.raises(ScenarioError):
        riemann_data_from_spec(bad)


def test_solution_from_spec_riemann_and_reversal():
    obj = load_scenario(SCENARIOS / "symmetric_riemann.json")
    sol = solution_from_spec(obj)
    assert abs(sol.phi(1.0)) < 1e-14
    assert abs(sol.e(1.0) - 2.0) < 1e-14
    rev = solution_from_spec(dict(obj, time_reverse=True))
    assert abs(rev.e(0.0) - 2.0) < 1e-14
    assert abs(rev.e(1.0)) < 1e-14
    with pytest.raises(ScenarioError):
        solution_from_spec(load_scenario(SCENARIOS / "spherical_converging_n3.json"))


def test_orthonormal_frame_properties():
    for normal in ([0.0, 1.0], [3.0, 4.0], [1.0, 1.0, 1.0], [0.2, -0.5, 0.1, 0.8]):
        frame = orthonormal_frame(normal)
        dim = len(normal)
        assert frame.shape == (dim, dim)
        np.testing.assert_allclose(frame @ frame.T, np.eye(dim), atol=1e-12)
        nu = np.asarray(normal) / np.linalg.norm(normal)
        np.testing.assert_allclose(frame[0], nu, atol=1e-12)
    for bad in ([0.0, 0.0], [np.inf, 0.0], [0.6, np.nan]):
        with pytest.raises(ScenarioError):
            orthonormal_frame(bad)


def test_planar_from_spec_decomposes_velocities():
    obj = load_scenario(SCENARIOS / "planar_2d.json")
    sol = planar_from_spec(obj)
    nu = sol.frame[0]
    U_minus = np.asarray(obj["U_minus"], dtype=float)
    assert abs(sol.base.u_l - float(U_minus @ nu)) < 1e-14
    np.testing.assert_allclose(sol.u_tan_l, sol.frame[1:] @ U_minus, atol=1e-14)
    with pytest.raises(ScenarioError):
        planar_from_spec(dict(obj, U_minus=[1.0, 0.0, 0.0]))


def test_spherical_setup_from_spec_runs():
    obj = load_scenario(SCENARIOS / "spherical_converging_n3.json")
    inner, outer, init, kwargs = spherical_setup_from_spec(obj)
    assert init.phi == obj["phi0"]
    assert kwargs["n"] == obj["n"]
    rep = integrate_front(inner, outer, init, **kwargs)
    assert rep.phi[-1] < init.phi
