"""Tests for scenario loading, schema validation, and builders."""

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dshock import ScenarioError
from dshock.cli import main
from dshock.scenario import (
    _KIND_SCHEMAS,
    MAX_DIM,
    SCENARIO_KINDS,
    _violations,
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
    validate_scenario(obj)


def test_all_bundled_scenarios_validate_strictly():
    for path in sorted(SCENARIOS.glob("*.json")):
        obj = load_scenario(path)
        validate_scenario(obj)


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


_RIEMANN_DOC = {"kind": "riemann1d", "rho_l": 1.0, "rho_r": 1.0, "u_l": 1.0, "u_r": -1.0, "t_end": 1.0}


def test_validate_rejects_bad_kind_and_missing_keys():
    with pytest.raises(ScenarioError):
        validate_scenario({"kind": "warp-drive"})
    with pytest.raises(ScenarioError):
        validate_scenario({"kind": "riemann1d", "rho_l": 1.0})  # missing fields


def test_validate_refuses_unknown_keys():
    # An unknown key used to be a warning unless strict=True asked to refuse it.
    unknown = "Additional properties are not allowed ('colour' was unexpected)"
    with pytest.raises(ScenarioError, match=re.escape(f"at <root>: {unknown}")):
        validate_scenario(dict(_RIEMANN_DOC, colour="blue"))


# Each kind's tolerance keys: the ones its runner reads, on a bundled scenario.
_TOLERANCES = {
    "riemann1d": ("symmetric_riemann", ["mass_drift", "energy_slack", "momentum_drift"]),
    "planar": ("planar_2d", ["mass_drift", "energy_slack", "momentum_drift", "rotation"]),
    "spherical": ("spherical_converging_n3", ["mass_drift", "energy_slack"]),
    "weakcheck": ("weakcheck_asymmetric", ["weak_residual"]),
    "geom-suite": ("geom_suite", ["curvature", "transport_order", "ibp_residual"]),
    "oracle": (None, []),
}


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_tolerance_keys_are_checked(kind):
    # A misspelt key used to fall back to the default tolerance silently.
    name, keys = _TOLERANCES[kind]
    obj = {"kind": "oracle", "preset": "riemann"}
    if name is not None:
        obj = json.loads((SCENARIOS / f"{name}.json").read_text())
    obj["tolerances"] = {key: 0.5 for key in keys}
    validate_scenario(obj)
    obj["tolerances"]["mass_drfit"] = 1e-300
    unknown = "Additional properties are not allowed ('mass_drfit' was unexpected)"
    with pytest.raises(ScenarioError, match=re.escape(f"at tolerances: {unknown}")):
        validate_scenario(obj)
    assert _outcome(validate_scenario, obj) == _outcome(_jsonschema_validate, obj)


def _weakcheck_of(name: str, **changes) -> dict:
    """The bundled weakcheck scenario with the bundled scenario ``name`` as its solution."""
    obj = json.loads((SCENARIOS / "weakcheck_asymmetric.json").read_text())
    obj["solution"] = json.loads((SCENARIOS / f"{name}.json").read_text())
    obj["solution"].update(changes)
    return obj


_UNKNOWN_STRAY = "Additional properties are not allowed ('stray' was unexpected)"


@pytest.mark.parametrize("name", ["asymmetric_riemann", "planar_2d"])
def test_weakcheck_solution_is_part_of_the_document(name):
    # The embedded solution was checked on its own, so its paths lost the
    # "solution/" prefix.
    stray = _weakcheck_of(name, stray=1)
    with pytest.raises(ScenarioError, match=re.escape(f"at solution: {_UNKNOWN_STRAY}")):
        validate_scenario(stray)
    key = "rho_l" if name == "asymmetric_riemann" else "rho_minus"
    negative = _weakcheck_of(name, **{key: -1.0})
    with pytest.raises(ScenarioError, match=f"at solution/{key}: -1.0 is less than the minimum of 0$"):
        validate_scenario(negative)
    cases = [stray, negative, _weakcheck_of(name, t_end="1"), _weakcheck_of(name, kind=None)]
    for obj in cases:
        assert _outcome(validate_scenario, obj) == _outcome(_jsonschema_validate, obj)


@pytest.mark.parametrize(
    "solution, message",
    [
        ({"kind": "spherical"}, "at solution/kind: 'spherical' is not one of ['riemann1d', 'planar']"),
        ({"rho_l": -1.0}, "at solution: 'kind' is a required property"),
        ({"kind": "planar", "dim": 2}, "at solution: 'rho_minus' is a required property"),
        ([1.0], "at solution: [1.0] is not of type 'object'"),
    ],
)
def test_weakcheck_solution_kind_picks_its_schema(solution, message):
    obj = {"kind": "weakcheck", "solution": solution}
    with pytest.raises(ScenarioError, match=re.escape(message)):
        validate_scenario(obj)
    assert _outcome(validate_scenario, obj) == _outcome(_jsonschema_validate, obj)


def test_the_battery_and_the_radii_are_bounded(tmp_path):
    # Validation alone refuses them, before any member or radius is built:
    # "count": 1e9 used to build a billion-member battery.
    weak = load_scenario(SCENARIOS / "weakcheck_asymmetric.json")
    weak["battery"]["count"] = 10**9
    message = "at battery/count: 1000000000 is greater than the maximum of 1000"
    with pytest.raises(ScenarioError, match=message):
        validate_scenario(weak)
    geom = {"kind": "geom-suite", "radii": [1.0] * 1001}
    message = "at radii: an array of 1001 items is longer than the maximum of 1000$"
    with pytest.raises(ScenarioError, match=message):
        validate_scenario(geom)
    weak["battery"]["count"], geom["radii"] = 1000, [1.0] * 1000
    validate_scenario(weak)
    validate_scenario(geom)
    # A planar frame is a Gram-Schmidt loop cubic in dim, and each geom-suite
    # dim costs one curvature check per radius.
    planar = load_scenario(SCENARIOS / "planar_2d.json")
    planar["dim"] = MAX_DIM + 1
    weak["solution"] = planar
    for doc, at in ((planar, "dim"), (weak, "solution/dim")):
        message = f"at {at}: {MAX_DIM + 1} is greater than the maximum of {MAX_DIM}$"
        with pytest.raises(ScenarioError, match=message):
            validate_scenario(doc)
    geom["dims"] = [3, 3, 3]
    message = "at dims: an array of 3 items is longer than the maximum of 2$"
    with pytest.raises(ScenarioError, match=message):
        validate_scenario(geom)
    cfg, out = tmp_path / "planar.json", tmp_path / "out"
    cfg.write_text(json.dumps(planar))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads((out / "report.json").read_text())["exit_code"] == 2
    planar["dim"], geom["dims"] = MAX_DIM, [3, 2]
    validate_scenario(planar)
    validate_scenario(weak)
    validate_scenario(geom)


def test_validate_type_errors_raise_even_lenient():
    # A bad value raised even when unknown keys were only warned about; now
    # every violation raises.
    with pytest.raises(ScenarioError, match="at rho_l: -1.0 is less than the minimum of 0$"):
        validate_scenario(dict(_RIEMANN_DOC, rho_l=-1.0))


# The keywords scenario._violations implements; it reads "then" with "if".
_CHECKED_KEYWORDS = {
    "type", "enum", "const", "minimum", "maximum", "exclusiveMinimum", "items", "minItems",
    "maxItems", "properties", "required", "additionalProperties", "allOf", "if", "then",
}


def _schema_nodes(schema):
    yield schema
    for key, rule in schema.items():
        if key == "properties":
            for sub in rule.values():
                yield from _schema_nodes(sub)
        elif key == "allOf":
            for sub in rule:
                yield from _schema_nodes(sub)
        elif key in ("items", "if", "then", "additionalProperties") and isinstance(rule, dict):
            yield from _schema_nodes(rule)


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_schemas_use_only_checked_keywords(kind):
    # A keyword the checker does not know would be ignored, as jsonschema
    # ignores unknown keywords: every schema must stay inside the checked set.
    for node in _schema_nodes(_KIND_SCHEMAS[kind]):
        assert set(node) <= _CHECKED_KEYWORDS, set(node) - _CHECKED_KEYWORDS
        assert "then" not in node or "if" in node
        # _equal compares scalars only.
        for value in node.get("enum", []) + ([node["const"]] if "const" in node else []):
            assert isinstance(value, (str, int, float)), value


def _jsonschema_validate(obj: dict) -> None:
    """validate_scenario as written on jsonschema, the reference for the checker."""
    jsonschema = pytest.importorskip("jsonschema")
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    kind = obj.get("kind")
    if kind not in SCENARIO_KINDS:
        raise ScenarioError(f"scenario kind must be one of {list(SCENARIO_KINDS)}, got {kind!r}")
    validator = jsonschema.Draft202012Validator(_KIND_SCHEMAS[kind])
    for err in sorted(validator.iter_errors(obj), key=lambda e: str(e.absolute_path)):
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ScenarioError(f"scenario schema violation at {where}: {_message(err)}")


def _message(err) -> str:
    """jsonschema's message, except that an array of the wrong length is named
    by its length: jsonschema echoes the whole array."""
    bound = {"minItems": "shorter than the minimum", "maxItems": "longer than the maximum"}
    if err.validator in bound:
        return f"an array of {len(err.instance)} items is {bound[err.validator]} of {err.validator_value}"
    return err.message


def _outcome(validate, obj):
    try:
        return "ok", validate(obj)
    except ScenarioError as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "schema, value",
    [
        ({"enum": [0, 1]}, True),
        ({"enum": [0, 1]}, False),
        ({"enum": [0, 1]}, 1.0),
        ({"const": 1}, True),
        ({"const": "a"}, ["a"]),
        ({"type": "integer"}, 2.0),
        ({"type": "integer"}, True),
        ({"type": "integer"}, math.nan),
        ({"type": "integer"}, math.inf),
        ({"type": "number"}, False),
        ({"type": ["number", "null"]}, "x"),
        ({"type": "array"}, (1.0, 2.0)),
        ({"minimum": 0}, math.nan),
        ({"maximum": 0}, math.nan),
        ({"exclusiveMinimum": 0}, math.nan),
        ({"exclusiveMinimum": 0}, 0),
        ({"minimum": 0, "maximum": 1}, True),
        ({"minItems": 1}, []),
        ({"maxItems": 0}, [1]),
        ({"minItems": 2, "maxItems": 2, "items": {"type": "number"}}, ["a", True, 3]),
        ({"required": ["a", "b"], "properties": {"a": {"type": "string"}}}, {"a": 1}),
        ({"properties": {"a": {}}, "additionalProperties": False}, {"z": 1, "b": 2, "a": 3}),
        ({"additionalProperties": {"type": "number"}}, {"b": "x", "a": None}),
        (
            {
                "properties": {"k": {"type": "string"}},
                "allOf": [{"if": {"properties": {"k": {"const": "r"}}}, "then": {"required": ["c"]}}],
            },
            {"k": "r"},
        ),
    ],
)
def test_checker_edge_semantics_match_jsonschema(schema, value):
    # Cases the bundled scenarios seldom reach: bools against integers,
    # integral floats, NaN against bounds, tuples, several unknown keys.
    jsonschema = pytest.importorskip("jsonschema")
    errors = jsonschema.Draft202012Validator(schema).iter_errors(value)
    expected = [(list(e.absolute_path), e.validator, _message(e)) for e in errors]
    found = [(list(p), k, m) for p, k, m in _violations(value, schema)]
    # jsonschema visits unknown keys in set order; validate_scenario sorts by path.
    assert sorted(found, key=lambda e: repr(e[0])) == sorted(expected, key=lambda e: repr(e[0]))


_VALUES = [
    True, False, None, 0, 1, 2, 3, -1, 2.0, 3.0, 1.0, 0.0, -0.0, -0.5, 0.25, 7, 100, 99, 1e308,
    math.nan, math.inf, -math.inf, "text", "standard", "relativistic", "tabulated", "riemann",
    "vacuum", "constant", "1/r", [], [1.0], [1.0, 2.0], [True, 2.0], [2, 3.0], [1, 2, 3, 4],
    [None, "r"], [[1.0]], {}, {"kind": "x"}, {"kind": "relativistic"}, {"kind": "tabulated"},
    {"a": 1}, {"count": True},
]


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw):
    """A bundled scenario with up to three keys deleted, retyped or added."""
    obj = json.loads(draw(st.sampled_from(sorted(SCENARIOS.glob("*.json")))).read_text())
    value = st.sampled_from(_VALUES).map(copy.deepcopy)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        holder = obj
        for k in parents:
            holder = holder[k]
        mutation = draw(st.sampled_from(["delete", "retype", "unknown"]))
        if mutation == "delete":
            del holder[key]
        elif mutation == "retype":
            holder[key] = draw(value)
        else:
            target = holder if isinstance(holder, dict) else obj
            target[draw(st.sampled_from([f"{key}_x", "zeta", "a", "Z", "10"]))] = draw(value)
    return obj


@settings(max_examples=400, deadline=None)
@given(obj=_mutated())
def test_checker_matches_jsonschema(obj):
    # The same verdict and message as Draft202012Validator.
    assert _outcome(validate_scenario, obj) == _outcome(_jsonschema_validate, obj)


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
    assert rep.steps.phi[-1] < init.phi
