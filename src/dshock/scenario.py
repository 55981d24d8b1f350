"""Scenario configs: schema validation and builders.

A scenario is a JSON object with a ``kind`` discriminator selecting one of
the runnable problem families (riemann1d, spherical, planar, oracle,
weakcheck, geom-suite). Validation happens before any computation and
refuses every violation, an unknown key included, so a misspelt key never
falls back to a default. Builders translate validated configs
into the solver-layer objects; semantic errors that the schema cannot
express (for example a tabulated flux with unordered nodes) surface as
ScenarioError with a pointer to the offending key.

The schemas are JSON Schema (draft 2020-12) and are checked in-package by
``_violations``, which implements exactly the keywords they use: ``type``,
``enum``, ``const``, ``minimum``, ``maximum``, ``exclusiveMinimum``,
``items``, ``minItems``, ``maxItems``, ``properties``, ``required``,
``additionalProperties`` (``false`` or a schema) and ``allOf`` with
``if``/``then``. It keeps the draft's semantics, and jsonschema's
messages, for what JSON can carry: a bool is not a number, a float with an
integral value is an integer, ``true`` does not equal ``1`` in ``enum`` and
``const``, and NaN passes every bound. An array of the wrong length is named
by its length, not echoed as jsonschema does. Violations are reported in
jsonschema's order, sorted by their path, so errors inside a property come
before errors of the object that holds it.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from .errors import DShockError, ScenarioError
from .expressions import parse_expression
from .fluxes import FluxModel, relativistic_flux, standard_flux, tabulated_flux
from .riemann1d import RiemannData1D, solve_constant_states
from .solutions import PlanarSolution, time_reversed
from .spherical import (
    RadialField,
    SphericalFrontState,
    constant_field,
    expression_field,
    free_flow_field,
    steady_converging_field,
)
from .sticky_oracle import MAX_PARTICLES, MAX_SAMPLES

__all__ = [
    "SCENARIO_KINDS",
    "load_scenario",
    "validate_scenario",
    "flux_from_spec",
    "field_from_spec",
    "riemann_data_from_spec",
    "solution_from_spec",
    "orthonormal_frame",
    "planar_from_spec",
    "spherical_setup_from_spec",
]

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_SEED = {"type": "integer", "minimum": 0}


def _tolerances(*keys: str) -> dict:
    """The ``tolerances`` object of a kind: the keys its runner reads, each a number."""
    return {
        "type": "object",
        "properties": {key: _NUM for key in keys},
        "additionalProperties": False,
    }


_BALANCE_TOLS = ("mass_drift", "energy_slack")

# The keys each flux kind reads besides ``kind``; it requires all of them.
_FLUX_KEYS = {
    "standard": (),
    "relativistic": ("c0",),
    "tabulated": ("u_nodes", "f_values", "n_values"),
}

_FLUX_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(_FLUX_KEYS)},
        "c0": _POS,
        "u_nodes": {"type": "array", "items": _NUM, "minItems": 4},
        "f_values": {"type": "array", "items": _NUM, "minItems": 4},
        "n_values": {"type": "array", "items": _NUM, "minItems": 4},
    },
    "required": ["kind"],
    "additionalProperties": False,
    "allOf": [
        {"if": {"properties": {"kind": {"const": kind}}}, "then": {"required": list(keys)}}
        for kind, keys in _FLUX_KEYS.items()
        if keys
    ],
}

_FIELD_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {
            "enum": ["vacuum", "constant", "free_flow", "expression", "steady_converging"]
        },
        "rho": {"type": ["number", "string"]},
        "u": {"type": ["number", "string"]},
        "support": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {"type": ["number", "string", "null"]},
        },
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_PAIR = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}
_SAMPLES = {"type": "integer", "minimum": 2, "maximum": MAX_SAMPLES}
# Most members of a weakcheck battery and most radii of a geom-suite. Both are
# built before any is checked, so a billion would fill memory first; at 1,000
# a battery at six levels runs in about 13 s, the radii add about 0.5 s (2 cores).
MAX_BATTERY = MAX_RADII = 1_000

_COMMON = {
    "name": {"type": "string"},
    "seed": _SEED,
}

_RIEMANN_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"const": "riemann1d"},
        "flux": _FLUX_SCHEMA,
        "rho_l": _NONNEG,
        "rho_r": _NONNEG,
        "u_l": _NUM,
        "u_r": _NUM,
        "e0": _NONNEG,
        "u_delta0": {"type": ["number", "null"]},
        "x0": _NUM,
        "t_end": _POS,
        "support": _PAIR,
        "samples": _SAMPLES,
        "time_reverse": {"type": "boolean"},
        "tolerances": _tolerances(*_BALANCE_TOLS, "momentum_drift"),
        **_COMMON,
    },
    "required": ["kind", "rho_l", "rho_r", "u_l", "u_r", "t_end"],
    "additionalProperties": False,
}

_PLANAR_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"const": "planar"},
        "dim": {"type": "integer", "minimum": 2},
        "rho_minus": _NONNEG,
        "rho_plus": _NONNEG,
        "U_minus": {"type": "array", "items": _NUM, "minItems": 2},
        "U_plus": {"type": "array", "items": _NUM, "minItems": 2},
        "normal": {"type": "array", "items": _NUM, "minItems": 2},
        "x0": _NUM,
        "e0": _NONNEG,
        "u_delta0": {"type": ["number", "null"]},
        "t_end": _POS,
        "support": _PAIR,
        "samples": _SAMPLES,
        "check_rotation": {"type": "boolean"},
        "tolerances": _tolerances(*_BALANCE_TOLS, "momentum_drift", "rotation"),
        **_COMMON,
    },
    "required": ["kind", "dim", "rho_minus", "rho_plus", "U_minus", "U_plus", "normal", "t_end"],
    "additionalProperties": False,
}

# The solution a weakcheck scenario embeds: a riemann1d or planar scenario,
# checked against the schema its kind names.
_SOLUTION_SCHEMA = {
    "type": "object",
    "properties": {"kind": {"enum": ["riemann1d", "planar"]}},
    "required": ["kind"],
    "allOf": [
        {"if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]}, "then": schema}
        for kind, schema in (("riemann1d", _RIEMANN_SCHEMA), ("planar", _PLANAR_SCHEMA))
    ],
}

_KIND_SCHEMAS = {
    "riemann1d": _RIEMANN_SCHEMA,
    "spherical": {
        "type": "object",
        "properties": {
            "kind": {"const": "spherical"},
            "n": {"type": "integer", "minimum": 1},
            "inner": _FIELD_SCHEMA,
            "outer": _FIELD_SCHEMA,
            "phi0": _POS,
            "e0": _NONNEG,
            "u_delta0": _NUM,
            "t_end": _POS,
            "r_min": _POS,
            "annulus": _PAIR,
            "samples": _SAMPLES,
            "rtol": _POS,
            "atol": _POS,
            "tolerances": _tolerances(*_BALANCE_TOLS),
            **_COMMON,
        },
        "required": ["kind", "n", "phi0", "t_end", "annulus"],
        "additionalProperties": False,
    },
    "planar": _PLANAR_SCHEMA,
    "oracle": {
        "type": "object",
        "properties": {
            "kind": {"const": "oracle"},
            "preset": {"enum": ["riemann", "spherical"]},
            "N": {"type": "integer", "minimum": 100, "maximum": MAX_PARTICLES},
            "T": _POS,
            "mode": {"enum": ["midpoint", "random"]},
            "tolerances": _tolerances(),
            **_COMMON,
        },
        "required": ["kind", "preset"],
        "additionalProperties": False,
    },
    "weakcheck": {
        "type": "object",
        "properties": {
            "kind": {"const": "weakcheck"},
            "solution": _SOLUTION_SCHEMA,
            "levels": {"type": "integer", "minimum": 1, "maximum": 6},
            "battery": {
                "type": "object",
                "properties": {
                    "count": {"type": "integer", "minimum": 1, "maximum": MAX_BATTERY},
                    "seed": _SEED,
                    "nonneg": {"type": "integer", "minimum": 0},
                },
                "additionalProperties": False,
            },
            "tolerances": _tolerances("weak_residual"),
            **_COMMON,
        },
        "required": ["kind", "solution"],
        "additionalProperties": False,
    },
    "geom-suite": {
        "type": "object",
        "properties": {
            "kind": {"const": "geom-suite"},
            "radii": {"type": "array", "items": _POS, "minItems": 1, "maxItems": MAX_RADII},
            "dims": {"type": "array", "items": {"enum": [2, 3]}, "minItems": 1},
            "level": {"type": "integer", "minimum": 0, "maximum": 5},
            "tolerances": _tolerances("curvature", "transport_order", "ibp_residual"),
            **_COMMON,
        },
        "required": ["kind"],
        "additionalProperties": False,
    },
}

SCENARIO_KINDS = tuple(_KIND_SCHEMAS)


def load_scenario(path) -> dict:
    """Read a scenario JSON file; IO and parse problems become ScenarioError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    return obj


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


def _equal(value, const) -> bool:
    """JSON equality with a scalar ``const``: a bool equals only a bool."""
    return isinstance(value, bool) == isinstance(const, bool) and value == const


def _violations(value, schema: dict, path: tuple = ()):
    """Yield ``(path, keyword, message)`` for each way ``value`` breaks ``schema``.

    Keywords are visited in the schema's order, as jsonschema visits them.
    """
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    is_number = _TYPES["number"](value)
    for key, rule in schema.items():
        message = None
        if key == "type":
            types = [rule] if isinstance(rule, str) else rule
            if not any(_TYPES[t](value) for t in types):
                message = f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum":
            if not any(_equal(value, each) for each in rule):
                message = f"{value!r} is not one of {rule!r}"
        elif key == "const":
            if not _equal(value, rule):
                message = f"{rule!r} was expected"
        elif key == "minimum":
            if is_number and value < rule:
                message = f"{value!r} is less than the minimum of {rule!r}"
        elif key == "maximum":
            if is_number and value > rule:
                message = f"{value!r} is greater than the maximum of {rule!r}"
        elif key == "exclusiveMinimum":
            if is_number and value <= rule:
                message = f"{value!r} is less than or equal to the minimum of {rule!r}"
        elif key == "minItems":
            if is_array and len(value) < rule:
                message = f"an array of {len(value)} items is shorter than the minimum of {rule}"
        elif key == "maxItems":
            if is_array and len(value) > rule:
                message = f"an array of {len(value)} items is longer than the maximum of {rule}"
        elif key == "items" and is_array:
            for index, item in enumerate(value):
                yield from _violations(item, rule, path + (index,))
        elif key == "properties" and is_object:
            for name, sub in rule.items():
                if name in value:
                    yield from _violations(value[name], sub, path + (name,))
        elif key == "required" and is_object:
            for name in rule:
                if name not in value:
                    yield path, key, f"{name!r} is a required property"
        elif key == "additionalProperties" and is_object:
            extras = [name for name in value if name not in schema.get("properties", {})]
            if isinstance(rule, dict):
                for name in extras:
                    yield from _violations(value[name], rule, path + (name,))
            elif extras:
                names = ", ".join(repr(name) for name in sorted(extras, key=str))
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "allOf":
            for sub in rule:
                yield from _violations(value, sub, path)
        elif key == "if" and "then" in schema and not any(_violations(value, rule, path)):
            yield from _violations(value, schema["then"], path)
        if message is not None:
            yield path, key, message


def validate_scenario(obj: dict) -> None:
    """Validate against the kind-specific schema; the first violation raises ScenarioError."""
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    kind = obj.get("kind")
    if kind not in SCENARIO_KINDS:
        raise ScenarioError(
            f"scenario kind must be one of {list(SCENARIO_KINDS)}, got {kind!r}"
        )
    violations = sorted(_violations(obj, _KIND_SCHEMAS[kind]), key=lambda v: repr(list(v[0])))
    if violations:
        path, _, message = violations[0]
        where = "/".join(str(p) for p in path) or "<root>"
        raise ScenarioError(f"scenario schema violation at {where}: {message}")


def flux_from_spec(spec: dict | None, dim: int = 1) -> FluxModel:
    """The flux a validated spec names; a flux key its kind does not read is refused."""
    if spec is None:
        return standard_flux(dim)
    kind = spec["kind"]
    unread = sorted(set(spec) & set(_FLUX_SCHEMA["properties"]) - {"kind", *_FLUX_KEYS[kind]})
    if unread:
        names = ", ".join(map(repr, unread))
        raise ScenarioError(f"bad flux spec: a {kind} flux does not read {names}")
    try:
        if kind == "standard":
            return standard_flux(dim)
        if kind == "relativistic":
            return relativistic_flux(dim, float(spec["c0"]))
        return tabulated_flux(spec["u_nodes"], spec["f_values"], spec["n_values"])
    except DShockError as exc:
        raise ScenarioError(f"bad flux spec: {exc}") from exc


def field_from_spec(spec: dict | None, n: int) -> RadialField | None:
    """Build one side of a spherical problem; vacuum (or None) gives None."""
    if spec is None or spec["kind"] == "vacuum":
        return None
    kind = spec["kind"]
    support = spec.get("support")
    try:
        if kind == "constant":
            return constant_field(spec["rho"], spec["u"], support)
        if kind == "steady_converging":
            return steady_converging_field(n, support)
        if kind == "expression":
            return expression_field(str(spec["rho"]), str(spec["u"]), support)
        # free_flow: rho/u are formulas in the Lagrangian radius r
        rho_e = parse_expression(str(spec["rho"]), allowed={"r"})
        u_e = parse_expression(str(spec["u"]), allowed={"r"})
        return free_flow_field(lambda r0: rho_e(r=r0), lambda r0: u_e(r=r0), n, support)
    except DShockError as exc:
        raise ScenarioError(f"bad {kind} field spec: {exc}") from exc


def riemann_data_from_spec(obj: dict) -> RiemannData1D:
    try:
        return RiemannData1D(
            rho_l=float(obj["rho_l"]),
            rho_r=float(obj["rho_r"]),
            u_l=float(obj["u_l"]),
            u_r=float(obj["u_r"]),
            flux=flux_from_spec(obj.get("flux"), 1),
            e0=float(obj.get("e0", 0.0)),
            u_delta0=obj.get("u_delta0"),
            x0=float(obj.get("x0", 0.0)),
        )
    except DShockError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"bad Riemann data: {exc}") from exc


def solution_from_spec(obj: dict):
    """Build the solution a validated riemann1d or planar document describes.

    These are the two kinds whose solutions the weak-identity checker
    understands. Like every builder here, it does not validate again.
    """
    if obj["kind"] == "riemann1d":
        support = obj.get("support")
        sol = solve_constant_states(
            riemann_data_from_spec(obj),
            float(obj["t_end"]),
            None if support is None else tuple(support),
        )
        if obj.get("time_reverse", False):
            sol = time_reversed(sol)
        return sol
    if obj["kind"] == "planar":
        return planar_from_spec(obj)
    raise ScenarioError(f"cannot build a solution from kind {obj['kind']!r}")


def orthonormal_frame(normal) -> np.ndarray:
    """Rows: the unit normal, then a deterministic tangential completion."""
    nu = np.asarray(normal, dtype=float)
    if not np.isfinite(nu).all():
        raise ScenarioError(f"normal vector must be finite, got {nu.tolist()}")
    norm = float(np.linalg.norm(nu))
    if norm < 1e-13:
        raise ScenarioError("normal vector must be nonzero")
    nu = nu / norm
    dim = nu.size
    rows = [nu]
    # Gram-Schmidt over coordinate axes, least-aligned axis first.
    for k in np.argsort(np.abs(nu), kind="stable"):
        cand = np.zeros(dim)
        cand[k] = 1.0
        for r in rows:
            cand -= (cand @ r) * r
        norm = float(np.linalg.norm(cand))
        if norm > 1e-10:
            rows.append(cand / norm)
        if len(rows) == dim:
            break
    return np.vstack(rows)


def planar_from_spec(obj: dict) -> PlanarSolution:
    dim = int(obj["dim"])
    U_minus = np.asarray(obj["U_minus"], dtype=float)
    U_plus = np.asarray(obj["U_plus"], dtype=float)
    if U_minus.size != dim or U_plus.size != dim or len(obj["normal"]) != dim:
        raise ScenarioError("U_minus, U_plus and normal must all have length dim")
    frame = orthonormal_frame(obj["normal"])
    nu = frame[0]
    # The normal problem: the riemann1d document of the data along nu.
    normal = {key: obj[key] for key in ("e0", "u_delta0", "x0", "t_end", "support") if key in obj}
    normal |= {
        "kind": "riemann1d",
        "rho_l": obj["rho_minus"],
        "rho_r": obj["rho_plus"],
        "u_l": float(U_minus @ nu),
        "u_r": float(U_plus @ nu),
    }
    base = solution_from_spec(normal)
    return PlanarSolution(
        base=base,
        frame=frame,
        u_tan_l=frame[1:] @ U_minus,
        u_tan_r=frame[1:] @ U_plus,
    )


def spherical_setup_from_spec(obj: dict):
    """Return (inner, outer, init, kwargs) ready for integrate_front."""
    n = int(obj["n"])
    inner = field_from_spec(obj.get("inner"), n)
    outer = field_from_spec(obj.get("outer"), n)
    init = SphericalFrontState(
        t=0.0,
        phi=float(obj["phi0"]),
        e=float(obj.get("e0", 0.0)),
        u_delta=float(obj.get("u_delta0", 0.0)),
    )
    kwargs = {"n": n, "t_end": float(obj["t_end"])}
    if "r_min" in obj:
        kwargs["r_min"] = float(obj["r_min"])
    if "rtol" in obj:
        kwargs["rtol"] = float(obj["rtol"])
    if "atol" in obj:
        kwargs["atol"] = float(obj["atol"])
    return inner, outer, init, kwargs
