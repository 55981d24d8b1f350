"""Seeded generator of admissible dshock inputs.

Every function takes a ``random.Random`` and returns plain JSON-ready data,
so the same workload seed always yields the same scenario files. The data
are admissible by construction:

- densities are positive and u_r < u_l (a head-on collision);
- an initial atom moves strictly between the side velocities;
- a spherical front starts inside the outer support with u_delta0 in (-1, 0)
  against the steady converging inflow (u = -1) over vacuum (u = 0);
- planar weak-check data carry no tangential velocity, because the planar
  model reports any tangential deficit as a failed identity.

Jitter is kept to a few percent around the 4:1 collision so that the work a
job does (which depends on where fronts cross test-function boxes) stays
close from one seed to the next.
"""

from __future__ import annotations

import math
import random

SUPPORT = [-5.0, 5.0]


def _r(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def riemann_states(rng: random.Random) -> dict:
    """4:1-style colliding states: rho_l ~ 4 rho_r, u_l ~ 1, u_r ~ -1."""
    rho_r = _r(rng, 0.9, 1.1)
    return {
        "rho_l": round(4.0 * rho_r * rng.uniform(0.95, 1.05), 6),
        "rho_r": rho_r,
        "u_l": _r(rng, 0.9, 1.1),
        "u_r": -_r(rng, 0.9, 1.1),
    }


def atom(rng: random.Random, states: dict) -> dict:
    """Initial point mass strictly between the side velocities."""
    u_l, u_r = states["u_l"], states["u_r"]
    return {
        "e0": _r(rng, 0.3, 0.7),
        "u_delta0": round(u_r + (u_l - u_r) * rng.uniform(0.3, 0.7), 6),
    }


def riemann1d(rng: random.Random, name: str, flux=None, with_atom=False, time_reverse=False) -> dict:
    obj = {"kind": "riemann1d", "name": name, **riemann_states(rng)}
    if flux is not None:
        obj["flux"] = flux
    if with_atom:
        obj.update(atom(rng, obj))
    obj.update({"t_end": 1.0, "support": list(SUPPORT), "samples": 41, "seed": 0})
    if time_reverse:
        obj["time_reverse"] = True
    return obj


def relativistic_flux(rng: random.Random) -> dict:
    return {"kind": "relativistic", "c0": _r(rng, 0.8, 1.5)}


def unit_normal(rng: random.Random) -> list:
    """Oblique unit normal in 2-D, at least 15 degrees off both axes."""
    theta = rng.uniform(math.radians(15.0), math.radians(75.0))
    return [math.cos(theta), math.sin(theta)]


def planar(rng: random.Random, name: str, tangential: bool) -> dict:
    """Planar 2-D data along an oblique normal.

    With ``tangential=False`` both sides move along the normal only, which
    the weak-identity checker needs; the ``run`` kind accepts slip.
    """
    states = riemann_states(rng)
    nu = unit_normal(rng)
    tan = [-nu[1], nu[0]]
    w_minus = _r(rng, 0.2, 0.6) if tangential else 0.0
    w_plus = -_r(rng, 0.1, 0.4) if tangential else 0.0
    U_minus = [states["u_l"] * nu[k] + w_minus * tan[k] for k in range(2)]
    U_plus = [states["u_r"] * nu[k] + w_plus * tan[k] for k in range(2)]
    return {
        "kind": "planar",
        "name": name,
        "dim": 2,
        "rho_minus": states["rho_l"],
        "rho_plus": states["rho_r"],
        "U_minus": U_minus,
        "U_plus": U_plus,
        "normal": nu,
        "t_end": 1.0,
        "support": list(SUPPORT),
        "samples": 41,
        "check_rotation": True,
        "seed": rng.randrange(1000),
    }


def spherical(rng: random.Random, name: str) -> dict:
    """Converging shell in the steady n = 3 inflow, like spherical_converging_n3."""
    return {
        "kind": "spherical",
        "name": name,
        "n": 3,
        "inner": {"kind": "vacuum"},
        "outer": {"kind": "steady_converging", "support": [1.0, 3.5]},
        "phi0": _r(rng, 1.0, 1.2),
        "e0": _r(rng, 0.005, 0.02),
        "u_delta0": -_r(rng, 0.3, 0.7),
        "t_end": 0.6,
        "r_min": 0.001,
        "annulus": [0.0, 3.6],
        "samples": 25,
        "seed": 0,
    }


def weakcheck(solution: dict, name: str, battery_count: int, battery_seed: int) -> dict:
    return {
        "kind": "weakcheck",
        "name": name,
        "solution": solution,
        "levels": 5,
        "battery": {"count": battery_count, "seed": battery_seed, "nonneg": 2},
        "seed": battery_seed,
    }


def weak_solution_1d(rng: random.Random) -> dict:
    return {"kind": "riemann1d", **riemann_states(rng), "t_end": 1.0, "support": list(SUPPORT)}


def weak_solution_planar(rng: random.Random) -> dict:
    obj = planar(rng, "", tangential=False)
    for key in ("name", "samples", "check_rotation", "seed"):
        del obj[key]
    return obj


def admissible(obj: dict) -> bool:
    """True when a generated scenario satisfies the admissibility rules above."""
    kind = obj["kind"]
    if kind == "weakcheck":
        return admissible(obj["solution"])
    if kind == "riemann1d":
        ok = obj["rho_l"] > 0.0 and obj["rho_r"] > 0.0 and obj["u_r"] < obj["u_l"]
        if "e0" in obj:
            ok = ok and obj["e0"] > 0.0 and obj["u_r"] < obj["u_delta0"] < obj["u_l"]
        return ok
    if kind == "planar":
        nu = obj["normal"]
        a_m = sum(u * n for u, n in zip(obj["U_minus"], nu))
        a_p = sum(u * n for u, n in zip(obj["U_plus"], nu))
        return obj["rho_minus"] > 0.0 and obj["rho_plus"] > 0.0 and a_p < a_m
    if kind == "spherical":
        lo, hi = obj["outer"]["support"]
        return lo <= obj["phi0"] < hi and -1.0 < obj["u_delta0"] < 0.0 and obj["e0"] > 0.0
    return True


def tangential_speed(obj: dict) -> float:
    """Largest tangential speed |U - (U . nu) nu| of planar data (0 when none)."""
    nu = obj["normal"]
    worst = 0.0
    for U in (obj["U_minus"], obj["U_plus"]):
        a = sum(u * n for u, n in zip(U, nu))
        worst = max(worst, math.sqrt(sum((u - a * n) ** 2 for u, n in zip(U, nu))))
    return worst
