"""Riemann problems whose solution is a single mass-carrying front.

``solve_constant_states`` returns that solution, a ``DeltaShockSolution1D``
whose ``detail`` names the path taken: "constant-speed", "atom-exact" or
"atom-ode".

Zero-pressure systems cannot resolve overcompressive data (u_l > u_r) with
a classical shock: a bounded jump between the constant states balances mass
and momentum only when rho_l rho_r (u_l - u_r)^2 = 0. The admissible
solution instead concentrates mass on a moving point x = phi(t) carrying
surface mass e(t).

Orientation: the level set is S = x - phi(t), so the left state is the
"minus" side, nu = +1 and G = phidot = u_delta. Jumps are [g] = g_l - g_r.

For constant side states the front balance reduces to

    de/dt            = A - B u_delta,      A = [rho F],  B = [rho],
    d(e u_delta)/dt  = C - D u_delta,      C = [rho N],  D = [rho u].

* e(0) = 0: a constant-speed front requires the quadratic
  B s^2 - (A + D) s + C = 0; the admissible root is the one between u_r and
  u_l (for the standard flux it is the density-weighted mean
  (sqrt(rho_l) u_l + sqrt(rho_r) u_r) / (sqrt(rho_l) + sqrt(rho_r))), and
  e(t) = (A - B u_delta) t.
* e(0) = e0 > 0: the speed is no longer constant. For the standard flux
  (A = D) the displacement X = phi(t) - phi(0) satisfies the algebraic
  equation (B/2) X^2 - (e0 + A t) X + (C/2) t^2 + q0 t = 0 with
  q0 = e0 u_delta0, obtained by integrating e dX/dt = q0 + C t - D X, so
  X = (s - r) / B = (C t^2 + 2 q0 t) / (s + r), s = e0 + A t,
  r = sqrt(s^2 - B (C t^2 + 2 q0 t)), and the mass is e = r; e and
  e u_delta are affine in (t, X) and exact. Generic fluxes fall back to a
  tight adaptive ODE solve over [0, t_end].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AmbiguousRootError,
    InvalidParameterError,
    NoDeltaShockError,
)
from .fluxes import FluxModel, standard_flux
from .rh import jumps_1d
from .solutions import DeltaShockSolution1D

__all__ = [
    "RiemannData1D",
    "classical_shock_feasible",
    "admissible_front_speed",
    "solve_constant_states",
]


@dataclass(frozen=True)
class RiemannData1D:
    """Constant side states, an optional initial atom, and the flux model."""

    rho_l: float
    rho_r: float
    u_l: float
    u_r: float
    flux: FluxModel = None  # type: ignore[assignment]
    e0: float = 0.0
    u_delta0: float | None = None
    x0: float = 0.0

    def __post_init__(self):
        if self.flux is None:
            object.__setattr__(self, "flux", standard_flux(1))
        if self.flux.dim != 1:
            raise InvalidParameterError("riemann1d requires a 1-D flux model")
        values = (self.rho_l, self.rho_r, self.u_l, self.u_r, self.e0, self.x0)
        if self.u_delta0 is not None:
            values += (self.u_delta0,)
        if not all(map(math.isfinite, values)):
            raise InvalidParameterError("Riemann data must be finite")
        if self.rho_l < 0.0 or self.rho_r < 0.0:
            raise InvalidParameterError("densities must be nonnegative")
        if self.e0 < 0.0:
            raise InvalidParameterError("initial atom mass e0 must be nonnegative")
        if self.e0 > 0.0 and self.u_delta0 is None:
            raise InvalidParameterError("an initial atom needs an initial velocity u_delta0")


def classical_shock_feasible(d: RiemannData1D) -> bool:
    """Whether a classical (non-singular) shock can balance the data.

    For the standard flux this happens exactly when
    rho_l rho_r (u_l - u_r)^2 = 0 (to 1e-14): one side vacuous or no
    velocity jump.
    """
    if d.flux.name != "standard":
        raise InvalidParameterError("classical feasibility test applies to the standard flux")
    return abs(d.rho_l * d.rho_r * (d.u_l - d.u_r) ** 2) <= 1e-14


def admissible_front_speed(d: RiemannData1D) -> float:
    """Root of B s^2 - (A+D) s + C = 0 satisfying u_r < s < u_l (strict)."""
    # Jumps in units of a power of two near rho_l + rho_r, exact, so the roots
    # keep their bits and no square under- or overflows, whatever the units.
    unit = math.ldexp(1.0, -max(math.frexp(abs(d.rho_l) + abs(d.rho_r))[1], -1000))
    a_, b_, c_, d_ = (unit * jump for jump in jumps_1d(d))
    scale = unit * (abs(d.rho_l) + abs(d.rho_r))
    roots: list[float]
    if abs(b_) <= 1e-13 * scale:
        lin = a_ + d_
        if abs(lin) <= 1e-13 * scale * (1.0 + abs(d.u_l) + abs(d.u_r)):
            raise NoDeltaShockError("data carry no jump; nothing concentrates")
        roots = [c_ / lin]
    else:
        bb = -(a_ + d_)
        disc = bb * bb - 4.0 * b_ * c_
        if disc < 0.0:
            raise NoDeltaShockError("front speed equation has no real root")
        sq = np.sqrt(disc)
        q = -0.5 * (bb + np.copysign(sq, bb)) if bb != 0.0 else 0.5 * sq
        if q == 0.0:
            roots = [0.0, 0.0]
        else:
            roots = [q / b_, c_ / q]
    admissible = sorted({r for r in roots if d.u_r < r < d.u_l})
    if len(admissible) == 0:
        raise NoDeltaShockError(
            "no front speed satisfies the overcompression condition "
            f"u_r < s < u_l for u_l={d.u_l}, u_r={d.u_r}"
        )
    if len(admissible) > 1:
        raise AmbiguousRootError(f"both speeds {admissible} are overcompressive")
    return float(admissible[0])


def _quiet(f: Callable) -> Callable:
    """f of a float array of times, with numpy's floating-point warnings off.

    At extreme finite data a path overflows or divides by zero to inf or
    nan, which the solution's support check and the CLI writers refuse;
    numpy need not warn about it first.
    """

    def at(t):
        with np.errstate(all="ignore"):
            return f(np.asarray(t, dtype=float))

    return at


# Each _path_* helper returns (phi, u_delta, e, detail): callables of scalar
# or array times, and how they were found.
def _path_constant_speed(d: RiemannData1D, s: float) -> tuple:
    a_, b_, _, _ = jumps_1d(d)
    alpha = a_ - b_ * s
    if alpha < -1e-12 * (abs(a_) + abs(b_ * s) + 1.0):
        raise NoDeltaShockError("admissible speed would produce negative front mass")
    alpha = max(alpha, 0.0)

    def as_like(t, value):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, value)
        return out if out.shape else float(value)

    return (
        _quiet(lambda t: d.x0 + s * t),
        lambda t: as_like(t, s),
        _quiet(lambda t: alpha * t),
        {"kind": "constant-speed", "speed": s, "growth": alpha},
    )


def _path_standard_atom(d: RiemannData1D) -> tuple:
    # Masses and jumps in units of a power of two near rho_l + rho_r + e0
    # (exact), so the displacement keeps its bits and no square overflows,
    # whatever the unit of density. e and e u_delta are scaled back.
    scale = math.ldexp(1.0, max(math.frexp(abs(d.rho_l) + abs(d.rho_r) + d.e0)[1], -1000))
    a_, b_, c_, _ = (jump / scale for jump in jumps_1d(d))  # standard flux: A == D
    e0 = d.e0 / scale
    q0 = e0 * float(d.u_delta0)

    def displacement(t):
        # X = (s - sqrt(disc)) / B = lin / (s + sqrt(disc)): the form without
        # cancellation is chosen by the sign of s, which turns negative only
        # where A < 0, so B is far from 0 there. Below |s| = 1/2, disc is in units
        # of a power of two near s (exact), so a small mass does not underflow.
        s = e0 + a_ * t
        lin = c_ * t * t + 2.0 * q0 * t
        unit = np.ldexp(1.0, np.clip(-np.frexp(s)[1], 0, 1000))
        disc = (s * unit) ** 2 - (b_ * unit) * (lin * unit)
        if np.any(disc < -1e-12 * (e0 * e0 + 1.0) * unit**2):
            raise NoDeltaShockError("front mass would vanish inside the requested window")
        root = np.sqrt(np.maximum(disc, 0.0)) / unit
        return np.where(s > 0.0, lin / (s + root), (s - root) / b_)

    def e_of(t):
        return e0 + a_ * t - b_ * displacement(t)

    def q_of(t):
        return q0 + c_ * t - a_ * displacement(t)

    return (
        _quiet(lambda t: d.x0 + displacement(t)),
        _quiet(lambda t: q_of(t) / e_of(t)),
        _quiet(lambda t: e_of(t) * scale),
        {"kind": "atom-exact", "e0": d.e0, "u_delta0": float(d.u_delta0)},
    )


def _path_generic_atom(d: RiemannData1D, t_end: float) -> tuple:
    from scipy.integrate import solve_ivp

    # The solution checks t_end too, but after the path: on a nan or infinite
    # span solve_ivp would never return.
    if not 0.0 < t_end < np.inf:
        raise InvalidParameterError(f"t_end must be positive and finite, got {t_end}")
    a_, b_, c_, d_ = jumps_1d(d)
    q0 = d.e0 * float(d.u_delta0)

    def rhs(t, y):
        _, e, q = y
        u = q / e
        return [u, a_ - b_ * u, c_ - d_ * u]

    # At a huge t_end the steps overflow to inf and nan, which the solution's
    # support check and the CLI writers refuse; numpy need not warn first.
    with np.errstate(all="ignore"):
        sol = solve_ivp(
            rhs,
            (0.0, float(t_end)),
            [0.0, d.e0, q0],
            method="DOP853",
            rtol=1e-12,
            # e and q in units of e0: an absolute floor would swamp a small atom.
            atol=1e-14 * np.array([1.0, d.e0, d.e0 * (abs(d.u_l) + abs(d.u_r))]),
            dense_output=True,
        )
    if not sol.success:
        raise NoDeltaShockError(f"front ODE integration failed: {sol.message}")

    def component(i):
        def f(t):
            t = np.asarray(t, dtype=float)
            out = sol.sol(t.reshape(-1))[i].reshape(t.shape)
            return out if out.shape else float(out)

        return f

    x_of, e_of, q_of = component(0), component(1), component(2)
    return (
        _quiet(lambda t: d.x0 + np.asarray(x_of(t))),
        _quiet(lambda t: q_of(t) / e_of(t)),
        _quiet(e_of),
        {"kind": "atom-ode", "t_end": float(t_end)},
    )


def solve_constant_states(
    d: RiemannData1D, t_end: float, support0: tuple[float, float] | None = None
) -> DeltaShockSolution1D:
    """The solution of ``d`` on 0 <= t <= t_end, truncated to ``support0`` if given.

    Raises if the data are not overcompressive, if no real front speed
    exists, or (defensively) if both speeds are admissible; the solution
    itself refuses a bad ``t_end`` or a front that leaves ``support0``.
    """
    if d.e0 == 0.0:
        path = _path_constant_speed(d, admissible_front_speed(d))
    elif not (d.u_r < float(d.u_delta0) < d.u_l):
        raise NoDeltaShockError(
            "initial atom velocity violates the overcompression condition "
            f"u_r < u_delta0 < u_l for u_delta0={d.u_delta0}"
        )
    else:
        a_, _, _, d_ = jumps_1d(d)
        if abs(a_ - d_) <= 1e-13 * (abs(a_) + abs(d_)):
            path = _path_standard_atom(d)
        else:
            path = _path_generic_atom(d, t_end)
    phi, u_delta, e, detail = path
    return DeltaShockSolution1D(
        flux=d.flux, rho_l=d.rho_l, rho_r=d.rho_r, u_l=d.u_l, u_r=d.u_r,
        phi=phi, u_delta=u_delta, e=e, t_end=t_end, support0=support0, detail=detail,
    )

