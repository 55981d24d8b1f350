"""Spherically symmetric fronts: radial side fields and the front ODEs.

Geometry convention used throughout this module: the front is the level
set of S = -r + phi(t), so the interior r < phi is the "+" side and the
EXTERIOR is the "-" side; nu = -x/r points inward and G = -phidot. Jumps
between side quantities are therefore [g] = g_outer - g_inner. With the
surface density e uniform on the sphere by symmetry, the front equations
close into ODEs along the trajectory:

    dphi/dt = u_delta,
    de/dt   + (n-1)/phi * e u_delta       = -[rho u]   + [rho]   u_delta,
    d(e u_delta)/dt + (n-1)/phi * e u_delta^2 = -[rho u^2] + [rho u] u_delta.

The (n-1)/phi terms are exactly -2 K G with K the mean curvature of the
sphere under the orientation above. Overcompression at the front reads
u_outer < u_delta < u_inner (radial velocities; vacuum counts as 0).

Side fields solve the radial zero-pressure system

    rho_t + (rho u)_r + (n-1)/r * rho u     = 0,
    (rho u)_t + (rho u^2)_r + (n-1)/r * rho u^2 = 0,

away from the front. ``free_flow_field`` builds such solutions from data
(rho0, u0) by characteristics r = r0 + t u0(r0) with
rho = rho0(r0) (r0/r)^{n-1} / (1 + t u0'(r0)); a vanishing denominator
means characteristics cross and the field is invalid (caustic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (
    CausticError,
    InvalidDimensionError,
    InvalidParameterError,
    NoDeltaShockError,
    StiffnessError,
)
from .expressions import parse_expression
from .geometry.quadrature import gauss_panels
from .riemann1d import RiemannData1D, admissible_front_speed
from .sticky_oracle import unit_sphere_area

__all__ = [
    "RadialField",
    "constant_field",
    "free_flow_field",
    "expression_field",
    "steady_converging_field",
    "validate_field",
    "SphericalFrontState",
    "SphericalTrajectory",
    "integrate_front",
    "radial_moment_integral",
]


@dataclass(frozen=True)
class RadialField:
    """Radial density/velocity pair with a moving support window.

    ``support`` maps t to (lo, hi); outside that window the field is
    vacuum (rho = 0, u = 0). The raw evaluators are only called inside.
    """

    kind: str
    raw_rho: Callable
    raw_u: Callable
    support: Callable
    n: int | None = None

    def _eval(self, fn, r, t):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        lo, hi = self.support(float(t))
        inside = (r >= lo) & (r <= hi)
        out = np.zeros(r.shape)
        if np.any(inside):
            vals = fn(r[inside], float(t))
            out[inside] = np.asarray(vals, dtype=float)
        return float(out[0]) if scalar else out

    def rho(self, r, t):
        return self._eval(self.raw_rho, r, t)

    def u(self, r, t):
        return self._eval(self.raw_u, r, t)


def _static_support(lo, hi):
    lo = -np.inf if lo is None else float(lo)
    hi = np.inf if hi is None else float(hi)

    def support(t):
        return lo, hi

    return support


def constant_field(rho0: float, u0: float, support0=None) -> RadialField:
    """Uniform state; support edges ride along at the particle speed u0."""
    if rho0 < 0.0:
        raise InvalidParameterError("density must be nonnegative")
    if support0 is None:
        support = _static_support(None, None)
    else:
        lo0 = -np.inf if support0[0] is None else float(support0[0])
        hi0 = np.inf if support0[1] is None else float(support0[1])

        def support(t):
            return lo0 + u0 * t, hi0 + u0 * t

    return RadialField(
        kind="constant",
        raw_rho=lambda r, t: np.full(np.shape(r), float(rho0)),
        raw_u=lambda r, t: np.full(np.shape(r), float(u0)),
        support=support,
    )


def free_flow_field(rho0: Callable, u0: Callable, n: int, support0=None) -> RadialField:
    """Pressureless free flow of initial data (rho0, u0) by characteristics."""
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")

    def du0(r0):
        h = 1e-7 * max(1.0, abs(r0))
        return (u0(r0 + h) - u0(r0 - h)) / (2.0 * h)

    def invert(r, t):
        if t == 0.0:
            return float(r)

        def g(r0):
            return r0 + t * u0(r0) - r

        width = max(1.0, abs(t) * (abs(u0(r)) + 1.0))
        a, b = r - width, r + width
        for _ in range(60):
            if g(a) <= 0.0 <= g(b):
                break
            a -= width
            b += width
            width *= 2.0
        else:
            raise CausticError(f"no characteristic reaches r={r} at t={t}")
        return brentq(g, a, b, xtol=1e-14)

    def jac(r0, t):
        denom = 1.0 + t * du0(r0)
        if denom <= 1e-10:
            raise CausticError(
                f"characteristics cross near r0={r0} by t={t}; field is multivalued"
            )
        return denom

    def raw_rho(r, t):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty(r.shape)
        for k, rk in enumerate(r):
            r0 = invert(rk, t)
            ratio = (r0 / rk) ** (n - 1) if n > 1 else 1.0
            out[k] = rho0(r0) * ratio / jac(r0, t)
        return out

    def raw_u(r, t):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return np.array([u0(invert(rk, t)) for rk in r])

    if support0 is None:
        support = _static_support(None, None)
    else:
        lo0 = None if support0[0] is None else float(support0[0])
        hi0 = None if support0[1] is None else float(support0[1])

        def support(t):
            lo = -np.inf if lo0 is None else lo0 + t * u0(lo0)
            hi = np.inf if hi0 is None else hi0 + t * u0(hi0)
            return lo, hi

    return RadialField(kind="free-flow", raw_rho=raw_rho, raw_u=raw_u, support=support, n=n)


def expression_field(rho_src: str, u_src: str, support_src=None) -> RadialField:
    """Field given by formulas in (r, t); support edges by formulas in t."""
    rho_e = parse_expression(rho_src, allowed={"r", "t"})
    u_e = parse_expression(u_src, allowed={"r", "t"})
    if support_src is None:
        support = _static_support(None, None)
    else:
        lo_e = None if support_src[0] is None else parse_expression(str(support_src[0]), allowed={"t"})
        hi_e = None if support_src[1] is None else parse_expression(str(support_src[1]), allowed={"t"})

        def support(t):
            lo = -np.inf if lo_e is None else float(lo_e(t=t))
            hi = np.inf if hi_e is None else float(hi_e(t=t))
            return lo, hi

    return RadialField(
        kind="expression",
        raw_rho=lambda r, t: rho_e.eval_radial(r, t),
        raw_u=lambda r, t: u_e.eval_radial(r, t),
        support=support,
    )


def steady_converging_field(n: int, support0=None) -> RadialField:
    """rho = r^{1-n}, u = -1: exact steady converging flow for any n >= 1."""
    return free_flow_field(lambda r0: r0 ** (1.0 - n), lambda r0: -1.0, n, support0=support0)


def validate_field(f: RadialField, n: int, box, h: float = 1e-4, samples=(12, 8)) -> float:
    """Max finite-difference residual of the radial system on a sample box.

    ``box`` is (r_lo, r_hi, t_lo, t_hi); the stencil must stay inside the
    field's support, away from r = 0, and at t >= 0.
    """
    r_lo, r_hi, t_lo, t_hi = map(float, box)
    if t_lo - h < 0.0:
        raise InvalidParameterError("time box must leave room for the centered stencil")
    rs = np.linspace(r_lo, r_hi, samples[0])
    ts = np.linspace(t_lo, t_hi, samples[1])
    worst = 0.0
    for t in ts:
        rho_c = f.rho(rs, t)
        u_c = f.u(rs, t)
        rho_tp, u_tp = f.rho(rs, t + h), f.u(rs, t + h)
        rho_tm, u_tm = f.rho(rs, t - h), f.u(rs, t - h)
        rho_rp, u_rp = f.rho(rs + h, t), f.u(rs + h, t)
        rho_rm, u_rm = f.rho(rs - h, t), f.u(rs - h, t)
        d_t_rho = (rho_tp - rho_tm) / (2.0 * h)
        d_t_mom = (rho_tp * u_tp - rho_tm * u_tm) / (2.0 * h)
        d_r_flux = (rho_rp * u_rp - rho_rm * u_rm) / (2.0 * h)
        d_r_mom = (rho_rp * u_rp ** 2 - rho_rm * u_rm ** 2) / (2.0 * h)
        geom = (n - 1) / rs
        res_mass = d_t_rho + d_r_flux + geom * rho_c * u_c
        res_mom = d_t_mom + d_r_mom + geom * rho_c * u_c ** 2
        worst = max(worst, float(np.max(np.abs(res_mass))), float(np.max(np.abs(res_mom))))
    return worst


@dataclass(frozen=True)
class SphericalFrontState:
    """Front snapshot: radius, surface density, and radial speed."""

    t: float
    phi: float
    e: float
    u_delta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t, self.phi, self.e, self.u_delta))):
            raise InvalidParameterError("front state must be finite")
        if self.phi <= 0.0:
            raise InvalidParameterError("front radius must be positive")
        if self.e < 0.0:
            raise InvalidParameterError("surface density must be nonnegative")


def _side(fieldobj: RadialField | None, r: float, t: float) -> tuple[float, float]:
    if fieldobj is None:
        return 0.0, 0.0
    rho = float(fieldobj.rho(r, t))
    if rho <= 0.0:
        return 0.0, 0.0
    return rho, float(fieldobj.u(r, t))


@dataclass
class SphericalTrajectory:
    """Accepted-step history of the front plus dense evaluators and flags."""

    n: int
    r_min: float
    t: np.ndarray
    phi: np.ndarray
    e: np.ndarray
    u_delta: np.ndarray
    t_stop: float
    focused: bool = False
    entropy_violated: bool = False
    passive: bool = False
    _dense: Callable | None = field(default=None, repr=False)
    _boot: tuple | None = field(default=None, repr=False)

    @property
    def states(self) -> list[SphericalFrontState]:
        return [
            SphericalFrontState(float(tk), float(pk), max(float(ek), 0.0), float(uk))
            for tk, pk, ek, uk in zip(self.t, self.phi, self.e, self.u_delta)
        ]

    def _eval(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if np.any(t < -1e-12) or np.any(t > self.t_stop + 1e-12):
            raise InvalidParameterError("query time outside the integrated window")
        t = np.clip(t, 0.0, self.t_stop)
        out = np.empty((3, t.size))
        for k, tk in enumerate(t):
            if self._boot is not None and tk <= self._boot[0]:
                t_eps, phi0, s, alpha = self._boot
                out[:, k] = (phi0 + s * tk, alpha * tk, s)
            else:
                y = self._dense(tk)
                e = y[1]
                out[:, k] = (y[0], e, y[2] / e if e > 0.0 else y[2])
        return (out[:, 0] if scalar else out)

    def phi_at(self, t):
        v = self._eval(t)
        return float(v[0]) if np.ndim(v) == 1 else v[0]

    def e_at(self, t):
        v = self._eval(t)
        return float(v[1]) if np.ndim(v) == 1 else v[1]

    def u_delta_at(self, t):
        v = self._eval(t)
        return float(v[2]) if np.ndim(v) == 1 else v[2]

    def m_at(self, t):
        """Total front mass: e |S^{n-1}| phi^{n-1} for n >= 2, plain e in 1-D."""
        if self.n == 1:
            return self.e_at(t)
        area = unit_sphere_area(self.n)
        return self.e_at(t) * area * np.asarray(self.phi_at(t)) ** (self.n - 1)

    def state_at(self, t: float) -> SphericalFrontState:
        v = self._eval(float(t))
        return SphericalFrontState(float(t), float(v[0]), max(float(v[1]), 0.0), float(v[2]))


def _local_front_speed(inner, outer, phi: float, t: float) -> tuple[float, float]:
    """Entropy-selected speed and mass growth rate for a massless front.

    Locally this is the 1-D Riemann problem with the inner state on the
    left, so the speed is ``admissible_front_speed`` of the side states;
    returns (s, growth rate alpha = [rho u] - [rho] s) with
    [g] = g_inner - g_outer.
    """
    rho_i, u_i = _side(inner, phi, t)
    rho_o, u_o = _side(outer, phi, t)
    if rho_i == 0.0 and rho_o == 0.0:
        return 0.0, 0.0
    if abs(u_i - u_o) <= 1e-14 * (1.0 + abs(u_i)):
        return u_i, 0.0
    if u_i < u_o:
        raise NoDeltaShockError(
            f"data at the front are not overcompressive (u_inner={u_i} < u_outer={u_o})"
        )
    s = admissible_front_speed(RiemannData1D(rho_i, rho_o, u_i, u_o))
    return s, (rho_i * u_i - rho_o * u_o) - (rho_i - rho_o) * s


def integrate_front(
    inner: RadialField | None,
    outer: RadialField | None,
    init: SphericalFrontState,
    n: int,
    t_end: float,
    r_min: float | None = None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> SphericalTrajectory:
    """Integrate the front ODE system from ``init`` up to ``t_end``.

    Stops early (with a flag, not an exception) when the front reaches
    r_min or the overcompression condition fails. A massless front over
    locally equal velocities is advected passively with e = 0.
    """
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    if not (math.isfinite(t_end) and t_end > init.t):
        raise InvalidParameterError("t_end must be finite and exceed the initial time")
    if r_min is None:
        r_min = 1e-3 * init.phi
    if init.phi <= r_min:
        raise InvalidParameterError("initial radius must exceed r_min")

    def sides(phi, t):
        return _side(inner, phi, t), _side(outer, phi, t)

    def entropy_margin(phi, t, u_d):
        (rho_i, u_i), (rho_o, u_o) = sides(phi, t)
        return min(u_d - u_o, u_i - u_d)

    geom = float(n - 1)

    def rhs(t, y):
        phi, e, q = y
        u_d = q / e
        (rho_i, u_i), (rho_o, u_o) = sides(phi, t)
        jr = rho_o - rho_i
        jru = rho_o * u_o - rho_i * u_i
        jruu = rho_o * u_o ** 2 - rho_i * u_i ** 2
        curv = geom / phi * u_d
        return [u_d, -curv * e - jru + jr * u_d, -curv * q - jruu + jru * u_d]

    boot = None
    t0 = float(init.t)
    if init.e == 0.0:
        s, alpha = _local_front_speed(inner, outer, init.phi, t0)
        if alpha <= 0.0:
            return _integrate_passive(inner, outer, init, n, t_end, r_min, rtol, atol)
        t_eps = t0 + 1e-8 * (t_end - t0)
        y0 = [init.phi + s * (t_eps - t0), alpha * (t_eps - t0), alpha * (t_eps - t0) * s]
        boot = (t_eps, init.phi, s, alpha)
        t_start = t_eps
    else:
        margin = entropy_margin(init.phi, t0, init.u_delta)
        if margin <= 0.0:
            raise NoDeltaShockError(
                "initial front state violates the overcompression condition "
                f"(margin {margin})"
            )
        y0 = [init.phi, init.e, init.e * init.u_delta]
        t_start = t0

    def ev_focus(t, y):
        return y[0] - r_min

    ev_focus.terminal = True
    ev_focus.direction = -1.0

    def ev_entropy(t, y):
        return entropy_margin(y[0], t, y[2] / y[1])

    ev_entropy.terminal = True
    ev_entropy.direction = -1.0

    def ev_mass(t, y):
        return y[1]

    ev_mass.terminal = True
    ev_mass.direction = -1.0

    sol = solve_ivp(
        rhs,
        (t_start, float(t_end)),
        y0,
        method="RK45",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=[ev_focus, ev_entropy, ev_mass],
    )
    if not sol.success:
        if "step size" in sol.message.lower():
            raise StiffnessError(f"front integration stalled: {sol.message}")
        raise StiffnessError(f"front integration failed: {sol.message}")

    ts = sol.t
    phis, es, qs = sol.y
    if np.any(es < -atol):
        raise StiffnessError("negative front mass along the trajectory")
    u_ds = np.where(es > 0.0, qs / np.where(es > 0.0, es, 1.0), 0.0)
    traj = SphericalTrajectory(
        n=n,
        r_min=r_min,
        t=ts,
        phi=phis,
        e=np.maximum(es, 0.0),
        u_delta=u_ds,
        t_stop=float(ts[-1]),
        focused=len(sol.t_events[0]) > 0,
        entropy_violated=len(sol.t_events[1]) > 0 or len(sol.t_events[2]) > 0,
        _dense=sol.sol,
        _boot=boot,
    )
    return traj


def _integrate_passive(inner, outer, init, n, t_end, r_min, rtol, atol):
    def rhs(t, y):
        (rho_i, u_i), (rho_o, u_o) = _side(inner, y[0], t), _side(outer, y[0], t)
        u = u_i if rho_i > 0.0 else u_o
        return [u]

    def ev_focus(t, y):
        return y[0] - r_min

    ev_focus.terminal = True
    ev_focus.direction = -1.0

    sol = solve_ivp(
        rhs,
        (float(init.t), float(t_end)),
        [init.phi],
        method="RK45",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=[ev_focus],
    )
    if not sol.success:
        raise StiffnessError(f"passive front integration failed: {sol.message}")
    ts = sol.t
    base = sol.sol

    def dense(tk):
        return np.array([float(base(tk)[0]), 0.0, 0.0])

    return SphericalTrajectory(
        n=n,
        r_min=r_min,
        t=ts,
        phi=sol.y[0],
        e=np.zeros_like(ts),
        u_delta=np.array([rhs(tk, [pk])[0] for tk, pk in zip(ts, sol.y[0])]),
        t_stop=float(ts[-1]),
        focused=len(sol.t_events[0]) > 0,
        passive=True,
        _dense=dense,
    )


def radial_moment_integral(fieldobj, a, b, t, weight, panels, nodes, moment: int = 0):
    """Integral of rho * u^moment * weight(r) over [a, b] clipped to support."""
    if fieldobj is None or b <= a:
        return 0.0
    lo, hi = fieldobj.support(t)
    a_eff, b_eff = max(a, lo), min(b, hi)
    if b_eff <= a_eff:
        return 0.0
    r, w = gauss_panels(a_eff, b_eff, panels, nodes)
    vals = fieldobj.rho(r, t) * weight(r)
    if moment:
        vals = vals * fieldobj.u(r, t) ** moment
    return float(w @ vals)
