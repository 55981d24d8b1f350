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

A ``RadialField`` takes radii and times that broadcast together, so an
audit or a validation grid evaluates each side in one call; its raw
callables must broadcast over paired 1-D arrays of r and t. Every support
window follows one edge law: an edge is unbounded, an (x0, speed) pair or a
callable of t (``geometry.fronts._time_law``).
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
from .geometry.fronts import _of_t, _of_time, _time_law
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

    ``rho``, ``u`` and ``support`` take radii and times that broadcast
    together: numbers give floats, arrays give arrays of the broadcast
    shape. ``support`` maps t to (lo, hi); outside that window the field is
    vacuum (rho = 0, u = 0). The raw evaluators are only called inside,
    with two floats or with 1-D arrays of paired radii and times, and must
    broadcast over them.
    """

    raw_rho: Callable
    raw_u: Callable
    support: Callable

    def _eval(self, fn, r, t):
        if np.ndim(r) == 0 and np.ndim(t) == 0:
            r, t = float(r), float(t)
            lo, hi = self.support(t)
            return float(fn(r, t)) if lo <= r <= hi else 0.0
        r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
        lo, hi = self.support(t)
        inside = (r >= lo) & (r <= hi)
        out = np.zeros(r.shape)
        if np.any(inside):
            out[inside] = fn(r[inside], t[inside])
        return out

    def rho(self, r, t):
        return self._eval(self.raw_rho, r, t)

    def u(self, r, t):
        return self._eval(self.raw_u, r, t)


def _window(edges, law: Callable) -> Callable:
    """support(t) -> (lo, hi) from a pair of edges, or None for (None, None).

    An edge is None (unbounded) or follows ``law(edge)``, one time law of
    ``_time_law``: an (x0, speed) pair or a callable of t.
    """
    lo, hi = (
        _time_law(far if edge is None else law(edge))[0]
        for edge, far in zip((None, None) if edges is None else edges, (-np.inf, np.inf))
    )
    return lambda t: (_of_time(lo, t), _of_time(hi, t))


def constant_field(rho0: float, u0: float, support0=None) -> RadialField:
    """Uniform state; support edges ride along at the particle speed u0."""
    if not (math.isfinite(rho0) and math.isfinite(u0)):
        raise InvalidParameterError(f"constant field needs finite rho and u, got ({rho0}, {u0})")
    if rho0 < 0.0:
        raise InvalidParameterError("density must be nonnegative")
    return RadialField(
        raw_rho=lambda r, t: np.full(np.shape(r), float(rho0)),
        raw_u=lambda r, t: np.full(np.shape(r), float(u0)),
        support=_window(support0, lambda x0: (x0, u0)),
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

    def rho_at(r, t):
        r0 = invert(r, t)
        ratio = (r0 / r) ** (n - 1) if n > 1 else 1.0
        return rho0(r0) * ratio / jac(r0, t)

    def u_at(r, t):
        return u0(invert(r, t))

    return RadialField(
        raw_rho=np.vectorize(rho_at, otypes=[float]),
        raw_u=np.vectorize(u_at, otypes=[float]),
        support=_window(support0, lambda x0: (x0, u0(x0))),
    )


def expression_field(rho_src: str, u_src: str, support_src=None) -> RadialField:
    """Field given by formulas in (r, t); support edges by formulas in t."""
    rho_e = parse_expression(rho_src, allowed={"r", "t"})
    u_e = parse_expression(u_src, allowed={"r", "t"})
    return RadialField(
        raw_rho=rho_e.eval_radial,
        raw_u=u_e.eval_radial,
        support=_window(support_src, lambda src: _of_t(str(src))),
    )


def steady_converging_field(n: int, support0=None) -> RadialField:
    """rho = r^{1-n}, u = -1: exact steady converging flow for any n >= 1.

    This is the free flow of the same initial data in closed form: along
    r = r0 - t, rho0(r0) (r0/r)^{n-1} = r^{1-n}, and each support edge
    moves at -1.
    """
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    return RadialField(
        raw_rho=lambda r, t: np.asarray(r, dtype=float) ** (1.0 - n),
        raw_u=lambda r, t: np.full(np.shape(r), -1.0),
        support=_window(support0, lambda x0: (x0, -1.0)),
    )


def validate_field(f: RadialField, n: int, box, h: float = 1e-4, samples=(12, 8)) -> float:
    """Max finite-difference residual of the radial system on a sample box.

    ``box`` is (r_lo, r_hi, t_lo, t_hi); the stencil must stay inside the
    field's support, away from r = 0, and at t >= 0.
    """
    r_lo, r_hi, t_lo, t_hi = map(float, box)
    if t_lo - h < 0.0:
        raise InvalidParameterError("time box must leave room for the centered stencil")
    r, t = np.meshgrid(np.linspace(r_lo, r_hi, samples[0]), np.linspace(t_lo, t_hi, samples[1]))
    rho_c, u_c = f.rho(r, t), f.u(r, t)
    rho_tp, u_tp = f.rho(r, t + h), f.u(r, t + h)
    rho_tm, u_tm = f.rho(r, t - h), f.u(r, t - h)
    rho_rp, u_rp = f.rho(r + h, t), f.u(r + h, t)
    rho_rm, u_rm = f.rho(r - h, t), f.u(r - h, t)
    d_t_rho = (rho_tp - rho_tm) / (2.0 * h)
    d_t_mom = (rho_tp * u_tp - rho_tm * u_tm) / (2.0 * h)
    d_r_flux = (rho_rp * u_rp - rho_rm * u_rm) / (2.0 * h)
    d_r_mom = (rho_rp * u_rp ** 2 - rho_rm * u_rm ** 2) / (2.0 * h)
    geom = (n - 1) / r
    res_mass = d_t_rho + d_r_flux + geom * rho_c * u_c
    res_mom = d_t_mom + d_r_mom + geom * rho_c * u_c ** 2
    return float(np.max(np.abs([res_mass, res_mom])))


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


def _side(fieldobj: RadialField | None, r, t):
    """(rho, u) at radii and times that broadcast together (numbers give floats).

    Vacuum, and any rho <= 0, gives (0, 0) without evaluating u there.
    """
    if np.ndim(r) == 0 and np.ndim(t) == 0:
        if fieldobj is None:
            return 0.0, 0.0
        rho = fieldobj.rho(r, t)
        if rho <= 0.0:
            return 0.0, 0.0
        return rho, fieldobj.u(r, t)
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    rho, u = np.zeros(r.shape), np.zeros(r.shape)
    if fieldobj is not None:
        rho = fieldobj.rho(r, t)
        vacuum = rho <= 0.0
        rho[vacuum] = 0.0
        u[~vacuum] = fieldobj.u(r[~vacuum], t[~vacuum])
    return rho, u


@dataclass
class SphericalTrajectory:
    """Accepted-step history of the front plus dense evaluators and flags.

    ``phi_at``, ``e_at``, ``u_delta_at`` and ``m_at`` take a scalar time
    (returning a float) or an array of times (returning an array of the same
    length); one call evaluates the whole array in one pass.
    """

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

    def _eval(self, t):
        """Rows (phi, e, u_delta, m) at the times ``t``: shape (4,) or (4, k).

        Times up to the bootstrap end take its closed form; the others go to
        the dense output in one call. Times before the start time are
        rejected.
        """
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        t0 = self.t[0] if self._boot is None else self._boot[0]
        if np.any(t < t0 - 1e-12) or np.any(t > self.t_stop + 1e-12):
            raise InvalidParameterError("query time outside the integrated window")
        t = np.clip(t, t0, self.t_stop)
        out = np.empty((4, t.size))
        boot = np.zeros(t.size, dtype=bool)
        if self._boot is not None:
            _, t_eps, phi0, s, alpha = self._boot
            boot = t <= t_eps
            out[0, boot] = phi0 + s * (t[boot] - t0)
            out[1, boot] = alpha * (t[boot] - t0)
            out[2, boot] = s
        if not np.all(boot):
            phi, e, q = self._dense(t[~boot])
            out[0, ~boot] = phi
            out[1, ~boot] = e
            out[2, ~boot] = np.divide(q, e, out=q.copy(), where=e > 0.0)
        if self.n == 1:
            out[3] = out[1]
        else:
            out[3] = out[1] * unit_sphere_area(self.n) * out[0] ** (self.n - 1)
        return out[:, 0] if scalar else out

    def _row(self, t, k: int):
        v = self._eval(t)
        return float(v[k]) if v.ndim == 1 else v[k]

    def phi_at(self, t):
        return self._row(t, 0)

    def e_at(self, t):
        return self._row(t, 1)

    def u_delta_at(self, t):
        return self._row(t, 2)

    def m_at(self, t):
        """Total front mass: e |S^{n-1}| phi^{n-1} for n >= 2, plain e in 1-D."""
        return self._row(t, 3)


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
    big = np.finfo(float).max

    def rhs(t, y):
        phi, e, q = y
        u_d = q / e
        (rho_i, u_i), (rho_o, u_o) = sides(phi, t)
        jr = rho_o - rho_i
        jru = rho_o * u_o - rho_i * u_i
        jruu = rho_o * u_o ** 2 - rho_i * u_i ** 2
        curv = geom / phi * u_d
        f = [u_d, -curv * e - jru + jr * u_d, -curv * q - jruu + jru * u_d]
        # The step control measures each derivative in units of
        # atol + rtol |y|; one that is not finite in those units leaves no
        # step size to choose, so stop here rather than inside the solver.
        for name, fk, yk in zip(("dphi/dt", "de/dt", "dq/dt"), f, y):
            if not abs(fk) <= big * (atol + rtol * abs(yk)):
                raise StiffnessError(
                    f"front ODE right-hand side out of range at t = {t:.6g}: "
                    f"{name} = {fk:.6g} is not finite in units of the tolerance "
                    f"(rtol {rtol:g}, atol {atol:g})"
                )
        return f

    boot = None
    t0 = float(init.t)
    if init.e == 0.0:
        s, alpha = _local_front_speed(inner, outer, init.phi, t0)
        if alpha <= 0.0:
            return _integrate_passive(inner, outer, init, n, t_end, r_min, rtol, atol)
        t_eps = t0 + 1e-8 * (t_end - t0)
        y0 = [init.phi + s * (t_eps - t0), alpha * (t_eps - t0), alpha * (t_eps - t0) * s]
        boot = (t0, t_eps, init.phi, s, alpha)
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
    def speed(phi, t):
        """The flow speed at the front: the inner side's unless it is vacuum."""
        (rho_i, u_i), (_, u_o) = _side(inner, phi, t), _side(outer, phi, t)
        return np.where(rho_i > 0.0, u_i, u_o)

    def rhs(t, y):
        return [speed(y[0], t)]

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

    def dense(t):
        phi = base(t)[0]
        return np.stack([phi, np.zeros_like(phi), np.zeros_like(phi)])

    return SphericalTrajectory(
        n=n,
        r_min=r_min,
        t=ts,
        phi=sol.y[0],
        e=np.zeros_like(ts),
        u_delta=speed(sol.y[0], ts),
        t_stop=float(ts[-1]),
        focused=len(sol.t_events[0]) > 0,
        passive=True,
        _dense=dense,
    )


def radial_moment_integral(fieldobj, a, b, t, weight, panels, nodes, moment: int = 0):
    """Integral of rho * u^moment * weight(r) over [a, b] clipped to support.

    ``a``, ``b`` and ``t`` are numbers, giving a float, or arrays that
    broadcast together, giving one integral per element with one Gauss rule
    per clipped interval.
    """
    a, b, t = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, t)))
    out = np.zeros(a.shape)
    if fieldobj is not None:
        lo, hi = fieldobj.support(t)
        a, b = np.maximum(a, lo), np.minimum(b, hi)
        ok = a < b
        r, w = gauss_panels(a[ok], b[ok], panels, nodes)
        tq = t[ok][:, None]
        vals = fieldobj.rho(r, tq) * weight(r)
        if moment:
            vals = vals * fieldobj.u(r, tq) ** moment
        out[ok] = np.vecdot(w, vals)
    return float(out) if out.ndim == 0 else out
