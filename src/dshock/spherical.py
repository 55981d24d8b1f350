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
``integrate_front`` runs these ODEs for a concentrating front, massive from
the start or bootstrapped from e = 0 where the front gains mass, and
transports a massless front that gains none: one integration path for all.

Side fields solve the radial zero-pressure system

    rho_t + (rho u)_r + (n-1)/r * rho u     = 0,
    (rho u)_t + (rho u^2)_r + (n-1)/r * rho u^2 = 0,

away from the front. ``free_flow_field`` builds such solutions from data
(rho0, u0) by characteristics r = r0 + t u0(r0) with
rho = rho0(r0) (r0/r)^{n-1} / (1 + t u0'(r0)); a vanishing denominator
means characteristics cross and the field is invalid (caustic).

A ``RadialField`` is a ``support`` window and one evaluator,
``state(r, t) -> (rho, u)``, on radii and times that broadcast together:
one point for the front ODE, a whole grid for an audit. It applies the
window once and gives (0, 0) outside it and wherever rho <= 0. Every support
edge is unbounded, an (x0, speed) pair or a callable of t
(``geometry.fronts._time_law``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    CausticError,
    InvalidDimensionError,
    InvalidParameterError,
    NoDeltaShockError,
    StiffnessError,
)
from .expressions import parse_expression
from .geometry.fronts import _number, _window
from .geometry.quadrature import gauss_panels
from .riemann1d import RiemannData1D, admissible_front_speed
from .solutions import _Front
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

_EPS = np.finfo(float).eps
# Newton steps, each at least halving its bracket when it falls back to
# bisection, before a characteristic inversion gives up.
_NEWTON_STEPS = 200
# Centered-difference step and (r, t) sample grid of ``validate_field``.
_VALIDATE_STEP = 1e-4
_VALIDATE_GRID = (12, 8)


@dataclass(frozen=True)
class RadialField:
    """Radial density/velocity pair with a moving support window.

    ``state(r, t)``: numbers give floats, arrays give arrays. ``support``
    maps t to (lo, hi). ``raw`` is only called inside that window, on 1-D
    arrays of paired r and t; it returns the densities there and a callable
    giving the velocities at a boolean mask of those points.
    """

    raw: Callable
    support: Callable

    def state(self, r, t):
        r, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
        lo, hi = self.support(t)  # before t is spread over r: one time gives two numbers
        if r.shape != t.shape:  # skips about 3 us of broadcasting per front-ODE side
            r, t = np.broadcast_arrays(r, t)
        inside = np.array((r >= lo) & (r <= hi))
        rho, u = np.zeros(r.shape), np.zeros(r.shape)
        if inside.any():
            rho_in, u_at = self.raw(r[inside], t[inside])
            mass = rho_in > 0.0
            inside[inside] = mass
            rho[inside], u[inside] = rho_in[mass], u_at(mass)
        return (float(rho), float(u)) if r.ndim == 0 else (rho, u)


def _uniform_speed(rho_of: Callable, u0: float) -> Callable:
    """Raw evaluator of a density law whose gas all moves at one speed u0."""
    return lambda r, t: (rho_of(r, t), lambda mass: np.full(np.count_nonzero(mass), u0))


def constant_field(rho0: float, u0: float, support0=None) -> RadialField:
    """Uniform state; support edges ride along at the particle speed u0."""
    rho0, u0 = _number(rho0), _number(u0)
    if not (math.isfinite(rho0) and math.isfinite(u0)):
        raise InvalidParameterError(f"constant field needs finite rho and u, got ({rho0}, {u0})")
    if rho0 < 0.0:
        raise InvalidParameterError("density must be nonnegative")
    return RadialField(
        raw=_uniform_speed(lambda r, t: np.full(r.shape, rho0), u0),
        support=_window(support0, lambda x0: (x0, u0)),
    )


def _on_array(fn: Callable) -> Callable:
    """fn on an array of radii; a number it returns fills their shape."""
    return lambda r0: np.full(np.shape(r0), fn(r0), dtype=float)


def _characteristic_feet(u0: Callable, du0: Callable, r, t):
    """(r0, 1 + t u0'(r0)) of the characteristics r = r0 + t u0(r0) through paired (r, t).

    While 1 + t u0' > 0 the foot is the one root in a bracket around r. All
    points take Newton steps at once, bisecting where a step leaves its
    bracket; each stops on its own tolerance. No bracket, no convergence or a
    caustic (1 + t u0' <= 1e-10) raises ``CausticError`` naming the point.
    """
    r0, jac = r.copy(), np.ones(r.shape)
    todo = np.flatnonzero(t != 0.0)
    r, t = r[todo], t[todo]

    def g(x):
        return x + t * u0(x) - r

    def fail(where, why):
        if where.any():
            k = np.argmax(where)
            raise CausticError(f"{why} at r={r[k]}, t={t[k]}")

    width = np.maximum(1.0, np.abs(t) * (np.abs(u0(r)) + 1.0))
    for _ in range(60):
        a, b = r - width, r + width
        missed = ~((g(a) <= 0.0) & (g(b) >= 0.0))
        if not missed.any():
            break
        width = np.where(missed, 2.0 * width, width)
    fail(missed, "no characteristic reaches the point")
    x, active = r.copy(), np.ones(r.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        gx = g(x)
        a, b = np.where(gx < 0.0, x, a), np.where(gx > 0.0, x, b)
        step = x - gx / (1.0 + t * du0(x))
        step = np.where((a <= step) & (step <= b), step, 0.5 * (a + b))
        active &= gx != 0.0
        moved = np.abs(step - x) > 1e-14 + 4.0 * _EPS * np.abs(step)
        x, active = np.where(active, step, x), active & moved
        if not active.any():
            break
    fail(active, "characteristic inversion did not converge")
    r0[todo], jac[todo] = x, 1.0 + t * du0(x)
    fail(jac[todo] <= 1e-10, "characteristics cross (the field is multivalued)")
    return r0, jac


def free_flow_field(rho0: Callable, u0: Callable, n: int, support0=None) -> RadialField:
    """Pressureless free flow of initial data (rho0, u0) by characteristics.

    ``rho0`` and ``u0`` take an array of Lagrangian radii r0; a number they
    return is broadcast. Each ``state`` call inverts the characteristics of
    all its points at once and reads rho and u off the same feet; a density
    or velocity that is not finite raises ``InvalidParameterError``.
    """
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    rho0, u0 = _on_array(rho0), _on_array(u0)

    def du0(r0):
        h = 1e-7 * np.maximum(1.0, np.abs(r0))
        return (u0(r0 + h) - u0(r0 - h)) / (2.0 * h)

    def raw(r, t):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r0, jac = _characteristic_feet(u0, du0, r, t)
            ratio = (r0 / r) ** (n - 1) if n > 1 else 1.0
            rho, u = rho0(r0) * ratio / jac, u0(r0)
        bad = ~(np.isfinite(rho) & np.isfinite(u))
        if bad.any():
            k = np.argmax(bad)
            raise InvalidParameterError(
                f"free flow is not finite at r={r[k]}, t={t[k]}: rho={rho[k]}, u={u[k]}"
            )
        return rho, lambda mass: u[mass]

    return RadialField(raw=raw, support=_window(support0, lambda x0: (x0, u0(_number(x0)))))


def _of_t(source: str) -> Callable:
    """An expression in t as a callable of a time or of an array of times."""
    expr = parse_expression(source, allowed={"t"})
    return lambda t: expr(t=t)


def expression_field(rho_src: str, u_src: str, support_src=None) -> RadialField:
    """Field given by formulas in (r, t); support edges by formulas in t."""
    rho_e = parse_expression(rho_src, allowed={"r", "t"})
    u_e = parse_expression(u_src, allowed={"r", "t"})
    return RadialField(
        raw=lambda r, t: (
            rho_e.eval_radial(r, t),
            lambda mass: u_e.eval_radial(r[mass], t[mass]),
        ),
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
        raw=_uniform_speed(lambda r, t: r ** (1.0 - n), -1.0),
        support=_window(support0, lambda x0: (x0, -1.0)),
    )


def validate_field(f: RadialField, n: int, box) -> float:
    """Max centered-difference residual of the radial system on a sample box.

    ``box`` is (r_lo, r_hi, t_lo, t_hi); the stencil must stay inside the
    field's support, away from r = 0, and at t >= 0.
    """
    h = _VALIDATE_STEP
    r_lo, r_hi, t_lo, t_hi = map(float, box)
    if t_lo - h < 0.0:
        raise InvalidParameterError("time box must leave room for the centered stencil")
    r, t = np.meshgrid(
        np.linspace(r_lo, r_hi, _VALIDATE_GRID[0]), np.linspace(t_lo, t_hi, _VALIDATE_GRID[1])
    )
    rho_c, u_c = f.state(r, t)
    rho_tp, u_tp = f.state(r, t + h)
    rho_tm, u_tm = f.state(r, t - h)
    rho_rp, u_rp = f.state(r + h, t)
    rho_rm, u_rm = f.state(r - h, t)
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
    """``fieldobj.state(r, t)``, with None as vacuum: (0, 0) in the broadcast shape."""
    if fieldobj is not None:
        return fieldobj.state(r, t)
    zero = np.zeros(np.broadcast(r, t).shape)
    return (0.0, 0.0) if zero.ndim == 0 else (zero, zero.copy())


class FrontSteps(NamedTuple):
    """The accepted steps of a front integration, from its initial state on."""

    t: np.ndarray
    phi: np.ndarray
    e: np.ndarray
    u_delta: np.ndarray


@dataclass
class SphericalTrajectory(_Front):
    """A front integrated up to ``t_end``, with the side fields it ran in.

    It answers to the 1-D front's names: ``at``, ``phi``, ``e``, ``u_delta``
    and ``m`` take a time or an array of times in ``[steps.t[0], t_end]``
    and evaluate ``rows``, the dense evaluator from a 1-D array of times to
    the rows (phi, e, u_delta), once. ``steps`` holds the accepted steps from
    the initial state on; ``inner`` and ``outer`` (None for vacuum) are the
    fields the front ran in, which ``balance.audit`` integrates.
    """

    n: int
    r_min: float
    inner: RadialField | None
    outer: RadialField | None
    steps: FrontSteps
    t_end: float
    focused: bool = False
    entropy_violated: bool = False
    passive: bool = False
    rows: Callable | None = field(default=None, repr=False)

    def _evaluate(self, t):
        t0 = self.steps.t[0]
        if np.any(t < t0 - 1e-12) or np.any(t > self.t_end + 1e-12):
            raise InvalidParameterError("query time outside the integrated window")
        return self.rows(np.clip(t, t0, self.t_end))

    def _mass(self, phi, e):
        return e if self.n == 1 else e * unit_sphere_area(self.n) * phi ** (self.n - 1)


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


def _stop_on_fall(event: Callable) -> Callable:
    """``event`` as a solve_ivp event that ends the integration when it falls through 0."""
    event.terminal, event.direction = True, -1.0
    return event


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

    One path serves three starts. A massive front (e > 0) concentrates by the
    ODE in (phi, e, e u_delta) from ``init``. A massless one with growth rate
    alpha > 0 concentrates from the local 1-D speed s with e = alpha (t - t0),
    a closed form up to t_eps = t0 + 1e-8 (t_end - t0), the ODE after. One
    with alpha <= 0 is transported (``passive``): phi rides the flow, e = 0.
    Each start picks its right-hand side, initial state, events and rows of
    an ODE state; one solve, dense evaluator and ``steps`` build serve all.

    Stops early (with a flag, not an exception) when the front reaches r_min
    or a concentrating front loses overcompression or its mass. ``rtol`` must
    lie in [100 eps, 1): RK45 raises a smaller one to 100 eps. ``atol`` must
    lie in (0, 1e-3 phi0], with phi0 the initial radius: a larger one lets the
    step control ignore the front's own state.

    An initial state with e > 0 that violates overcompression raises
    ``NoDeltaShockError``. A vacuum side counts as velocity 0, so over an
    inner vacuum the front must start with u_delta < 0; u_delta >= 0 is
    refused by the margin against that vacuum.

    ``n`` lies in 1 .. 343 (``unit_sphere_area``). Near the top the front mass
    e |S^{n-1}| phi^{n-1} underflows as a shell converges: at n = 340 the
    shell of ``spherical_converging_n3`` fails its mass audit.
    """
    unit_sphere_area(n)  # refuses a dimension out of range before any work
    if not (math.isfinite(t_end) and t_end > init.t):
        raise InvalidParameterError("t_end must be finite and exceed the initial time")
    if not 100.0 * _EPS <= rtol < 1.0:
        raise InvalidParameterError(f"rtol must lie in [{100.0 * _EPS:.3g}, 1), got {rtol}")
    if r_min is None:
        r_min = 1e-3 * init.phi
    if init.phi <= r_min:
        raise InvalidParameterError("initial radius must exceed r_min")
    if not 0.0 < atol <= 1e-3 * init.phi:
        raise InvalidParameterError(
            f"atol must lie in (0, 1e-3 phi0] = (0, {1e-3 * init.phi:.3g}], got {atol}"
        )

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
            if not abs(fk) / big <= atol + rtol * abs(yk):
                raise StiffnessError(
                    f"front ODE right-hand side out of range at t = {t:.6g}: "
                    f"{name} = {fk:.6g} is not finite in units of the tolerance "
                    f"(rtol {rtol:g}, atol {atol:g})"
                )
        return f

    def mass_rows(t, y):
        """Rows of states (phi, e, e u_delta); u_delta reads 0 where e <= 0."""
        phi, e, q = y
        mass = e > 0.0
        return phi, e, np.where(mass, q / np.where(mass, e, 1.0), 0.0)

    def flow_speed(phi, t):
        """The flow speed at the front: the inner side's unless it is vacuum."""
        (rho_i, u_i), (_, u_o) = sides(phi, t)
        return np.where(rho_i > 0.0, u_i, u_o)

    def flow_rows(t, y):
        """Rows of states (phi,): a massless front at the flow speed."""
        return y[0], np.zeros_like(y[0]), flow_speed(y[0], t)

    # The choice of start: right-hand side, initial state, events and rows.
    events = [
        _stop_on_fall(lambda t, y: y[0] - r_min),
        _stop_on_fall(lambda t, y: entropy_margin(y[0], t, y[2] / y[1])),
        _stop_on_fall(lambda t, y: y[1]),
    ]
    fun, to_rows, passive = rhs, mass_rows, False
    t0, t_eps, lead = float(init.t), -np.inf, None
    if init.e > 0.0:
        margin = entropy_margin(init.phi, t0, init.u_delta)
        if margin <= 0.0:
            raise NoDeltaShockError(
                "initial front state violates the overcompression condition "
                f"(margin {margin})"
            )
        y0 = [init.phi, init.e, init.e * init.u_delta]
    else:
        s, alpha = _local_front_speed(inner, outer, init.phi, t0)
        if alpha > 0.0:
            t_eps = t0 + 1e-8 * (t_end - t0)
            y0 = [init.phi + s * (t_eps - t0), alpha * (t_eps - t0), alpha * (t_eps - t0) * s]

            def lead(t):
                """The closed-form rows at times t <= t_eps."""
                return init.phi + s * (t - t0), alpha * (t - t0), np.full(t.shape, s)
        else:
            fun, to_rows, passive = (lambda t, y: [flow_speed(y[0], t)]), flow_rows, True
            y0, events = [init.phi], events[:1]

    # A step that overflows yields a right-hand side that rhs refuses, or
    # one the step control rejects; numpy need not warn about it first.
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(
            fun,
            (max(t0, t_eps), float(t_end)),
            y0,
            method="RK45",
            rtol=rtol,
            atol=atol,
            dense_output=True,
            events=events,
        )
    if not sol.success:
        if "step size" in sol.message.lower():
            raise StiffnessError(f"front integration stalled: {sol.message}")
        raise StiffnessError(f"front integration failed: {sol.message}")

    def dense(t):
        """Rows (phi, e, u_delta) at the times t: the closed form up to t_eps, the ODE after."""
        rows = np.empty((3, t.size))
        early = t <= t_eps
        if early.any():
            rows[:, early] = lead(t[early])
        if not early.all():
            rows[:, ~early] = to_rows(t[~early], sol.sol(t[~early]))
        np.maximum(rows[1], 0.0, out=rows[1])
        return rows

    phis, es, u_ds = to_rows(sol.t, sol.y)
    if np.any(es < -atol):
        raise StiffnessError("negative front mass along the trajectory")
    # The steps start from the initial state: where the ODE starts later, the
    # closed form gives it.
    head = np.array([t0] if sol.t[0] > t0 else [])
    steps = FrontSteps(
        np.concatenate([head, sol.t]),
        *np.hstack([dense(head), [phis, np.maximum(es, 0.0), u_ds]]),
    )
    return SphericalTrajectory(
        n=n,
        r_min=r_min,
        inner=inner,
        outer=outer,
        steps=steps,
        t_end=float(sol.t[-1]),
        focused=len(sol.t_events[0]) > 0,
        entropy_violated=any(len(t) > 0 for t in sol.t_events[1:]),
        passive=passive,
        rows=dense,
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
        rho, u = fieldobj.state(r, t[ok][:, None])
        vals = rho * weight(r)
        if moment:
            vals = vals * u ** moment
        out[ok] = np.vecdot(w, vals)
    return float(out) if out.ndim == 0 else out
