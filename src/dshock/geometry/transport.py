"""Transport-theorem and integration-by-parts checks on moving geometry.

These are verification tools, not solvers. Each check evaluates both sides
of an exact identity with quadrature and finite differences and reports the
residual:

* surface transport:  d/dt int_Gamma e dmu = int_Gamma (de/dt - 2 K G e) dmu,
  where de/dt is the front-riding derivative;
* volume transport:   d/dt int_Omega f dx = int_Omega f_t dx
  + int_bdry f (W . nu) dmu for a region moving with boundary velocity W;
* integration by parts along the space-time front:
  int_0^T int_Gamma e (dphi/dt) dmu dt
  = - int_0^T int_Gamma (de/dt - 2 K G e) phi dmu dt
    - int_Gamma0 e phi(., 0) dmu,
  for test functions phi vanishing before t = T.

The front-riding terms (de/dt, K, G, nu) are evaluated as arrays of nodes
with the same stencils as the pointwise operators in ``calculus``. Each
front check builds its chart once (``front.moving_chart``) and moves it to
every time it needs. Surface transport evaluates that chart at t - dt, t
and t + dt, with one call per operator at t. Integration by parts
evaluates its whole space-time grid, every (time node, chart node) pair
with its own time, in blocks of whole time rows (one call per operator per
block), and takes its t = 0 term from the same chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import InvalidDimensionError, SupportViolationError
from .calculus import delta_derivative_time, mean_curvature, normal, normal_speed
from .fronts import LevelSetFront, MovingSphereFront
from .quadrature import _unit_sphere_chart, gauss_panels, surface_integral

# Most (time node, chart node) pairs evaluated in one block of the
# integration-by-parts grid; a block holds at least one time row.
_BLOCK = 2**13

__all__ = [
    "TransportReport",
    "MovingBall",
    "check_surface_transport",
    "check_volume_transport",
    "check_integration_by_parts",
]


@dataclass(frozen=True)
class TransportReport:
    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def _values(f: Callable, nodes: np.ndarray, t) -> np.ndarray:
    """f at (m, dim) nodes as m values; a constant is broadcast.

    t is a scalar or an (m,) array of node times.
    """
    return np.broadcast_to(np.asarray(f(nodes, t), dtype=float), nodes.shape[:1])


class MovingBall:
    """Ball |x - c| <= R(t): the interior of an outward ``MovingSphereFront``.

    ``radius`` and ``radius_rate`` follow the sphere's time law; the boundary
    moves radially at Rdot(t).
    """

    def __init__(self, center, radius, radius_rate=None):
        if np.size(center) not in (2, 3):
            raise InvalidDimensionError("MovingBall supports dim 2 and 3")
        self.boundary = MovingSphereFront(center, radius, radius_rate)
        self.center = self.boundary.center
        self.radius = self.boundary.radius
        self.rate = self.boundary.radius_rate

    def volume_integral(self, f, t: float, level: int = 2) -> float:
        big_r = self.radius(t)
        r_nodes, r_weights = gauss_panels(0.0, big_r, 4 * (2**level), nodes=8)
        unit = _unit_sphere_chart(self.center.size, level)
        # Every (radius, sphere-chart) node at once: rows are radii.
        pts = self.center + r_nodes[:, None, None] * unit.nodes
        vals = _values(f, pts.reshape(-1, self.center.size), t).reshape(r_nodes.size, -1)
        shells = r_weights * r_nodes ** (self.center.size - 1) * np.vecdot(vals, unit.weights)
        # A running sum in radial order: transport checks difference two of
        # these integrals over 2 dt, which magnifies any change of order.
        return float(np.cumsum(shells)[-1])

    def boundary_integral(self, f, t: float, level: int = 2) -> float:
        return surface_integral(f, self.boundary.patch_quadrature(t, level))


def check_surface_transport(
    e: Callable[[np.ndarray, float], np.ndarray],
    front: LevelSetFront,
    t: float,
    dt: float = 1e-4,
    level: int = 2,
) -> TransportReport:
    """Residual of the surface transport identity at time t.

    The left side differentiates int_Gamma e dmu by central differences in
    time (O(dt^2)); the right side integrates the front-riding derivative
    minus the curvature term at time t.
    """
    _, chart = front.moving_chart(level)

    def integral(tau):
        nodes, weights = chart(tau)
        return float(np.dot(weights, _values(e, nodes, tau)))

    lhs = (integral(float(t + dt)) - integral(float(t - dt))) / (2.0 * dt)

    nodes, weights = chart(float(t))
    de_dt = delta_derivative_time(e, front, nodes, t)
    kappa = mean_curvature(front, nodes, t)
    big_g = normal_speed(front, nodes, t)
    integrand = de_dt - 2.0 * kappa * big_g * _values(e, nodes, t)
    rhs = float(weights @ integrand)
    return TransportReport(lhs, rhs)


def check_volume_transport(
    f: Callable[[np.ndarray, float], np.ndarray],
    region,
    t: float,
    dt: float = 1e-4,
    level: int = 2,
) -> TransportReport:
    """Residual of the volume transport identity at time t."""
    lhs = (
        region.volume_integral(f, t + dt, level) - region.volume_integral(f, t - dt, level)
    ) / (2.0 * dt)

    def f_t(pts, tau):
        return (np.asarray(f(pts, tau + dt)) - np.asarray(f(pts, tau - dt))) / (2.0 * dt)

    rhs = region.volume_integral(f_t, t, level)
    rate = region.rate(t)
    if rate:
        rhs += rate * region.boundary_integral(f, t, level)
    return TransportReport(lhs, rhs)


def check_integration_by_parts(
    e: Callable[[np.ndarray, float], np.ndarray],
    phi,
    front: LevelSetFront,
    t_end: float,
    level: int = 2,
) -> TransportReport:
    """Residual of the space-time surface integration-by-parts identity.

    ``phi`` must expose value/dt/grad with analytic derivatives and a
    t_support that closes strictly before t_end (otherwise the boundary term
    at t_end would be missing from the identity). ``e`` and ``phi`` are
    called on rows of chart nodes with an array of row times.
    """
    t_lo, t_hi = phi.t_support
    if t_lo < 0.0:
        raise SupportViolationError("test function support reaches into t < 0")
    if t_hi >= t_end:
        raise SupportViolationError("test function must vanish before t_end")
    t_nodes, t_weights = gauss_panels(max(t_lo, 0.0), t_hi, 8 * (2**level), nodes=6)

    size, chart = front.moving_chart(level)
    rows = max(1, _BLOCK // size)
    # One chart integral per time node, summed below in time order.
    lhs_t = np.empty(t_nodes.size)
    rhs_t = np.zeros(t_nodes.size)
    for start in range(0, t_nodes.size, rows):
        block = slice(start, start + rows)
        nodes, weights = chart(t_nodes[block])
        x = nodes.reshape(-1, front.dim)
        tau = np.repeat(t_nodes[block], size)
        nu = normal(front, x, tau)
        big_g = normal_speed(front, x, tau)
        dphi = phi.dt(x, tau) + big_g * np.sum(phi.grad(x, tau) * nu, axis=1)
        e_vals = _values(e, x, tau)
        lhs_t[block] = np.vecdot(weights, (e_vals * dphi).reshape(weights.shape))

        phi_vals = phi.value(x, tau)
        live = phi_vals != 0.0
        if np.any(live):
            # Only nodes inside supp phi contribute; the others are never evaluated.
            de_dt = delta_derivative_time(e, front, x[live], tau[live], h_t=1e-5)
            kappa = mean_curvature(front, x[live], tau[live])
            integrand = np.zeros(x.shape[0])
            integrand[live] = (de_dt - 2.0 * kappa * big_g[live] * e_vals[live]) * phi_vals[live]
            rhs_t[block] = np.vecdot(weights, integrand.reshape(weights.shape))

    nodes0, weights0 = chart(0.0)
    e0 = _values(e, nodes0, 0.0)
    gamma0_term = float(weights0 @ (e0 * phi.value(nodes0, 0.0)))
    # Running sums in time order, as a loop over the time nodes would add.
    lhs = float(np.cumsum(t_weights * lhs_t)[-1])
    rhs = -float(np.cumsum(t_weights * rhs_t)[-1]) - gamma0_term
    return TransportReport(lhs, rhs)
