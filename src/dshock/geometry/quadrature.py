"""Surface patch quadratures on charts.

Charts and their accuracy:

* circles (n=2): trapezoid rule in angle, spectrally accurate for smooth
  periodic integrands;
* spheres (n=3): product of Gauss-Legendre in cos(theta) and trapezoid in
  azimuth, exact for polynomials well past degree 6 at the default level;
* planes: composite Gauss-Legendre panels per tangential direction
  (order 2m for m nodes per panel).

Node weights always sum to the patch measure, which tests validate against
closed-form sphere areas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ..errors import EmptyQuadratureError, InvalidDimensionError, InvalidParameterError

__all__ = [
    "SurfacePatchQuadrature",
    "gauss_panels",
    "sphere_chart",
    "plane_chart",
    "surface_integral",
]


@dataclass(frozen=True)
class SurfacePatchQuadrature:
    """Nodes and weights for integration over one surface patch at time t."""

    nodes: np.ndarray  # (m, dim)
    weights: np.ndarray  # (m,)
    t: float

    def measure(self) -> float:
        return float(np.sum(self.weights))


@lru_cache(maxsize=None)
def _legendre_rule(nodes: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per size."""
    xi, wi = np.polynomial.legendre.leggauss(nodes)
    xi.setflags(write=False)
    wi.setflags(write=False)
    return xi, wi


def gauss_panels(a, b, panels: int, nodes: int = 6):
    """Composite Gauss-Legendre rule on [a, b]; returns (points, weights).

    Numbers ``a`` and ``b`` give (panels * nodes,) arrays. Arrays of interval
    ends that broadcast together give one rule per interval, with shape
    (..., panels * nodes); each row equals the rule of its own interval.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if (b < a).any():
        raise InvalidParameterError("interval is reversed")
    if panels < 1 or nodes < 1:
        raise InvalidParameterError("panels and nodes must be positive")
    xi, wi = _legendre_rule(nodes)
    # np.linspace(a, b, panels + 1) per interval: a + k * step, ending on b.
    edges = np.arange(panels + 1) * ((b - a) / panels)[..., None] + a[..., None]
    edges[..., -1] = b
    mids = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = (*edges.shape[:-1], panels * nodes)
    return (mids[..., None] + half[..., None] * xi).reshape(shape), (half[..., None] * wi).reshape(shape)


def sphere_chart(center, radius: float, t: float = 0.0, level: int = 2) -> SurfacePatchQuadrature:
    """Full sphere; dispatches on the dimension of ``center``.

    n=3 uses Gauss-Legendre x trapezoid with 6*2^level polar nodes, n=2
    the trapezoid rule with 16*2^level nodes, n=1 the two-point "sphere".
    """
    center = np.asarray(center, dtype=float)
    if radius <= 0:
        raise InvalidParameterError("radius must be positive")
    if center.size == 1:
        nodes = np.array([[center[0] - radius], [center[0] + radius]])
        return SurfacePatchQuadrature(nodes, np.ones(2), float(t))
    if center.size == 2:
        m = 16 * (2**level)
        theta = 2.0 * np.pi * np.arange(m) / m
        nodes = center[None, :] + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return SurfacePatchQuadrature(nodes, np.full(m, 2.0 * np.pi * radius / m), float(t))
    if center.size != 3:
        raise InvalidDimensionError("sphere charts support dim 1, 2 and 3")
    n_polar = 6 * (2**level)
    n_az = 2 * n_polar
    z, wz = _legendre_rule(n_polar)
    phi = 2.0 * np.pi * np.arange(n_az) / n_az
    sin_theta = np.sqrt(1.0 - z**2)
    xs = np.outer(sin_theta, np.cos(phi)).ravel()
    ys = np.outer(sin_theta, np.sin(phi)).ravel()
    zs = np.repeat(z, n_az)
    nodes = center[None, :] + radius * np.stack([xs, ys, zs], axis=1)
    weights = np.repeat(wz, n_az) * (2.0 * np.pi / n_az) * radius**2
    return SurfacePatchQuadrature(nodes, weights, float(t))


@lru_cache(maxsize=None)
def _unit_sphere_chart(dim: int, level: int) -> SurfacePatchQuadrature:
    """Read-only ``sphere_chart`` of the unit sphere about 0, built once per (dim, level)."""
    chart = sphere_chart(np.zeros(dim), 1.0, level=level)
    chart.nodes.setflags(write=False)
    chart.weights.setflags(write=False)
    return chart


def _tangent_basis(normal: np.ndarray) -> np.ndarray:
    basis = np.linalg.svd(normal[None, :])[2][1:]
    return basis.T  # (dim, dim-1)


def plane_chart(
    point,
    normal,
    half_widths,
    t: float = 0.0,
    level: int = 2,
    tangent_basis: np.ndarray | None = None,
) -> SurfacePatchQuadrature:
    """Rectangular window on a hyperplane through ``point`` with unit ``normal``."""
    point = np.asarray(point, dtype=float)
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    half_widths = np.atleast_1d(np.asarray(half_widths, dtype=float))
    dim = point.size
    if half_widths.size != dim - 1:
        raise InvalidParameterError("need one half width per tangential direction")
    if dim == 1:
        return SurfacePatchQuadrature(point[None, :], np.ones(1), float(t))
    basis = _tangent_basis(normal) if tangent_basis is None else tangent_basis
    panels = 4 * (2**level)
    grids = [gauss_panels(-hw, hw, panels, nodes=6) for hw in half_widths]
    mesh = np.meshgrid(*[g[0] for g in grids], indexing="ij")
    wmesh = np.meshgrid(*[g[1] for g in grids], indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)  # (m, dim-1)
    weights = np.prod(np.stack([w.ravel() for w in wmesh], axis=1), axis=1)
    nodes_xyz = point[None, :] + coords @ basis.T
    return SurfacePatchQuadrature(nodes_xyz, weights, float(t))


def surface_integral(f: Callable[[np.ndarray, float], np.ndarray], quad: SurfacePatchQuadrature) -> float:
    """Integrate a surface field over the patch.

    ``f`` must accept (nodes, t) with nodes of shape (m, dim) and return m
    values (constants are broadcast).
    """
    if quad.nodes.shape[0] == 0:
        raise EmptyQuadratureError("quadrature has no nodes")
    values = np.broadcast_to(np.asarray(f(quad.nodes, quad.t), dtype=float), quad.weights.shape)
    return float(np.dot(quad.weights, values))
