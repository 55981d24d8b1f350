"""Compactly supported smooth test functions with analytic derivatives.

Members are tensor products of one-dimensional factors

    g(x) = P(xi) * exp(-1 / (1 - xi^2)),   xi = affine map of x into (-1, 1),

over the space coordinates and time. Every factor is C-infinity with all
derivatives vanishing at the support edge, so quadrature against them
converges at the panel rule's order. A factor can also be "anchored" at its
left edge (xi = (x - lo)/(hi - lo) in [0, 1)), which is used for time
factors that are nonzero at t = 0 while remaining smooth on [0, infinity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = ["BumpFactor", "TensorBump"]


def _core(xi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0 - 1e-9
    q = 1.0 - xi[inside] ** 2
    out[inside] = np.exp(-1.0 / q)
    return out


def _core_deriv(xi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0 - 1e-9
    q = 1.0 - xi[inside] ** 2
    out[inside] = np.exp(-1.0 / q) * (-2.0 * xi[inside] / q**2)
    return out


@dataclass(frozen=True)
class BumpFactor:
    """One-dimensional bump factor on [lo, hi] with polynomial modulation."""

    lo: float
    hi: float
    poly: tuple = (1.0,)  # coefficients in xi, low order first
    anchored_left: bool = False

    def __post_init__(self):
        if not self.hi > self.lo:
            raise InvalidParameterError("factor support must have positive width")

    def _xi(self, x: np.ndarray) -> np.ndarray:
        if self.anchored_left:
            return (x - self.lo) / (self.hi - self.lo)
        return (2.0 * x - (self.lo + self.hi)) / (self.hi - self.lo)

    def _dxi_dx(self) -> float:
        return (1.0 if self.anchored_left else 2.0) / (self.hi - self.lo)

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xi = self._xi(x)
        out = _core(xi) * np.polynomial.polynomial.polyval(xi, np.asarray(self.poly))
        if self.anchored_left:
            out = np.where(xi < 0.0, 0.0, out)
        return out

    def deriv(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xi = self._xi(x)
        p = np.asarray(self.poly)
        pd = np.polynomial.polynomial.polyder(p) if p.size > 1 else np.zeros(1)
        out = _core_deriv(xi) * np.polynomial.polynomial.polyval(xi, p)
        out += _core(xi) * np.polynomial.polynomial.polyval(xi, pd)
        if self.anchored_left:
            out = np.where(xi < 0.0, 0.0, out)
        return out * self._dxi_dx()

    @property
    def nonneg(self) -> bool:
        p = np.asarray(self.poly)
        return p.size == 1 and p[0] >= 0.0


class TensorBump:
    """Tensor product of space factors and one time factor.

    phi(x, t) = amplitude * T(t) * X_1(x_1) * ... * X_dim(x_dim), with T the
    ``time_factor`` and X_j the ``space_factors``. ``value``, ``dt`` and
    ``grad`` take points of shape (m, dim) and a time that is a scalar or an
    (m,) array aligned with the points, one time per point; scalar points of
    shape (dim,) are promoted. All derivatives are analytic.
    """

    def __init__(self, space_factors, time_factor: BumpFactor, amplitude: float = 1.0):
        self.space_factors = list(space_factors)
        self.time_factor = time_factor
        self.amplitude = float(amplitude)
        self.dim = len(self.space_factors)

    # Support metadata -------------------------------------------------------

    @property
    def space_box(self):
        return [(f.lo, f.hi) for f in self.space_factors]

    @property
    def t_support(self):
        return (self.time_factor.lo, self.time_factor.hi)

    @property
    def nonneg(self) -> bool:
        return (
            self.amplitude >= 0.0
            and self.time_factor.nonneg
            and all(f.nonneg for f in self.space_factors)
        )

    # Evaluation -------------------------------------------------------------

    def _points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.dim:
            raise InvalidParameterError(f"points must have {self.dim} columns")
        return pts

    def _time_part(self, fn, t, m: int) -> np.ndarray:
        """amplitude * fn(t) for each of m points, at one time or at one time per point."""
        if np.ndim(t) == 0:
            return np.full(m, self.amplitude * float(fn(t)))
        t = np.asarray(t, dtype=float)
        if t.shape != (m,):
            raise InvalidParameterError(f"need one time per point: got {t.shape} for {m} points")
        return self.amplitude * fn(t)

    def value(self, points, t) -> np.ndarray:
        pts = self._points(points)
        out = self._time_part(self.time_factor.value, t, pts.shape[0])
        for j, f in enumerate(self.space_factors):
            out *= f.value(pts[:, j])
        return out

    def dt(self, points, t) -> np.ndarray:
        pts = self._points(points)
        out = self._time_part(self.time_factor.deriv, t, pts.shape[0])
        for j, f in enumerate(self.space_factors):
            out *= f.value(pts[:, j])
        return out

    def grad(self, points, t) -> np.ndarray:
        pts = self._points(points)
        vals = [f.value(pts[:, j]) for j, f in enumerate(self.space_factors)]
        out = np.empty_like(pts)
        tf = self._time_part(self.time_factor.value, t, pts.shape[0])
        for j, f in enumerate(self.space_factors):
            col = tf * f.deriv(pts[:, j])
            for k, v in enumerate(vals):
                if k != j:
                    col = col * v
            out[:, j] = col
        return out
