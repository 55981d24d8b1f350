"""Compactly supported smooth test functions with analytic derivatives.

Members are tensor products of one-dimensional factors

    g(x) = P(xi) * exp(-1 / (1 - xi^2)),   xi = affine map of x into (-1, 1),

over the space coordinates and time. Every factor is C-infinity with all
derivatives vanishing at the support edge, so quadrature against them
converges at the panel rule's order. A factor can also be "anchored" at its
left edge (xi = (x - lo)/(hi - lo) in [0, 1)), which is used for time
factors that are nonzero at t = 0 while remaining smooth on [0, infinity).

Evaluation contract, for finite arguments: a factor is exactly zero outside
|xi| < 1 - 1e-9; the support kernels raise no floating-point warning (exp
underflows to 0.0 near the edge, which numpy ignores by default, as it does
for the reference); and every value is bitwise equal to the masked
reference that the tests keep (gather the inside points, evaluate, scatter
into zeros, modulate with ``polyval``). The polynomial modulation
overflows, as ``polyval`` does, only where |xi|^degree does. Each kernel is
a few whole-array in-place passes with no gather or scatter: an outside
point enters at |xi| = 1 - 1e-9, where the bump underflows to +0.0, while
every inside point goes through the reference's operations in the
reference's order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = ["BumpFactor", "TensorBump"]


_EDGE = 1.0 - 1e-9  # |xi| below this is inside the support


def _core(xi: np.ndarray) -> np.ndarray:
    # An outside point enters clipped to |xi| = _EDGE, where exp(-1/q) underflows to +0.0.
    out = np.minimum(xi, _EDGE, out=np.empty_like(xi))
    np.maximum(out, -_EDGE, out=out)
    np.square(out, out=out)
    np.subtract(1.0, out, out=out)  # q = 1 - xi^2
    np.divide(-1.0, out, out=out)
    np.exp(out, out=out)
    return out


def _core_deriv(xi: np.ndarray) -> np.ndarray:
    # An outside point enters as xi = -_EDGE: its term is exp(-1/q) = 0 times a
    # positive slope, so +0.0 as in the reference; xi = +_EDGE would give -0.0.
    slope = np.where(np.abs(xi) < _EDGE, xi, -_EDGE)
    out = np.square(slope, out=np.empty_like(slope))
    np.subtract(1.0, out, out=out)  # q
    slope *= -2.0
    slope /= np.square(out)
    np.divide(-1.0, out, out=out)
    np.exp(out, out=out)
    out *= slope
    return out


def _horner(xi: np.ndarray, coeffs) -> np.ndarray:
    """``polyval(xi, coeffs)`` with its operations in its order, in one buffer."""
    acc = np.multiply(xi, 0.0, out=np.empty_like(xi))
    acc += coeffs[-1]
    for c in coeffs[-2::-1]:
        acc *= xi
        acc += c
    return acc


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
        object.__setattr__(self, "poly", tuple(float(c) for c in self.poly))

    def _xi(self, x: np.ndarray) -> np.ndarray:
        xi = np.empty_like(x)
        if self.anchored_left:
            np.subtract(x, self.lo, out=xi)
        else:
            np.multiply(x, 2.0, out=xi)
            xi -= self.lo + self.hi
        xi /= self.hi - self.lo
        return xi

    def _dxi_dx(self) -> float:
        return (1.0 if self.anchored_left else 2.0) / (self.hi - self.lo)

    def value(self, x) -> np.ndarray:
        xi = self._xi(np.asarray(x, dtype=float))
        out = _core(xi)
        if self.poly != (1.0,):
            out *= _horner(xi, self.poly)
        if self.anchored_left:
            np.copyto(out, 0.0, where=xi < 0.0)
        return out

    def deriv(self, x) -> np.ndarray:
        xi = self._xi(np.asarray(x, dtype=float))
        out = _core_deriv(xi)
        poly = self.poly
        if poly != (1.0,):
            out *= _horner(xi, poly)
        if len(poly) > 1:
            tail = _core(xi)
            tail *= _horner(xi, [k * c for k, c in enumerate(poly)][1:])
            out += tail
        else:
            out += 0.0  # core * P'(xi) with P' = 0: turns -0.0 into +0.0
        if self.anchored_left:
            np.copyto(out, 0.0, where=xi < 0.0)
        out *= self._dxi_dx()
        return out

    @property
    def nonneg(self) -> bool:
        return len(self.poly) == 1 and self.poly[0] >= 0.0


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
