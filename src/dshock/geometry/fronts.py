"""Level-set descriptions of moving fronts.

Orientation conventions used everywhere in this package:

* the front at time t is Gamma_t = {x : S(x, t) = 0},
* Omega^- = {S < 0} and Omega^+ = {S > 0},
* the unit normal nu = grad S / |grad S| points from Omega^- into Omega^+,
* the normal speed is G = -S_t / |grad S|, so the front velocity along the
  normal is U_delta = G nu.

A positive G moves the front toward Omega^+.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import (
    DegenerateGradientError,
    InvalidDimensionError,
    InvalidParameterError,
    StencilError,
)
from ..expressions import Expression, parse_expression

__all__ = [
    "LevelSetFront",
    "MovingPlaneFront",
    "MovingSphereFront",
    "ExpressionFront",
    "front_from_spec",
]

# Relative central-difference step for fronts without analytic derivatives.
_FD_STEP = 1e-6


def _point_or_rows(rows_fn, x, t):
    """Evaluate ``rows_fn`` on (m, dim) rows; a (dim,) point is one row."""
    x = np.asarray(x, dtype=float)
    out = rows_fn(np.atleast_2d(x), float(t))
    if x.ndim > 1:
        return out
    return out[0] if out.ndim > 1 else float(out[0])


class LevelSetFront:
    """Front given by a scalar level-set function S(x, t).

    ``value``, ``grad`` and ``time_deriv`` take one point of shape (dim,)
    or rows of points of shape (m, dim); a point is the one-row case. This
    class maps its pointwise callables over the rows. Subclasses with
    closed forms override ``_value_rows``, ``_grad_rows`` and
    ``_time_deriv_rows`` instead of passing callables.

    Parameters
    ----------
    s : callable or None
        S(x, t) with x a shape (dim,) array; None in subclasses that
        override the row methods.
    dim : int
        Ambient dimension n >= 1.
    s_grad, s_t : callable, optional
        Analytic spatial gradient and time derivative. When omitted the
        front falls back to central differences with step ``1e-6 *
        char_length`` (grad_mode "central-difference"), which costs two
        orders of accuracy in curvature queries.
    char_length : float
        Characteristic length used to scale tolerances and steps.
    """

    def __init__(
        self,
        s: Callable[[np.ndarray, float], float] | None,
        dim: int,
        s_grad: Callable[[np.ndarray, float], np.ndarray] | None = None,
        s_t: Callable[[np.ndarray, float], float] | None = None,
        char_length: float = 1.0,
    ):
        if dim < 1:
            raise InvalidDimensionError("dim must be >= 1")
        if char_length <= 0:
            raise InvalidParameterError("char_length must be positive")
        self._s = s
        self.dim = int(dim)
        self._s_grad = s_grad
        self._s_t = s_t
        self.char_length = float(char_length)
        self.grad_mode = "analytic" if s_grad is not None else "central-difference"

    # Basic evaluations -----------------------------------------------------

    def value(self, x, t: float):
        """S at a point (float) or at (m, dim) rows ((m,) array)."""
        return _point_or_rows(self._value_rows, x, t)

    def grad(self, x, t: float) -> np.ndarray:
        """grad S at a point ((dim,) array) or at (m, dim) rows."""
        return _point_or_rows(self._grad_rows, x, t)

    def time_deriv(self, x, t: float):
        """S_t at a point (float) or at (m, dim) rows ((m,) array)."""
        return _point_or_rows(self._time_deriv_rows, x, t)

    def _value_rows(self, x: np.ndarray, t: float) -> np.ndarray:
        out = np.empty(x.shape[0])
        for k, row in enumerate(x):
            try:
                out[k] = self._s(row, t)
            except Exception as exc:  # noqa: BLE001
                raise StencilError(f"level-set evaluation failed at {row}, t={t}") from exc
        return out

    def _grad_rows(self, x: np.ndarray, t: float) -> np.ndarray:
        if self._s_grad is not None:
            return np.array([np.asarray(self._s_grad(row, t), dtype=float) for row in x])
        h = _FD_STEP * self.char_length
        g = np.empty(x.shape)
        for j in range(self.dim):
            step = np.zeros(self.dim)
            step[j] = h
            g[:, j] = (self._value_rows(x + step, t) - self._value_rows(x - step, t)) / (2.0 * h)
        return g

    def _time_deriv_rows(self, x: np.ndarray, t: float) -> np.ndarray:
        if self._s_t is not None:
            return np.array([float(self._s_t(row, t)) for row in x])
        h = _FD_STEP
        return (self._value_rows(x, t + h) - self._value_rows(x, t - h)) / (2.0 * h)

    @property
    def tol_on_surface(self) -> float:
        return 1e-9 * self.char_length

    # Optional chart support -------------------------------------------------

    def patch_quadrature(self, t: float, level: int = 2):
        raise InvalidParameterError(
            "this front has no chart-based quadrature; use a plane or sphere front"
        )


class MovingPlaneFront(LevelSetFront):
    """Plane nu . x = offset(t), with Omega^- on the nu . x < offset side.

    ``offset`` may be a float (static), an (offset0, speed) pair, or a
    callable of t (then ``offset_rate`` supplies its derivative, or a
    central difference is used). The chart window is a box in tangential
    coordinates around ``window_center``.
    """

    def __init__(
        self,
        normal,
        offset,
        offset_rate: Callable[[float], float] | None = None,
        window_center=None,
        window_half_width: float = 3.0,
        char_length: float = 1.0,
    ):
        normal = np.asarray(normal, dtype=float)
        dim = normal.size
        nrm = np.linalg.norm(normal)
        if nrm == 0.0:
            raise InvalidParameterError("plane normal must be nonzero")
        self.normal_vector = normal / nrm

        if callable(offset):
            self._offset = offset
            self._offset_rate = offset_rate
        else:
            if np.ndim(offset) == 0:
                off0, speed = float(offset), 0.0
            else:
                off0, speed = (float(offset[0]), float(offset[1]))
            self._offset = lambda t: off0 + speed * t
            self._offset_rate = lambda t: speed

        super().__init__(s=None, dim=dim, char_length=char_length)
        self.grad_mode = "analytic"
        self.window_center = (
            np.zeros(dim) if window_center is None else np.asarray(window_center, float)
        )
        self.window_half_width = float(window_half_width)
        # Orthonormal tangential basis, columns of shape (dim, dim-1).
        basis = np.linalg.svd(self.normal_vector[None, :])[2][1:]
        self.tangent_basis = basis.T

    def _value_rows(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.vecdot(x, self.normal_vector) - self._offset(t)

    def _grad_rows(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.tile(self.normal_vector, (x.shape[0], 1))

    def _time_deriv_rows(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.full(x.shape[0], -self.offset_rate(t))

    def offset(self, t: float) -> float:
        return float(self._offset(float(t)))

    def offset_rate(self, t: float) -> float:
        if self._offset_rate is not None:
            return float(self._offset_rate(float(t)))
        h = 1e-6
        return (self._offset(t + h) - self._offset(t - h)) / (2.0 * h)

    def point_on(self, t: float) -> np.ndarray:
        c = self.window_center
        return c + (self.offset(t) - float(self.normal_vector @ c)) * self.normal_vector

    def patch_quadrature(self, t: float, level: int = 2):
        from .quadrature import plane_chart

        return plane_chart(
            point=self.point_on(t),
            normal=self.normal_vector,
            half_widths=np.full(self.dim - 1, self.window_half_width),
            t=t,
            level=level,
            tangent_basis=self.tangent_basis,
        )


class MovingSphereFront(LevelSetFront):
    """Sphere |x - center| = R(t).

    orientation "outward": S = |x - c| - R(t), nu points away from the
    center, G = Rdot(t). orientation "inward": S = R(t) - |x - c|, nu points
    toward the center, G = -Rdot(t). Mean curvature is -(n-1)/(2R) for the
    outward orientation and +(n-1)/(2R) for the inward one.
    """

    def __init__(
        self,
        center,
        radius,
        radius_rate: Callable[[float], float] | None = None,
        orientation: str = "outward",
    ):
        center = np.asarray(center, dtype=float)
        dim = center.size
        if orientation not in ("outward", "inward"):
            raise InvalidParameterError("orientation must be 'outward' or 'inward'")
        self.center = center
        self.orientation = orientation
        if callable(radius):
            self._radius = radius
            self._radius_rate = radius_rate
        else:
            r0 = float(radius)
            self._radius = lambda t: r0
            self._radius_rate = lambda t: 0.0
        self._sign = 1.0 if orientation == "outward" else -1.0
        super().__init__(s=None, dim=dim, char_length=max(self.radius(0.0), 1e-6))
        self.grad_mode = "analytic"

    def _value_rows(self, x: np.ndarray, t: float) -> np.ndarray:
        d = x - self.center
        return self._sign * (np.sqrt(np.vecdot(d, d)) - self._radius(t))

    def _grad_rows(self, x: np.ndarray, t: float) -> np.ndarray:
        d = x - self.center
        r = np.sqrt(np.vecdot(d, d))
        if np.any(r == 0.0):
            raise DegenerateGradientError("sphere level set is singular at the center")
        return self._sign * d / r[:, None]

    def _time_deriv_rows(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.full(x.shape[0], -self._sign * self.radius_rate(t))

    def radius(self, t: float) -> float:
        r = float(self._radius(float(t)))
        if r <= 0.0:
            raise InvalidParameterError(f"sphere radius must stay positive, got {r} at t={t}")
        return r

    def radius_rate(self, t: float) -> float:
        if self._radius_rate is not None:
            return float(self._radius_rate(float(t)))
        h = 1e-6
        return (self._radius(t + h) - self._radius(t - h)) / (2.0 * h)

    def patch_quadrature(self, t: float, level: int = 2):
        from .quadrature import sphere_chart

        return sphere_chart(self.center, self.radius(t), t=t, level=level)


class ExpressionFront(LevelSetFront):
    """Front parsed from a level-set expression in x1..xn, |x| and t."""

    def __init__(self, source: str, dim: int, char_length: float = 1.0):
        allowed = {"t", "x", "r"} | {f"x{k + 1}" for k in range(dim)}
        expr = parse_expression(source, allowed=allowed)
        self.expression: Expression = expr
        super().__init__(
            s=lambda x, t: expr.eval_point(x, t),
            dim=dim,
            char_length=char_length,
        )


def front_from_spec(spec: dict) -> LevelSetFront:
    """Build a front from its scenario-file description."""
    kind = spec.get("kind")
    if kind == "plane":
        offset = spec.get("offset", 0.0)
        if isinstance(offset, str):
            expr = parse_expression(offset, allowed={"t"})
            return MovingPlaneFront(spec["normal"], lambda t: expr(t=t))
        return MovingPlaneFront(spec["normal"], offset)
    if kind == "sphere":
        radius = spec["radius"]
        if isinstance(radius, str):
            expr = parse_expression(radius, allowed={"t"})
            radius = lambda t: expr(t=t)  # noqa: E731
        return MovingSphereFront(
            spec["center"], radius, orientation=spec.get("orientation", "outward")
        )
    if kind == "level_set_expr":
        return ExpressionFront(spec["expr"], int(spec["dim"]))
    raise InvalidParameterError(f"unknown front kind {kind!r}")
