"""Level-set descriptions of moving fronts.

Orientation conventions used everywhere in this package:

* the front at time t is Gamma_t = {x : S(x, t) = 0},
* Omega^- = {S < 0} and Omega^+ = {S > 0},
* the unit normal nu = grad S / |grad S| points from Omega^- into Omega^+,
* the normal speed is G = -S_t / |grad S|, so the front velocity along the
  normal is U_delta = G nu.

A positive G moves the front toward Omega^+.

Each front with a chart builds it once, in ``moving_chart(level)``, and
moves it with the front; ``patch_quadrature(t, level)`` is that chart at
one time. Offsets and radii follow one time law (see ``_time_law``).
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
from .quadrature import _tangent_basis

__all__ = [
    "LevelSetFront",
    "MovingPlaneFront",
    "MovingSphereFront",
]

# Relative central-difference step for fronts without analytic derivatives.
_FD_STEP = 1e-6

_NO_CHART = "this front has no chart-based quadrature; use a plane or sphere front"


def _number(value) -> float:
    """float(value); a value that is not a number raises InvalidParameterError."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"expected a number, got {value!r}") from None


def _time_law(law, rate=None):
    """(f, f') for a time law: a number, an (f0, speed) pair, or a callable of t.

    A callable without ``rate`` gets the central difference of step 1e-6
    as its rate. A number or pair entry that is not a number, NaN included,
    raises ``InvalidParameterError``.
    """
    if callable(law):
        if rate is None:

            def rate(t):
                return (law(t + _FD_STEP) - law(t - _FD_STEP)) / (2.0 * _FD_STEP)

        return law, rate
    f0, speed = (_number(law), 0.0) if np.ndim(law) == 0 else (_number(law[0]), _number(law[1]))
    if np.isnan(f0) or np.isnan(speed):
        raise InvalidParameterError(f"expected a number, got {law!r}")
    return (lambda t: f0 + speed * t), (lambda t: speed)


def _row_times(t, rows: np.ndarray):
    """t as a float, or as an (m,) array aligned with the (m, dim) rows."""
    if np.ndim(t) == 0:
        return float(t)
    t = np.asarray(t, dtype=float)
    if t.shape != rows.shape[:1]:
        raise InvalidParameterError(
            f"need one time per row: got times {t.shape} for rows {rows.shape}"
        )
    return t


def _of_time(fn, t):
    """fn at a scalar time (a float) or at an array of times (same shape)."""
    if np.ndim(t) == 0:
        return float(fn(float(t)))
    t = np.asarray(t, dtype=float)
    return np.broadcast_to(np.asarray(fn(t), dtype=float), t.shape)


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


def _point_or_rows(rows_fn, x, t):
    """Evaluate ``rows_fn`` on (m, dim) rows; a (dim,) point is one row."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    out = rows_fn(rows, _row_times(t, rows))
    if x.ndim > 1:
        return out
    return out[0] if out.ndim > 1 else float(out[0])


class LevelSetFront:
    """Front given by a scalar level-set function S(x, t).

    ``value``, ``grad`` and ``time_deriv`` take one point of shape (dim,)
    or rows of points of shape (m, dim); a point is the one-row case. The
    time ``t`` is a scalar, or at rows an (m,) array that gives each row its
    own time. This class maps its pointwise callable over the rows, with
    each row's time, and takes the gradient and time derivative by central
    differences with step ``1e-6 * char_length`` (grad_mode
    "central-difference"), which costs two orders of accuracy in curvature
    queries. Subclasses that evaluate whole rows override ``_value_rows``,
    and those with closed forms also ``_grad_rows`` and
    ``_time_deriv_rows``; their offset and radius callables then receive
    the (m,) time array.

    Parameters
    ----------
    s : callable or None
        S(x, t) with x a shape (dim,) array; None in subclasses that
        override the row methods.
    dim : int
        Ambient dimension n >= 1.
    char_length : float
        Characteristic length used to scale tolerances and steps.
    """

    def __init__(
        self,
        s: Callable[[np.ndarray, float], float] | None,
        dim: int,
        char_length: float = 1.0,
    ):
        if dim < 1:
            raise InvalidDimensionError("dim must be >= 1")
        if char_length <= 0:
            raise InvalidParameterError("char_length must be positive")
        self._s = s
        self.dim = int(dim)
        self.char_length = float(char_length)
        self.grad_mode = "central-difference"

    # Basic evaluations -----------------------------------------------------

    def value(self, x, t):
        """S at a point (float) or at (m, dim) rows ((m,) array)."""
        return _point_or_rows(self._value_rows, x, t)

    def grad(self, x, t) -> np.ndarray:
        """grad S at a point ((dim,) array) or at (m, dim) rows."""
        return _point_or_rows(self._grad_rows, x, t)

    def time_deriv(self, x, t):
        """S_t at a point (float) or at (m, dim) rows ((m,) array)."""
        return _point_or_rows(self._time_deriv_rows, x, t)

    def _value_rows(self, x: np.ndarray, t) -> np.ndarray:
        out = np.empty(x.shape[0])
        for k, (row, tk) in enumerate(zip(x, map(float, np.broadcast_to(t, x.shape[:1])))):
            try:
                out[k] = self._s(row, tk)
            except Exception as exc:  # noqa: BLE001
                raise StencilError(f"level-set evaluation failed at {row}, t={tk}") from exc
        return out

    def _grad_rows(self, x: np.ndarray, t) -> np.ndarray:
        h = _FD_STEP * self.char_length
        g = np.empty(x.shape)
        for j in range(self.dim):
            step = np.zeros(self.dim)
            step[j] = h
            g[:, j] = (self._value_rows(x + step, t) - self._value_rows(x - step, t)) / (2.0 * h)
        return g

    def _time_deriv_rows(self, x: np.ndarray, t) -> np.ndarray:
        h = _FD_STEP
        return (self._value_rows(x, t + h) - self._value_rows(x, t - h)) / (2.0 * h)

    @property
    def tol_on_surface(self) -> float:
        return 1e-9 * self.char_length

    # Optional chart support -------------------------------------------------

    def moving_chart(self, level: int = 2):
        """(m, at): the chart's node count m and its nodes at any time.

        The chart is built once and moved with the front. ``at(t)`` gives
        (m, dim) nodes and (m,) weights at a scalar time, and (k, m, dim)
        nodes and (k, m) weights at an array of k times.
        """
        raise InvalidParameterError(_NO_CHART)

    def patch_quadrature(self, t: float, level: int = 2):
        """The moving chart at one time, as a surface patch quadrature."""
        from .quadrature import SurfacePatchQuadrature

        t = float(t)
        _, at = self.moving_chart(level)
        return SurfacePatchQuadrature(*at(t), t)


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
    ):
        normal = np.asarray(normal, dtype=float)
        dim = normal.size
        nrm = np.linalg.norm(normal)
        if nrm == 0.0:
            raise InvalidParameterError("plane normal must be nonzero")
        self.normal_vector = normal / nrm

        self._offset, self._offset_rate = _time_law(offset, offset_rate)
        super().__init__(s=None, dim=dim)
        self.grad_mode = "analytic"
        self.window_center = (
            np.zeros(dim) if window_center is None else np.asarray(window_center, float)
        )
        self.window_half_width = float(window_half_width)
        # Orthonormal tangential basis, columns of shape (dim, dim-1).
        self.tangent_basis = _tangent_basis(self.normal_vector)

    def _value_rows(self, x: np.ndarray, t) -> np.ndarray:
        return np.vecdot(x, self.normal_vector) - self._offset(t)

    def _grad_rows(self, x: np.ndarray, t) -> np.ndarray:
        return np.tile(self.normal_vector, (x.shape[0], 1))

    def _time_deriv_rows(self, x: np.ndarray, t) -> np.ndarray:
        return -np.broadcast_to(self.offset_rate(t), x.shape[:1])

    def offset(self, t):
        """Offset at a time (float) or at an array of times (array)."""
        return _of_time(self._offset, t)

    def offset_rate(self, t):
        return _of_time(self._offset_rate, t)

    def point_on(self, t) -> np.ndarray:
        """Front point nearest the window center: (dim,), or (k, dim) at k times."""
        c = self.window_center
        shift = np.asarray(self.offset(t)) - float(self.normal_vector @ c)
        return c + shift[..., None] * self.normal_vector

    def moving_chart(self, level: int = 2):
        """One tangential grid, translated to ``point_on`` at each time."""
        from .quadrature import plane_chart

        grid = plane_chart(
            point=np.zeros(self.dim),
            normal=self.normal_vector,
            half_widths=np.full(self.dim - 1, self.window_half_width),
            level=level,
            tangent_basis=self.tangent_basis,
        )

        def at(t):
            nodes = np.expand_dims(self.point_on(t), -2) + grid.nodes
            return nodes, np.broadcast_to(grid.weights, nodes.shape[:-1])

        return grid.weights.size, at


class MovingSphereFront(LevelSetFront):
    """Sphere |x - center| = R(t).

    ``radius`` may be a float (static), an (R0, speed) pair, or a callable
    of t (then ``radius_rate`` supplies its derivative, or a central
    difference is used).

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
        self._radius, self._radius_rate = _time_law(radius, radius_rate)
        self._sign = 1.0 if orientation == "outward" else -1.0
        super().__init__(s=None, dim=dim, char_length=max(self.radius(0.0), 1e-6))
        self.grad_mode = "analytic"

    def _value_rows(self, x: np.ndarray, t) -> np.ndarray:
        d = x - self.center
        return self._sign * (np.sqrt(np.vecdot(d, d)) - self._radius(t))

    def _grad_rows(self, x: np.ndarray, t) -> np.ndarray:
        d = x - self.center
        r = np.sqrt(np.vecdot(d, d))
        if np.any(r == 0.0):
            raise DegenerateGradientError("sphere level set is singular at the center")
        return self._sign * d / r[:, None]

    def _time_deriv_rows(self, x: np.ndarray, t) -> np.ndarray:
        return -self._sign * np.broadcast_to(self.radius_rate(t), x.shape[:1])

    def radius(self, t):
        """R at a time (float) or at an array of times (array); R must be positive."""
        r = _of_time(self._radius, t)
        if np.any(r <= 0.0):
            k = np.argmin(r)
            raise InvalidParameterError(
                f"sphere radius must stay positive, got {np.ravel(r)[k]} at t={np.ravel(t)[k]}"
            )
        return r

    def radius_rate(self, t):
        return _of_time(self._radius_rate, t)

    def moving_chart(self, level: int = 2):
        """The unit-sphere chart, scaled by R(t) about the center at each time."""
        from .quadrature import _unit_sphere_chart

        unit = _unit_sphere_chart(self.dim, level)

        def at(t):
            r = self.radius(t)
            weights = unit.weights * np.expand_dims(r ** (self.dim - 1), -1)
            return self.center + np.expand_dims(r, (-1, -2)) * unit.nodes, weights

        return unit.weights.size, at

