"""Differential operators on and along a moving front.

For a quantity f defined near Gamma_t (a level-set extension), the
front-riding derivatives are

    delta f / delta t   = f_t + G df/dnu,
    delta f / delta x_j = df/dx_j - nu_j df/dnu,

and the tangential gradient is grad f - nu (nu . grad f). These values only
depend on f restricted to the space-time front, not on the extension; the
finite-difference versions below agree across extensions to truncation
order. The mean curvature convention is K = -(1/2) div nu, which makes
K = -(n-1)/(2R) on a sphere with outward normal.

``project_to_front``, ``normal``, ``normal_speed``, ``delta_shock_velocity``,
``mean_curvature`` and ``delta_derivative_time`` take a scalar time, or at
rows (m, dim) an (m,) array of times aligned with the rows, so that one call
covers many (time, node) pairs. The field ``f`` of ``delta_derivative_time``
then receives that array as its time. ``tangential_gradient`` and
``tangential_divergence`` take one point.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DegenerateGradientError, OffSurfaceError, StencilError
from .fronts import LevelSetFront

__all__ = [
    "project_to_front",
    "normal",
    "normal_speed",
    "delta_shock_velocity",
    "mean_curvature",
    "delta_derivative_time",
    "tangential_gradient",
    "tangential_divergence",
]

# 4th-order central first-derivative stencil.
_STENCIL_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_STENCIL_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


def _norm(v: np.ndarray):
    # Rounds like np.linalg.norm of one vector, for a vector or row by row.
    return np.sqrt(np.vecdot(v, v))


def _check_gradient(x: np.ndarray, bad) -> None:
    bad = np.atleast_1d(bad)
    if np.any(bad):
        where = np.atleast_2d(x)[np.argmax(bad)]
        raise DegenerateGradientError(f"level-set gradient vanishes near {where}")


def _scalar_if_point(values, x: np.ndarray):
    return float(values) if x.ndim < 2 else values


def _times_of(t, rows):
    """Times of the rows picked by a mask or an index; a scalar time serves all."""
    return t if np.ndim(t) == 0 else np.asarray(t)[rows]


def _raw_normal(front: LevelSetFront, x: np.ndarray, t) -> np.ndarray:
    g = front.grad(x, t)
    norm = _norm(g)
    _check_gradient(x, norm < 1e-12)
    return g / norm[..., None]


def project_to_front(front: LevelSetFront, x, t) -> np.ndarray:
    """Return x, projected once along grad S where it is only nearly on the front.

    x is one point (dim,) or rows of points (m, dim), and the result has
    the same shape; t is a scalar or, at rows, an (m,) array of row times.
    Points farther than one Newton step can recover are rejected.
    """
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    s = front.value(rows, t)
    tol = front.tol_on_surface
    off = np.abs(s) > tol
    if np.any(off):
        near, t_near = rows[off], _times_of(t, off)
        g = front.grad(near, t_near)
        gg = np.vecdot(g, g)
        _check_gradient(near, gg < 1e-24)
        x_proj = near - (s[off] / gg)[:, None] * g
        s_proj = front.value(x_proj, t_near)
        far = np.abs(s_proj) > tol
        if np.any(far):
            k = np.argmax(far)
            raise OffSurfaceError(
                f"point {near[k]} is off the front at t={_times_of(t_near, k)}: "
                f"|S|={abs(s_proj[k]):.3e} after projection"
            )
        rows = rows.copy()
        rows[off] = x_proj
    return rows[0] if x.ndim < 2 else rows


def normal(front: LevelSetFront, x, t) -> np.ndarray:
    """Unit normal nu = grad S / |grad S|, pointing from Omega^- to Omega^+.

    One point (dim,) gives one normal; rows (m, dim) give (m, dim) normals.
    """
    x = project_to_front(front, x, t)
    return _raw_normal(front, x, t)


def normal_speed(front: LevelSetFront, x, t):
    """Normal speed G = -S_t / |grad S| along nu: a float, or (m,) at rows."""
    x = project_to_front(front, x, t)
    norm = _norm(front.grad(x, t))
    _check_gradient(x, norm < 1e-12)
    return _scalar_if_point(-np.asarray(front.time_deriv(x, t)) / norm, x)


def delta_shock_velocity(front: LevelSetFront, x, t) -> np.ndarray:
    """Front velocity U_delta = G nu = -S_t grad S / |grad S|^2: (dim,) or (m, dim) at rows.

    Both formulas are evaluated from one gradient; with analytic gradients
    they must agree to 1e-12, which guards the sign conventions.
    """
    x = project_to_front(front, x, t)
    g = front.grad(x, t)
    gg = np.vecdot(g, g)
    _check_gradient(x, gg < 1e-24)
    minus_s_t = -np.asarray(front.time_deriv(x, t))[..., None]
    u_direct = minus_s_t * g / gg[..., None]
    norm = np.sqrt(gg)[..., None]
    u_gn = minus_s_t / norm * (g / norm)
    tol = 1e-12 if front.grad_mode == "analytic" else 1e-6
    if np.any(_norm(u_direct - u_gn) > tol * (1.0 + _norm(u_gn))):
        raise StencilError("normal-speed and level-set front velocities disagree")
    return u_direct


def mean_curvature(front: LevelSetFront, x, t):
    """Mean curvature K = -(1/2) div nu via 4th-order central differences.

    A float at one point (dim,), an (m,) array at rows (m, dim).
    """
    x = project_to_front(front, x, t)
    h = 1e-4 * front.char_length
    div = 0.0
    for j in range(front.dim):
        step = np.zeros(front.dim)
        step[j] = h
        acc = 0.0
        for off, w in zip(_STENCIL_OFFSETS, _STENCIL_WEIGHTS):
            acc += w * _raw_normal(front, x + off * step, t)[..., j]
        div += acc / h
    return _scalar_if_point(-0.5 * div, x)


def _scalar_grad(f, x: np.ndarray, t: float, h: float) -> np.ndarray:
    g = np.empty(x.size)
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        try:
            g[j] = (f(x + step, t) - f(x - step, t)) / (2.0 * h)
        except Exception as exc:  # noqa: BLE001
            raise StencilError(f"field evaluation failed near {x}") from exc
    return g


def delta_derivative_time(
    f: Callable[[np.ndarray, float], float],
    front: LevelSetFront,
    x,
    t,
    h_t: float = 1e-6,
):
    """Front-riding time derivative delta f / delta t = f_t + G df/dnu.

    f is any smooth extension of the surface quantity; the result is
    extension independent up to the stencil truncation order. f is called
    on points shaped like x: at one point (dim,) it returns a number, at
    rows (m, dim) it returns m values, and so does this function.
    """
    x = project_to_front(front, x, t)
    h_x = 1e-6 * front.char_length
    nu = _raw_normal(front, x, t)
    big_g = normal_speed(front, x, t)
    try:
        f_t = (f(x, t + h_t) - f(x, t - h_t)) / (2.0 * h_t)
        df_dnu = (f(x + h_x * nu, t) - f(x - h_x * nu, t)) / (2.0 * h_x)
    except Exception as exc:  # noqa: BLE001
        raise StencilError(f"field evaluation failed near {x}") from exc
    return f_t + big_g * df_dnu


def tangential_gradient(
    f: Callable[[np.ndarray, float], float],
    front: LevelSetFront,
    x,
    t: float,
) -> np.ndarray:
    """In-surface gradient grad f - nu (nu . grad f); orthogonal to nu."""
    x = project_to_front(front, x, t)
    h_x = 1e-6 * front.char_length
    nu = _raw_normal(front, x, t)
    g = _scalar_grad(f, x, t, h_x)
    return g - nu * float(nu @ g)


def tangential_divergence(
    A: Callable[[np.ndarray, float], np.ndarray],
    front: LevelSetFront,
    x,
    t: float,
) -> float:
    """Surface divergence sum_j (dA_j/dx_j - nu_j dA_j/dnu).

    Equals trace(J) - nu . (J nu) with J the Jacobian of the extension A.
    For A = nu this returns -2K, and for A = G nu it returns -2KG on fronts
    with tangentially constant speed.
    """
    x = project_to_front(front, x, t)
    h_x = 1e-6 * front.char_length
    nu = _raw_normal(front, x, t)
    dim = front.dim
    jac = np.empty((dim, dim))
    for k in range(dim):
        step = np.zeros(dim)
        step[k] = h_x
        try:
            a_plus = np.asarray(A(x + step, t), dtype=float)
            a_minus = np.asarray(A(x - step, t), dtype=float)
        except Exception as exc:  # noqa: BLE001
            raise StencilError(f"field evaluation failed near {x}") from exc
        jac[:, k] = (a_plus - a_minus) / (2.0 * h_x)
    return float(np.trace(jac) - nu @ (jac @ nu))
