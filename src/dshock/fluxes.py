"""Flux models for generalized pressureless conservation systems.

A flux model supplies the pair (F, N) in

    d/dt rho     + div(rho F(U)) = 0,
    d/dt (rho U) + div(rho N(U)) = 0,

with F vector valued and N matrix valued. The standard model F(U) = U,
N(U) = U (x) U gives zero-pressure gas dynamics; the relativistic model
replaces particle velocity by the bounded speed C(U) = c0 U / sqrt(c0^2 + |U|^2).

Both built-ins satisfy the rank-one identity N(U) nu = U (F(U) . nu), which
downstream jump algebra relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidDimensionError, InvalidParameterError

__all__ = ["FluxModel", "standard_flux", "relativistic_flux", "tabulated_flux"]


def _check_vector(U: np.ndarray, dim: int) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.shape != (dim,):
        raise InvalidParameterError(f"velocity must have shape ({dim},), got {U.shape}")
    if not np.all(np.isfinite(U)):
        raise InvalidParameterError("velocity contains non-finite entries")
    return U


@dataclass(frozen=True)
class FluxModel:
    """Pair of flux maps (F, N) for a fixed spatial dimension."""

    name: str
    dim: int
    _F: Callable[[np.ndarray], np.ndarray]
    _N: Callable[[np.ndarray], np.ndarray]

    def F(self, U) -> np.ndarray:
        """Mass flux velocity F(U), shape (dim,)."""
        U = _check_vector(U, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            out = np.asarray(self._F(U), dtype=float)
        if not np.all(np.isfinite(out)):
            raise InvalidParameterError("flux evaluation produced non-finite values")
        return out

    def N(self, U) -> np.ndarray:
        """Momentum flux tensor N(U), shape (dim, dim)."""
        U = _check_vector(U, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            out = np.asarray(self._N(U), dtype=float)
        if not np.all(np.isfinite(out)):
            raise InvalidParameterError("flux evaluation produced non-finite values")
        return out

    # Scalar fast paths for 1-D solvers.
    def f1(self, u: float) -> float:
        """F as a scalar function of a scalar velocity (dim 1 only)."""
        if self.dim != 1:
            raise InvalidDimensionError("scalar flux path requires dim == 1")
        return float(self.F(np.array([u]))[0])

    def n1(self, u: float) -> float:
        """N as a scalar function of a scalar velocity (dim 1 only)."""
        if self.dim != 1:
            raise InvalidDimensionError("scalar flux path requires dim == 1")
        return float(self.N(np.array([u]))[0, 0])


def standard_flux(dim: int) -> FluxModel:
    """Zero-pressure gas dynamics: F(U) = U, N(U) = U (x) U."""
    if dim < 1:
        raise InvalidDimensionError("dim must be >= 1")
    return FluxModel("standard", dim, lambda U: U, lambda U: np.outer(U, U))


def relativistic_flux(dim: int, c0: float) -> FluxModel:
    """Bounded-speed model with light speed c0 > 0.

    C(U) = c0 U / sqrt(c0^2 + |U|^2), F = C(U), N = U (x) C(U). The transport
    speed satisfies |C(U)| < c0 for all finite U and C(U) -> U as c0 -> inf
    with |C(U) - U| <= |U|^3 / (2 c0^2).
    """
    if dim < 1:
        raise InvalidDimensionError("dim must be >= 1")
    c0 = float(c0)
    if not (np.isfinite(c0) and c0 > 0.0):
        raise InvalidParameterError("c0 must be a positive real")

    def C(U: np.ndarray) -> np.ndarray:
        return c0 * U / np.sqrt(c0 * c0 + float(U @ U))

    return FluxModel("relativistic", dim, C, lambda U: np.outer(U, C(U)))


def tabulated_flux(u_nodes, f_values, n_values) -> FluxModel:
    """User-supplied 1-D flux pair sampled on a velocity grid.

    Values are interpolated with a monotone cubic (PCHIP), so tabulating a
    monotone F yields a monotone model. Evaluation outside the table range
    is rejected rather than extrapolated.
    """
    from scipy.interpolate import PchipInterpolator

    u_nodes = np.asarray(u_nodes, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    n_values = np.asarray(n_values, dtype=float)
    if u_nodes.ndim != 1 or u_nodes.size < 4:
        raise InvalidParameterError("need at least 4 velocity nodes")
    if np.any(np.diff(u_nodes) <= 0):
        raise InvalidParameterError("velocity nodes must be strictly increasing")
    if f_values.shape != u_nodes.shape or n_values.shape != u_nodes.shape:
        raise InvalidParameterError("table shapes do not match the velocity nodes")
    for arr in (u_nodes, f_values, n_values):
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("table contains non-finite entries")

    f_interp = PchipInterpolator(u_nodes, f_values, extrapolate=False)
    n_interp = PchipInterpolator(u_nodes, n_values, extrapolate=False)
    lo, hi = float(u_nodes[0]), float(u_nodes[-1])

    def F(U: np.ndarray) -> np.ndarray:
        u = float(U[0])
        if not (lo <= u <= hi):
            raise InvalidParameterError(f"velocity {u} outside table range [{lo}, {hi}]")
        return np.array([float(f_interp(u))])

    def N(U: np.ndarray) -> np.ndarray:
        u = float(U[0])
        if not (lo <= u <= hi):
            raise InvalidParameterError(f"velocity {u} outside table range [{lo}, {hi}]")
        return np.array([[float(n_interp(u))]])

    return FluxModel("tabulated", 1, F, N)
