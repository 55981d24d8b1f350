"""Jump conditions across a mass-carrying front.

States on the two sides of the front are labeled by the level-set sign:
"minus" lives in Omega^- = {S < 0}, "plus" in Omega^+ = {S > 0}, and the
jump bracket is [g] = g_minus - g_plus. With the front normal nu, speed G
and surface mass density e, the front must balance

    de/dt          - 2 K G e          = ([rho F(U)] - [rho] U_delta) . nu,
    d(e U_delta)/dt - 2 K G e U_delta = ([rho N(U)] - [rho U] U_delta) . nu,

where d/dt is the front-riding derivative and K the mean curvature. The
right-hand sides are the "deficits": the mass and momentum flux that the
regular fields fail to balance and the front has to absorb.

The admissibility (overcompression) condition is

    U_plus . nu  <  U_delta . nu  <  U_minus . nu,

i.e. both sides feed the front.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .fluxes import FluxModel

__all__ = ["SideStates", "FrontState", "RHDeficit", "deficits", "rh_residual", "entropy_ok"]


def _vec(v, dim: int, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (dim,):
        raise InvalidParameterError(f"{name} must have shape ({dim},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class SideStates:
    """Density and velocity on both sides of the front."""

    rho_minus: float
    rho_plus: float
    U_minus: np.ndarray
    U_plus: np.ndarray

    def __post_init__(self):
        if self.rho_minus < 0.0 or self.rho_plus < 0.0:
            raise InvalidParameterError("densities must be nonnegative")
        dim = np.atleast_1d(np.asarray(self.U_minus)).size
        object.__setattr__(self, "U_minus", _vec(self.U_minus, dim, "U_minus"))
        object.__setattr__(self, "U_plus", _vec(self.U_plus, dim, "U_plus"))

    @property
    def dim(self) -> int:
        return self.U_minus.size

    def swapped(self) -> "SideStates":
        """States with the side values exchanged (different physical data)."""
        return SideStates(self.rho_plus, self.rho_minus, self.U_plus.copy(), self.U_minus.copy())


@dataclass(frozen=True)
class FrontState:
    """Surface mass density and kinematics of the front at one point.

    U_delta is always G * nu; passing an inconsistent velocity raises.
    """

    e: float
    nu: np.ndarray
    G: float
    K: float = 0.0
    U_delta: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        dim = np.atleast_1d(np.asarray(self.nu)).size
        nu = _vec(self.nu, dim, "nu")
        if abs(float(np.linalg.norm(nu)) - 1.0) > 1e-12:
            raise InvalidParameterError("nu must be a unit vector")
        object.__setattr__(self, "nu", nu)
        if self.e < 0.0:
            raise InvalidParameterError("surface mass density e must be nonnegative")
        u_delta = self.G * nu
        if self.U_delta is not None:
            given = _vec(self.U_delta, dim, "U_delta")
            if float(np.linalg.norm(given - u_delta)) > 1e-12 * (1.0 + abs(self.G)):
                raise InvalidParameterError("U_delta must equal G * nu")
        object.__setattr__(self, "U_delta", u_delta)

    @property
    def dim(self) -> int:
        return self.nu.size

    def relabeled(self) -> "FrontState":
        """Same physical front with the level-set orientation flipped."""
        return FrontState(e=self.e, nu=-self.nu, G=-self.G, K=-self.K)


@dataclass(frozen=True)
class RHDeficit:
    """Mass and momentum flux the front must absorb per unit area."""

    mass: float
    momentum: np.ndarray

    @property
    def dim(self) -> int:
        return self.momentum.size


def deficits(flux: FluxModel, s: SideStates, f: FrontState) -> RHDeficit:
    """Right-hand sides of the front balance: ([rho F] - [rho] U_delta) . nu
    and ([rho N] - [rho U] U_delta) . nu."""
    if s.dim != f.dim or flux.dim != s.dim:
        raise InvalidParameterError("flux, states and front dimensions disagree")
    jump_rho_f = s.rho_minus * flux.F(s.U_minus) - s.rho_plus * flux.F(s.U_plus)
    jump_rho = s.rho_minus - s.rho_plus
    mass = float(jump_rho_f @ f.nu) - jump_rho * f.G

    jump_rho_n = s.rho_minus * flux.N(s.U_minus) - s.rho_plus * flux.N(s.U_plus)
    jump_rho_u = s.rho_minus * s.U_minus - s.rho_plus * s.U_plus
    momentum = jump_rho_n @ f.nu - jump_rho_u * f.G
    return RHDeficit(mass, momentum)


def jumps_1d(d) -> tuple[float, float, float, float]:
    """(A, B, C, D) = ([rho F], [rho], [rho N], [rho u]) of 1-D data ``d``.

    ``d`` has a 1-D ``flux``, the minus side ``rho_l``, ``u_l`` and the plus
    side ``rho_r``, ``u_r``. The deficits are A - B u_delta and C - D u_delta.
    """
    fl, fr = d.flux.f1(d.u_l), d.flux.f1(d.u_r)
    nl, nr = d.flux.n1(d.u_l), d.flux.n1(d.u_r)
    return (
        d.rho_l * fl - d.rho_r * fr,
        d.rho_l - d.rho_r,
        d.rho_l * nl - d.rho_r * nr,
        d.rho_l * d.u_l - d.rho_r * d.u_r,
    )


def rh_residual(
    flux: FluxModel,
    s: SideStates,
    f: FrontState,
    de_dt: float,
    deU_dt,
) -> tuple[float, np.ndarray]:
    """Residual of the two front balance laws for given front rates.

    ``de_dt`` is the front-riding rate of e, ``deU_dt`` that of e U_delta.
    A consistent front state returns (0, 0-vector) to machine precision.
    The momentum residual is a full vector; its tangential part is reported,
    not solved for, since U_delta is constrained to the normal line.
    """
    d = deficits(flux, s, f)
    deU_dt = _vec(deU_dt, f.dim, "deU_dt")
    curvature_pull = 2.0 * f.K * f.G * f.e
    res_mass = de_dt - curvature_pull - d.mass
    res_mom = deU_dt - curvature_pull * f.U_delta - d.momentum
    return float(res_mass), res_mom


def entropy_ok(s: SideStates, f: FrontState, strict: bool = True) -> bool:
    """Overcompression condition U_plus . nu < U_delta . nu < U_minus . nu.

    Only velocities enter; vacuum sides still carry a velocity field. With
    ``strict=False`` the inequalities are non-strict.
    """
    a_minus = float(s.U_minus @ f.nu)
    a_plus = float(s.U_plus @ f.nu)
    a_front = float(f.U_delta @ f.nu)
    if strict:
        return a_plus < a_front < a_minus
    return a_plus <= a_front <= a_minus
