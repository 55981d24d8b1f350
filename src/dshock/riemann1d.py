"""Riemann problems whose solution is a single mass-carrying front.

``solve_constant_states`` returns that solution, a ``DeltaShockSolution1D``
whose ``detail`` names the path taken, "constant-speed" or "atom-exact", and
whose ``rows`` evaluates that path: the rows (phi, e, u_delta) at a 1-D array
of times, all from one pass.

Zero-pressure systems cannot resolve overcompressive data (u_l > u_r) with
a classical shock: a bounded jump between the constant states balances mass
and momentum only when rho_l rho_r (u_l - u_r)^2 = 0. The admissible
solution instead concentrates mass on a moving point x = phi(t) carrying
surface mass e(t).

Orientation: the level set is S = x - phi(t), so the left state is the
"minus" side, nu = +1 and G = phidot = u_delta. Jumps are [g] = g_l - g_r.

For constant side states the front balance reduces to

    de/dt            = A - B u_delta,      A = [rho F],  B = [rho],
    d(e u_delta)/dt  = C - D u_delta,      C = [rho N],  D = [rho u],

so e du_delta/dt = P(u_delta) with P(u) = B u^2 - (A + D) u + C.

* e(0) = 0: the front moves at the root s of P between u_r and u_l, and
  e(t) = (A - B s) t. For the standard flux s is the density-weighted mean
  (sqrt(rho_l) u_l + sqrt(rho_r) u_r) / (sqrt(rho_l) + sqrt(rho_r)).
* e(0) = e0 > 0, for any flux: u_delta moves monotonically from u0 to the
  root s that attracts it (P'(s) < 0). In ell = log((u_delta - s)/(u0 - s))
  <= 0, with g = (A - B s)/P'(s), k = 1 + g, m = B (u0 + s) - (A + D),
  L = log1p(expm1(ell) B (u0 - s)/m) and z = ell - L,

      e - e0 = e0 expm1(g ell - k L),
      Y = X - s t = e0 (u0 - s) z exprel(k z) / P'(s),
      t = (e - e0 + B Y) / (A - B s) = (e0 m z exprel(g z) / P'(s) - B Y) / P'(s),

  where X = phi(t) - phi(0) and exprel(x) = expm1(x)/x. Each evaluation
  solves ell once for all its times by Newton's method, each time on its
  own stopping test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousRootError,
    InvalidParameterError,
    NoDeltaShockError,
)
from .fluxes import FluxModel, standard_flux
from .rh import jumps_1d
from .solutions import DeltaShockSolution1D

__all__ = [
    "RiemannData1D",
    "classical_shock_feasible",
    "admissible_front_speed",
    "solve_constant_states",
]


@dataclass(frozen=True)
class RiemannData1D:
    """Constant side states, an optional initial atom, and the flux model."""

    rho_l: float
    rho_r: float
    u_l: float
    u_r: float
    flux: FluxModel = None  # type: ignore[assignment]
    e0: float = 0.0
    u_delta0: float | None = None
    x0: float = 0.0

    def __post_init__(self):
        if self.flux is None:
            object.__setattr__(self, "flux", standard_flux(1))
        if self.flux.dim != 1:
            raise InvalidParameterError("riemann1d requires a 1-D flux model")
        values = (self.rho_l, self.rho_r, self.u_l, self.u_r, self.e0, self.x0)
        if self.u_delta0 is not None:
            values += (self.u_delta0,)
        if not all(map(math.isfinite, values)):
            raise InvalidParameterError("Riemann data must be finite")
        if self.rho_l < 0.0 or self.rho_r < 0.0:
            raise InvalidParameterError("densities must be nonnegative")
        if self.e0 < 0.0:
            raise InvalidParameterError("initial atom mass e0 must be nonnegative")
        if self.e0 > 0.0 and self.u_delta0 is None:
            raise InvalidParameterError("an initial atom needs an initial velocity u_delta0")


def classical_shock_feasible(d: RiemannData1D) -> bool:
    """Whether a classical (non-singular) shock can balance the data.

    For the standard flux this happens exactly when
    rho_l rho_r (u_l - u_r)^2 = 0 (to 1e-14): one side vacuous or no
    velocity jump.
    """
    if d.flux.name != "standard":
        raise InvalidParameterError("classical feasibility test applies to the standard flux")
    return abs(d.rho_l * d.rho_r * (d.u_l - d.u_r) ** 2) <= 1e-14


def _speed_roots(d: RiemannData1D) -> list[float]:
    """The real roots of the front-speed quadratic P(s) = B s^2 - (A+D) s + C."""
    # Jumps in units of a power of two near rho_l + rho_r, exact, so the roots
    # keep their bits and no square under- or overflows, whatever the units.
    unit = math.ldexp(1.0, -max(math.frexp(abs(d.rho_l) + abs(d.rho_r))[1], -1000))
    a_, b_, c_, d_ = (unit * jump for jump in jumps_1d(d))
    scale = unit * (abs(d.rho_l) + abs(d.rho_r))
    if abs(b_) <= 1e-13 * scale:
        lin = a_ + d_
        if abs(lin) <= 1e-13 * scale * (1.0 + abs(d.u_l) + abs(d.u_r)):
            raise NoDeltaShockError("data carry no jump; nothing concentrates")
        return [c_ / lin]
    bb = -(a_ + d_)
    disc = bb * bb - 4.0 * b_ * c_
    if disc < 0.0:
        raise NoDeltaShockError("front speed equation has no real root")
    sq = np.sqrt(disc)
    q = -0.5 * (bb + np.copysign(sq, bb)) if bb != 0.0 else 0.5 * sq
    return [0.0, 0.0] if q == 0.0 else [q / b_, c_ / q]


def admissible_front_speed(d: RiemannData1D) -> float:
    """Root of B s^2 - (A+D) s + C = 0 satisfying u_r < s < u_l (strict)."""
    admissible = sorted({r for r in _speed_roots(d) if d.u_r < r < d.u_l})
    if len(admissible) == 0:
        raise NoDeltaShockError(
            "no front speed satisfies the overcompression condition "
            f"u_r < s < u_l for u_l={d.u_l}, u_r={d.u_r}"
        )
    if len(admissible) > 1:
        raise AmbiguousRootError(f"both speeds {admissible} are overcompressive")
    return float(admissible[0])


# Each _path_* helper returns (rows, detail): the front's evaluator, from a
# 1-D array of times to the rows (phi, e, u_delta), and how it was found.
def _path_constant_speed(d: RiemannData1D, s: float) -> tuple:
    a_, b_, _, _ = jumps_1d(d)
    alpha = a_ - b_ * s
    if alpha < -1e-12 * (abs(a_) + abs(b_ * s) + 1.0):
        raise NoDeltaShockError("admissible speed would produce negative front mass")
    alpha = max(alpha, 0.0)

    def rows(t):
        return d.x0 + s * t, alpha * t, np.full(t.shape, s)

    return rows, {"kind": "constant-speed", "speed": s, "growth": alpha}


def _exprel(c, x):
    """c expm1(x) / x, and c at x = 0: as c expm1(x/2) (exp(x/2) + 1) / x, so
    that a small c brings a large exp(x) down before it overflows."""
    half = 0.5 * x
    return c * np.where(half == 0.0, 1.0, np.expm1(half) / half) * (0.5 * np.exp(half) + 0.5)


def _path_atom(d: RiemannData1D) -> tuple:
    # Masses and jumps in units of a power of two near rho_l + rho_r + e0
    # (exact), so no product overflows, whatever the unit of density.
    scale = math.ldexp(1.0, max(math.frexp(abs(d.rho_l) + abs(d.rho_r) + d.e0)[1], -1000))
    a_, b_, _, d_ = (jump / scale for jump in jumps_1d(d))
    e0, u0 = d.e0 / scale, float(d.u_delta0)
    # s attracts u0 where P'(s) < 0 and u0 lies on the near side of the other
    # root: m = P(u0) / (u0 - s) < 0.
    ahead = [r for r in _speed_roots(d) if max(2.0 * b_ * r, b_ * (u0 + r)) < a_ + d_]
    if len(ahead) != 1:
        raise NoDeltaShockError(f"no single front speed lies ahead of u_delta0={u0}")
    s = float(ahead[0])
    slope, m, grow = 2.0 * b_ * s - (a_ + d_), b_ * (u0 + s) - (a_ + d_), a_ - b_ * s
    g, w = grow / slope, b_ * (u0 - s) / m
    # The two forms of t cancel on different data: take the one that cancels less.
    cancels = (abs(a_ - b_ * u0) + abs(b_ * (u0 - s))) / abs(grow)
    first = cancels <= (abs(m) + abs(b_ * (u0 - s))) / abs(slope)

    def closed(ell):
        """(t, e - e0, Y = X - s t) at ell."""
        big_l = np.log1p(np.expm1(ell) * w)
        z, power = ell - big_l, g * ell - (1.0 + g) * big_l
        de, y = _exprel(e0 * power, power), _exprel(e0 * (u0 - s) * z / slope, (1.0 + g) * z)
        if first:
            return (de + b_ * y) / grow, de, y
        return (_exprel(e0 * m * z / slope, g * z) - b_ * y) / slope, de, y

    def solve(t):
        """ell with t(ell) = t at each finite t >= 0; nan at other t."""
        live = (0.0 < t) & (t < np.inf)
        target = np.where(live, t, 1.0)
        # First guess: t(ell) as if L = 0, exact to first order at t = 0 and
        # exponential in ell where the mass grows, as t(ell) is; where it
        # decays, the tangent at t = 0. In logs and clipped, it stays finite.
        grown = np.logaddexp(0.0, np.log(g * m / e0) + np.log(target)) / g
        lo = np.clip(np.fmax(m * target / e0, grown), -(2.0**1000), -1e-300)
        # Open a bracket [lo, hi] with t(hi) < t <= t(lo) by doubling ell,
        # with no floor: a slow front is not refused.
        hi, t_lo = np.zeros_like(t), closed(lo)[0]
        short = live & (t_lo < target)
        while short.any():
            t_was, hi, lo = t_lo, np.where(short, lo, hi), np.where(short, 2.0 * lo, lo)
            t_lo = np.where(short, closed(lo)[0], t_lo)
            if np.any(short & (t_lo <= t_was)):
                raise NoDeltaShockError("front mass vanishes before the requested time")
            short &= t_lo < target
        # Newton on log t in the bracket, from its end below t unless that is 0.
        # Each time stops on its own test, so the others asked do not move it.
        ell = np.where(live, np.where(hi < 0.0, hi, lo), np.where(t == 0.0, 0.0, np.nan))
        while live.any():
            t_at, de, _ = closed(ell)
            far = ~(t_at < target)
            lo, hi = np.where(live & far, ell, lo), np.where(live & ~far, ell, hi)
            rate = (e0 + de) / (slope + b_ * np.exp(ell) * (u0 - s))  # dt/dell
            new = ell - np.log(t_at / target) * (t_at / rate)
            done = np.abs(new - ell) <= 1e-10 * np.abs(ell)
            new = np.where(done | ((lo < new) & (new < hi)), new, 0.5 * (lo + hi))
            done |= (new == lo) | (new == hi)
            ell, live = np.where(live, new, ell), live & ~done
        return ell

    def rows(t):
        # X = Y + s t and e = e0 + (A - B s) t - B Y at the time asked: ell fixes
        # t to a few ulps (hundreds where t(ell) grows exponentially), Y barely
        # moves with ell. u never passes s, and is u0 itself at t = 0.
        ell = solve(t)
        y = closed(ell)[2]
        return (
            d.x0 + (y + s * t),
            (e0 + (grow * t - b_ * y)) * scale,
            np.where(ell == 0.0, u0, s + np.exp(ell) * (u0 - s)),
        )

    return rows, {"kind": "atom-exact", "e0": d.e0, "u_delta0": u0, "speed": s}


def solve_constant_states(
    d: RiemannData1D, t_end: float, support0: tuple[float, float] | None = None
) -> DeltaShockSolution1D:
    """The solution of ``d`` on 0 <= t <= t_end, truncated to ``support0`` if given.

    Raises if the data are not overcompressive, if no real front speed
    exists, or (defensively) if both speeds are admissible; for an atom, if
    no front speed attracts u_delta0 or its mass vanishes. The solution
    itself refuses a bad ``t_end`` or a front that leaves ``support0``.
    """
    if d.e0 == 0.0:
        rows, detail = _path_constant_speed(d, admissible_front_speed(d))
    elif not (d.u_r < float(d.u_delta0) < d.u_l):
        raise NoDeltaShockError(
            "initial atom velocity violates the overcompression condition "
            f"u_r < u_delta0 < u_l for u_delta0={d.u_delta0}"
        )
    else:
        rows, detail = _path_atom(d)
    return DeltaShockSolution1D(
        flux=d.flux, rho_l=d.rho_l, rho_r=d.rho_r, u_l=d.u_l, u_r=d.u_r,
        rows=rows, t_end=t_end, support0=support0, detail=detail,
    )

