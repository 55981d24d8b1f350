"""Complete 1-D solutions: a mass-carrying front between piecewise data.

Every front, this module's and ``spherical.SphericalTrajectory``, is read
through one evaluator: a function ``rows`` from a 1-D array of times to the
rows (phi, e, u_delta). ``_Front.at(t)`` evaluates it once and adds the total
front mass m; the ``phi``, ``e``, ``u_delta`` and ``m`` methods pick one of
the four. What derives from the front takes those values, not a time
(``deficits``, ``tangential_deficit`` and ``balance.audit``), so a caller
evaluates its time grid once and hands the rows on.

A solution bundles two constant side states, that evaluator, and an optional
compact support window whose edges ride along with the adjacent side
velocity. An edge moving at exactly the local particle speed against vacuum
is itself a weak discontinuity with no concentration, so truncating the data
this way keeps every integral identity exact while making totals finite.

Support law: ``support(t) -> (lo, hi)`` is ``geometry.fronts._window`` of the
edges (``support0`` entry, F(u) of its side), with a ``RadialField``'s contract.
Time-cut contract: ``time_cuts`` needs u_delta monotone in t, as on every
``riemann1d`` path and under ``time_reversed`` and ``with_front_speed_offset``.

``time_reversed`` produces the companion non-admissible weak solution used
to exercise entropy and energy checks: it solves the same equations (the
standard flux is odd in u and the momentum flux even) but expands a mass
atom back into smooth flow, so overcompression fails and the energy
functional changes sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, SupportViolationError
from .fluxes import FluxModel
from .geometry.fronts import _window
from .rh import FrontState, SideStates, jumps_1d

__all__ = [
    "DeltaShockSolution1D",
    "PlanarSolution",
    "time_reversed",
    "with_front_speed_offset",
]


def _bisect(f, lo, hi, rising):
    """Lower ends of the brackets [lo, hi], bisected to adjacent floats, in
    which f (of an array of times) changes sign: upwards where ``rising``."""
    while True:
        mid = lo + 0.5 * (hi - lo)  # lo + hi could overflow
        inner = (lo < mid) & (mid < hi)
        if not inner.any():
            return lo
        below = (f(mid) < 0.0) == rising
        lo, hi = np.where(inner & below, mid, lo), np.where(inner & ~below, mid, hi)


class _Front:
    """(phi, e, u_delta, m) of a front, all from one pass of its evaluator.

    A subclass supplies ``_evaluate``, which maps a 1-D array of times to the
    rows (phi, e, u_delta), and may override ``_mass(phi, e)``.
    """

    def _mass(self, phi, e):
        return e

    def at(self, t):
        """(phi, e, u_delta, m) at the times ``t``: floats at one time, arrays of t's shape."""
        t = np.asarray(t, dtype=float)
        phi, e, u_delta = self._evaluate(t.ravel())
        values = (phi, e, u_delta, self._mass(phi, e))
        if t.ndim == 0:
            return tuple(float(v[0]) for v in values)
        return tuple(v.reshape(t.shape) for v in values)

    def phi(self, t):
        return self.at(t)[0]

    def e(self, t):
        return self.at(t)[1]

    def u_delta(self, t):
        return self.at(t)[2]

    def m(self, t):
        """Total front mass: e |S^{n-1}| phi^{n-1} on a sphere, plain e in 1-D."""
        return self.at(t)[3]


@dataclass(frozen=True)
class DeltaShockSolution1D(_Front):
    """Piecewise-constant fields around a single front on 0 <= t <= t_end.

    ``solve_constant_states`` builds one from Riemann data; ``detail``
    names the path it took and takes no part in comparisons. ``rows`` is the
    front's evaluator; ``at``, ``phi``, ``e``, ``u_delta`` and ``m`` accept a
    time or an array of times.

    ``support0`` gives the initial truncation window (vacuum outside). A
    vacuum-contact edge is itself a jump, and its speed from the mass jump
    condition is the flux value F(u) of the adjacent state, so the edges
    move at F(u_l) and F(u_r) (which is u itself for the standard flux).
    Truncation is only consistent with the momentum equation when
    N(u) = u F(u) at the edge states; violating data is rejected.
    ``None`` means untruncated states.
    """

    flux: FluxModel
    rho_l: float
    rho_r: float
    u_l: float
    u_r: float
    rows: Callable
    t_end: float
    support0: tuple[float, float] | None = None
    detail: dict = field(default_factory=dict, compare=False)
    # The rows (phi, e, u_delta) at 0 and t_end, from the window scan.
    _ends: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.t_end < np.inf:
            raise InvalidParameterError(f"t_end must be positive and finite, got {self.t_end}")
        if min(self.rho_l, self.rho_r) < 0.0:
            raise InvalidParameterError("densities must be nonnegative")
        if self.support0 is not None:
            for u, rho in ((self.u_l, self.rho_l), (self.u_r, self.rho_r)):
                mismatch = abs(self.flux.n1(u) - u * self.flux.f1(u))
                if rho > 0.0 and mismatch > 1e-12 * (1.0 + abs(u)):
                    raise SupportViolationError(
                        "support truncation needs N(u) = u F(u) at the edge state; "
                        f"off by {mismatch} at u={u}"
                    )
        ts = np.linspace(0.0, self.t_end, 33)
        pos, e, u_delta, _ = self.at(ts)
        ends = tuple((float(pos[k]), float(e[k]), float(u_delta[k])) for k in (0, -1))
        object.__setattr__(self, "_ends", ends)
        lo, hi = self.support(ts)
        outside = ~((lo <= pos) & (pos <= hi))
        bad = np.flatnonzero(outside | (e < -1e-12))
        if bad.size:
            k = bad[0]
            if outside[k]:
                raise SupportViolationError(
                    f"front leaves the support window at t={ts[k]}: "
                    f"{lo[k]} .. {pos[k]} .. {hi[k]}"
                )
            raise SupportViolationError(f"front mass negative at t={ts[k]}")

    def _evaluate(self, t):
        # At extreme finite data a path overflows or divides by zero to inf or
        # nan, which the support check and the CLI writers refuse; numpy need
        # not warn about it first.
        with np.errstate(all="ignore"):
            return self.rows(t)

    @cached_property
    def edge_speed_l(self) -> float:
        return float(self.flux.f1(self.u_l))

    @cached_property
    def edge_speed_r(self) -> float:
        return float(self.flux.f1(self.u_r))

    @cached_property
    def support(self) -> Callable:
        """support(t) -> (lo, hi), by the support law above."""
        edges = None
        if self.support0 is not None:
            edges = zip(self.support0, (self.edge_speed_l, self.edge_speed_r))
        return _window(edges, lambda edge: edge)

    def time_cuts(self, levels, t_lo: float, t_hi: float) -> np.ndarray:
        """Sorted times in [t_lo, t_hi], ends included, at which the front or a
        support edge crosses one of the x ``levels`` (time-cut contract above):
        an edge's by one division, the front's by bisection on each side of its
        turn where end values change sign. The turn is not itself a cut."""
        levels = np.asarray(levels, dtype=float)
        knots = np.array([t_lo, t_hi])
        pos, _, ud, _ = self.at(knots)
        if ud.min() < 0.0 < ud.max():
            turn = _bisect(self.u_delta, knots[:1], knots[1:], ud[:1] < 0.0)
            knots, pos = np.insert(knots, 1, turn), np.insert(pos, 1, self.phi(turn))
        side = np.sign(pos[:, None] - levels)
        j, k = np.nonzero(side[:-1] * side[1:] < 0.0)  # piece j crosses level k
        front = _bisect(lambda t: self.phi(t) - levels[k], knots[j], knots[j + 1], side[j, k] < 0.0)
        cuts = {t_lo, t_hi, *front}
        if self.support0 is not None:
            with np.errstate(all="ignore"):
                edge = (levels[:, None] - self.support0) / [self.edge_speed_l, self.edge_speed_r]
            cuts.update(edge[(t_lo < edge) & (edge < t_hi)])
        return np.array(sorted(cuts))

    def deficits(self, u_delta):
        """(A - B u_delta, C - D u_delta) at front velocities ``u_delta``.

        The jumps are those of ``rh.jumps_1d``. Along an exact front, at the
        u_delta of ``at(t)``, these are the rates de/dt and d(e u_delta)/dt.
        """
        a_, b_, c_, d_ = jumps_1d(self)
        return a_ - b_ * u_delta, c_ - d_ * u_delta

    def breakpoints(self, t: float) -> list[float]:
        """Interior discontinuity locations at time t, sorted."""
        pts = [float(self.phi(t))]
        if self.support0 is not None:
            pts += self.support(t)
        return sorted(pts)

    def _piecewise(self, x, t, left, right):
        x = np.asarray(x, dtype=float)
        out = np.where(x < float(self.phi(t)), left, right)
        if self.support0 is not None:
            lo, hi = self.support(t)
            out = np.where((x >= lo) & (x <= hi), out, 0.0)
        return out if out.shape else float(out)

    def rho(self, x, t):
        return self._piecewise(x, t, self.rho_l, self.rho_r)

    def u(self, x, t):
        return self._piecewise(x, t, self.u_l, self.u_r)

    def spatial_bounds(self, pad: float = 0.2) -> tuple[float, float]:
        """A box containing the support (or the front) for all t <= t_end."""
        xs = [phi for phi, _, _ in self._ends]
        if self.support0 is not None:
            xs += [*self.support(0.0), *self.support(self.t_end)]
        lo, hi = min(xs), max(xs)
        width = max(hi - lo, 1.0)
        return lo - pad * width, hi + pad * width


def time_reversed(sol: DeltaShockSolution1D) -> DeltaShockSolution1D:
    """Run ``sol`` backwards from its end time T = t_end.

    The reversal map (x, t, u) -> (x, T - t, -u) preserves weak solutions
    whenever F(-u) = -F(u) and N(-u) = N(u), which holds for the standard
    flux. The result starts with the accumulated atom mass e(T) and sheds
    it, so it deliberately violates the overcompression condition.
    """
    T = sol.t_end
    ul, ur = sol.u_l, sol.u_r
    if abs(sol.flux.f1(-1.234) + sol.flux.f1(1.234)) > 1e-12 or abs(
        sol.flux.n1(-1.234) - sol.flux.n1(1.234)
    ) > 1e-12:
        raise InvalidParameterError("time reversal needs an odd F and even N")
    support0 = None if sol.support0 is None else sol.support(T)

    def rows(t):
        phi, e, u_delta = sol.rows(T - t)
        return phi, e, -u_delta

    return replace(sol, u_l=-ul, u_r=-ur, rows=rows, support0=support0)


@dataclass(frozen=True)
class PlanarSolution:
    """Piecewise-constant n-D states separated by a moving plane.

    The front carries all its momentum along the normal (the front
    velocity is G nu), so the normal dynamics are exactly the 1-D problem
    ``base`` posed in the coordinate s = nu . x, while any tangential
    velocity jump is a standing data constraint: the front cannot absorb
    tangential momentum, and the corresponding deficit is reported, not
    solved. A balance audit of ``base`` therefore checks the normal
    direction only: the bundled ``planar_2d`` passes it with a tangential
    deficit of 0.247, while its weak ``momentum_1`` residual stalls at
    1.1e-2. Standard flux only; a generalized flux couples the normal and
    tangential components and does not reduce.

    ``frame`` is orthonormal with rows (nu, tau_1, ..., tau_{n-1});
    ``u_tan_l/r`` hold the tangential velocity components of each side in
    the tau basis.
    """

    base: DeltaShockSolution1D
    frame: np.ndarray
    u_tan_l: np.ndarray
    u_tan_r: np.ndarray

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=float)
        if frame.ndim != 2 or frame.shape[0] != frame.shape[1]:
            raise InvalidParameterError("frame must be a square matrix of basis rows")
        if not np.allclose(frame @ frame.T, np.eye(frame.shape[0]), atol=1e-12):
            raise InvalidParameterError("frame rows must be orthonormal")
        if self.base.flux.name != "standard":
            raise InvalidParameterError("planar reduction requires the standard flux")
        n = frame.shape[0]
        for name in ("u_tan_l", "u_tan_r"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (n - 1,):
                raise InvalidParameterError(f"{name} must have {n - 1} components")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "frame", frame)

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @property
    def nu(self) -> np.ndarray:
        return self.frame[0]

    def U_side(self, side: str) -> np.ndarray:
        if side == "l":
            un, ut = self.base.u_l, self.u_tan_l
        else:
            un, ut = self.base.u_r, self.u_tan_r
        return un * self.frame[0] + ut @ self.frame[1:]

    def side_states(self, t: float):
        return SideStates(self.base.rho_l, self.base.rho_r, self.U_side("l"), self.U_side("r"))

    def front_state(self, t: float):
        _, e, u_delta, _ = self.base.at(t)
        return FrontState(e=e, nu=self.frame[0], G=u_delta, K=0.0)

    def tangential_deficit(self, u_delta) -> np.ndarray:
        """[rho U_tan (U . nu)] - [rho U_tan] G per tangential direction, at G = ``u_delta``.

        A scalar u_delta gives shape (n-1,), an array of m values (m, n-1).
        Nonzero values mean the data pump tangential momentum into a front
        that cannot carry it; the weak momentum identities then fail by
        exactly this amount.
        """
        b = self.base
        g = np.asarray(u_delta, dtype=float)[..., None]
        jm = b.rho_l * self.u_tan_l * b.u_l - b.rho_r * self.u_tan_r * b.u_r
        jd = b.rho_l * self.u_tan_l - b.rho_r * self.u_tan_r
        return jm - jd * g

    def rotated(self, R: np.ndarray) -> "PlanarSolution":
        R = np.asarray(R, dtype=float)
        if not np.allclose(R @ R.T, np.eye(self.dim), atol=1e-12):
            raise InvalidParameterError("rotation matrix must be orthogonal")
        return PlanarSolution(
            base=self.base, frame=self.frame @ R.T, u_tan_l=self.u_tan_l, u_tan_r=self.u_tan_r
        )


def with_front_speed_offset(sol: DeltaShockSolution1D, du: float) -> DeltaShockSolution1D:
    """Shift the front speed by ``du`` (and the path by ``du * t``).

    The result is not a weak solution; it exists so that residual checks
    can demonstrate sensitivity to a wrong front trajectory.
    """

    def rows(t):
        phi, e, u_delta = sol.rows(t)
        return phi + du * t, e, u_delta + du

    return replace(sol, rows=rows)
