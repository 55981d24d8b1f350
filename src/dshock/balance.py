"""Global functionals and conservation/monotonicity audits.

For a solution supported in an audit box, the bulk and front functionals

    M = int rho_hat dx,        m = int e dmu,
    P = int rho_hat u dx,      p = int e u_delta dmu,
    W = 1/2 int rho_hat u^2,   w = 1/2 int e u_delta^2 dmu,

satisfy M + m = const and P + p = const, m is strictly increasing while
the overcompression condition holds strictly, and both W and W + w are
nonincreasing. ``audit`` samples the functionals over time and reports
drifts, central-difference rates, and entropy flags; it refuses to run
when the support touches the audit boundary, because the theorems assume
compact support strictly inside.

The audits here are closed-form for piecewise-constant 1-D solutions and
quadrature-based for spherical trajectories (where P and p vanish by
symmetry and the radial weight is |S^{n-1}| r^{n-1}). Both read the front
from one evaluation on all sample times, the caller's if it passes one; the
spherical audit hands the side fields (r, t) arrays, with one Gauss rule per
sample. A spherical field whose support reaches an annulus edge carries mass
across it; the report's ``boundary`` column accumulates that net inflow, so
M + m - boundary is the conserved total for any annulus. The 1-D audit
requires the support strictly inside its box, so its boundary column is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AuditInvalidError, InvalidParameterError, NonFiniteOutputError
from .geometry.quadrature import gauss_panels
from .rh import FrontState, SideStates
from .solutions import DeltaShockSolution1D
from .spherical import SphericalTrajectory, _side, radial_moment_integral, unit_sphere_area
from .weakcheck import _ladder, _pairs_1d, make_battery

__all__ = [
    "BalanceReport",
    "audit",
    "energy_dissipation_rate",
    "EnergyInequalityReport",
    "check_energy_inequality_1d",
]


@dataclass(frozen=True)
class BalanceReport:
    """Sampled functionals plus derived conservation/monotonicity data.

    ``closed_form`` tags whether the sampling is exact (piecewise-constant
    1-D) or quadrature/ODE based, which selects the documented tolerance
    class (1e-8 vs 1e-6 relative). ``boundary`` is the cumulative net mass
    that has entered through the audit edges since the first sample.
    """

    t: np.ndarray
    M: np.ndarray
    m: np.ndarray
    boundary: np.ndarray
    P: np.ndarray
    p: np.ndarray
    W: np.ndarray
    w: np.ndarray
    entropy_strict: np.ndarray
    closed_form: bool

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise InvalidParameterError("sample times must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.P.shape[1]

    @property
    def sum_mass(self) -> np.ndarray:
        return self.M + self.m

    @property
    def sum_momentum(self) -> np.ndarray:
        return self.P + self.p

    @property
    def sum_energy(self) -> np.ndarray:
        return self.W + self.w

    @property
    def mdot(self) -> np.ndarray:
        return np.gradient(self.m, self.t)

    @property
    def mass_drift(self) -> float:
        scale = abs(self.sum_mass[0]) + 1e-300
        return float(np.max(np.abs(self.sum_mass - self.sum_mass[0])) / scale)

    @property
    def momentum_drift(self) -> float:
        scale = abs(self.sum_mass[0]) + 1e-300
        return float(np.max(np.abs(self.sum_momentum - self.sum_momentum[0])) / scale)

    def mass_conserved(self, tol: float | None = None) -> bool:
        tol = (1e-8 if self.closed_form else 1e-6) if tol is None else tol
        return self.mass_drift <= tol

    def momentum_conserved(self, tol: float | None = None) -> bool:
        tol = (1e-8 if self.closed_form else 1e-6) if tol is None else tol
        return self.momentum_drift <= tol

    def concentration_holds(self) -> bool:
        """mdot > 0 wherever the strict entropy flag is set."""
        md = self.mdot
        return bool(np.all(md[self.entropy_strict] > 0.0))

    def energy_monotone(self, tol: float | None = None) -> bool:
        tol = (1e-9 if self.closed_form else 1e-6) if tol is None else tol
        # The slack scales with the energy itself, as W and w do with density.
        scale = float(np.max(np.abs(self.sum_energy)))
        ok_total = np.all(np.diff(self.sum_energy) <= tol * scale)
        ok_bulk = np.all(np.diff(self.W) <= tol * scale)
        return bool(ok_total and ok_bulk)

    def columns(self):
        """Pinned CSV layout: names and a matching 2-D float array."""
        n = self.dim
        names = (
            ["t", "M", "m"]
            + [f"P_{k + 1}" for k in range(n)]
            + [f"p_{k + 1}" for k in range(n)]
            + ["W", "w", "sum_mass"]
            + [f"sum_mom_{k + 1}" for k in range(n)]
            + ["sum_energy", "mdot", "entropy_strict"]
        )
        data = np.column_stack(
            [
                self.t,
                self.M,
                self.m,
                self.P,
                self.p,
                self.W,
                self.w,
                self.sum_mass,
                self.sum_momentum,
                self.sum_energy,
                self.mdot,
                self.entropy_strict.astype(float),
            ]
        )
        return names, data


def audit(solution, times=None, *, box=None, front=None) -> BalanceReport:
    """Balance audit of a 1-D solution or a spherical trajectory over ``box``.

    A ``box`` given is an interval (a, b), finite and increasing. For a 1-D
    solution it is the audit box, by default 1.2x the support bounding box,
    and the compact support must stay strictly inside it. For a spherical trajectory
    it is the annulus a <= r <= b, which is required and must contain the
    supports of the side fields the trajectory carries. ``front`` is
    ``solution.at(times)`` from a caller that has it; without it the audit
    evaluates the front once itself.
    """
    if box is not None:
        box = _domain(box)
    if isinstance(solution, DeltaShockSolution1D):
        run, samples = _audit_1d, 41
    elif isinstance(solution, SphericalTrajectory):
        if box is None:
            raise AuditInvalidError("spherical audits need an annulus")
        run, samples = _audit_spherical, 25
    else:
        raise InvalidParameterError(f"cannot audit {type(solution).__name__}")
    times = np.asarray(np.linspace(0.0, solution.t_end, samples) if times is None else times, float)
    if front is not None and [np.shape(v) for v in front] != [times.shape] * 4:
        raise InvalidParameterError(f"front must be at(times): four arrays of shape {times.shape}")
    return run(solution, times, box, front)


def _domain(box) -> tuple[float, float]:
    """The edges (a, b) of an audit box or annulus, refused unless finite and increasing."""
    a, b = map(float, box)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise InvalidParameterError(f"audit box must be finite and increasing, got ({a}, {b})")
    return a, b


def _audit_1d(sol: DeltaShockSolution1D, times, box, front) -> BalanceReport:
    if sol.support0 is None:
        raise AuditInvalidError(
            "balance theorems assume compactly supported data; solution has none"
        )
    a, b = sol.spatial_bounds(0.2) if box is None else box
    lo, hi = sol.support(times)
    pos, e, ud, _ = sol.at(times) if front is None else front
    bad = np.flatnonzero(~((a < lo) & (hi < b)))
    if bad.size:
        k = bad[0]
        raise AuditInvalidError(
            f"support [{float(lo[k])}, {float(hi[k])}] touches the audit box [{a}, {b}] "
            f"at t={times[k]}"
        )
    # Extreme finite data overflow here; the check below refuses the result.
    with np.errstate(over="ignore", invalid="ignore"):
        ll, lr = pos - lo, hi - pos
        functionals = {
            "M": sol.rho_l * ll + sol.rho_r * lr,
            "m": e,
            "P": (sol.rho_l * sol.u_l * ll + sol.rho_r * sol.u_r * lr)[:, None],
            "p": (e * ud)[:, None],
            "W": 0.5 * (sol.rho_l * sol.u_l ** 2 * ll + sol.rho_r * sol.u_r ** 2 * lr),
            "w": 0.5 * e * ud ** 2,
        }
    for name, values in functionals.items():
        flat = np.ravel(values)  # P and p are one column in 1-D
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            k = bad[0]
            raise NonFiniteOutputError(f"balance functional {name} is {flat[k]} at t={times[k]}")
    return BalanceReport(
        t=times,
        boundary=np.zeros(times.size),
        entropy_strict=(sol.u_r < ud) & (ud < sol.u_l),
        closed_form=True,
        **functionals,
    )


def _audit_spherical(traj, times, box, front) -> BalanceReport:
    """Spherical audit sampled at the array ``times``, all samples at once.

    The hypotheses are masks over the samples: the first failing sample
    raises, with its front checked before the inner and then the outer
    support. The bulk integrals take one quadrature call per side and
    moment, and the boundary inflow is evaluated on every Gauss node of
    every sample interval at once. The bulk rule has 24 panels of 10
    Gauss nodes per side.
    """
    a, b = box
    n, inner, outer = traj.n, traj.inner, traj.outer
    if n >= 2 and a < 0.0:
        raise AuditInvalidError("annulus must not include negative radii for n >= 2")
    area = unit_sphere_area(n) if n >= 2 else 1.0

    def weight(r):
        return area * np.asarray(r, dtype=float) ** (n - 1)

    phis, _, uds, m = traj.at(times) if front is None else front
    fails = [(~((a < phis) & (phis < b)), "front radius {phi} leaves the annulus at t={t}")]
    if inner is not None:
        lo = inner.support(times)[0]
        fails.append((np.isfinite(lo) & (lo < a - 1e-12), "inner support extends past the annulus"))
    if outer is not None:
        hi = outer.support(times)[1]
        fails.append((np.isfinite(hi) & (hi > b + 1e-12), "outer support extends past the annulus"))
    bad = np.any([mask for mask, _ in fails], axis=0)
    if np.any(bad):
        k = np.argmax(bad)
        msg = next(msg for mask, msg in fails if mask[k])
        raise AuditInvalidError(msg.format(phi=float(phis[k]), t=times[k]))

    def bulk(moment):
        return radial_moment_integral(
            inner, a, phis, times, weight, 24, 10, moment
        ) + radial_moment_integral(outer, phis, b, times, weight, 24, 10, moment)

    # Net mass rate through the edges; the origin has no area for n >= 2.
    ts, ws = gauss_panels(times[:-1], times[1:], 1, 6)
    rho_o, u_o = _side(outer, b, ts)
    rate = -rho_o * u_o * weight(b)
    if n == 1 or a > 0.0:
        rho_i, u_i = _side(inner, a, ts)
        rate += rho_i * u_i * weight(a)
    _, u_i = _side(inner, phis, times)
    _, u_o = _side(outer, phis, times)
    return BalanceReport(
        t=times,
        M=bulk(0),
        m=m,
        boundary=np.cumsum(np.concatenate([[0.0], np.vecdot(ws, rate)])),
        P=np.zeros((times.size, n)),
        p=np.zeros((times.size, n)),
        W=0.5 * bulk(2),
        w=0.5 * m * uds ** 2,
        entropy_strict=(u_o < uds) & (uds < u_i),
        closed_form=False,
    )


def energy_dissipation_rate(s: SideStates, f: FrontState) -> float:
    """Pointwise kinetic-energy loss density at the front (standard flux).

    1/2 [ rho^- T^- (a^- - g) + rho^+ T^+ (g - a^+)
          + rho^- (a^- - g)^3 + rho^+ (g - a^+)^3 ],

    with a = U . nu the normal velocities, g = U_delta . nu, and T the
    squared tangential speed of each side. Nonnegative whenever the
    overcompression condition holds; returned unclamped otherwise.
    """
    a_m = float(s.U_minus @ f.nu)
    a_p = float(s.U_plus @ f.nu)
    g = float(f.U_delta @ f.nu)
    t_m = float(s.U_minus @ s.U_minus) - a_m ** 2
    t_p = float(s.U_plus @ s.U_plus) - a_p ** 2
    return 0.5 * (
        s.rho_minus * t_m * (a_m - g)
        + s.rho_plus * t_p * (g - a_p)
        + s.rho_minus * (a_m - g) ** 3
        + s.rho_plus * (g - a_p) ** 3
    )


@dataclass(frozen=True)
class EnergyInequalityReport:
    """Values of the energy functional over the nonnegative battery members.

    ``scale`` is the largest sum of the functional's term magnitudes over the
    members, linear in the densities as the values are; ``passed`` measures
    the most negative value against it.
    """

    values: np.ndarray
    min_value: float
    members: int
    scale: float

    def passed(self, tol: float = 1e-6) -> bool:
        return self.min_value >= -tol * self.scale


def check_energy_inequality_1d(
    solution: DeltaShockSolution1D, level: int = 3
) -> EnergyInequalityReport:
    """Distributional check that kinetic energy does not increase.

    Evaluates E(phi) = <-(rho u^2)_t - (rho u^3)_x, phi> over the four
    nonnegative members of a fixed battery (seed 11); entropic solutions
    give E >= 0, while non-admissible candidates (such as a time-reversed
    front) produce negative values.
    """
    lo, hi = solution.spatial_bounds(0.1)
    battery = make_battery(
        [(lo, hi), (0.0, solution.t_end * (1.0 - 1e-9))], count=8, seed=11, nonneg_count=4
    )
    members = battery.nonneg_members
    energy = [_pairs_1d(solution, "energy")]
    ladders = [_ladder(solution, b, (level,), energy) for b in members]
    values = np.array([v[0, 0] for v, _, _ in ladders])
    return EnergyInequalityReport(
        values=values,
        min_value=float(np.min(values)),
        members=len(members),
        scale=float(max(size[0, 0] for _, size, _ in ladders)),
    )
