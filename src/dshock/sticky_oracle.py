"""Sticky-particle dynamics: an independent ground truth for front tracking.

Point masses move freely and merge on contact, conserving mass and
momentum; kinetic energy drops at every merge of distinct velocities. The
continuum limit of this micro-model is zero-pressure gas dynamics, so a
well-resolved run gives a reference trajectory for the concentrated front
that the closed-form solvers must reproduce.

The state at time T needs no event simulation. In one dimension the sticky
positions at T are the mass-weighted L2 projection of the free-flight map
x0 + T v0 onto nondecreasing maps (Brenier & Grenier, SIAM J. Numer. Anal.
35, 1998; Natile & Savare, SIAM J. Math. Anal. 41, 2009), which is a
weighted isotonic regression. Each block of the regression is one cluster:
its value is the cluster position, its weight the cluster mass, and its
velocity is the block momentum over the block mass. Clusters never split,
so the merge count is N minus the number of blocks. The pool-adjacent-
violators algorithm pools equal adjacent values, so particles in exact
contact at T count as merged. Whether the rounded free-flight positions tie
then decides the pooling, so a contact that is exact only in exact
arithmetic can leave one cluster unmerged. Symmetric data
(rho, u) = (1, 1 | 1, -1) with N = 4000 midpoint particles at t = 1/16 give
3876 clusters where the exact count is 3875; one cluster is the documented
tolerance at such contacts.

``ParticleSystem.run_until`` does one regression per query time and keeps
what it yields directly: the block boundaries, the cluster positions and
masses, and the merge count. Cluster velocities and the dissipated energy
are built from the stored blocks on first access after a solve, and
``delta_cluster_estimate`` reads only the heaviest cluster's velocity at
each snapshot.

Radial variant: in n >= 2 dimensions with radial data, spherical shells
carry mass rho(r) |S^{n-1}| r^{n-1} dr and undergo the same 1-D dynamics
in r. Shells are only trusted away from the focusing radius; a cluster
below ``r_min`` at a queried time raises a truncation flag on the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    NotConvergedError,
    UndersamplingError,
)

__all__ = [
    "ParticleSystem",
    "ClusterReport",
    "sample_riemann",
    "delta_cluster_estimate",
    "radial_shells",
    "unit_sphere_area",
]

# Most particles or shells one discretization may hold: ten times the
# default of the riemann oracle preset. Checked before anything is allocated.
MAX_PARTICLES = 2_000_000

_TIE = 1e-13


def unit_sphere_area(n: int) -> float:
    """|S^{n-1}|: 2 for n=1 (two points), 2*pi for n=2, 4*pi for n=3."""
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


class ParticleSystem:
    """Ordered point masses on a line with merge-on-contact dynamics.

    ``run_until(T)`` sets ``positions``, ``masses``, ``merges``, ``time``
    and ``truncated`` at once. ``velocities`` (block momentum over block
    mass) and ``ke_dissipated`` are computed on first access after each
    solve and cached until the next one.
    """

    def __init__(self, positions, velocities, masses, r_min=None):
        x = np.array(positions, dtype=float)
        v = np.array(velocities, dtype=float)
        m = np.array(masses, dtype=float)
        if not (x.shape == v.shape == m.shape) or x.ndim != 1 or x.size == 0:
            raise InvalidParameterError("positions, velocities, masses must be equal-length 1-D")
        if np.any(m <= 0.0):
            raise InvalidParameterError("all particle masses must be positive")
        if np.any(np.diff(x) <= 0.0):
            raise InvalidParameterError("initial positions must be strictly increasing")
        self._x0, self._v0, self._m0 = x, v, m
        self._p0 = m * v
        self._blocks = None
        self._x, self._v, self._m = x, v, m
        self._ke = 0.0
        self.time = 0.0
        self.merges = 0
        self.r_min = r_min
        self.truncated = False

    @property
    def positions(self) -> np.ndarray:
        return self._x

    @property
    def velocities(self) -> np.ndarray:
        return self._cluster_velocities()

    @property
    def masses(self) -> np.ndarray:
        return self._m

    @property
    def ke_dissipated(self) -> float:
        """Kinetic energy destroyed by the merges up to the current time."""
        if self._ke is None:
            # Each merge destroys the kinetic energy of motion relative to the
            # cluster's centre of mass, so the total loss is that relative energy.
            sizes = np.diff(self._blocks)
            rel_v = self._v0 - np.repeat(self._cluster_velocities(), sizes)
            self._ke = float(0.5 * np.sum(self._m0 * rel_v**2))
        return self._ke

    @property
    def count(self) -> int:
        return self._x.size

    def total_mass(self) -> float:
        return float(np.sum(self._m))

    def total_momentum(self) -> float:
        return float(np.sum(self._m * self._cluster_velocities()))

    def kinetic_energy(self) -> float:
        return float(np.sum(0.5 * self._m * self._cluster_velocities() ** 2))

    def run_until(self, T: float) -> "ParticleSystem":
        """Set the clusters to their state at time T, computed from the initial data.

        One weighted isotonic regression gives the blocks, the cluster
        positions and masses, and the merge count. Velocities and the
        dissipated energy are built from the blocks on first access.
        """
        from scipy.optimize import isotonic_regression

        T = float(T)
        if not math.isfinite(T):
            raise InvalidParameterError(f"query time must be finite, got {T}")
        if T < self.time - _TIE:
            raise InvalidParameterError("cannot run backwards in time")
        fit = isotonic_regression(self._x0 + T * self._v0, weights=self._m0)
        self._blocks = fit.blocks
        self._x = fit.x[fit.blocks[:-1]]
        self._m = fit.weights
        self._v = self._ke = None
        self.merges = self._x0.size - self._x.size
        self.time = T
        if self.r_min is not None and self._x[0] < self.r_min:
            self.truncated = True
        return self

    def _cluster_velocities(self) -> np.ndarray:
        if self._v is None:
            self._v = np.add.reduceat(self._p0, self._blocks[:-1]) / self._m
        return self._v

    def _cluster_velocity(self, k: int) -> float:
        """Velocity of cluster k alone, bit-equal to ``velocities[k]``."""
        if self._v is not None:
            return self._v[k]
        lo, hi = self._blocks[k], self._blocks[k + 1]
        return np.add.reduceat(self._p0[lo:hi], [0])[0] / self._m[k]


@dataclass(frozen=True)
class ClusterReport:
    """Snapshot of the surviving clusters plus the dominant-cluster history."""

    time: float
    positions: np.ndarray
    masses: np.ndarray
    velocities: np.ndarray
    times: np.ndarray
    position_history: np.ndarray
    mass_history: np.ndarray
    velocity_history: np.ndarray
    u_delta_hat: float = field(default=0.0)
    mass_hat: float = field(default=0.0)
    position_hat: float = field(default=0.0)


def _insert_seed(x, v, m, seed):
    """(x, v, m) with the seed particle (x0, v0, m0), if any, placed in order.

    ``x`` is increasing. The seed goes after every particle at or left of
    x0, where a stable sort of x followed by x0 puts it.
    """
    if seed is None:
        return x, v, m
    k = int(np.searchsorted(x, seed[0], side="right"))
    return tuple(np.insert(a, k, s) for a, s in zip((x, v, m), seed))


def sample_riemann(
    d, L: float, N: int, mode: str = "midpoint", seed: int | None = None
) -> ParticleSystem:
    """Discretize two-state Riemann data on [-L, L] into N particles.

    Each side gets N//2 equal-mass particles at cell midpoints (or at
    sorted uniform positions in ``mode="random"``); total mass is
    L (rho_l + rho_r) plus any initial atom, which becomes a seed particle
    at x0.
    """
    if N < 100:
        raise UndersamplingError("need at least 100 particles to resolve a front")
    if N > MAX_PARTICLES:
        raise InvalidParameterError(f"at most {MAX_PARTICLES} particles, got N = {N}")
    if L <= 0.0:
        raise InvalidParameterError("sampling half-width L must be positive")
    if mode not in ("midpoint", "random"):
        raise InvalidParameterError(f"unknown sampling mode {mode!r}")
    rng = np.random.default_rng(seed) if mode == "random" else None
    half = N // 2

    def points(lo, hi):
        if rng is None:
            return lo + (np.arange(half) + 0.5) * (hi - lo) / half
        return np.sort(rng.uniform(lo, hi, size=half))

    sides = [
        (lo, hi, rho, u)
        for lo, hi, rho, u in ((-L, 0.0, d.rho_l, d.u_l), (0.0, L, d.rho_r, d.u_r))
        if rho > 0.0
    ]
    # Each side's block is in order and lies left of the next one.
    x = np.concatenate([points(lo, hi) for lo, hi, _, _ in sides] or [np.empty(0)])
    v = np.repeat([float(u) for *_, u in sides], half)
    m = np.repeat([rho * (hi - lo) / half for lo, hi, rho, _ in sides], half)
    atom = (d.x0, float(d.u_delta0), d.e0) if d.e0 > 0.0 else None
    return ParticleSystem(*_insert_seed(x, v, m, atom))


def delta_cluster_estimate(ps: ParticleSystem, T: float, times=None) -> ClusterReport:
    """Advance to T recording the heaviest cluster; fail without dominance.

    The dominant cluster must end with at least 10x the median surviving
    mass, otherwise no concentration took place (for instance when the
    data are a rarefaction and nothing ever collides).
    """
    T = float(T)
    if not math.isfinite(T):
        raise InvalidParameterError(f"final time must be finite, got {T}")
    if times is None:
        times = np.linspace(0.0, T, 17)[1:]
    times = np.asarray(times, dtype=float)
    if (
        times.size == 0
        or not np.all(np.isfinite(times))
        or np.any(np.diff(times) <= 0.0)
        or times[-1] > T + _TIE
    ):
        raise InvalidParameterError(
            "query times must be finite, increasing and end at or before T"
        )
    pos_h, mass_h, vel_h = [], [], []
    for t in times:
        ps.run_until(t)
        masses = ps.masses
        k = int(np.argmax(masses))
        pos_h.append(ps.positions[k])
        mass_h.append(masses[k])
        vel_h.append(ps._cluster_velocity(k))
    if ps.time != T:
        ps.run_until(T)
    masses = ps.masses
    k = int(np.argmax(masses))
    if masses[k] < 10.0 * np.median(masses):
        raise NotConvergedError(
            "no dominant cluster formed "
            f"(heaviest {masses[k]:.3e} vs median {np.median(masses):.3e})"
        )
    return ClusterReport(
        time=ps.time,
        positions=ps.positions,
        masses=masses,
        velocities=ps.velocities,
        times=times,
        position_history=np.array(pos_h),
        mass_history=np.array(mass_h),
        velocity_history=np.array(vel_h),
        u_delta_hat=float(ps.velocities[k]),
        mass_hat=float(masses[k]),
        position_hat=float(ps.positions[k]),
    )


def radial_shells(
    inner,
    outer,
    n: int,
    N: int,
    annulus: tuple[float, float],
    boundary: float | None = None,
    front_seed: tuple[float, float, float] | None = None,
    r_min: float = 0.0,
) -> ParticleSystem:
    """Spherical-shell discretization of radial data on an annulus.

    ``inner``/``outer`` provide densities and radial velocities via
    ``.state(r, t)`` at t=0 (``None`` means vacuum), split
    at ``boundary``. ``front_seed = (phi0, e0, u_delta0)`` inserts the
    initial concentrated front as one shell of mass
    e0 |S^{n-1}| phi0^{n-1}.
    """
    if n < 2:
        raise InvalidDimensionError("radial shells need dimension n >= 2")
    if N < 100:
        raise UndersamplingError("need at least 100 shells to resolve a front")
    if N > MAX_PARTICLES:
        raise InvalidParameterError(f"at most {MAX_PARTICLES} shells, got N = {N}")
    r_lo, r_hi = float(annulus[0]), float(annulus[1])
    if not (0.0 <= r_min <= r_lo < r_hi):
        raise InvalidParameterError("annulus must satisfy 0 <= r_min <= r_lo < r_hi")
    if boundary is None:
        boundary = r_lo if inner is None else 0.5 * (r_lo + r_hi)
    area = unit_sphere_area(n)
    dr = (r_hi - r_lo) / N
    r = r_lo + (np.arange(N) + 0.5) * dr
    xs, vs, ms = [], [], []
    for fld, side in ((inner, r < boundary), (outer, r >= boundary)):
        if fld is None:
            continue
        rs = r[side]
        rho, u = fld.state(rs, 0.0)
        keep = rho > 0.0
        rs, rho = rs[keep], rho[keep]
        xs.append(rs)
        vs.append(u[keep])
        ms.append(rho * area * rs ** (n - 1) * dr)
    shell = None
    if front_seed is not None:
        phi0, e0, ud0 = map(float, front_seed)
        if e0 > 0.0:
            shell = (phi0, ud0, e0 * area * phi0 ** (n - 1))
    # The inner block lies left of the outer one, each in order.
    x, v, m = (np.concatenate(a) if a else np.empty(0) for a in (xs, vs, ms))
    x, v, m = _insert_seed(x, v, m, shell)
    if x.size == 0:
        raise InvalidParameterError("no mass anywhere in the annulus")
    return ParticleSystem(x, v, m, r_min=r_min)
