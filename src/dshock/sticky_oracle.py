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

``ParticleSystem.run_until`` does one regression over all particles and
keeps what it yields directly: the block boundaries, the cluster positions
and masses, and the merge count. Cluster velocities and the dissipated
energy are built from the stored blocks on first access after a solve.

Memory: a ``ParticleSystem`` keeps one copy each of x0, v0 and m0 plus the
compact cluster arrays of its last solve, only as long as the cluster
count. Momenta m0 v0 are formed where they are summed, never stored. One
regression allocates the free-flight positions in one buffer, and scipy
copies the values and the weights and builds the block index, all of
length N; the live blocks are copied out and those buffers dropped as the
solve returns. A ``delta_cluster_estimate`` therefore peaks at 7 arrays of
N floats, the three initial arrays plus these four. ``radial_shells`` peaks
at 6: it fills one buffer per array, evaluating its fields a chunk of radii
at a time, and the system copies the three buffers.

``delta_cluster_estimate`` regresses all particles once, at the final
time. Clusters only gain mass as time runs, so a particle alone at some
time was alone at every earlier one. Each earlier query time therefore
regresses only the particles in multi-particle clusters at the next later
solved time, with one free neighbour on each side of every run as a
guard, and takes every other particle as a free singleton. Two checks
cover the only places where this assembly can differ from the full
regression: every guard must come out alone, and every pair of free
neighbours that can touch must still be apart. Where a check fails, that
time is regressed on all particles, so every query time gets the clusters
of the full regression. A check fails only at a contact decided by
rounding between neighbours that are apart at the later time; like any
contact decided by rounding, it stays within the one-cluster tolerance
above.

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
# Most rows of a sampled time table (``dshock riemann --samples`` and the
# ``samples`` of a scenario), about 150 MB of CSV. Checked before the time
# grid is built.
MAX_SAMPLES = 1_000_000

_TIE = 1e-13

# Radii per field evaluation in ``radial_shells``.
_SHELL_CHUNK = 1 << 14


def unit_sphere_area(n: int) -> float:
    """|S^{n-1}|: 2 for n=1 (two points), 2*pi for n=2, 4*pi for n=3."""
    if not 1 <= n < 344:  # from n = 344 on, Gamma(n/2) overflows a float
        raise InvalidDimensionError(f"dimension must lie in 1 .. 343, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _free_flight(x0, v0, t):
    """x0 + t v0 in one new buffer, bit-equal to the two-temporary expression."""
    y = v0 * t
    y += x0
    return y


def _fit(x0, v0, m0, t):
    """Weighted isotonic regression of the free-flight positions x0 + t v0.

    Returns the blocks, the block values and the block weights, holding only
    the live entries. scipy returns the blocks and weights as views of its
    full-length buffers; each buffer is dropped as soon as its live entries
    are copied out, so none of them outlives the solve. The free-flight
    buffer is a temporary of the scipy call and goes with it.
    """
    from scipy.optimize import isotonic_regression

    fit = isotonic_regression(_free_flight(x0, v0, t), weights=m0)
    blocks = fit.pop("blocks").copy()
    values = fit.pop("x")[blocks[:-1]]
    return blocks, values, fit.pop("weights").copy()


def _block_velocity(ps, lo, hi, mass):
    """Velocity of the cluster of particles lo..hi-1, bit-equal to its entry
    in ``np.add.reduceat(m0 * v0, starts) / masses``."""
    return np.add.reduceat(ps._m0[lo:hi] * ps._v0[lo:hi], [0])[0] / mass


class ParticleSystem:
    """Ordered point masses on a line with merge-on-contact dynamics.

    ``run_until(T)`` sets ``positions``, ``masses``, ``merges``, ``time``
    and ``truncated`` at once. ``velocities`` (block momentum over block
    mass) and ``ke_dissipated`` are computed on first access after each
    solve and cached until the next one.
    """

    def __init__(self, positions, velocities, masses, r_min=None):
        # Checked before the copies are made, so that the check's
        # temporaries never sit beside both the inputs and the copies.
        x, v, m = (np.asarray(a, dtype=float) for a in (positions, velocities, masses))
        if not (x.shape == v.shape == m.shape) or x.ndim != 1 or x.size == 0:
            raise InvalidParameterError("positions, velocities, masses must be equal-length 1-D")
        if np.any(m <= 0.0):
            raise InvalidParameterError("all particle masses must be positive")
        if np.any(np.diff(x) <= 0.0):
            raise InvalidParameterError("initial positions must be strictly increasing")
        x, v, m = x.copy(), v.copy(), m.copy()
        self._x0, self._v0, self._m0 = x, v, m
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
        T = float(T)
        if not math.isfinite(T):
            raise InvalidParameterError(f"query time must be finite, got {T}")
        if T < self.time - _TIE:
            raise InvalidParameterError("cannot run backwards in time")
        self._blocks, self._x, self._m = _fit(self._x0, self._v0, self._m0, T)
        self._v = self._ke = None
        self.merges = self._x0.size - self._x.size
        self.time = T
        if self.r_min is not None and self._x[0] < self.r_min:
            self.truncated = True
        return self

    def _cluster_velocities(self) -> np.ndarray:
        if self._v is None:
            self._v = np.add.reduceat(self._m0 * self._v0, self._blocks[:-1])
            self._v /= self._m
        return self._v


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
    """Discretize two-state Riemann data on [x0 - L, x0 + L] into N particles.

    The sides meet at x0, where the solver starts its front. Each gets N//2
    equal-mass particles at cell midpoints (or at sorted uniform positions
    in ``mode="random"``); total mass is L (rho_l + rho_r) plus any initial
    atom, which becomes a seed particle at x0.
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

    def points(lo):
        if rng is None:
            return lo + (np.arange(half) + 0.5) * L / half
        return np.sort(rng.uniform(lo, lo + L, size=half))

    sides = [
        (lo, rho, u)
        for lo, rho, u in ((d.x0 - L, d.rho_l, d.u_l), (d.x0, d.rho_r, d.u_r))
        if rho > 0.0
    ]
    # Each side's block is in order and lies left of the next one.
    x = np.concatenate([points(lo) for lo, _, _ in sides] or [np.empty(0)])
    v = np.repeat([float(u) for *_, u in sides], half)
    m = np.repeat([rho * L / half for _, rho, _ in sides], half)
    atom = (d.x0, float(d.u_delta0), d.e0) if d.e0 > 0.0 else None
    return ParticleSystem(*_insert_seed(x, v, m, atom))


def delta_cluster_estimate(ps: ParticleSystem, T: float, times=None) -> ClusterReport:
    """Advance to T recording the heaviest cluster; fail without dominance.

    ``ps.run_until(T)`` is the only regression over all particles and
    leaves ``ps`` at T. The query times are then taken from the latest
    down, each regressing only around the multi-particle clusters of the
    next later solved time (see the module docstring). When every guard
    comes out alone and every pair of free neighbours that can touch (see
    ``_touching_pairs``) is still apart, the pool-adjacent-violators pass
    over all particles would make the same comparisons and sums on each
    restricted run and leave every other particle alone, so the clusters
    equal the full regression's bit for bit. Otherwise that time is
    regressed on all particles.

    The heaviest cluster is the first in order among equals, as
    ``np.argmax`` picks it from all cluster masses, and ``ps.truncated``
    is set from the first cluster at every query time. The dominant
    cluster must end with at least 10x the median mass of the other
    clusters, otherwise no concentration took place (for instance when the
    data are a rarefaction and nothing ever collides). A lone cluster is
    dominant: all the mass has merged.
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
    if times[0] < ps.time - _TIE:
        raise InvalidParameterError("cannot run backwards in time")
    ps.run_until(T)
    touch = _touching_pairs(ps._x0, ps._v0, times)
    c = _Clusters(ps.time, None, ps._blocks, ps._x, ps._m)
    history = []
    for t in times[::-1]:
        if t != c.t:
            c = _earlier(ps, c, t, touch) if t < c.t else _solve_all(ps, t)
        history.append(_heaviest(ps, c))
        if ps.r_min is not None and _first_position(ps, c) < ps.r_min:
            ps.truncated = True
    pos_h, mass_h, vel_h = (np.array(h[::-1]) for h in zip(*history))
    masses = ps.masses
    k = int(np.argmax(masses))
    others = np.delete(masses, k)
    if others.size and masses[k] < 10.0 * np.median(others):
        raise NotConvergedError(
            "no dominant cluster formed "
            f"(heaviest {masses[k]:.3e} vs median of the others {np.median(others):.3e})"
        )
    return ClusterReport(
        time=ps.time,
        positions=ps.positions,
        masses=masses,
        velocities=ps.velocities,
        times=times,
        position_history=pos_h,
        mass_history=mass_h,
        velocity_history=vel_h,
        u_delta_hat=float(ps.velocities[k]),
        mass_hat=float(masses[k]),
        position_hat=float(ps.positions[k]),
    )


def _touching_pairs(x0, v0, times):
    """Indices k of the neighbours (k, k + 1) that can meet at a query time.

    For t >= 0, neighbours with v0[k] <= v0[k+1] never approach, and
    rounding is monotone, so their computed positions x0 + t v0 keep their
    order unless they start within rounding reach of each other, which
    these pairs include. A negative query time (allowed down to -1e-13)
    reverses the motion, so then every pair with distinct velocities counts.
    """
    span = max(abs(times[0]), abs(times[-1]))
    closing = v0[:-1] > v0[1:] if times[0] >= 0.0 else v0[:-1] != v0[1:]
    reach = 4.0 * np.finfo(float).eps * (np.max(np.abs(x0)) + span * np.max(np.abs(v0)))
    return np.flatnonzero(closing | (np.diff(x0) <= reach))


class _Clusters:
    """The clusters at time t from one regression over the particles ``ids``.

    ``ids`` is None when the regression covered every particle; otherwise
    each particle outside it is a free singleton at t. ``values`` and
    ``weights`` are the block positions and masses. ``lone`` is the
    heaviest singleton at t as (mass, index): the heavier of the given one
    and the regression's singleton blocks, or None.
    """

    def __init__(self, t, ids, blocks, values, weights, lone=None):
        self.t, self.ids, self.blocks, self.values, self.weights = t, ids, blocks, values, weights
        single = np.flatnonzero(np.diff(blocks) == 1)
        if single.size:
            k = single[np.argmax(weights[single])]
            found = (weights[k], int(self.index(blocks[k])))
            lone = found if _beats(found, lone) else lone
        self.lone = lone

    def index(self, pos):
        """Particle index of a position in the regression."""
        return pos if self.ids is None else self.ids[pos]


def _beats(a, b) -> bool:
    """Whether (mass, index) cluster a comes before b in ``np.argmax`` order."""
    return a is not None and (b is None or (a[0], -a[1]) > (b[0], -b[1]))


def _solve_all(ps: ParticleSystem, t: float) -> _Clusters:
    return _Clusters(t, None, *_fit(ps._x0, ps._v0, ps._m0, t))


def _join(lo, hi):
    """The sorted ranges [lo, hi) with touching or overlapping ones joined."""
    keep = np.ones(lo.size + 1, dtype=bool)
    keep[1:-1] = lo[1:] > hi[:-1]
    return lo[keep[:-1]], hi[keep[1:]]


def _earlier(ps: ParticleSystem, c: _Clusters, t: float, touch) -> _Clusters:
    """The clusters at t < c.t, regressing only around c's multi-particle clusters.

    Falls back to all particles when a guard pools or two free neighbours
    that can touch are not apart at t, so the result is the full
    regression's whatever clusters c claims.
    """
    x0, v0, m0 = ps._x0, ps._v0, ps._m0
    n = x0.size
    lo, hi = c.blocks[:-1], c.blocks[1:]
    multi = hi - lo > 1
    # Runs of multi-particle clusters, and the spans that add their guards.
    a, b = _join(c.index(lo[multi]), c.index(hi[multi] - 1) + 1)
    s, e = _join(np.maximum(a - 1, 0), np.minimum(b + 1, n))
    # One span is regressed through views, and its indices are built after
    # the regression so that they do not add to its peak memory.
    ids = None
    if s.size != 1:
        size = e - s
        ids = np.arange(size.sum()) + np.repeat(s - (np.cumsum(size) - size), size)
    if s.size == 0:
        blocks, values, weights = np.zeros(1, dtype=np.intp), np.empty(0), np.empty(0)
        alone = True
    else:
        part = slice(s[0], e[0]) if ids is None else ids
        blocks, values, weights = _fit(x0[part], v0[part], m0[part], t)
        if ids is None:
            ids = np.arange(s[0], e[0])
        guards = np.searchsorted(ids, np.concatenate([a[a > 0] - 1, b[b < n]]))
        j = np.searchsorted(blocks, guards, side="right") - 1
        alone = np.all(blocks[j + 1] - blocks[j] == 1)
    # Neighbours that can touch and are not both inside one span.
    inside = np.zeros(touch.size, dtype=bool)
    if s.size:
        span = np.searchsorted(s, touch, side="right") - 1
        inside = (span >= 0) & (touch + 1 < e[span])
    k = touch[~inside]
    if not (alone and np.all(x0[k] + t * v0[k] < x0[k + 1] + t * v0[k + 1])):
        return _solve_all(ps, t)
    return _Clusters(t, ids, blocks, values, weights, c.lone)


def _heaviest(ps: ParticleSystem, c: _Clusters):
    """Position, mass and velocity of the heaviest cluster at c.t."""
    if c.weights.size:
        k = int(np.argmax(c.weights))
        i = int(c.index(c.blocks[k]))
        if not _beats(c.lone, (c.weights[k], i)):
            hi = int(c.index(c.blocks[k + 1] - 1)) + 1
            return c.values[k], c.weights[k], _block_velocity(ps, i, hi, c.weights[k])
    mass, i = c.lone
    return ps._x0[i] + c.t * ps._v0[i], mass, _block_velocity(ps, i, i + 1, mass)


def _first_position(ps: ParticleSystem, c: _Clusters) -> float:
    """Position at c.t of the cluster that holds particle 0."""
    if c.ids is None or (c.ids.size and c.ids[0] == 0):
        return c.values[0]
    return ps._x0[0] + c.t * ps._v0[0]


def radial_shells(
    inner,
    outer,
    n: int,
    N: int,
    box: tuple[float, float],
    boundary: float | None = None,
    front_seed: tuple[float, float, float] | None = None,
    r_min: float = 0.0,
) -> ParticleSystem:
    """Spherical-shell discretization of radial data on the annulus ``box`` = (r_lo, r_hi).

    ``inner``/``outer`` provide densities and radial velocities via
    ``.state(r, t)`` at t=0 (``None`` means vacuum), split
    at ``boundary``. ``front_seed = (phi0, e0, u_delta0)`` inserts the
    initial concentrated front as one shell of mass
    e0 |S^{n-1}| phi0^{n-1}.
    """
    if n < 2:
        raise InvalidDimensionError("radial shells need dimension n >= 2")
    area = unit_sphere_area(n)
    if N < 100:
        raise UndersamplingError("need at least 100 shells to resolve a front")
    if N > MAX_PARTICLES:
        raise InvalidParameterError(f"at most {MAX_PARTICLES} shells, got N = {N}")
    r_lo, r_hi = float(box[0]), float(box[1])
    if not (0.0 <= r_min <= r_lo < r_hi):
        raise InvalidParameterError("annulus must satisfy 0 <= r_min <= r_lo < r_hi")
    if boundary is None:
        boundary = r_lo if inner is None else 0.5 * (r_lo + r_hi)
    dr = (r_hi - r_lo) / N
    # The shells with mass go straight into one buffer per array, a chunk of
    # radii at a time, so the fields' temporaries never scale with N. The
    # radii increase, so the inner side's shells lie left of the outer ones.
    x, v, m = np.empty(N), np.empty(N), np.empty(N)
    count = 0
    for start in range(0, N, _SHELL_CHUNK):
        r = r_lo + (np.arange(start, min(start + _SHELL_CHUNK, N)) + 0.5) * dr
        for fld, side in ((inner, r < boundary), (outer, r >= boundary)):
            if fld is None:
                continue
            rs = r[side]
            rho, u = fld.state(rs, 0.0)
            keep = rho > 0.0
            rs, end = rs[keep], count + np.count_nonzero(keep)
            x[count:end], v[count:end] = rs, u[keep]
            m[count:end] = rho[keep] * area * rs ** (n - 1) * dr
            count = end
    shell = None
    if front_seed is not None:
        phi0, e0, ud0 = map(float, front_seed)
        if e0 > 0.0:
            shell = (phi0, ud0, e0 * area * phi0 ** (n - 1))
    x, v, m = _insert_seed(x[:count], v[:count], m[:count], shell)
    if x.size == 0:
        raise InvalidParameterError("no mass anywhere in the annulus")
    return ParticleSystem(x, v, m, r_min=r_min)
