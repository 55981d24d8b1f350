"""Weak-form verification of candidate front solutions.

A pair (rho_hat, e on Gamma) solves the system in the distributional sense
when, for every smooth compactly supported phi,

    int int rho_hat (phi_t + F(u) phi_x) dx dt
      + int e (phi_t + G d(phi)/d(nu)) |_{front} dt
      + int rho_hat(x, 0) phi(x, 0) dx + e(0) phi(X(0), 0)  =  0,

together with the momentum analogue (density rho_hat u, flux rho_hat N(u),
front weight e u_delta). This module evaluates those functionals on
batteries of tensor-product bump test functions with analytic derivatives
and reports the residuals over a ladder of quadrature levels.

For a 1-D candidate and a bump phi = A T(t) X(x) on [xlo, xhi] x [t_lo, t_hi]
the evaluation is laid out as arrays:

* Time cuts, once per member. The time support is split where the front or
  a support edge crosses x = xlo or x = xhi, so the piece geometry is smooth
  inside each segment. The front's ``time_cuts`` finds them under the
  contract stated there; they serve every level and every identity.
* One geometry pass per (member, level). The composite Gauss nodes of all
  segments form one array tk with weights wk, plus a node at t = 0 for the
  initial terms; the front (``at``) and its window (``support``) are
  evaluated on it once.
* Clipped pieces per node. With ``support(t)`` = (lo, hi), the left state
  fills [lo, phi] and the right state [phi, hi], each clipped to [xlo, xhi];
  a clipped-away piece has zero width. The integral of X over each piece
  maps one reference panel rule onto a (t-nodes x x-nodes) grid, built in
  blocks of time nodes so its memory does not grow with the level. Every
  panel integrates a smooth function, so a true solution's residual
  converges at the quadrature order instead of stalling at O(h).
* Identities as contractions. The pass contracts A T'(t) int X and
  A T(t) [X] over each piece with wk into one number per piece (the line
  t = 0 adds A T(0) int X), and keeps the weighted front term
  A (T' X + u_delta T X')(phi) per node. An identity with densities d,
  fluxes q and front weight e u_delta^p is then
  d . bulk + q . flux + front . (e u_delta^p).

Supported candidates: 1-D solutions and planar n-D solutions (where the
identities factorize exactly through the front frame because tangential
flux terms integrate to zero against compactly supported factors). Curved
fronts are not supported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bumps import BumpFactor, TensorBump
from .errors import InvalidBatteryError, InvalidParameterError, UnsupportedFrontError
from .geometry.quadrature import gauss_panels
from .solutions import DeltaShockSolution1D, PlanarSolution

__all__ = [
    "TestFunctionBattery",
    "WeakResidual",
    "make_battery",
    "identity_value",
    "evaluate_identities",
]

_GAUSS_NODES = 8
# Pieces and time segments this narrow are dropped.
_MIN_WIDTH = 1e-14
# x-nodes per piece in one block of the (t, x) grid; small blocks keep the
# grid's memory flat at any level and its temporaries in cache.
_BLOCK = 2**13


@dataclass(frozen=True)
class TestFunctionBattery:
    """Deterministic battery of bump test functions over one space-time box."""

    functions: tuple

    def __len__(self):
        return len(self.functions)

    @property
    def nonneg_members(self) -> tuple:
        return tuple(f for f in self.functions if f.nonneg)


def make_battery(box, count: int, seed: int, nonneg_count: int = 2) -> TestFunctionBattery:
    """Build ``count`` tensor bumps inside ``box`` = ((x lo, hi), ..., (t lo, hi)).

    The last pair is the time interval and must start at t >= 0. The first
    member always spans the whole box and is anchored at the initial time
    (so the initial-data terms get exercised); the first ``nonneg_count``
    members are nonnegative. Identical seeds give bit-identical batteries.
    """
    if count < 1:
        raise InvalidBatteryError("battery needs at least one member")
    box = [tuple(map(float, pair)) for pair in box]
    if len(box) < 2:
        raise InvalidBatteryError("box needs at least one space interval plus time")
    for lo, hi in box:
        if not lo < hi:
            raise InvalidBatteryError("box intervals must be nonempty")
    t_lo, t_hi = box[-1]
    if t_lo < 0.0:
        raise InvalidBatteryError("test functions must vanish for t < 0")
    rng = np.random.default_rng(seed)
    members = []
    for i in range(count):
        nonneg = i < nonneg_count
        space_factors = []
        for lo, hi in box[:-1]:
            if i == 0:
                c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
            else:
                w = hi - lo
                c = rng.uniform(lo + 0.2 * w, hi - 0.2 * w)
                h = rng.uniform(0.18 * w, 0.95 * min(c - lo, hi - c))
            poly = (1.0,) if nonneg else _random_poly(rng)
            space_factors.append(BumpFactor(c - h, c + h, poly))
        anchored = i == 0 or rng.random() < 0.4
        tpoly = (1.0,) if nonneg else _random_poly(rng)
        if anchored:
            if i == 0:
                hi_t = t_hi
            else:
                hi_t = rng.uniform(t_lo + 0.4 * (t_hi - t_lo), t_hi)
            tf = BumpFactor(t_lo, hi_t, (1.0,) if nonneg else tpoly, anchored_left=True)
        else:
            w = t_hi - t_lo
            c = rng.uniform(t_lo + 0.2 * w, t_hi - 0.2 * w)
            h = rng.uniform(0.15 * w, 0.95 * min(c - t_lo, t_hi - c))
            tf = BumpFactor(c - h, c + h, (1.0,) if nonneg else tpoly)
        members.append(TensorBump(space_factors, tf, amplitude=1.0))
    return TestFunctionBattery(functions=tuple(members))


def _random_poly(rng) -> tuple:
    deg = int(rng.integers(0, 3))
    coeffs = rng.uniform(-1.0, 1.0, size=deg + 1)
    if np.max(np.abs(coeffs)) < 0.2:
        coeffs[-1] = 1.0
    return tuple(float(c) for c in coeffs)


# -- the geometry pass -----------------------------------------------------


def _time_segments(sol: DeltaShockSolution1D, bump: TensorBump):
    """Segment ends (s0, s1) of the bump's time support, split at the front's
    ``time_cuts`` of the bump's x-interval; slivers narrower than _MIN_WIDTH go."""
    if bump.dim != 1:
        raise InvalidParameterError("1-D weak identities need a bump with one space factor")
    t_lo, t_hi = bump.t_support
    if t_lo < -1e-15:
        raise InvalidBatteryError("test function support intersects t < 0")
    if t_hi > sol.t_end + 1e-12:
        raise InvalidBatteryError("test function lives past the solution window")
    segs = sol.time_cuts(bump.space_box[0], t_lo, t_hi)
    keep = np.diff(segs) > _MIN_WIDTH
    return segs[:-1][keep], segs[1:][keep]


def _pieces(sol: DeltaShockSolution1D, t: np.ndarray, pos: np.ndarray, xlo: float, xhi: float):
    """Ends (a, b), each of shape (2, nodes), of the left and right state pieces."""
    lo, hi = sol.support(t)
    mid = np.clip(pos, lo, hi)
    a = np.clip(np.stack([lo, mid]), xlo, xhi)
    b = np.clip(np.stack([mid, hi]), xlo, xhi)
    return a, np.where(b - a > _MIN_WIDTH, b, a)


def _piece_integrals(factor: BumpFactor, a: np.ndarray, b: np.ndarray, ref_x, ref_w):
    """Integral of X over every piece [a, b], one block of time nodes at a time."""
    width = b - a
    out = np.empty_like(width)
    step = max(1, _BLOCK // ref_x.size)
    for k in range(0, width.shape[1], step):
        cols = slice(k, k + step)
        xs = a[:, cols, None] + width[:, cols, None] * ref_x
        out[:, cols] = factor.value(xs) @ ref_w
    return width * out


def _level_values(sol: DeltaShockSolution1D, bump: TensorBump, segments, level, identities):
    """Values of ``identities``, (d, q, power) triples, their term magnitudes
    |d| . |bulk| + |q| . |flux| + |front| . |e u_delta^power|, and the (t, x) node count."""
    ref_x, ref_w = gauss_panels(0.0, 1.0, 2 ** (level + 1), _GAUSS_NODES)
    s0, s1 = segments
    h = (s1 - s0)[:, None]
    # Time nodes of every segment, then t = 0 for the initial terms.
    t = np.append((s0[:, None] + h * ref_x).ravel(), 0.0)
    wk = (h * ref_w).ravel()
    factor, tf, amp = bump.space_factors[0], bump.time_factor, bump.amplitude
    xlo, xhi = factor.lo, factor.hi
    pos, e, ud, _ = sol.at(t)
    a, b = _pieces(sol, t, pos, xlo, xhi)
    tv, td = amp * tf.value(t), amp * tf.deriv(t)
    bulk = _piece_integrals(factor, a, b, ref_x, ref_w) @ np.append(wk * td[:-1], tv[-1])
    flux = (factor.value(b) - factor.value(a)) @ np.append(wk * tv[:-1], 0.0)
    inside = (xlo < pos) & (pos < xhi)
    front = np.where(inside, td * factor.value(pos) + ud * (tv * factor.deriv(pos)), 0.0)
    front[-1] = tv[-1] * factor.value(pos[-1])
    front *= np.append(wk, 1.0)
    values, sizes = [], []
    for d, q, power in identities:
        total = d @ bulk + q @ flux
        size = np.abs(d) @ np.abs(bulk) + np.abs(q) @ np.abs(flux)
        if power is not None:
            weight = e * ud**power
            total += front @ weight
            size += np.abs(front) @ np.abs(weight)
        values.append(float(total))
        sizes.append(float(size))
    return values, sizes, a.size * ref_x.size


def _ladder(sol: DeltaShockSolution1D, bump: TensorBump, levels, identities):
    """Identity values and term magnitudes (each levels x identities) and
    quadrature node counts of one member."""
    segments = _time_segments(sol, bump)
    values, sizes, counts = zip(
        *(_level_values(sol, bump, segments, level, identities) for level in levels)
    )
    return np.array(values), np.array(sizes), list(counts)


def _pairs_1d(sol: DeltaShockSolution1D, kind: str):
    """(density, flux, front power) coefficients of one identity, left then right."""
    fx = sol.flux
    rl, rr, ul, ur = sol.rho_l, sol.rho_r, sol.u_l, sol.u_r
    if kind == "mass":
        d = (rl, rr)
        q = (rl * fx.f1(ul) if rl else 0.0, rr * fx.f1(ur) if rr else 0.0)
        power = 0
    elif kind == "momentum":
        d = (rl * ul, rr * ur)
        q = (rl * fx.n1(ul) if rl else 0.0, rr * fx.n1(ur) if rr else 0.0)
        power = 1
    elif kind == "energy":
        if fx.name != "standard":
            raise InvalidParameterError("the energy identity is specific to the standard flux")
        d = (rl * ul**2, rr * ur**2)
        q = (rl * ul**3, rr * ur**3)
        power = 2
    else:
        raise InvalidParameterError(f"unknown identity kind {kind!r}")
    return np.array(d, dtype=float), np.array(q, dtype=float), power


def identity_value(sol: DeltaShockSolution1D, bump: TensorBump, kind: str, level: int = 3) -> float:
    """Value of one weak functional for a 1-D candidate (0 for solutions)."""
    values, _, _ = _ladder(sol, bump, (level,), [_pairs_1d(sol, kind)])
    return float(values[0, 0])


@dataclass(frozen=True)
class WeakResidual:
    """Residual table over quadrature levels for 1 + n weak identities.

    ``quadrature_nodes`` counts, per level, the (t, x) nodes of the piece
    integrals over all battery members; it depends only on the inputs.
    ``scale`` is, per identity, the largest finest-level sum of the term
    magnitudes over the members: the size a residual is measured against,
    linear in the densities as the residuals are.
    """

    identity_names: tuple
    levels: tuple
    table: np.ndarray
    per_member: np.ndarray
    quadrature_nodes: tuple
    scale: np.ndarray

    @property
    def residuals(self) -> np.ndarray:
        return self.table[-1]

    @property
    def max_residual(self) -> float:
        return float(np.max(self.table[-1]))

    @property
    def orders(self) -> np.ndarray:
        """Best observed convergence order per identity across the ladder."""
        out = np.zeros(self.table.shape[1])
        floor = 1e-13 * (1.0 + np.max(self.table))
        for c in range(self.table.shape[1]):
            col = self.table[:, c]
            slopes = [
                np.log2(col[k] / col[k + 1])
                for k in range(len(col) - 1)
                if col[k] > floor and col[k + 1] > floor
            ]
            if slopes:
                out[c] = max(slopes)
            elif np.all(col <= floor):
                out[c] = np.inf
        return out


def _factor_integral(factor: BumpFactor) -> float:
    xs, ws = gauss_panels(factor.lo, factor.hi, 8, 10)
    return float(ws @ np.asarray(factor.value(xs)))


def _reduced_bump(member: TensorBump) -> TensorBump:
    return TensorBump([member.space_factors[0]], member.time_factor, amplitude=member.amplitude)


def _planar_values(cand: PlanarSolution, member: TensorBump, levels):
    """(mass, momentum_1..n) values and term magnitudes per level, and node
    counts; member axes live in the front frame."""
    n = cand.dim
    if len(member.space_factors) != n:
        raise InvalidBatteryError(
            f"battery members have {len(member.space_factors)} space factors, candidate needs {n}"
        )
    base = cand.base
    tan_scale = 1.0
    for f in member.space_factors[1:]:
        tan_scale *= _factor_integral(f)
    identities = [_pairs_1d(base, "mass"), _pairs_1d(base, "momentum")]
    for j in range(n - 1):
        d = np.array([base.rho_l * cand.u_tan_l[j], base.rho_r * cand.u_tan_r[j]])
        identities.append((d, d * (base.u_l, base.u_r), None))
    values, sizes, counts = _ladder(base, _reduced_bump(member), levels, identities)

    def cartesian(rows, frame):
        """(mass, frame-rotated momentum) of (mass, normal, tangential) rows."""
        return np.hstack([rows[:, :1], rows[:, 1:2] * frame[0] + rows[:, 2:] @ frame[1:]])

    return (
        cartesian(values * tan_scale, cand.frame),
        cartesian(sizes * abs(tan_scale), np.abs(cand.frame)),
        counts,
    )


def evaluate_identities(candidate, battery: TestFunctionBattery, levels=(0, 1, 2, 3)) -> WeakResidual:
    """Residual ladder of the defining identities for a candidate solution.

    Returns max |value| over the battery per identity and level; for a true
    solution the finest row is quadrature noise and the ladder exhibits the
    scheme's convergence order. ``scale`` holds the size of the terms each
    finest residual is measured against. 1-D candidates yield (mass, momentum);
    planar candidates yield (mass, momentum_1..n) in Cartesian components.
    """
    levels = tuple(int(l) for l in levels)
    if not levels or any(l < 0 for l in levels) or list(levels) != sorted(set(levels)):
        raise InvalidParameterError("levels must be strictly increasing and nonnegative")
    if not battery.functions:
        raise InvalidBatteryError("battery has no members")
    if isinstance(candidate, DeltaShockSolution1D):
        names = ("mass", "momentum_1")
        identities = [_pairs_1d(candidate, "mass"), _pairs_1d(candidate, "momentum")]

        def member_values(member):
            return _ladder(candidate, member, levels, identities)

    elif isinstance(candidate, PlanarSolution):
        names = ("mass",) + tuple(f"momentum_{k + 1}" for k in range(candidate.dim))

        def member_values(member):
            return _planar_values(candidate, member, levels)

    else:
        raise UnsupportedFrontError(
            "weak-identity evaluation supports 1-D and planar candidates only"
        )
    values, sizes, counts = zip(*(member_values(m) for m in battery.functions))
    values = np.abs(np.array(values))  # (members, levels, identities)
    return WeakResidual(
        identity_names=names,
        levels=levels,
        table=values.max(axis=0),
        per_member=values[:, -1],
        quadrature_nodes=tuple(int(c) for c in np.sum(counts, axis=0)),
        scale=np.array(sizes)[:, -1].max(axis=0),
    )
