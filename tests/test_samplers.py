"""Array samplers against the per-time loops they replaced.

Each reference below walks its time grid one sample at a time, as the
package did before it evaluated trajectories on whole arrays:

* ``_ref_front_rows``: the spherical front (phi, e, u_delta, m) per time;
* ``_ref_audit_1d``: the 1-D balance functionals per time;
* ``_ref_time_segments``: the weak-identity time cuts by a per-interval scan.

Where the arithmetic is the same the results must be equal exactly. The one
exception is the ODE's dense output: scipy evaluates a batch of times with a
matrix product, whose rounding can differ from one time alone in the last
bit, so those rows compare within a few units of float64 roundoff.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from dshock import (
    AuditInvalidError,
    DShockError,
    RiemannData1D,
    SphericalFrontState,
    audit,
    constant_field,
    from_riemann,
    integrate_front,
    make_battery,
    solve_constant_states,
    steady_converging_field,
    time_reversed,
    unit_sphere_area,
    with_front_speed_offset,
)
from dshock.cli import _battery_box
from dshock.scenario import solution_from_spec
from dshock.weakcheck import _time_segments

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# Dense-output rows: a few float64 roundoffs of the row's magnitude.
DENSE_RTOL = 16 * np.finfo(float).eps


# Spherical front -----------------------------------------------------------


def _ref_front_rows(traj, times):
    """(phi, e, u_delta, m) rows and a bootstrap mask, one time at a time."""
    rows, boot = [], []
    for t in times:
        t = min(max(float(t), 0.0), traj.t_stop)
        if traj._boot is not None and t <= traj._boot[1]:
            t0, t_eps, phi0, s, alpha = traj._boot
            phi, e, ud = phi0 + s * (t - t0), alpha * (t - t0), s
            boot.append(True)
        else:
            y = traj._dense(t)
            phi, e = float(y[0]), float(y[1])
            ud = float(y[2]) / e if e > 0.0 else float(y[2])
            boot.append(False)
        m = e if traj.n == 1 else e * unit_sphere_area(traj.n) * np.asarray(phi) ** (traj.n - 1)
        rows.append((phi, e, ud, float(m)))
    return np.array(rows).T, np.array(boot)


@st.composite
def _trajectories(draw):
    kind = draw(st.sampled_from(["massive", "bootstrap", "passive"]))
    n = draw(st.integers(1, 4))
    phi0 = draw(st.floats(1.0, 2.0))
    if kind == "massive":
        inner, outer = None, steady_converging_field(n)
        init = SphericalFrontState(
            0.0, phi0, draw(st.floats(0.005, 0.2)), draw(st.floats(-0.9, -0.1))
        )
    elif kind == "bootstrap":
        u_o = draw(st.floats(-1.5, 0.5))
        inner = constant_field(draw(st.floats(0.2, 5.0)), u_o + draw(st.floats(0.1, 2.0)))
        outer = constant_field(draw(st.floats(0.2, 5.0)), u_o)
        init = SphericalFrontState(0.0, phi0, 0.0, 0.0)
    else:
        u = draw(st.floats(-0.5, 0.5))
        inner = constant_field(draw(st.floats(0.2, 5.0)), u)
        outer = constant_field(draw(st.floats(0.2, 5.0)), u)
        init = SphericalFrontState(0.0, phi0, 0.0, u)
    traj = integrate_front(inner, outer, init, n=n, t_end=draw(st.floats(0.1, 0.6)))
    assert (traj._boot is not None) == (kind == "bootstrap")
    assert traj.passive == (kind == "passive")
    return traj


# At t_eps itself the dense output gives u_delta = (e s) / e, which for these
# data is not s: the closed form must own t_eps.
_BOOT_EDGE = integrate_front(
    constant_field(0.5, 0.7),
    constant_field(1.0, -0.2),
    SphericalFrontState(0.0, 1.0, 0.0, 0.0),
    n=2,
    t_end=0.5,
)


@settings(max_examples=40, deadline=None)
@given(traj=_trajectories(), fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
@example(traj=_BOOT_EDGE, fracs=[0.5])
def test_front_evaluators_match_per_time_loop(traj, fracs):
    times = np.array(fracs) * traj.t_stop
    if traj._boot is not None:
        # Both sides of the bootstrap end, and the end itself.
        t_eps = traj._boot[1]
        times = np.concatenate([times, [0.0, 0.5 * t_eps, t_eps, 2.0 * t_eps]])
    ref, boot = _ref_front_rows(traj, times)
    got = np.array(
        [traj.phi_at(times), traj.e_at(times), traj.u_delta_at(times), traj.m_at(times)]
    )
    np.testing.assert_array_equal(got[:, boot], ref[:, boot])
    np.testing.assert_allclose(got[:, ~boot], ref[:, ~boot], rtol=DENSE_RTOL, atol=0.0)
    for k in (0, times.size - 1):
        t = times[k]
        one = [traj.phi_at(t), traj.e_at(t), traj.u_delta_at(t), traj.m_at(t)]
        assert all(type(v) is float for v in one)
        np.testing.assert_allclose(one, ref[:, k], rtol=DENSE_RTOL, atol=0.0)


# 1-D audit -----------------------------------------------------------------


def _ref_audit_1d(sol, times, box):
    """Columns (M, m, P, p, W, w, strict) of the 1-D audit, one time at a time."""
    a, b = box
    rows = []
    for t in times:
        lo, pos, hi = float(sol.edge_l(t)), float(sol.phi(t)), float(sol.edge_r(t))
        if not (a < lo and hi < b):
            return f"support [{lo}, {hi}] touches the audit box [{a}, {b}] at t={t}"
        ll, lr = pos - lo, hi - pos
        ud, e = float(sol.u_delta(t)), float(sol.e(t))
        rows.append(
            (
                sol.rho_l * ll + sol.rho_r * lr,
                e,
                sol.rho_l * sol.u_l * ll + sol.rho_r * sol.u_r * lr,
                e * ud,
                0.5 * (sol.rho_l * sol.u_l ** 2 * ll + sol.rho_r * sol.u_r ** 2 * lr),
                0.5 * e * ud ** 2,
                sol.u_r < ud < sol.u_l,
            )
        )
    return np.array(rows, dtype=float).T


@st.composite
def _solutions(draw, supports=st.just((-5.0, 5.0))):
    kw = {}
    if draw(st.booleans()):
        kw["e0"] = draw(st.floats(0.1, 1.0))
    rho_l, rho_r = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    u_l, u_r = draw(st.floats(0.1, 1.5)), draw(st.floats(-1.5, -0.1))
    if "e0" in kw:
        kw["u_delta0"] = u_r + (u_l - u_r) * draw(st.floats(0.05, 0.95))
    variant = draw(st.sampled_from(["plain", "offset", "reversed"]))
    try:
        d = RiemannData1D(rho_l, rho_r, u_l, u_r, **kw)
        sol = from_riemann(solve_constant_states(d, t_end=1.0), 1.0, support0=draw(supports))
        if variant == "offset":
            sol = with_front_speed_offset(sol, draw(st.floats(-0.3, 0.3)))
        elif variant == "reversed":
            sol = time_reversed(sol)
    except DShockError:
        assume(False)
    return sol


@settings(max_examples=40, deadline=None)
@given(
    sol=_solutions(),
    times=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30, unique=True),
    pad=st.sampled_from([0.2, 0.02, -0.05]),
)
def test_audit_1d_matches_per_time_loop(sol, times, pad):
    times = np.sort(times)
    box = sol.spatial_bounds(pad)
    ref = _ref_audit_1d(sol, times, box)
    if isinstance(ref, str):
        with pytest.raises(AuditInvalidError) as info:
            audit(sol, times, box=box)
        assert str(info.value) == ref
        return
    rep = audit(sol, times, box=box)
    got = np.array([rep.M, rep.m, rep.P[:, 0], rep.p[:, 0], rep.W, rep.w, rep.entropy_strict])
    np.testing.assert_array_equal(got, ref)


# Weak-identity time cuts ---------------------------------------------------


def _ref_crossings(traj, c, t_lo, t_hi):
    ts = np.linspace(t_lo, t_hi, 65)
    vals = np.asarray(traj(ts), dtype=float) - c
    if not np.all(np.isfinite(vals)):
        return []
    out = []
    for k in range(ts.size - 1):
        va, vb = vals[k], vals[k + 1]
        if va == 0.0:
            out.append(float(ts[k]))
        elif va * vb < 0.0:
            out.append(float(brentq(lambda s: float(traj(s)) - c, ts[k], ts[k + 1], xtol=1e-13)))
    return out


def _ref_time_segments(sol, bump):
    (xlo, xhi), (t_lo, t_hi) = bump.space_box[0], bump.t_support
    cuts = {t_lo, t_hi}
    trajs = [sol.phi] + ([sol.edge_l, sol.edge_r] if sol.support0 is not None else [])
    for traj in trajs:
        for c in (xlo, xhi):
            cuts.update(_ref_crossings(traj, c, t_lo, t_hi))
    segs = np.array(sorted(cuts))
    keep = np.diff(segs) > 1e-14
    return segs[:-1][keep], segs[1:][keep]


def _assert_same_segments(sol, battery):
    """Compare every member's segments; return the number of interior cuts."""
    cuts = 0
    for bump in battery.functions:
        ref = _ref_time_segments(sol, bump)
        got = _time_segments(sol, bump)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        cuts += ref[0].size - 1
    return cuts


def test_time_segments_match_scan_on_real_crossings():
    # Battery seed 7 on the 4:1 collision puts box edges where the front and
    # the support edges cross them; seed 5, the bundled weakcheck seed, does not.
    sol = solution_from_spec(json.loads((SCENARIOS / "asymmetric_riemann.json").read_text()))
    battery = make_battery(_battery_box(sol), count=6, seed=7, nonneg_count=2)
    assert _assert_same_segments(sol, battery) > 0


@settings(max_examples=40, deadline=None)
@given(sol=_solutions(st.sampled_from([None, (-5.0, 5.0)])), seed=st.integers(0, 2**16))
def test_time_segments_match_scan(sol, seed):
    battery = make_battery(_battery_box(sol), count=6, seed=seed)
    _assert_same_segments(sol, battery)
