"""Array samplers against the per-time loops they replaced.

Each reference below walks its time grid one sample at a time, as the
package did before it evaluated trajectories on whole arrays:

* ``_ref_front_rows``: the spherical front (phi, e, u_delta, m) per time;
* ``_ref_audit_1d``: the 1-D balance functionals per time;
* ``_ref_audit_spherical``: the spherical balance functionals per time;
* ``_ref_time_segments``: the weak-identity time cuts by a per-interval scan.

Where the arithmetic is the same the results must be equal exactly. Two
exceptions compare within a few units of float64 roundoff: the ODE's dense
output, because scipy evaluates a batch of times with a matrix product whose
rounding can differ from one time alone in the last bit; and expression
fields, because numpy's array power can round differently from its scalar
power.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from dshock import (
    AuditInvalidError,
    DShockError,
    RiemannData1D,
    SphericalFrontState,
    audit,
    constant_field,
    integrate_front,
    make_battery,
    relativistic_flux,
    solve_constant_states,
    standard_flux,
    tabulated_flux,
    steady_converging_field,
    time_reversed,
    unit_sphere_area,
    with_front_speed_offset,
)
from dshock import spherical
from dshock.bumps import BumpFactor, TensorBump
from dshock.cli import _battery_box
from dshock.geometry.quadrature import gauss_panels
from dshock.scenario import solution_from_spec
from dshock.spherical import _local_front_speed, _side, expression_field, radial_moment_integral
from dshock.weakcheck import _time_segments

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# Dense-output rows: a few float64 roundoffs of the row's magnitude.
DENSE_RTOL = 16 * np.finfo(float).eps


# Spherical front -----------------------------------------------------------


def _closed_form_end(traj):
    """t_eps, where the ODE takes over from the massless closed form, or None."""
    steps = traj.steps
    return steps.t[1] if steps.e[0] == 0.0 and not traj.passive else None


def _ref_front_rows(traj, times):
    """(phi, e, u_delta, m) rows and a bootstrap mask, one time at a time."""
    rows, boot = [], []
    t0, phi0, t_eps = traj.steps.t[0], traj.steps.phi[0], _closed_form_end(traj)
    for t in times:
        t = min(max(float(t), 0.0), traj.t_end)
        if t_eps is not None and t <= t_eps:
            s, alpha = _local_front_speed(traj.inner, traj.outer, phi0, t0)
            phi, e, ud = phi0 + s * (t - t0), alpha * (t - t0), s
            boot.append(True)
        else:
            phi, e, ud = (float(v[0]) for v in traj.rows(np.array([t])))
            boot.append(False)
        m = e if traj.n == 1 else e * unit_sphere_area(traj.n) * np.asarray(phi) ** (traj.n - 1)
        rows.append((phi, e, ud, float(m)))
    return np.array(rows).T, np.array(boot)


@st.composite
def _front_problems(draw, kind):
    """Keyword arguments of ``integrate_front`` for a front of one start ``kind``."""
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
    return dict(inner=inner, outer=outer, init=init, n=n, t_end=draw(st.floats(0.1, 0.6)))


_START_KINDS = ("massive", "bootstrap", "passive")


@st.composite
def _trajectories(draw):
    kind = draw(st.sampled_from(_START_KINDS))
    traj = integrate_front(**draw(_front_problems(kind)))
    assert (_closed_form_end(traj) is not None) == (kind == "bootstrap")
    assert traj.passive == (kind == "passive")
    return traj


@pytest.mark.parametrize("kind", _START_KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_start_integrates_once_and_its_rows_give_its_steps(kind, data):
    problem = data.draw(_front_problems(kind))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_ivp(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spherical, "solve_ivp", counted)
        traj = integrate_front(**problem)
    assert len(calls) == 1
    steps = traj.steps
    got = np.array(traj.at(steps.t)[:3])
    want = np.array([steps.phi, steps.e, steps.u_delta])
    np.testing.assert_allclose(got, want, rtol=DENSE_RTOL, atol=0.0)
    if kind == "bootstrap":
        np.testing.assert_array_equal(got[:, 0], want[:, 0])


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
    times = np.array(fracs) * traj.t_end
    t_eps = _closed_form_end(traj)
    if t_eps is not None:
        # Both sides of the bootstrap end, and the end itself.
        times = np.concatenate([times, [0.0, 0.5 * t_eps, t_eps, 2.0 * t_eps]])
    ref, boot = _ref_front_rows(traj, times)
    got = np.array([traj.phi(times), traj.e(times), traj.u_delta(times), traj.m(times)])
    np.testing.assert_array_equal(got[:, boot], ref[:, boot])
    np.testing.assert_allclose(got[:, ~boot], ref[:, ~boot], rtol=DENSE_RTOL, atol=0.0)
    for k in (0, times.size - 1):
        t = times[k]
        one = [traj.phi(t), traj.e(t), traj.u_delta(t), traj.m(t)]
        assert all(type(v) is float for v in one)
        np.testing.assert_allclose(one, ref[:, k], rtol=DENSE_RTOL, atol=0.0)


# 1-D audit -----------------------------------------------------------------


def _ref_audit_1d(sol, times, box):
    """Columns (M, m, P, p, W, w, strict) of the 1-D audit, one time at a time."""
    a, b = box
    rows = []
    for t in times:
        (lo, hi), pos = sol.support(t), float(sol.phi(t))
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
                0.5 * e * (ud * ud),
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
        sol = solve_constant_states(d, 1.0, support0=draw(supports))
        if variant == "offset":
            sol = with_front_speed_offset(sol, draw(st.floats(-0.3, 0.3)))
        elif variant == "reversed":
            sol = time_reversed(sol)
    except DShockError:
        assume(False)
    return sol


def _reversed(rho_l, rho_r, u_l, u_r):
    data = RiemannData1D(rho_l, rho_r, u_l, u_r)
    return time_reversed(solve_constant_states(data, 1.0, (-5.0, 5.0)))


# The audit squares u_delta as numpy does, x * x. Python's x ** 2 calls libm's
# pow, which differs from x * x in the last bit for about 7 floats in 10,000
# (glibc 2.36, x86-64); the second example's u_delta is one of them.
@settings(max_examples=40, deadline=None)
@given(
    sol=_solutions(),
    times=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30, unique=True),
    pad=st.sampled_from([0.2, 0.02, -0.05]),
)
@example(
    sol=_reversed(4.951791039281108, 2.9850840855713474, 0.15150045183848843, -0.99999),
    times=[0.0, 0.9102784797218824],
    pad=0.2,
)
@example(
    sol=_reversed(4.222130187603917, 0.9806290122975756, 1.3391105744167742, -0.9969161786406477),
    times=[0.0, 0.5],
    pad=0.2,
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


# Spherical audit -----------------------------------------------------------


def _ref_audit_spherical(traj, box, times, panels=24, nodes=10):
    """Rows (M, m, boundary, W, w) and the strict flags of the spherical audit,
    one time at a time, or the message of the first check that fails."""
    a, b = box
    inner, outer = traj.inner, traj.outer
    n = traj.n
    area = unit_sphere_area(n) if n >= 2 else 1.0

    def weight(r):
        return area * np.asarray(r, dtype=float) ** (n - 1)

    def inflow(t):
        rho_o, u_o = _side(outer, b, t)
        rate = -rho_o * u_o * weight(b)
        if n == 1 or a > 0.0:
            rho_i, u_i = _side(inner, a, t)
            rate += rho_i * u_i * weight(a)
        return float(rate)

    phis, _, uds, m = traj.at(times)
    M = np.empty(times.size)
    boundary = np.zeros(times.size)
    W = np.empty(times.size)
    strict = np.empty(times.size, dtype=bool)
    for k, t in enumerate(times):
        phi, ud = float(phis[k]), float(uds[k])
        if not (a < phi < b):
            return f"front radius {phi} leaves the annulus at t={t}"
        for fld, name in ((inner, "inner"), (outer, "outer")):
            if fld is None:
                continue
            lo, hi = fld.support(float(t))
            if np.isfinite(lo) and name == "inner" and lo < a - 1e-12:
                return "inner support extends past the annulus"
            if np.isfinite(hi) and name == "outer" and hi > b + 1e-12:
                return "outer support extends past the annulus"
        M[k] = radial_moment_integral(inner, a, phi, t, weight, panels, nodes)
        M[k] += radial_moment_integral(outer, phi, b, t, weight, panels, nodes)
        W[k] = 0.5 * radial_moment_integral(inner, a, phi, t, weight, panels, nodes, moment=2)
        W[k] += 0.5 * radial_moment_integral(outer, phi, b, t, weight, panels, nodes, moment=2)
        if k:
            ts, ws = gauss_panels(times[k - 1], t, 1, 6)
            boundary[k] = boundary[k - 1] + float(ws @ [inflow(tq) for tq in ts])
        rho_i, u_i = _side(inner, phi, t)
        rho_o, u_o = _side(outer, phi, t)
        strict[k] = u_o < ud < u_i
    return np.array([M, m, boundary, W, 0.5 * m * uds ** 2]), strict


def _maybe_window(draw, lo, hi):
    """None, or a support window whose edges are drawn from the two ranges."""
    if not draw(st.booleans()):
        return None
    return draw(st.floats(*lo)), draw(st.floats(*hi))


@st.composite
def _spherical_audits(draw):
    kind = draw(st.sampled_from(["steady", "expression", "constant", "bootstrap", "passive"]))
    n = draw(st.integers(1, 4))
    phi0 = draw(st.floats(0.7, 2.0))
    if kind in ("steady", "expression"):
        # Edges that start below the front and above 2.6 move at -1.
        sup = _maybe_window(draw, (0.2, 0.7), (2.6, 3.8))
        if kind == "steady":
            outer = steady_converging_field(n, sup)
        else:
            edges = None if sup is None else (f"{sup[0]!r} - t", f"{sup[1]!r} - t")
            outer = expression_field(f"r^({1 - n})", "0 - 1", edges)
        inner = None
        init = SphericalFrontState(
            0.0, phi0, draw(st.floats(0.005, 0.2)), draw(st.floats(-0.9, -0.1))
        )
    else:
        u_o = draw(st.floats(-1.0, 0.3))
        gap = 0.0 if kind == "passive" else draw(st.floats(0.1, 1.5))
        inner_sup = _maybe_window(draw, (0.05, 0.6), (2.2, 2.6))
        outer_sup = _maybe_window(draw, (0.2, 0.7), (2.6, 3.8))
        inner = constant_field(draw(st.floats(0.2, 5.0)), u_o + gap, inner_sup)
        outer = constant_field(draw(st.floats(0.2, 5.0)), u_o, outer_sup)
        if kind == "constant":
            init = SphericalFrontState(
                0.0, phi0, draw(st.floats(0.005, 0.5)), u_o + gap * draw(st.floats(0.05, 0.95))
            )
        else:
            init = SphericalFrontState(0.0, phi0, 0.0, u_o + gap)
    try:
        traj = integrate_front(inner, outer, init, n=n, t_end=draw(st.floats(0.1, 0.6)))
    except DShockError:
        assume(False)
    return kind, traj


def _case(kind, inner, outer, init, n, t_end):
    return kind, integrate_front(inner, outer, init, n=n, t_end=t_end)


# A converging front that falls below r = 0.6 before t = 0.3.
_FOCUSING = _case(
    "steady", None, steady_converging_field(3), SphericalFrontState(0.0, 0.8, 0.01, -0.9), 3, 0.4
)
# Both supports leave the annulus (0.2, 2.9) at t = 0: the inner one is named.
_BOTH_CUT = _case(
    "constant",
    constant_field(2.0, 0.5, (0.1, 2.4)),
    constant_field(1.0, -0.5, (0.3, 3.7)),
    SphericalFrontState(0.0, 1.0, 0.1, 0.0),
    2,
    0.3,
)


@settings(max_examples=60, deadline=None)
@given(
    case=_spherical_audits(),
    box=st.tuples(st.sampled_from([0.0, 0.2, 0.6]), st.sampled_from([2.9, 3.3, 3.6])),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30, unique=True),
)
@example(case=_FOCUSING, box=(0.6, 3.6), fracs=[0.0, 0.25, 0.75, 1.0])
@example(case=_BOTH_CUT, box=(0.2, 2.9), fracs=[0.0, 1.0])
def test_audit_spherical_matches_per_time_loop(case, box, fracs):
    kind, traj = case
    times = np.sort(fracs) * traj.t_end
    assume(np.all(np.diff(times) > 0.0))
    ref = _ref_audit_spherical(traj, box, times)
    if isinstance(ref, str):
        with pytest.raises(AuditInvalidError) as info:
            audit(traj, times, box=box)
        assert str(info.value) == ref
        return
    rows, strict = ref
    rep = audit(traj, times, box=box)
    got = np.array([rep.M, rep.m, rep.boundary, rep.W, rep.w])
    np.testing.assert_array_equal(rep.entropy_strict, strict)
    if kind == "expression":
        np.testing.assert_allclose(got, rows, rtol=DENSE_RTOL, atol=0.0)
    else:
        np.testing.assert_array_equal(got, rows)


def _audit_outcome(front, times, box, rows):
    """The audit of ``front`` fed ``rows``: its report's fields, each as (dtype,
    shape, bytes), or the message it refused with."""
    try:
        rep = audit(front, times, box=box, front=rows)
    except AuditInvalidError as exc:
        return str(exc)
    fields = (np.asarray(getattr(rep, f.name)) for f in dataclasses.fields(rep))
    return [(v.dtype.str, v.shape, v.tobytes()) for v in fields]


@settings(max_examples=40, deadline=None)
@given(
    case=st.one_of(
        st.tuples(_solutions(), st.sampled_from([None, (-8.0, 8.0), (-1.0, 1.0)])),
        st.tuples(
            _spherical_audits().map(lambda c: c[1]), st.sampled_from([(0.0, 3.6), (0.6, 2.9)])
        ),
    ),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30, unique=True),
)
def test_an_audit_fed_its_rows_equals_the_audit_that_evaluates_them(case, fracs):
    # A runner hands the audit the rows it evaluated for its table.
    front, box = case
    times = np.sort(fracs) * front.t_end
    assume(np.all(np.diff(times) > 0.0))
    own = _audit_outcome(front, times, box, None)
    assert _audit_outcome(front, times, box, front.at(times)) == own


# Weak-identity time cuts ---------------------------------------------------


def _ref_crossings(traj, c, ts):
    """Sign changes of traj - c on the sample times ts: a sample at 0 between
    opposite signs, or brentq's root between two samples of opposite sign."""
    vals = np.asarray(traj(ts), dtype=float) - c
    if not np.all(np.isfinite(vals)):
        return []
    zeros = np.flatnonzero(vals[1:-1] == 0.0) + 1
    out = [float(ts[k]) for k in zeros if vals[k - 1] * vals[k + 1] < 0.0]
    for k in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        out.append(float(brentq(lambda s: float(traj(s)) - c, ts[k], ts[k + 1], xtol=1e-13)))
    return out


def _ref_trajs(sol):
    edges = [lambda t: sol.support(t)[0], lambda t: sol.support(t)[1]]
    return [sol.phi] + (edges if sol.support0 is not None else [])


def _ref_time_segments(sol, bump, samples=65):
    """The time cuts by a scan of ``samples`` times and brentq in each sign change."""
    (xlo, xhi), (t_lo, t_hi) = bump.space_box[0], bump.t_support
    ts = np.linspace(t_lo, t_hi, samples)
    cuts = {t_lo, t_hi}
    for traj in _ref_trajs(sol):
        for c in (xlo, xhi):
            cuts.update(_ref_crossings(traj, c, ts))
    segs = np.array(sorted(cuts))
    keep = np.diff(segs) > 1e-14
    return segs[:-1][keep], segs[1:][keep]


def _assert_cuts_match_scan(sol, bump, samples):
    """Check the cuts against a scan of ``samples`` times; return its crossing count.

    Each crossing the scan finds must equal a cut to 1e-13, plus the time a
    rounding of the level moves it: the scan finds the root of the rounded
    trajectory, which a slope v near 0 puts up to about eps |c| / |v| from the
    true one. A cut the scan does not find (two crossings of one level inside
    one sample interval show no sign change) must lie on a level.
    """
    (xlo, xhi), (t_lo, t_hi) = bump.space_box[0], bump.t_support
    ts = np.linspace(t_lo, t_hi, samples)
    got = np.unique(np.concatenate(_time_segments(sol, bump)))
    slopes = [sol.u_delta, lambda t: sol.edge_speed_l, lambda t: sol.edge_speed_r]
    found = []
    for traj, slope in zip(_ref_trajs(sol), slopes):
        for c in (xlo, xhi):
            for t in _ref_crossings(traj, c, ts):
                # At slope 0 (a front at rest on the level) no bound holds: inf.
                with np.errstate(divide="ignore"):
                    tol = 1e-13 + 8 * np.finfo(float).eps * (1.0 + abs(c)) / abs(float(slope(t)))
                assert np.min(np.abs(got - t)) <= tol, (t, tol, got)
                found.append(t)
    found = np.array(found)
    for g in got[1:-1]:
        if found.size == 0 or np.min(np.abs(found - g)) > 1e-13:
            gap = min(abs(float(traj(g)) - c) for traj in _ref_trajs(sol) for c in (xlo, xhi))
            assert gap <= 1e-12 * (1.0 + abs(xlo) + abs(xhi)), (g, gap)
    return found.size


def test_time_segments_match_scan_on_real_crossings():
    # Battery seed 7 on the 4:1 collision puts box edges where the front and
    # the support edges cross them; seed 5, the bundled weakcheck seed, does not.
    sol = solution_from_spec(json.loads((SCENARIOS / "asymmetric_riemann.json").read_text()))
    battery = make_battery(_battery_box(sol), count=6, seed=7, nonneg_count=2)
    assert sum(_assert_cuts_match_scan(sol, bump, 65) for bump in battery.functions) > 0


@settings(max_examples=40, deadline=None)
@given(sol=_solutions(st.sampled_from([None, (-5.0, 5.0)])), seed=st.integers(0, 2**16))
def test_time_segments_match_scan(sol, seed):
    for bump in make_battery(_battery_box(sol), count=6, seed=seed).functions:
        _assert_cuts_match_scan(sol, bump, 65)


def test_a_turning_front_crossing_twice_between_two_scan_samples_is_cut_twice():
    # The atom starts right-moving and turns left at t* where u_delta = 0; a box
    # edge just below the turning point is crossed at t* -/+ about 1e-4.
    d = RiemannData1D(1.0, 4.0, 1.0, -1.0, e0=0.5, u_delta0=0.5)
    sol = solve_constant_states(d, 1.0, support0=(-5.0, 5.0))
    turn = brentq(lambda t: float(sol.u_delta(t)), 0.0, 1.0, xtol=1e-15)
    # Time support [0, t_hi] puts t* in the middle of the scan's fifth interval.
    t_hi = turn * 64 / 4.5
    scan = np.linspace(0.0, t_hi, 65)
    edge = float(sol.phi(turn)) - 1e-8
    bump = TensorBump([BumpFactor(edge - 1.0, edge, (1.0,))], BumpFactor(0.0, t_hi, (1.0,)))
    assert _ref_time_segments(sol, bump)[0].size == 1
    cuts = _time_segments(sol, bump)[1][:-1]
    assert cuts.size == 2 and scan[4] < cuts[0] < turn < cuts[1] < scan[5]
    for cut in cuts:
        after = np.nextafter(cut, 1.0)
        assert (sol.phi(cut) - edge) * (sol.phi(after) - edge) <= 0.0


@st.composite
def _fronts_and_boxes(draw):
    """A constant-speed or atom-exact front of the standard, relativistic or
    tabulated flux, plain, time-reversed or with a speed offset, and a bump
    whose box edges are levels its trajectories reach inside its time support."""
    rho_l, rho_r = (10.0 ** draw(st.floats(-1.0, 1.0)) for _ in "lr")
    u_r = draw(st.floats(-2.0, 1.0))
    u_l = u_r + draw(st.floats(0.05, 3.0))
    kind = draw(st.sampled_from(["standard", "relativistic", "tabulated"]))
    support = None
    if kind == "tabulated":
        # Odd F and even N, so the front can be time-reversed; N != u F, so untruncated.
        a, b = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
        u = np.linspace(-11.0, 11.0, 45)
        flux = tabulated_flux(u, u + a * np.sin(u), u * (u + a * np.sin(u)) + b * np.cos(u))
    else:
        c0 = 10.0 ** draw(st.floats(-0.5, 1.0))
        flux = standard_flux(1) if kind == "standard" else relativistic_flux(1, c0)
        support = draw(st.sampled_from([None, (-5.0, 5.0)]))
    atom = {}
    if draw(st.booleans()):
        u_delta0 = u_r + draw(st.floats(0.05, 0.95)) * (u_l - u_r)
        atom = {"e0": 10.0 ** draw(st.floats(-2.0, 0.5)), "u_delta0": u_delta0}
    variant = draw(st.sampled_from(["plain", "reversed", "offset"]))
    t_lo = draw(st.floats(0.0, 0.9))
    t_hi = t_lo + draw(st.floats(0.05, 1.0 - t_lo))
    try:
        data = RiemannData1D(rho_l, rho_r, u_l, u_r, flux=flux, **atom)
        sol = solve_constant_states(data, 1.0, support)
        if variant == "reversed":
            sol = time_reversed(sol)
        elif variant == "offset":
            # Half the offsets stop the front inside the time support: an atom turns there.
            du = -float(sol.u_delta(t_lo + draw(st.floats(0.0, 1.0)) * (t_hi - t_lo)))
            sol = with_front_speed_offset(sol, draw(st.floats(-1.0, 1.0) | st.just(du)))
    except DShockError:
        assume(False)
    trajs = _ref_trajs(sol)
    xlo, xhi = sorted(
        float(draw(st.sampled_from(trajs))(t_lo + draw(st.floats(0.0, 1.0)) * (t_hi - t_lo)))
        for _ in "lh"
    )
    assume(xhi - xlo > 1e-3)
    return sol, TensorBump([BumpFactor(xlo, xhi, (1.0,))], BumpFactor(t_lo, t_hi, (1.0,)))


@settings(max_examples=60, deadline=None)
@given(case=_fronts_and_boxes())
def test_time_segments_match_a_fine_scan_for_every_flux_and_wrapper(case):
    _assert_cuts_match_scan(*case, 4097)
