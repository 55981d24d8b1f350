"""Acceptance suite: one test per headline capability, each printing a
single PASS/FAIL line with the measured numbers next to the tolerance it
was held to. Run with ``pytest -s tests/test_acceptance.py`` to see the
lines for passing criteria as well.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from dshock import (
    FrontState,
    RiemannData1D,
    SideStates,
    SphericalFrontState,
    audit,
    check_energy_inequality_1d,
    classical_shock_feasible,
    constant_field,
    delta_cluster_estimate,
    energy_dissipation_rate,
    evaluate_identities,
    integrate_front,
    make_battery,
    radial_shells,
    relativistic_flux,
    sample_riemann,
    solve_constant_states,
    steady_converging_field,
    time_reversed,
    unit_sphere_area,
    with_front_speed_offset,
)
from dshock.bumps import BumpFactor, TensorBump
from dshock.geometry import (
    MovingBall,
    MovingPlaneFront,
    MovingSphereFront,
    check_integration_by_parts,
    check_surface_transport,
    check_volume_transport,
    mean_curvature,
)
from dshock.riemann1d import admissible_front_speed
from dshock.scenario import (
    load_scenario,
    planar_from_spec,
    solution_from_spec,
    spherical_setup_from_spec,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def audited():
    """Balance audits of every bundled scenario that defines a front."""
    reports = {}
    t0 = time.perf_counter()
    for path in sorted(SCENARIOS.glob("*.json")):
        obj = load_scenario(path)
        kind = obj["kind"]
        if kind == "riemann1d":
            sol = solution_from_spec(obj)
            times = np.linspace(0.0, sol.t_end, int(obj.get("samples", 41)))
            rep = audit(sol, times)
        elif kind == "planar":
            base = planar_from_spec(obj).base
            times = np.linspace(0.0, base.t_end, int(obj.get("samples", 41)))
            rep = audit(base, times)
        elif kind == "spherical":
            inner, outer, init, kwargs = spherical_setup_from_spec(obj)
            traj = integrate_front(inner, outer, init, **kwargs)
            times = np.linspace(0.0, traj.t_end, int(obj.get("samples", 25)))
            rep = audit(traj, times, box=obj["annulus"])
        else:
            continue
        reports[path.stem] = rep
    return reports, time.perf_counter() - t0


def test_criterion_01_front_speed_and_oracle_match():
    t0 = time.perf_counter()
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    path = solve_constant_states(d, t_end=1.0)
    exact = abs(path.u_delta(0.7) - 1.0 / 3.0) < 1e-12 and all(
        abs(path.e(t) - 4.0 * t) < 1e-12 for t in (0.25, 0.5, 1.0)
    )
    ps = sample_riemann(d, L=2.0, N=200000, mode="midpoint", seed=0)
    est = delta_cluster_estimate(ps, 1.0)
    du = abs(est.u_delta_hat - 1.0 / 3.0)
    de = abs(est.mass_hat - 4.0) / 4.0
    elapsed = time.perf_counter() - t0
    ok = exact and du < 2e-3 and de < 5e-3 and elapsed < 10.0
    _report(
        1,
        "front speed + sticky oracle",
        ok,
        f"u_delta=1/3 exact={exact}, |du|={du:.2e} (<2e-3), "
        f"rel e err={de:.2e} (<5e-3), {elapsed:.1f}s (<10s)",
    )


def test_criterion_02_no_classical_shock_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    agree = 0
    for k in range(1000):
        # Mix in exact degeneracies so both branches get exercised.
        rho_l = 0.0 if k % 7 == 0 else float(rng.uniform(0.0, 5.0))
        rho_r = 0.0 if k % 11 == 0 else float(rng.uniform(0.0, 5.0))
        u_l = float(rng.uniform(-3.0, 3.0))
        u_r = u_l if k % 5 == 0 else float(rng.uniform(-3.0, 3.0))
        d = RiemannData1D(rho_l, rho_r, u_l, u_r)
        expected = rho_l * rho_r * (u_l - u_r) ** 2 == 0.0
        agree += classical_shock_feasible(d) == expected
    elapsed = time.perf_counter() - t0
    ok = agree == 1000 and elapsed < 1.0
    _report(
        2,
        "classical shock infeasible",
        ok,
        f"{agree}/1000 cases agree with rho_l*rho_r*(u_l-u_r)^2 == 0, {elapsed:.2f}s",
    )


def test_criterion_03_mass_momentum_balance(audited):
    reports, elapsed = audited
    worst_m, worst_p = 0.0, 0.0
    ok = len(reports) == 7 and elapsed < 30.0
    for name, rep in reports.items():
        tol = 1e-8 if rep.closed_form else 1e-6
        ok = ok and rep.mass_drift <= tol and rep.momentum_drift <= tol
        worst_m = max(worst_m, rep.mass_drift)
        worst_p = max(worst_p, rep.momentum_drift)
    _report(
        3,
        "M+m and P+p conserved",
        ok,
        f"{len(reports)} scenarios, worst mass drift {worst_m:.1e}, "
        f"worst momentum drift {worst_p:.1e} (<=1e-8 closed form, <=1e-6 ODE), "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_04_concentration(audited):
    reports, _ = audited
    ok = True
    strict_count = 0
    for name, rep in reports.items():
        if bool(np.all(rep.entropy_strict)):
            strict_count += 1
            ok = ok and bool(np.all(rep.mdot > 0.0)) and rep.concentration_holds()
    rev = reports["time_reversed_sanity"]
    reversed_fails = bool(np.any(rev.mdot < 0.0)) and not bool(np.all(rev.entropy_strict))
    ok = ok and strict_count == 6 and reversed_fails
    _report(
        4,
        "front mass strictly grows",
        ok,
        f"mdot > 0 at every sample of {strict_count} entropy-strict scenarios; "
        f"time-reversed scenario sheds mass as designed={reversed_fails}",
    )


def test_criterion_05_energy_monotone(audited):
    reports, _ = audited
    ok = True
    for name, rep in reports.items():
        if not bool(np.all(rep.entropy_strict)):
            continue  # the reversed sanity case is the designed violation
        slack = (1e-9 if rep.closed_form else 1e-6) * (abs(rep.sum_energy[0]) + 1.0)
        ok = ok and bool(np.all(np.diff(rep.sum_energy) <= slack))
        ok = ok and bool(np.all(np.diff(rep.W) <= slack))
    sym = reports["symmetric_riemann"]
    rates = np.gradient(sym.sum_energy, sym.t)
    rate_exact = bool(np.all(np.abs(rates + 1.0) < 1e-10))
    s = SideStates(1.0, 1.0, np.array([1.0]), np.array([-1.0]))
    f = FrontState(e=2.0, nu=np.array([1.0]), G=0.0)
    pointwise = abs(energy_dissipation_rate(s, f) - 1.0) < 1e-14
    rev_grows = bool(np.any(np.diff(reports["time_reversed_sanity"].sum_energy) > 1e-3))
    ok = ok and rate_exact and pointwise and rev_grows
    _report(
        5,
        "W+w nonincreasing",
        ok,
        f"all entropic scenarios within slack; symmetric case dissipates at rate 1 "
        f"exactly={rate_exact and pointwise}; reversed case increases={rev_grows}",
    )


def test_criterion_06_weak_identity_residuals():
    t0 = time.perf_counter()
    worst_res, worst_order = 0.0, np.inf
    for name in ("symmetric_riemann", "asymmetric_riemann"):
        sol = solution_from_spec(load_scenario(SCENARIOS / f"{name}.json"))
        lo, hi = sol.spatial_bounds(0.1)
        battery = make_battery(
            [(lo, hi), (0.0, sol.t_end * (1.0 - 1e-9))], count=6, seed=5
        )
        res = evaluate_identities(sol, battery, levels=(0, 1, 2, 3, 4))
        worst_res = max(worst_res, res.max_residual)
        worst_order = min(worst_order, float(np.min(res.orders)))
    # Symmetric data have [rho] = 0, which makes the mass identity blind
    # to a speed offset; the asymmetric case is the discriminating one.
    sol = solution_from_spec(load_scenario(SCENARIOS / "asymmetric_riemann.json"))
    lo, hi = sol.spatial_bounds(0.1)
    battery = make_battery([(lo, hi), (0.0, sol.t_end * (1.0 - 1e-9))], count=6, seed=5)
    bad = with_front_speed_offset(sol, 0.1)
    res_bad = evaluate_identities(bad, battery, levels=(2, 3))
    detect = float(np.max(res_bad.per_member[:, 0]))
    elapsed = time.perf_counter() - t0
    ok = worst_res < 1e-6 and worst_order >= 4.0 and detect >= 1e-2
    _report(
        6,
        "weak residuals",
        ok,
        f"max residual {worst_res:.1e} (<1e-6), min order {worst_order:.1f} (>=4), "
        f"perturbed mass residual {detect:.2e} (>=1e-2), {elapsed:.1f}s",
    )


def test_criterion_07_geometry_suite():
    t0 = time.perf_counter()
    curv_err = 0.0
    for n in (2, 3):
        for r0 in (0.5, 1.0, 2.0):
            front = MovingSphereFront(np.zeros(n), r0)
            quad = front.patch_quadrature(0.0, level=1)
            target = -(n - 1) / (2.0 * r0)
            curv_err = max(
                curv_err,
                max(abs(mean_curvature(front, x, 0.0) - target) for x in quad.nodes[:8]),
            )

    def field(pts, t):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.exp(-0.5 * np.sum(pts**2, axis=1)) * (1.0 + 0.3 * np.sin(2.0 * t))

    circle = MovingSphereFront(np.zeros(2), lambda t: 2.0 - t, radius_rate=lambda t: -1.0)
    ball = MovingBall(np.zeros(2), lambda t: 1.0 + 0.5 * t, radius_rate=lambda t: 0.5)
    dts = (0.04, 0.02, 0.01)
    surf = [check_surface_transport(field, circle, 0.4, dt, level=2).residual for dt in dts]
    vol = [check_volume_transport(field, ball, 0.4, dt, level=2).residual for dt in dts]
    orders = [
        float(np.min(np.log2(np.asarray(r[:-1]) / np.asarray(r[1:])))) for r in (surf, vol)
    ]
    plane = MovingPlaneFront(np.array([1.0, 0.0]), (0.0, 0.3), window_half_width=4.0)
    phi = TensorBump(
        [BumpFactor(-1.0, 1.0), BumpFactor(-1.0, 1.0)], BumpFactor(0.05, 0.8)
    )
    ibp = check_integration_by_parts(field, phi, plane, t_end=1.0, level=2).residual
    elapsed = time.perf_counter() - t0
    ok = (
        curv_err <= 1e-8
        and min(orders) >= 1.7  # second-order scheme, allowing prefactor wobble
        and ibp < 1e-6
        and elapsed < 10.0
    )
    _report(
        7,
        "geometry suite",
        ok,
        f"curvature error {curv_err:.1e} (<=1e-8), transport orders "
        f"{orders[0]:.2f}/{orders[1]:.2f} (>=1.7), IBP residual {ibp:.1e} (<1e-6), "
        f"{elapsed:.1f}s (<10s)",
    )


def test_criterion_08_spherical_consistency():
    t0 = time.perf_counter()
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    path = solve_constant_states(d, t_end=0.5)
    traj1 = integrate_front(
        constant_field(4.0, 1.0),
        constant_field(1.0, -1.0),
        SphericalFrontState(0.0, 10.0, 0.0, 0.0),
        n=1,
        t_end=0.5,
    )
    err1d = max(
        max(
            abs(traj1.phi(t) - 10.0 - float(path.phi(t))),
            abs(traj1.e(t) - float(path.e(t))),
            abs(traj1.u_delta(t) - 1.0 / 3.0),
        )
        for t in np.linspace(0.05, 0.5, 10)
    )

    n, r_min = 3, 0.05
    outer = steady_converging_field(n, (1.0, 3.5))
    traj = integrate_front(
        None,
        outer,
        SphericalFrontState(0.0, 1.0, 0.01, -0.5),
        n=n,
        t_end=1.5,
        r_min=r_min,
    )
    ts = np.linspace(0.0, traj.t_end, 40)
    phis = np.array([traj.phi(t) for t in ts])
    keep = phis >= 2.0 * r_min  # compare until the front nears focusing
    ts, phis = ts[keep], phis[keep]
    area = unit_sphere_area(n)
    masses = np.array([traj.e(t) * area * traj.phi(t) ** (n - 1) for t in ts])
    # Early-time mass error is one shell of granularity over the cluster
    # mass, ~ total/(N m(t)); 2e4 shells keep it a few tenths of a percent.
    ps = radial_shells(
        None, outer, n=n, N=20000, box=(1.0, 3.5), front_seed=(1.0, 0.01, -0.5), r_min=1e-3
    )
    est = delta_cluster_estimate(ps, float(ts[-1]), times=ts)
    phi_err = float(np.max(np.abs(est.position_history - phis) / phis))
    m_err = float(np.max(np.abs(est.mass_history - masses) / masses))
    elapsed = time.perf_counter() - t0
    ok = err1d < 1e-10 and phi_err < 1e-2 and m_err < 1e-2 and elapsed < 60.0
    _report(
        8,
        "spherical vs 1-D and shells",
        ok,
        f"n=1 mismatch {err1d:.1e} (<1e-10), shell oracle phi err {phi_err:.2%}, "
        f"m err {m_err:.2%} (<1%), {elapsed:.1f}s (<60s)",
    )


def test_criterion_09_relativistic_limit():
    c0 = 1e3
    rel = relativistic_flux(1, c0)
    rng = np.random.default_rng(9)
    worst_speed, worst_bound = 0.0, 0.0
    for _ in range(50):
        u_l, u_r = sorted(rng.uniform(-2.0, 2.0, size=2))[::-1]
        if u_l - u_r < 0.05:
            u_l += 0.05
        rho_l, rho_r = rng.uniform(0.2, 5.0, size=2)
        s_std = admissible_front_speed(RiemannData1D(rho_l, rho_r, u_l, u_r))
        s_rel = admissible_front_speed(RiemannData1D(rho_l, rho_r, u_l, u_r, flux=rel))
        worst_speed = max(worst_speed, abs(s_rel - s_std))
        for u in (u_l, u_r):
            worst_bound = max(worst_bound, abs(rel.f1(u) - u) - abs(u) ** 3 / (2.0 * c0**2))
    # The analytic bound is strict; leave room for the rounding noise of
    # the C(u) - u subtraction itself.
    bound_ok = worst_bound <= 1e-15
    ok = worst_speed <= 1e-4 and bound_ok
    _report(
        9,
        "relativistic limit",
        ok,
        f"50-case speed gap {worst_speed:.1e} (<=1e-4), "
        f"flux bound |C(u)-u| <= |u|^3/(2 c0^2) holds={bound_ok}",
    )


def test_criterion_10_energy_inequality():
    mins = []
    for name in ("symmetric_riemann", "asymmetric_riemann"):
        sol = solution_from_spec(load_scenario(SCENARIOS / f"{name}.json"))
        mins.append(check_energy_inequality_1d(sol).min_value)
    entropic_min = min(mins)
    rev = time_reversed(
        solution_from_spec(load_scenario(SCENARIOS / "asymmetric_riemann.json"))
    )
    rev_min = check_energy_inequality_1d(rev).min_value
    ok = entropic_min >= -1e-6 and rev_min <= -1e-3
    _report(
        10,
        "energy inequality",
        ok,
        f"entropic battery min {entropic_min:.1e} (>=-1e-6), "
        f"time-reversed min {rev_min:.1e} (<=-1e-3)",
    )
