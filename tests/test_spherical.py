"""Tests for radial fields and the spherical front integrator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dshock import (
    AuditInvalidError,
    InvalidParameterError,
    RiemannData1D,
    SphericalFrontState,
    audit,
    constant_field,
    expression_field,
    free_flow_field,
    integrate_front,
    radial_moment_integral,
    solve_constant_states,
    steady_converging_field,
    unit_sphere_area,
    validate_field,
)


# Radial fields -----------------------------------------------------------


def test_constant_field_support_advects():
    f = constant_field(2.0, -0.5, support0=(1.0, 3.0))
    assert f.rho(2.0, 0.0) == pytest.approx(2.0)
    assert f.rho(0.9, 0.0) == 0.0
    # The window moves with the particles.
    assert f.rho(0.9, 1.0) == pytest.approx(2.0)
    assert f.rho(2.8, 1.0) == 0.0
    np.testing.assert_allclose(f.u(np.array([1.0, 2.0]), 1.0), [-0.5, -0.5])


def test_expression_field_eval():
    f = expression_field("r^2 * t", "0 - r", support_src=("1 + t", None))
    assert f.rho(2.0, 0.5) == pytest.approx(2.0)
    assert f.u(2.0, 0.5) == pytest.approx(-2.0)
    assert f.rho(1.2, 0.5) == 0.0  # below the moving lower edge


def test_steady_converging_field_solves_radial_system():
    for n in (2, 3):
        f = steady_converging_field(n)
        assert f.rho(2.0, 0.7) == pytest.approx(2.0 ** (1.0 - n))
        assert f.u(1.5, 0.0) == pytest.approx(-1.0)
        res = validate_field(f, n, (1.0, 3.0, 0.1, 0.5))
        assert res < 1e-7


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    lo0=st.floats(1.05, 2.0),
    width=st.floats(0.5, 3.0),
    bounded=st.booleans(),
    t=st.floats(0.0, 1.0),
    frac=st.floats(0.0, 1.0, exclude_max=True),
)
def test_steady_converging_field_is_its_free_flow(n, lo0, width, bounded, t, frac):
    # The closed form against the characteristic inversion of the same data.
    support = (lo0, lo0 + width) if bounded else None
    steady = steady_converging_field(n, support)
    flow = free_flow_field(lambda r0: r0 ** (1.0 - n), lambda r0: -1.0, n, support)
    assert steady.support(t) == flow.support(t)
    lo, hi = (lo0 - t, lo0 + width - t)
    r = np.array([lo + frac * (hi - lo), lo, hi])
    np.testing.assert_allclose(steady.rho(r, t), flow.rho(r, t), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(steady.u(r, t), flow.u(r, t), rtol=1e-13, atol=0.0)


def test_free_flow_field_linear_profile():
    # u0(r) = r spreads mass out; along characteristics r = r0 (1 + t) the
    # exact density is rho0(r0) (1 + t)^{-n} in the 1-D-geometry case n=1.
    f = free_flow_field(lambda r0: np.ones_like(r0), lambda r0: r0, n=1)
    t = 0.5
    assert f.u(3.0, t) == pytest.approx(3.0 / 1.5)
    assert f.rho(3.0, t) == pytest.approx(1.0 / 1.5)
    # The characteristic inversion carries ~1e-9 evaluation noise which the
    # validation stencil amplifies by 1/h; only order-1 errors matter here.
    res = validate_field(f, 1, (1.0, 3.0, 0.1, 0.5))
    assert res < 1e-4


def test_validate_field_flags_wrong_density():
    # A converging profile with the wrong radial exponent does not solve
    # the system in n=3.
    bad = expression_field("r^(0-1)", "0 - 1")
    assert validate_field(bad, 3, (1.0, 2.0, 0.1, 0.4)) > 1e-2


def test_front_state_validation():
    with pytest.raises(InvalidParameterError):
        SphericalFrontState(0.0, -1.0, 0.1, 0.0)
    with pytest.raises(InvalidParameterError):
        SphericalFrontState(0.0, 1.0, -0.1, 0.0)
    for bad in ((np.nan, 1.0, 0.1, 0.0), (0.0, np.nan, 0.1, 0.0),
                (0.0, 1.0, np.inf, 0.0), (0.0, 1.0, 0.1, -np.inf)):
        with pytest.raises(InvalidParameterError):
            SphericalFrontState(*bad)


# Front integration --------------------------------------------------------


def test_one_dimensional_front_matches_riemann():
    # n = 1 with constant sides is the plain two-state problem shifted to
    # positive coordinates: inner state plays the left side.
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    path = solve_constant_states(d, t_end=0.5)
    inner = constant_field(4.0, 1.0)
    outer = constant_field(1.0, -1.0)
    init = SphericalFrontState(0.0, 10.0, 0.0, 0.0)
    traj = integrate_front(inner, outer, init, n=1, t_end=0.5)
    for t in (0.1, 0.3, 0.5):
        assert traj.phi_at(t) == pytest.approx(10.0 + float(path.phi(t)), abs=1e-10)
        assert traj.e_at(t) == pytest.approx(float(path.e(t)), abs=1e-10)
        assert traj.u_delta_at(t) == pytest.approx(1.0 / 3.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    rho_l=st.floats(0.05, 20.0),
    rho_r=st.floats(0.05, 20.0),
    u_r=st.floats(-3.0, 3.0),
    gap=st.floats(0.01, 4.0),
)
def test_massless_front_matches_riemann_speed(rho_l, rho_r, u_r, gap):
    # From e = 0 the bootstrap takes its speed from the 1-D root solver, and
    # for constant sides the n = 1 ODE keeps the constant-speed path.
    u_l = u_r + gap
    path = solve_constant_states(RiemannData1D(rho_l, rho_r, u_l, u_r), t_end=0.5)
    init = SphericalFrontState(0.0, 10.0, 0.0, 0.0)
    traj = integrate_front(
        constant_field(rho_l, u_l), constant_field(rho_r, u_r), init, n=1, t_end=0.5
    )
    assert traj.t_stop == 0.5
    # The bootstrap speed is the Riemann root itself; the ODE then keeps it.
    assert traj.u_delta_at(0.0) == pytest.approx(float(path.u_delta(0.0)), rel=1e-12, abs=1e-12)
    for t in (0.1, 0.3, 0.5):
        assert traj.phi_at(t) == pytest.approx(10.0 + float(path.phi(t)), rel=1e-9, abs=1e-9)
        assert traj.e_at(t) == pytest.approx(float(path.e(t)), rel=1e-9, abs=1e-9)


def test_massless_front_started_late_bootstraps_from_its_start_time():
    # The bootstrap closed form runs from the start time t0 = 0.5, not from 0.
    init = SphericalFrontState(0.5, 1.0, 0.0, 0.0)
    traj = integrate_front(
        constant_field(2.0, 1.0), constant_field(1.0, -1.0), init, n=2, t_end=1.0
    )
    assert traj.phi_at(0.5) == 1.0
    assert traj.e_at(0.5) == 0.0
    t_eps = traj._boot[1]
    assert abs(traj.phi_at(np.nextafter(t_eps, 1.0)) - traj.phi_at(t_eps)) <= 1e-8
    with pytest.raises(InvalidParameterError):
        traj.phi_at(0.2)


def test_steady_converging_front_n3():
    n = 3
    outer = steady_converging_field(n)
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    traj = integrate_front(None, outer, init, n=n, t_end=0.6, r_min=1e-3)
    # The front keeps converging, faster than free fall but entropy-wise
    # between the (vacuum) inner and the u = -1 outer characteristics.
    phis = traj.phi
    assert np.all(np.diff(phis) < 0.0)
    assert np.all(traj.u_delta < 0.0)
    us = traj.u_delta
    assert np.all((-1.0 < us) & (us < 0.0))
    assert not traj.entropy_violated
    # Front mass m = e |S^2| phi^2 grows as the shell sweeps mass up.
    ms = [traj.m_at(t) for t in np.linspace(0.0, traj.t_stop, 9)]
    assert np.all(np.diff(ms) > 0.0)


def test_focusing_stops_at_r_min():
    outer = steady_converging_field(3)
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    traj = integrate_front(None, outer, init, n=3, t_end=10.0, r_min=0.05)
    assert traj.focused
    assert traj.t_stop < 10.0
    assert traj.phi_at(traj.t_stop) == pytest.approx(0.05, abs=1e-6)


def test_passive_advection_of_massless_front():
    # Equal states on both sides: nothing concentrates, the marker just
    # rides the common flow.
    inner = constant_field(1.0, -0.3)
    outer = constant_field(1.0, -0.3)
    init = SphericalFrontState(0.0, 2.0, 0.0, -0.3)
    traj = integrate_front(inner, outer, init, n=3, t_end=1.0)
    assert traj.passive
    assert traj.e_at(1.0) == 0.0
    assert traj.phi_at(1.0) == pytest.approx(2.0 - 0.3, abs=1e-9)


def test_entropy_violation_stops_integration():
    # The outer gas accelerates inward-to-outward over time while mass
    # accretion drags the front speed down toward it; once the outer
    # characteristics no longer run into the front the integrator stops
    # and flags the violation instead of continuing a non-entropic front.
    outer = expression_field("1", "0.8*t - 0.6")
    init = SphericalFrontState(0.0, 1.0, 0.05, -0.3)
    traj = integrate_front(None, outer, init, n=3, t_end=2.0, r_min=1e-3)
    assert traj.entropy_violated
    assert not traj.focused
    assert traj.t_stop < 2.0
    # At the stop time the lower entropy margin has closed.
    u_stop = traj.u_delta_at(traj.t_stop)
    assert u_stop == pytest.approx(0.8 * traj.t_stop - 0.6, abs=1e-6)


def test_initial_entropy_violation_raises():
    from dshock import NoDeltaShockError

    inner = constant_field(1.0, -0.8)
    outer = constant_field(1.0, -0.1)
    init = SphericalFrontState(0.0, 1.0, 0.05, -0.45)
    with pytest.raises(NoDeltaShockError):
        integrate_front(inner, outer, init, n=3, t_end=5.0, r_min=1e-3)


def test_integrate_front_validation():
    outer = steady_converging_field(3)
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    with pytest.raises(InvalidParameterError):
        integrate_front(None, outer, init, n=3, t_end=0.0)
    for t_end in (np.nan, np.inf):  # solve_ivp never ends on a NaN horizon
        with pytest.raises(InvalidParameterError):
            integrate_front(None, outer, init, n=3, t_end=t_end)
    with pytest.raises(InvalidParameterError):
        integrate_front(None, outer, init, n=3, t_end=1.0, r_min=2.0)


# Mass audit ----------------------------------------------------------------


def test_radial_moment_integral_converging_profile():
    # rho = r^{1-n} against the surface-area weight integrates to
    # area * (b - a) for any n.
    n = 3
    f = steady_converging_field(n)
    area = unit_sphere_area(n)

    def weight(r):
        return area * np.asarray(r) ** (n - 1)

    val = radial_moment_integral(f, 1.0, 3.5, 0.0, weight, panels=12, nodes=8)
    assert val == pytest.approx(area * 2.5, rel=1e-12)


def test_mass_audit_conserves_total():
    n = 3
    outer = steady_converging_field(n)
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    traj = integrate_front(None, outer, init, n=n, t_end=0.5, r_min=1e-3)
    rep = audit(traj, outer=outer, annulus=(0.0, 3.6))
    # The boundary term accounts for inflow at the outer edge; the
    # corrected total stays put at ODE accuracy.
    total = rep.sum_mass - rep.boundary
    assert np.max(np.abs(total - total[0])) / abs(total[0]) < 1e-8
    # rho u r^{n-1} = -1 everywhere, so the inflow is |S^{n-1}| per unit time.
    np.testing.assert_allclose(rep.boundary, unit_sphere_area(n) * rep.t, rtol=1e-12)
    assert np.all(np.diff(rep.m) > 0.0)  # front mass grows


def test_mass_audit_rejects_escaping_front():
    outer = steady_converging_field(3)
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    traj = integrate_front(None, outer, init, n=3, t_end=0.5, r_min=1e-3)
    with pytest.raises(AuditInvalidError):
        audit(traj, outer=outer, annulus=(0.9, 3.6))
    with pytest.raises(AuditInvalidError):
        audit(traj, outer=outer, annulus=(-1.0, 3.6))
