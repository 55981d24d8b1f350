"""Tests for the 1-D and planar front-tracking solution containers."""

import numpy as np
import pytest

from dshock import (
    InvalidParameterError,
    PlanarSolution,
    RiemannData1D,
    SupportViolationError,
    from_riemann,
    relativistic_flux,
    solve_constant_states,
    standard_flux,
    tabulated_flux,
    time_reversed,
    with_front_speed_offset,
)


def _solution(rho_l=4.0, rho_r=1.0, u_l=1.0, u_r=-1.0, support=(-5.0, 5.0), t_end=1.0, **kw):
    d = RiemannData1D(rho_l, rho_r, u_l, u_r, **kw)
    return from_riemann(solve_constant_states(d, t_end=t_end), t_end, support0=support)


def test_from_riemann_fields():
    sol = _solution()
    assert sol.phi(0.9) == pytest.approx(0.3)
    assert sol.u_delta(0.5) == pytest.approx(1.0 / 3.0)
    assert sol.e(0.5) == pytest.approx(2.0)
    assert sol.rho(-1.0, 0.5) == pytest.approx(4.0)
    assert sol.rho(1.0, 0.5) == pytest.approx(1.0)
    assert sol.u(-1.0, 0.5) == pytest.approx(1.0)
    assert sol.u(1.0, 0.5) == pytest.approx(-1.0)
    # Without a support window the side states extend to infinity.
    free = from_riemann(solve_constant_states(RiemannData1D(4.0, 1.0, 1.0, -1.0)), 1.0)
    assert (free.rho(-1.0, 0.9), free.u(-1.0, 0.9)) == (4.0, 1.0)
    assert (free.rho(1.0, 0.9), free.u(1.0, 0.9)) == (1.0, -1.0)


def test_support_edges_move_at_flux_speed():
    # For the standard flux the vacuum-contact edges travel with the
    # adjacent particles, u_l on the left and u_r on the right.
    sol = _solution()
    assert sol.edge_speed_l == pytest.approx(1.0)
    assert sol.edge_speed_r == pytest.approx(-1.0)
    assert float(sol.edge_l(0.5)) == pytest.approx(-4.5)
    assert float(sol.edge_r(0.5)) == pytest.approx(4.5)
    # Outside the (shrinking) support the state is vacuum.
    assert sol.rho(4.8, 0.5) == 0.0
    assert sol.u(4.8, 0.5) == 0.0
    assert sol.rho(4.8, 0.0) == pytest.approx(1.0)


def test_relativistic_edges_move_at_bounded_speed():
    fx = relativistic_flux(1, c0=1.0)
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=fx)
    sol = from_riemann(solve_constant_states(d, 1.0), 1.0, support0=(-5.0, 5.0))
    assert sol.edge_speed_l == pytest.approx(fx.f1(1.0))
    assert abs(sol.edge_speed_l) < 1.0  # strictly below the speed limit
    assert sol.edge_speed_r == pytest.approx(fx.f1(-1.0))


def test_truncation_rejects_inconsistent_flux_table():
    # A table with N(u) != u F(u) cannot carry a vacuum-contact edge: the
    # mass and momentum jump conditions would demand different speeds.
    u = np.linspace(-3.0, 3.0, 121)
    fx = tabulated_flux(u, u, u**2 + 0.1)
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=fx)
    path = solve_constant_states(d, 1.0)
    with pytest.raises(SupportViolationError):
        from_riemann(path, 1.0, support0=(-5.0, 5.0))
    # Untruncated states are still fine.
    from_riemann(path, 1.0)


def test_breakpoints_sorted():
    sol = _solution()
    pts = sol.breakpoints(0.5)
    assert pts == sorted(pts)
    assert len(pts) == 3
    assert pts[1] == pytest.approx(1.0 / 6.0)


def test_front_must_stay_inside_support():
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    path = solve_constant_states(d, t_end=1.0)
    with pytest.raises(SupportViolationError):
        from_riemann(path, 1.0, support0=(-5.0, -1.0))


def test_spatial_bounds_contain_support():
    sol = _solution()
    lo, hi = sol.spatial_bounds(0.2)
    for t in (0.0, 0.5, 1.0):
        assert lo < float(sol.edge_l(t)) and float(sol.edge_r(t)) < hi


def test_time_reversed_mirrors_states():
    sol = _solution(t_end=1.0)
    rev = time_reversed(sol)
    assert rev.u_l == -sol.u_l and rev.u_r == -sol.u_r
    for t in (0.0, 0.3, 1.0):
        assert float(rev.phi(t)) == pytest.approx(float(sol.phi(1.0 - t)), abs=1e-14)
        assert float(rev.e(t)) == pytest.approx(float(sol.e(1.0 - t)), abs=1e-13)
        assert float(rev.u_delta(t)) == pytest.approx(-float(sol.u_delta(1.0 - t)), abs=1e-14)
    # The reversed run starts loaded and sheds mass.
    assert float(rev.e(0.0)) == pytest.approx(4.0)
    assert float(rev.e(1.0)) == pytest.approx(0.0, abs=1e-13)


def test_time_reversed_support_follows_edges():
    sol = _solution()
    rev = time_reversed(sol)
    # Initial window of the reversal = final window of the forward run.
    assert rev.support0[0] == pytest.approx(float(sol.edge_l(1.0)))
    assert rev.support0[1] == pytest.approx(float(sol.edge_r(1.0)))
    # And it closes back onto the original window.
    assert float(rev.edge_l(1.0)) == pytest.approx(sol.support0[0])
    assert float(rev.edge_r(1.0)) == pytest.approx(sol.support0[1])


def test_double_reversal_is_identity():
    sol = _solution()
    back = time_reversed(time_reversed(sol))
    for t in (0.0, 0.4, 1.0):
        assert float(back.phi(t)) == pytest.approx(float(sol.phi(t)), abs=1e-13)
        assert float(back.e(t)) == pytest.approx(float(sol.e(t)), abs=1e-13)
    assert back.u_l == sol.u_l and back.u_r == sol.u_r


def test_time_reversal_needs_odd_even_flux():
    u = np.linspace(-3.0, 3.0, 121)
    fx = tabulated_flux(u, u + 0.05 * u**2, u**2 + 0.05 * u**3)
    d = RiemannData1D(2.0, 1.0, 0.5, -0.5, flux=fx)
    sol = from_riemann(solve_constant_states(d, 1.0), 1.0)
    with pytest.raises(InvalidParameterError):
        time_reversed(sol)


def test_with_front_speed_offset():
    sol = _solution()
    bad = with_front_speed_offset(sol, 0.1)
    assert float(bad.u_delta(0.5)) == pytest.approx(1.0 / 3.0 + 0.1)
    assert float(bad.phi(0.5)) == pytest.approx(float(sol.phi(0.5)) + 0.05)
    assert float(bad.e(0.5)) == pytest.approx(float(sol.e(0.5)))


# Planar solutions ---------------------------------------------------------


def _planar(u_tan_l=0.0, u_tan_r=0.0):
    d = RiemannData1D(3.0, 1.0, 1.0, -0.8)
    base = from_riemann(solve_constant_states(d, 1.0), 1.0, support0=(-5.0, 5.0))
    frame = np.array([[0.6, 0.8], [-0.8, 0.6]])
    return PlanarSolution(
        base=base,
        frame=frame,
        u_tan_l=np.array([u_tan_l]),
        u_tan_r=np.array([u_tan_r]),
    )


def test_planar_side_velocities():
    sol = _planar(u_tan_l=0.5, u_tan_r=-0.25)
    np.testing.assert_allclose(sol.nu, [0.6, 0.8])
    Ul = sol.U_side("l")
    assert float(Ul @ sol.nu) == pytest.approx(1.0)
    np.testing.assert_allclose(Ul - float(Ul @ sol.nu) * sol.nu, 0.5 * sol.frame[1], atol=1e-14)


def test_planar_front_state_and_entropy():
    from dshock import entropy_ok

    sol = _planar(u_tan_l=0.7, u_tan_r=0.7)
    f = sol.front_state(0.5)
    s = sol.side_states(0.5)
    assert entropy_ok(s, f)
    np.testing.assert_allclose(f.U_delta, float(sol.base.u_delta(0.5)) * sol.nu)


def test_planar_tangential_deficit():
    # Equal tangential slip with balanced densities: still a deficit
    # because the normal mass fluxes differ.
    sol = _planar(u_tan_l=0.5, u_tan_r=-0.25)
    b = sol.base
    g = float(b.u_delta(0.5))
    expected = (
        b.rho_l * 0.5 * b.u_l - b.rho_r * (-0.25) * b.u_r - (b.rho_l * 0.5 - b.rho_r * (-0.25)) * g
    )
    np.testing.assert_allclose(sol.tangential_deficit(0.5), [expected], atol=1e-14)
    # No slip, no deficit.
    np.testing.assert_allclose(_planar().tangential_deficit(0.3), [0.0], atol=1e-14)


def test_planar_rotation_covariance():
    sol = _planar(u_tan_l=0.5, u_tan_r=-0.25)
    th = 0.715
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rot = sol.rotated(R)
    np.testing.assert_allclose(rot.nu, R @ sol.nu, atol=1e-14)
    np.testing.assert_allclose(rot.U_side("l"), R @ sol.U_side("l"), atol=1e-14)
    np.testing.assert_allclose(rot.tangential_deficit(0.5), sol.tangential_deficit(0.5))


def test_planar_rejects_bad_frame():
    d = RiemannData1D(3.0, 1.0, 1.0, -0.8)
    base = from_riemann(solve_constant_states(d, 1.0), 1.0)
    with pytest.raises(InvalidParameterError):
        PlanarSolution(
            base=base,
            frame=np.array([[1.0, 1.0], [0.0, 1.0]]),
            u_tan_l=np.zeros(1),
            u_tan_r=np.zeros(1),
        )


def test_planar_requires_standard_flux():
    d = RiemannData1D(3.0, 1.0, 1.0, -0.8, flux=relativistic_flux(1, 2.0))
    base = from_riemann(solve_constant_states(d, 1.0), 1.0)
    with pytest.raises(InvalidParameterError):
        PlanarSolution(
            base=base,
            frame=np.eye(2),
            u_tan_l=np.zeros(1),
            u_tan_r=np.zeros(1),
        )