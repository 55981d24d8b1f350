"""Tests for the 1-D and planar front-tracking solution containers."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dshock import (
    DeltaShockSolution1D,
    InvalidParameterError,
    PlanarSolution,
    RiemannData1D,
    SupportViolationError,
    relativistic_flux,
    solve_constant_states,
    standard_flux,
    tabulated_flux,
    time_reversed,
    with_front_speed_offset,
)


def _solution(rho_l=4.0, rho_r=1.0, u_l=1.0, u_r=-1.0, support=(-5.0, 5.0), t_end=1.0, **kw):
    d = RiemannData1D(rho_l, rho_r, u_l, u_r, **kw)
    return solve_constant_states(d, t_end, support)


def test_solution_fields():
    sol = _solution()
    assert sol.phi(0.9) == pytest.approx(0.3)
    assert sol.u_delta(0.5) == pytest.approx(1.0 / 3.0)
    assert sol.e(0.5) == pytest.approx(2.0)
    assert sol.rho(-1.0, 0.5) == pytest.approx(4.0)
    assert sol.rho(1.0, 0.5) == pytest.approx(1.0)
    assert sol.u(-1.0, 0.5) == pytest.approx(1.0)
    assert sol.u(1.0, 0.5) == pytest.approx(-1.0)
    # Without a support window the side states extend to infinity.
    free = solve_constant_states(RiemannData1D(4.0, 1.0, 1.0, -1.0), 1.0)
    assert (free.rho(-1.0, 0.9), free.u(-1.0, 0.9)) == (4.0, 1.0)
    assert (free.rho(1.0, 0.9), free.u(1.0, 0.9)) == (1.0, -1.0)


def test_support_edges_move_at_flux_speed():
    # For the standard flux the vacuum-contact edges travel with the
    # adjacent particles, u_l on the left and u_r on the right.
    sol = _solution()
    assert sol.edge_speed_l == pytest.approx(1.0)
    assert sol.edge_speed_r == pytest.approx(-1.0)
    assert sol.support(0.5) == pytest.approx((-4.5, 4.5))
    # Outside the (shrinking) support the state is vacuum.
    assert sol.rho(4.8, 0.5) == 0.0
    assert sol.u(4.8, 0.5) == 0.0
    assert sol.rho(4.8, 0.0) == pytest.approx(1.0)


def test_relativistic_edges_move_at_bounded_speed():
    fx = relativistic_flux(1, c0=1.0)
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=fx)
    sol = solve_constant_states(d, 1.0, support0=(-5.0, 5.0))
    assert sol.edge_speed_l == pytest.approx(fx.f1(1.0))
    assert abs(sol.edge_speed_l) < 1.0  # strictly below the speed limit
    assert sol.edge_speed_r == pytest.approx(fx.f1(-1.0))


def test_truncation_rejects_inconsistent_flux_table():
    # A table with N(u) != u F(u) cannot carry a vacuum-contact edge: the
    # mass and momentum jump conditions would demand different speeds.
    u = np.linspace(-3.0, 3.0, 121)
    fx = tabulated_flux(u, u, u**2 + 0.1)
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=fx)
    with pytest.raises(SupportViolationError):
        solve_constant_states(d, 1.0, support0=(-5.0, 5.0))
    # Untruncated states are still fine.
    solve_constant_states(d, 1.0)


def test_breakpoints_sorted():
    sol = _solution()
    pts = sol.breakpoints(0.5)
    assert pts == sorted(pts)
    assert len(pts) == 3
    assert pts[1] == pytest.approx(1.0 / 6.0)


def test_front_must_stay_inside_support():
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    with pytest.raises(SupportViolationError):
        solve_constant_states(d, 1.0, support0=(-5.0, -1.0))


def test_spatial_bounds_contain_support():
    sol = _solution()
    lo, hi = sol.spatial_bounds(0.2)
    for t in (0.0, 0.5, 1.0):
        edge_lo, edge_hi = sol.support(t)
        assert lo < edge_lo and edge_hi < hi


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
    assert rev.support0 == pytest.approx(sol.support(1.0))
    # And it closes back onto the original window.
    assert rev.support(1.0) == pytest.approx(sol.support0)


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
    sol = solve_constant_states(d, 1.0)
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
    base = solve_constant_states(d, 1.0, support0=(-5.0, 5.0))
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
    np.testing.assert_allclose(sol.tangential_deficit(g), [expected], atol=1e-14)
    # No slip, no deficit.
    still = _planar()
    np.testing.assert_allclose(still.tangential_deficit(still.base.u_delta(0.3)), [0.0], atol=1e-14)


def test_planar_rotation_covariance():
    sol = _planar(u_tan_l=0.5, u_tan_r=-0.25)
    th = 0.715
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rot = sol.rotated(R)
    np.testing.assert_allclose(rot.nu, R @ sol.nu, atol=1e-14)
    np.testing.assert_allclose(rot.U_side("l"), R @ sol.U_side("l"), atol=1e-14)
    np.testing.assert_allclose(
        rot.tangential_deficit(rot.base.u_delta(0.5)), sol.tangential_deficit(sol.base.u_delta(0.5))
    )


def test_planar_rejects_bad_frame():
    d = RiemannData1D(3.0, 1.0, 1.0, -0.8)
    base = solve_constant_states(d, 1.0)
    with pytest.raises(InvalidParameterError):
        PlanarSolution(
            base=base,
            frame=np.array([[1.0, 1.0], [0.0, 1.0]]),
            u_tan_l=np.zeros(1),
            u_tan_r=np.zeros(1),
        )


def test_planar_requires_standard_flux():
    d = RiemannData1D(3.0, 1.0, 1.0, -0.8, flux=relativistic_flux(1, 2.0))
    base = solve_constant_states(d, 1.0)
    with pytest.raises(InvalidParameterError):
        PlanarSolution(
            base=base,
            frame=np.eye(2),
            u_tan_l=np.zeros(1),
            u_tan_r=np.zeros(1),
        )


def _ref_support_check(sol):
    """The per-time support check that the array check replaced."""
    for t in np.linspace(0.0, sol.t_end, 33):
        (lo, hi), pos = sol.support(t), float(sol.phi(t))
        if not (lo <= pos <= hi):
            raise SupportViolationError(
                f"front leaves the support window at t={t}: {lo} .. {pos} .. {hi}"
            )
        if float(sol.e(t)) < -1e-12:
            raise SupportViolationError(f"front mass negative at t={t}")


def _outcome(check, *args):
    try:
        check(*args)
    except SupportViolationError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def _solution_fields(draw):
    """Fields of a 1-D solution, admissible or pushed out of its window."""
    relativistic = draw(st.booleans())
    flux = relativistic_flux(1, draw(st.floats(2.0, 4.0))) if relativistic else standard_flux(1)
    u_l, u_r = draw(st.floats(0.1, 1.5)), draw(st.floats(-1.5, -0.1))
    atom = {}
    if draw(st.booleans()):
        frac = draw(st.floats(0.05, 0.95))
        atom = {"e0": draw(st.floats(0.05, 2.0)), "u_delta0": u_r + frac * (u_l - u_r)}
    x0, t_end = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.2, 2.0))
    data = RiemannData1D(
        draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0)), u_l, u_r, flux=flux, x0=x0, **atom
    )
    sol = solve_constant_states(data, t_end)
    support = None
    if draw(st.booleans()):
        support = (x0 - draw(st.floats(-0.5, 5.0)), x0 + draw(st.floats(-0.5, 5.0)))
    # A shifted front speed can leave the window; a mass drain can go negative.
    du = draw(st.just(0.0) | st.floats(-3.0, 3.0))
    drain = draw(st.just(0.0) | st.floats(0.0, 10.0))

    def rows(t):
        phi, e, u_delta = sol.rows(t)
        return phi + du * t, e - drain * t, u_delta

    fixed = {f.name: getattr(sol, f.name) for f in fields(sol) if f.init}
    return {**fixed, "rows": rows, "support0": support}


@settings(max_examples=80, deadline=None)
@given(kw=_solution_fields())
def test_array_support_check_matches_per_time_loop(kw):
    # Build the instance without __post_init__ to run the reference on it.
    unchecked = object.__new__(DeltaShockSolution1D)
    for name, value in kw.items():
        object.__setattr__(unchecked, name, value)
    expected = _outcome(_ref_support_check, unchecked)
    assert _outcome(lambda: DeltaShockSolution1D(**kw)) == expected


def test_edge_speeds_are_computed_once(monkeypatch):
    sol = _solution()
    calls = []
    f1 = type(sol.flux).f1
    monkeypatch.setattr(type(sol.flux), "f1", lambda self, u: calls.append(u) or f1(self, u))
    for t in np.linspace(0.0, 1.0, 5):
        sol.support(t)
    assert calls == []  # both were cached by the support check
    # A copy made by dataclasses.replace computes its own speeds.
    assert time_reversed(sol).edge_speed_l == -1.0
