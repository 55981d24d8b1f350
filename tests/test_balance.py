"""Tests for the conservation/monotonicity audit and the energy inequality."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dshock import (
    AuditInvalidError,
    DShockError,
    FrontState,
    RiemannData1D,
    SideStates,
    SphericalFrontState,
    audit,
    check_energy_inequality_1d,
    constant_field,
    energy_dissipation_rate,
    integrate_front,
    relativistic_flux,
    solve_constant_states,
    steady_converging_field,
    time_reversed,
)


def _solution(rho_l=4.0, rho_r=1.0, u_l=1.0, u_r=-1.0, support=(-5.0, 5.0), t_end=1.0, **kw):
    d = RiemannData1D(rho_l, rho_r, u_l, u_r, **kw)
    return solve_constant_states(d, t_end, support)


def test_audit_1d_closed_form_conservation():
    rep = audit(_solution())
    assert rep.closed_form
    # Piecewise-constant sampling is exact; drift is pure roundoff.
    assert rep.mass_drift < 1e-13
    assert rep.momentum_drift < 1e-13
    assert rep.mass_conserved() and rep.momentum_conserved()
    assert rep.concentration_holds()
    assert rep.energy_monotone()
    assert np.all(rep.entropy_strict)
    assert np.all(rep.mdot > 0.0)
    # The front eats mass from both sides: m = 4t here.
    np.testing.assert_allclose(rep.m, 4.0 * rep.t, atol=1e-12)
    np.testing.assert_array_equal(rep.boundary, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    rho=st.tuples(st.floats(0.05, 10.0), st.floats(0.05, 10.0)),
    u=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
    c0=st.none() | st.floats(1.0, 3.0),
    atom=st.none() | st.tuples(st.floats(0.01, 5.0), st.floats(0.05, 0.95)),
    x0=st.floats(-2.0, 2.0),
    t_end=st.floats(0.1, 2.0),
)
def test_audit_1d_drift_is_closed_form_on_random_overcompressive_data(rho, u, c0, atom, x0, t_end):
    # u_l > u_r, both inside (-c, c) for the relativistic flux, where c = 3 for
    # the standard one; the support is wide enough that neither side runs out.
    c = 3.0 if c0 is None else c0
    u_l, u_r = c * u[0], -c * u[1]
    kw = {} if atom is None else dict(e0=atom[0], u_delta0=u_r + (u_l - u_r) * atom[1])
    flux = None if c0 is None else relativistic_flux(1, c0)
    try:
        d = RiemannData1D(*rho, u_l, u_r, flux=flux, x0=x0, **kw)
        sol = solve_constant_states(d, t_end, support0=(x0 - 20.0, x0 + 20.0))
    except DShockError:
        assume(False)
    rep = audit(sol)
    assert rep.mass_drift <= 1e-8
    assert rep.momentum_drift <= 1e-8


def test_audit_symmetric_dissipation_rate():
    # Equal densities, opposite unit velocities on [-5, 5]: kinetic energy
    # starts at 5 and burns at exactly rate 1 while the bulk shrinks.
    sol = _solution(rho_l=1.0, rho_r=1.0)
    rep = audit(sol)
    assert rep.sum_energy[0] == pytest.approx(5.0, abs=1e-12)
    rates = np.diff(rep.sum_energy) / np.diff(rep.t)
    np.testing.assert_allclose(rates, -1.0, atol=1e-10)
    # All the front momentum cancels by symmetry.
    np.testing.assert_allclose(rep.p, 0.0, atol=1e-13)
    np.testing.assert_allclose(rep.sum_momentum, 0.0, atol=1e-13)


def test_audit_requires_support():
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    sol = solve_constant_states(d, 1.0)  # untruncated
    with pytest.raises(AuditInvalidError):
        audit(sol)


def test_audit_box_must_contain_support():
    sol = _solution()
    with pytest.raises(AuditInvalidError):
        audit(sol, box=(-4.5, 4.5))  # initial support pokes out
    rep = audit(sol, box=(-8.0, 8.0))
    assert rep.mass_conserved()


def test_audit_time_reversed_flags():
    rev = time_reversed(_solution())
    rep = audit(rev)
    # Mass and momentum still balance: reversal preserves the weak form.
    assert rep.mass_conserved() and rep.momentum_conserved()
    # But nothing is entropic and the front sheds mass.
    assert not np.any(rep.entropy_strict)
    assert np.all(rep.mdot < 0.0)
    assert rep.concentration_holds()  # vacuously: no strict samples
    # Energy now increases; the monotonicity check must fail.
    assert not rep.energy_monotone()


def test_audit_spherical_trajectory():
    # Compact support inside the annulus: no flux through the audit
    # boundary, so M + m must hold still at ODE accuracy.
    n = 3
    outer = steady_converging_field(n, support0=(1.0, 3.5))
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    traj = integrate_front(None, outer, init, n=n, t_end=0.5, r_min=1e-3)
    rep = audit(traj, box=(0.0, 3.6))
    assert not rep.closed_form
    assert rep.mass_conserved()
    assert rep.concentration_holds()
    assert np.all(rep.entropy_strict)
    # Vector momentum vanishes identically by radial symmetry.
    assert rep.dim == n
    np.testing.assert_allclose(rep.P, 0.0)
    np.testing.assert_allclose(rep.p, 0.0)
    np.testing.assert_array_equal(rep.boundary, 0.0)


def test_audit_spherical_unbounded_support_leaks():
    # A field filling all of space keeps feeding mass through the audit
    # boundary, so the uncorrected total genuinely drifts; conservation
    # statements only apply to contained supports.
    outer = steady_converging_field(3)
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    traj = integrate_front(None, outer, init, n=3, t_end=0.3, r_min=1e-3)
    rep = audit(traj, box=(0.0, 3.6))
    assert not rep.mass_conserved()  # inflow at r = 3.6 is real mass


def test_audit_boundary_inflow_both_edges():
    # n = 1 with unbounded constant sides: rho u = 4 enters at the inner edge
    # and 1 * 1 at the outer one, so the boundary column is 5 t and
    # M + m - boundary stays put.
    inner, outer = constant_field(4.0, 1.0), constant_field(1.0, -1.0)
    init = SphericalFrontState(0.0, 10.0, 0.0, 0.0)
    traj = integrate_front(inner, outer, init, n=1, t_end=0.5)
    rep = audit(traj, box=(5.0, 15.0))
    np.testing.assert_allclose(rep.boundary, 5.0 * rep.t, rtol=1e-12, atol=1e-14)
    total = rep.sum_mass - rep.boundary
    np.testing.assert_allclose(total, total[0], rtol=1e-9)
    assert not rep.mass_conserved()


def test_audit_spherical_needs_annulus():
    outer = steady_converging_field(3)
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    traj = integrate_front(None, outer, init, n=3, t_end=0.3, r_min=1e-3)
    with pytest.raises(AuditInvalidError):
        audit(traj)


def test_balance_report_columns_shape():
    rep = audit(_solution())
    names, data = rep.columns()
    assert names[:3] == ["t", "M", "m"]
    assert names[-1] == "entropy_strict"
    assert data.shape == (rep.t.size, len(names))
    # The sum columns really are the sums.
    i_mass = names.index("sum_mass")
    np.testing.assert_allclose(data[:, i_mass], rep.M + rep.m)


def test_energy_dissipation_rate_symmetric():
    # rho = 1 on both sides, u = +-1, resting front: rate = 1/2 (1 + 1).
    s = SideStates(1.0, 1.0, np.array([1.0]), np.array([-1.0]))
    f = FrontState(e=0.0, nu=np.array([1.0]), G=0.0)
    assert energy_dissipation_rate(s, f) == pytest.approx(1.0)


def test_energy_dissipation_rate_tangential_contribution():
    # Tangential slip is destroyed at the mass-absorption rate.
    s = SideStates(2.0, 0.0, np.array([1.0, 3.0]), np.array([0.0, 0.0]))
    f = FrontState(e=0.0, nu=np.array([1.0, 0.0]), G=0.5)
    # 1/2 [rho^- T^- (a^- - g) + rho^- (a^- - g)^3] = 1/2 (2*9*0.5 + 2*0.125)
    assert energy_dissipation_rate(s, f) == pytest.approx(0.5 * (9.0 + 0.25))


def test_energy_dissipation_negative_when_reversed():
    s = SideStates(1.0, 1.0, np.array([-1.0]), np.array([1.0]))
    f = FrontState(e=0.0, nu=np.array([1.0]), G=0.0)
    assert energy_dissipation_rate(s, f) == pytest.approx(-1.0)


def test_energy_inequality_entropic_vs_reversed():
    sol = _solution()
    rep = check_energy_inequality_1d(sol, level=3)
    assert rep.passed(1e-6)
    assert rep.members >= 1
    rev = time_reversed(sol)
    rep_rev = check_energy_inequality_1d(rev, level=3)
    assert rep_rev.min_value <= -1e-3
    assert not rep_rev.passed(1e-6)
