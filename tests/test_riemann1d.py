"""Tests for the 1-D two-state front solver."""

import numpy as np
import pytest

from dshock import (
    AmbiguousRootError,
    InvalidParameterError,
    NoDeltaShockError,
    RiemannData1D,
    admissible_front_speed,
    classical_shock_feasible,
    relativistic_flux,
    solve_constant_states,
    standard_flux,
    tabulated_flux,
)

# Independently computed front speed for the relativistic flux with
# c0 = 1 and data (4, 1, 1, -1): root of the jump quadratic in u_delta,
# evaluated with 50-digit decimal arithmetic.
RELATIVISTIC_SPEED_411 = 0.2751341324311643


def test_standard_speed_closed_form():
    # For F(u) = u, N(u) = u^2 the admissible root collapses to the
    # square-root-weighted mean of the side velocities.
    rng = np.random.default_rng(7)
    for _ in range(300):
        rho_l, rho_r = rng.uniform(0.1, 10.0, size=2)
        u_r = rng.uniform(-3.0, 3.0)
        u_l = u_r + rng.uniform(0.05, 4.0)
        d = RiemannData1D(rho_l, rho_r, u_l, u_r)
        sl, sr = np.sqrt(rho_l), np.sqrt(rho_r)
        expected = (sl * u_l + sr * u_r) / (sl + sr)
        assert admissible_front_speed(d) == pytest.approx(expected, abs=1e-12)


def test_reference_case_speed_and_mass():
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    path = solve_constant_states(d, t_end=2.0)
    assert path.u_delta(0.7) == pytest.approx(1.0 / 3.0, abs=1e-14)
    for t in (0.0, 0.5, 1.0, 2.0):
        assert path.phi(t) == pytest.approx(t / 3.0, abs=1e-14)
        assert path.e(t) == pytest.approx(4.0 * t, abs=1e-13)
        assert path.momentum(t) == pytest.approx(4.0 * t / 3.0, abs=1e-13)
    assert path.e_rate(1.0) == pytest.approx(4.0)
    assert path.momentum_rate(1.0) == pytest.approx(4.0 / 3.0)


def test_front_balance_residual_vanishes_along_path():
    d = RiemannData1D(2.0, 0.7, 1.3, -0.4)
    path = solve_constant_states(d, t_end=1.0)
    for t in (0.1, 0.5, 0.9):
        defc = path.deficits_at(t)
        assert path.e_rate(t) == pytest.approx(defc.mass, abs=1e-12)
        assert path.momentum_rate(t) == pytest.approx(float(defc.momentum[0]), abs=1e-12)


def test_speed_is_entropic():
    rng = np.random.default_rng(11)
    for _ in range(200):
        rho_l, rho_r = rng.uniform(0.05, 5.0, size=2)
        u_r = rng.uniform(-2.0, 2.0)
        u_l = u_r + rng.uniform(0.01, 3.0)
        s = admissible_front_speed(RiemannData1D(rho_l, rho_r, u_l, u_r))
        assert u_r < s < u_l


def test_equal_density_degenerate_quadratic():
    # [rho] = 0 reduces the quadratic to a linear equation; for the
    # standard flux the front moves at the arithmetic mean.
    d = RiemannData1D(2.5, 2.5, 0.8, -0.4)
    assert admissible_front_speed(d) == pytest.approx(0.2, abs=1e-13)


def test_rarefaction_data_raise():
    with pytest.raises(NoDeltaShockError):
        admissible_front_speed(RiemannData1D(1.0, 2.0, -1.0, 1.0))
    with pytest.raises(NoDeltaShockError):
        solve_constant_states(RiemannData1D(1.0, 2.0, -1.0, 1.0))


def test_no_jump_raises():
    with pytest.raises(NoDeltaShockError):
        admissible_front_speed(RiemannData1D(1.0, 1.0, 0.5, 0.5))


def test_classical_feasibility_matches_product_condition():
    rng = np.random.default_rng(2)
    for _ in range(400):
        rho_l = rng.choice([0.0, rng.uniform(0.1, 4.0)])
        rho_r = rng.choice([0.0, rng.uniform(0.1, 4.0)])
        u_l, u_r = rng.uniform(-2.0, 2.0, size=2)
        if rng.uniform() < 0.2:
            u_r = u_l
        d = RiemannData1D(rho_l, rho_r, u_l, u_r)
        assert classical_shock_feasible(d) == (rho_l * rho_r * (u_l - u_r) ** 2 == 0.0)


def test_classical_feasibility_requires_standard_flux():
    d = RiemannData1D(1.0, 1.0, 1.0, -1.0, flux=relativistic_flux(1, 1.0))
    with pytest.raises(InvalidParameterError):
        classical_shock_feasible(d)


def test_relativistic_reference_speed():
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=relativistic_flux(1, 1.0))
    path = solve_constant_states(d, t_end=1.0)
    assert path.u_delta(0.5) == pytest.approx(RELATIVISTIC_SPEED_411, abs=1e-13)
    # Mass accretes at the constant deficit rate, linear in t.
    rate = path.deficits_at(0.0).mass
    assert rate > 0.0
    assert path.e(0.5) == pytest.approx(0.5 * rate, rel=1e-12)


def test_relativistic_speed_slower_than_standard():
    # The bounded-velocity flux drags the front toward zero relative to
    # the standard model for this data.
    d_std = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    assert RELATIVISTIC_SPEED_411 < admissible_front_speed(d_std)


def test_tabulated_flux_agrees_with_standard():
    u = np.linspace(-4.0, 4.0, 801)
    fx = tabulated_flux(u, u, u**2)
    d_tab = RiemannData1D(3.0, 1.5, 0.9, -0.7, flux=fx)
    d_std = RiemannData1D(3.0, 1.5, 0.9, -0.7)
    assert admissible_front_speed(d_tab) == pytest.approx(
        admissible_front_speed(d_std), abs=1e-6
    )


def test_initial_atom_standard_closed_form():
    # A seeded atom relaxes toward the two-state front; mass and momentum
    # of the combined system are conserved exactly.
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0, e0=0.5, u_delta0=0.9)
    path = solve_constant_states(d, t_end=3.0)
    assert path.e(0.0) == pytest.approx(0.5)
    assert path.u_delta(0.0) == pytest.approx(0.9)
    for t in (0.2, 1.0, 3.0):
        defc = path.deficits_at(t)
        assert path.e_rate(t) == pytest.approx(defc.mass, rel=1e-9, abs=1e-11)
        assert path.momentum_rate(t) == pytest.approx(
            float(defc.momentum[0]), rel=1e-9, abs=1e-11
        )
    # Late-time speed approaches the unseeded front speed.
    assert path.u_delta(3.0) == pytest.approx(1.0 / 3.0, abs=2e-2)


def test_initial_atom_requires_velocity():
    with pytest.raises(InvalidParameterError):
        RiemannData1D(1.0, 1.0, 1.0, -1.0, e0=0.5)


def test_atom_entropy_violating_seed_raises():
    # An atom fired faster than the left characteristics cannot absorb
    # them; the data admit no overcompressive front from t = 0.
    with pytest.raises(NoDeltaShockError):
        solve_constant_states(RiemannData1D(1.0, 1.0, 1.0, -1.0, e0=0.1, u_delta0=2.0), t_end=1.0)


def test_generic_atom_ode_matches_closed_form():
    # The ODE fallback for seeded atoms reproduces the closed-form
    # standard-flux path when run on the same data.
    from dshock.riemann1d import _path_generic_atom, _path_standard_atom

    d = RiemannData1D(2.0, 1.0, 0.8, -0.6, e0=0.3, u_delta0=0.5)
    p_std = _path_standard_atom(d)
    p_ode = _path_generic_atom(d, t_end=1.5)
    for t in (0.3, 0.9, 1.5):
        assert p_ode.phi(t) == pytest.approx(p_std.phi(t), abs=1e-9)
        assert p_ode.e(t) == pytest.approx(p_std.e(t), rel=1e-9)
        assert p_ode.u_delta(t) == pytest.approx(p_std.u_delta(t), abs=1e-9)


def test_relativistic_atom_path():
    # Non-standard flux with a seed takes the ODE route; the balance laws
    # hold along it and the atom needs an integration horizon.
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=relativistic_flux(1, 1.0), e0=0.4, u_delta0=0.6)
    with pytest.raises(InvalidParameterError):
        solve_constant_states(d)
    path = solve_constant_states(d, t_end=2.0)
    for t in (0.5, 1.5):
        defc = path.deficits_at(t)
        assert path.e_rate(t) == pytest.approx(defc.mass, rel=1e-8)
        assert path.momentum_rate(t) == pytest.approx(float(defc.momentum[0]), rel=1e-8)
    assert path.u_delta(2.0) == pytest.approx(RELATIVISTIC_SPEED_411, abs=5e-2)


def test_vacuum_side_degenerate_root():
    # Vacuum on the right: the quadratic has the double root u_l, which
    # fails strict overcompression; the solver must refuse rather than
    # return a spurious front.
    with pytest.raises((NoDeltaShockError, AmbiguousRootError)):
        admissible_front_speed(RiemannData1D(1.0, 0.0, 1.0, -1.0))


@pytest.mark.parametrize(
    "kw",
    [
        {"rho_l": float("nan")},
        {"u_r": float("-inf")},
        {"e0": float("inf"), "u_delta0": 0.0},
        {"e0": 0.5, "u_delta0": float("nan")},
        {"x0": float("nan")},
    ],
)
def test_non_finite_data_rejected(kw):
    args = {"rho_l": 4.0, "rho_r": 1.0, "u_l": 1.0, "u_r": -1.0} | kw
    with pytest.raises(InvalidParameterError):
        RiemannData1D(**args)
