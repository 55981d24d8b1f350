"""Tests for the 1-D two-state front solver."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dshock import (
    AmbiguousRootError,
    DeltaShockSolution1D,
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
from dshock.rh import jumps_1d

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
    sol = solve_constant_states(d, t_end=2.0)
    assert sol.u_delta(0.7) == pytest.approx(1.0 / 3.0, abs=1e-14)
    for t in (0.0, 0.5, 1.0, 2.0):
        assert sol.phi(t) == pytest.approx(t / 3.0, abs=1e-14)
        assert sol.e(t) == pytest.approx(4.0 * t, abs=1e-13)
        assert sol.e(t) * sol.u_delta(t) == pytest.approx(4.0 * t / 3.0, abs=1e-13)
    assert _rates(sol, 1.0) == pytest.approx((4.0, 4.0 / 3.0), rel=1e-10)


def _rates(sol, t, h=1e-5):
    """Central differences of e and e u_delta along the front at t.

    Truncation (h^2) and rounding (eps / h) keep them within about 1e-9
    relative of the exact rates on the paths tested here.
    """

    def momentum(t):
        return sol.e(t) * sol.u_delta(t)

    return (
        (sol.e(t + h) - sol.e(t - h)) / (2.0 * h),
        (momentum(t + h) - momentum(t - h)) / (2.0 * h),
    )


def _assert_rates_are_deficits(sol, times, rel=1e-8):
    """The front's own mass and momentum rates equal its deficits at each time."""
    for t in times:
        assert _rates(sol, t) == pytest.approx(sol.deficits(sol.u_delta(t)), rel=rel)


def test_front_balance_residual_vanishes_along_path():
    d = RiemannData1D(2.0, 0.7, 1.3, -0.4)
    sol = solve_constant_states(d, t_end=1.0)
    _assert_rates_are_deficits(sol, (0.1, 0.5, 0.9), rel=1e-10)


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
        solve_constant_states(RiemannData1D(1.0, 2.0, -1.0, 1.0), t_end=1.0)


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
    # The condition is exact in any unit of density: light states still
    # collide, and the front between these grows at 2e-8.
    d = RiemannData1D(1e-8, 1e-8, 1.0, -1.0)
    assert not classical_shock_feasible(d)
    assert solve_constant_states(d, t_end=1.0).e(1.0) == pytest.approx(2e-8, rel=1e-15)


def test_classical_feasibility_requires_standard_flux():
    d = RiemannData1D(1.0, 1.0, 1.0, -1.0, flux=relativistic_flux(1, 1.0))
    with pytest.raises(InvalidParameterError):
        classical_shock_feasible(d)


def test_relativistic_reference_speed():
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=relativistic_flux(1, 1.0))
    sol = solve_constant_states(d, t_end=1.0)
    assert sol.u_delta(0.5) == pytest.approx(RELATIVISTIC_SPEED_411, abs=1e-13)
    # Mass accretes at the constant deficit rate, linear in t.
    rate, _ = sol.deficits(sol.u_delta(0.0))
    assert rate > 0.0
    assert sol.e(0.5) == pytest.approx(0.5 * rate, rel=1e-12)


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
    sol = solve_constant_states(d, t_end=3.0)
    assert sol.e(0.0) == pytest.approx(0.5)
    assert sol.u_delta(0.0) == pytest.approx(0.9)
    _assert_rates_are_deficits(sol, (0.2, 1.0, 3.0))
    # Late-time speed approaches the unseeded front speed.
    assert sol.u_delta(3.0) == pytest.approx(1.0 / 3.0, abs=2e-2)


def test_initial_atom_requires_velocity():
    with pytest.raises(InvalidParameterError):
        RiemannData1D(1.0, 1.0, 1.0, -1.0, e0=0.5)


def test_atom_entropy_violating_seed_raises():
    # An atom fired faster than the left characteristics cannot absorb
    # them; the data admit no overcompressive front from t = 0.
    with pytest.raises(NoDeltaShockError):
        solve_constant_states(RiemannData1D(1.0, 1.0, 1.0, -1.0, e0=0.1, u_delta0=2.0), t_end=1.0)


def test_relativistic_atom_path():
    # A non-standard flux with a seed takes the same closed form as the
    # standard flux; the balance laws hold along it.
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=relativistic_flux(1, 1.0), e0=0.4, u_delta0=0.6)
    sol = solve_constant_states(d, t_end=2.0)
    _assert_rates_are_deficits(sol, (0.5, 1.5))
    assert sol.u_delta(2.0) == pytest.approx(RELATIVISTIC_SPEED_411, abs=5e-2)


@pytest.mark.parametrize(
    "atom, flux, kind",
    [
        ({}, standard_flux(1), "constant-speed"),
        ({"e0": 0.5, "u_delta0": 0.9}, standard_flux(1), "atom-exact"),
        ({"e0": 0.4, "u_delta0": 0.6}, relativistic_flux(1, 1.0), "atom-exact"),
    ],
)
def test_solution_detail_names_its_path(atom, flux, kind):
    sol = solve_constant_states(RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=flux, **atom), t_end=1.5)
    assert isinstance(sol, DeltaShockSolution1D)
    assert sol.detail["kind"] == kind
    # The detail records how the front was found; it is not part of the solution.
    assert dataclasses.replace(sol, detail={}) == sol


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


def _atom_reference_error(mp, data, times):
    """Largest error of a standard-flux atom at ``times`` against 50-digit arithmetic.

    For the standard flux (A = D) the displacement solves a quadratic, so the
    reference takes that closed form on the float data it was given, each
    root in its form without cancellation. Each quantity is measured against
    the size of the terms it sums, since the displacement crosses zero and
    A, C and e = e0 + A t - B X may cancel.
    """
    rho_l, rho_r, u_l, u_r, e0 = (data[k] for k in ("rho_l", "rho_r", "u_l", "u_r", "e0"))
    sol = solve_constant_states(RiemannData1D(**data), t_end=float(np.max(times)))
    x, e, u = sol.phi(times), sol.e(times), sol.u_delta(times)
    # The sizes of the terms of A, B and C.
    A_, B_, C_ = rho_l * abs(u_l) + rho_r * abs(u_r), rho_l + rho_r, rho_l * u_l**2 + rho_r * u_r**2
    rl, rr, ul, ur, E0, ud0 = map(mp.mpf, (rho_l, rho_r, u_l, u_r, e0, data["u_delta0"]))
    A, B, C, q0 = rl * ul - rr * ur, rl - rr, rl * ul**2 - rr * ur**2, E0 * ud0
    worst = 0.0
    for k, t in enumerate(times):
        s = E0 + A * t
        lin = C * t * t + 2 * q0 * t
        root = mp.sqrt(s * s - B * lin)
        if s > 0:
            X = lin / (s + root)
            x_terms = (C_ * t**2 + 2.0 * abs(float(q0)) * t) / float(s + root)
        else:
            X = (s - root) / B
            x_terms = float((root - s) / abs(B))
        e_ref = s - B * X
        u_ref = (q0 + C * t - A * X) / e_ref
        worst = max(
            worst,
            float(abs(x[k] - X)) / x_terms,
            float(abs(e[k] - e_ref)) / (e0 + A_ * t + B_ * abs(float(X))),
            float(abs(u[k] - u_ref)) / (abs(u_l) + abs(u_r)),
        )
    return worst


def test_atom_path_matches_a_50_digit_reference():
    # Each form of the displacement alone cancels on one side of s = 0:
    # (s - sqrt(disc)) / B was off by up to 1.4e-8 for s > 0, and
    # lin / (s + sqrt(disc)) is 0 / 0 where s < 0 and lin = 0.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(400):
        rho_l, rho_r = 10.0 ** rng.uniform(-1.3, 1.3, size=2)
        u_r = rng.uniform(-3.0, 3.0)
        u_l = u_r + rng.uniform(0.05, 4.0)
        data = {"rho_l": rho_l, "rho_r": rho_r, "u_l": u_l, "u_r": u_r}
        data["e0"] = 10.0 ** rng.uniform(-8.0, 1.0)
        data["u_delta0"] = u_r + rng.uniform(0.05, 0.95) * (u_l - u_r)
        worst = max(worst, _atom_reference_error(mp, data, 10.0 ** rng.uniform(-6.0, 0.0, size=5)))
    # Data with A < 0, sampled near the time t* = -2 q0 / C where
    # lin = C t^2 + 2 q0 t crosses zero while s = e0 + A t < 0.
    drawn = 0
    while drawn < 200:
        rho_l, rho_r = 10.0 ** rng.uniform(-1.3, 1.3, size=2)
        u_r = rng.uniform(-3.0, 0.0)
        u_l = u_r + rng.uniform(0.05, 4.0)
        u_delta0 = u_r + rng.uniform(0.05, 0.95) * (u_l - u_r)
        e0 = 10.0 ** rng.uniform(-8.0, 1.0)
        A, C = rho_l * u_l - rho_r * u_r, rho_l * u_l**2 - rho_r * u_r**2
        t_star = -2.0 * e0 * u_delta0 / C
        if not (0.0 < t_star <= 1.0 and e0 + A * t_star < 0.0):
            continue
        drawn += 1
        times = t_star * (1.0 + np.array([0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e-2]))
        data = {"rho_l": rho_l, "rho_r": rho_r, "u_l": u_l, "u_r": u_r, "e0": e0, "u_delta0": u_delta0}
        worst = max(worst, _atom_reference_error(mp, data, times))
    # At most 4.9e-14 measured over 6,000 draws of the first kind and 1,500 of the second.
    assert worst <= 1e-13


def test_atom_path_where_s_turns_negative():
    # s = e0 + A t = 0.1 - 0.8 t is -0.3 at t = 0.5, a row of `riemann --t-end 1`
    # at 41 samples, where lin = 0.6 t^2 - 0.3 t is 0: the front is at
    # X = 2 s / B = -2/3 with e = 0.3, while lin / (s + sqrt(disc)) is 0 / 0 up to rounding.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    data = {"rho_l": 1.0, "rho_r": 0.1, "u_l": -1.0, "u_r": -2.0, "e0": 0.1, "u_delta0": -1.5}
    sol = solve_constant_states(RiemannData1D(**data), t_end=1.0)
    assert sol.phi(0.5) == pytest.approx(-2.0 / 3.0, rel=1e-15)
    assert sol.e(0.5) == pytest.approx(0.3, rel=1e-15)
    # The rows after t = 0, where the path is exact and the displacement's terms vanish.
    assert _atom_reference_error(mp, data, np.linspace(0.0, 1.0, 41)[1:]) <= 1e-13


def _attracting_atom_50(mp, d, times):
    """(phi, u_delta, e) of the atom of ``d`` at 0 and ``times[1:] > 0`` in 50-digit arithmetic.

    The jumps are the float jumps of the data, taken as exact. u_delta moves
    to the root s of P(u) = B u^2 - (A + D) u + C with P'(s) < 0 whose side
    of the other root holds u0. With ell = log((u - s) / (u0 - s)), the front
    is the closed form below; each time is solved for ell by Newton's method.
    Returns None where no root attracts u0 or the mass vanishes before the
    last time. Asserts that the closed form
    solves the front's ODE: X' = u, e' = A - B u and (e u)' = C - D u, as
    derivatives in ell by ``mpmath.diff``, to 1e-30 of their terms.
    """
    A, B, C, D = map(mp.mpf, jumps_1d(d))
    e0, u0 = mp.mpf(d.e0), mp.mpf(d.u_delta0)
    disc = (A + D) ** 2 - 4 * B * C
    if B == 0:
        roots = [C / (A + D)]
    else:
        roots = [(A + D + sign * mp.sqrt(disc)) / (2 * B) for sign in (1, -1)] if disc >= 0 else []
    ahead = [r for r in roots if 2 * B * r < A + D and B * (u0 + r) < A + D]
    if not ahead:
        return None
    (s,) = ahead
    slope, m = 2 * B * s - (A + D), B * (u0 + s) - (A + D)
    g = (A - B * s) / slope
    w = B * (u0 - s) / m

    def front(ell):
        """(t, X, e, u) at ell."""
        big_l = mp.log1p(mp.expm1(ell) * w)
        e = e0 * mp.exp(g * ell - (1 + g) * big_l)
        y = e0 * (u0 - s) / slope * mp.expm1((1 + g) * (ell - big_l)) / (1 + g)
        t = (e - e0 + B * y) / (A - B * s)
        return t, y + s * t, e, s + mp.exp(ell) * (u0 - s)

    rows = [(d.x0, u0, e0)]
    for t_asked in map(mp.mpf, times[1:]):
        ell = mp.mpf(-1)
        while front(ell)[0] < t_asked:
            if front(2 * ell)[0] <= front(ell)[0]:  # t stops growing: the mass vanishes first
                return None
            ell *= 2
        while front(ell)[0] >= t_asked:
            ell /= 2
        for _ in range(100):  # Newton on log t, from below
            t, _, e, u = front(ell)
            step = mp.log(t / t_asked) * t * (slope + B * (u - s)) / e
            ell -= step
            if abs(step) <= mp.mpf(10) ** -45 * abs(ell):
                break
        t, x, e, u = front(ell)
        assert abs(t - t_asked) <= mp.mpf(10) ** -30 * t_asked
        dt = mp.diff(lambda v: front(v)[0], ell)
        for rate, of in ((u, lambda v: front(v)[1]), (A - B * u, lambda v: front(v)[2]),
                         (C - D * u, lambda v: front(v)[2] * front(v)[3])):
            residual = mp.diff(of, ell) - rate * dt
            assert abs(residual) <= mp.mpf(10) ** -30 * (abs(rate * dt) + e0 * (1 + abs(u)))
        rows.append((d.x0 + x, u, e))
    return rows


@st.composite
def _atoms_of_other_fluxes(draw):
    """Seeded data of the relativistic flux, or of a tabulated flux with N != u F."""
    rho_l, rho_r = (10.0 ** draw(st.floats(-2.0, 2.0)) for _ in "lr")
    u_r = draw(st.floats(-5.0, 5.0))
    u_l = u_r + draw(st.floats(0.05, 5.0))
    if draw(st.booleans()):
        flux = relativistic_flux(1, 10.0 ** draw(st.floats(-1.0, 1.0)))
    else:
        a, b = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5).filter(lambda b: abs(b) > 1e-3))
        u = np.linspace(-11.0, 11.0, 45)
        flux = tabulated_flux(u, u + a * np.sin(u), u * (u + a * np.sin(u)) + b * np.cos(u))
    return RiemannData1D(
        rho_l, rho_r, u_l, u_r, flux=flux, x0=draw(st.floats(-2.0, 2.0)),
        e0=10.0 ** draw(st.floats(-3.0, 1.0)), u_delta0=u_r + draw(st.floats(0.05, 0.95)) * (u_l - u_r),
    )


_ATOM_TIMES = np.array([0.0, 1e-4, 1e-2, 0.1, 0.5, 1.0])


@settings(max_examples=40, deadline=None)
@given(d=_atoms_of_other_fluxes())
@example(  # no admissible speed: u_delta leaves (u_r, u_l) for s = 1.2
    d=RiemannData1D(1.0, 1.0, 3.0, 2.0, flux=relativistic_flux(1, 1.0), e0=0.5, u_delta0=2.5)
)
@example(  # [rho] = -2.3e-14: the linear root c/(A+D) was off by 1.33e-14 of scale
    d=RiemannData1D(
        1.0, 1.000000000000023, 1.25, 1.0, flux=relativistic_flux(1, 1.0), e0=0.1, u_delta0=1.125
    )
)
def test_atoms_of_other_fluxes_match_a_50_digit_closed_form(d):
    # An ODE solve (DOP853 at rtol 1e-12) of these atoms was off by up to
    # 8.1e-11 of scale against this reference.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rows = _attracting_atom_50(mp, d, _ATOM_TIMES)
    if rows is None:
        with pytest.raises(NoDeltaShockError):
            solve_constant_states(d, t_end=1.0)
        return
    sol = solve_constant_states(d, t_end=1.0)
    got = np.array([sol.phi(_ATOM_TIMES), sol.u_delta(_ATOM_TIMES), sol.e(_ATOM_TIMES)])
    U = abs(d.u_l) + abs(d.u_r) + abs(d.u_delta0)
    scales = (abs(d.x0) + U * _ATOM_TIMES, U, d.e0 + (d.rho_l + d.rho_r) * U * _ATOM_TIMES)
    worst = max(
        float(abs(got[i, j] - rows[j][i])) / np.broadcast_to(scales[i], _ATOM_TIMES.shape)[j]
        for i in range(3) for j in range(1, _ATOM_TIMES.size)
    )
    assert worst <= 1e-14
    assert tuple(got[:, 0]) == (d.x0, d.u_delta0, d.e0)
    # u_delta moves monotonically to s, which it never passes.
    s, u = sol.detail["speed"], got[1]
    assert np.all((u[:-1] - u[1:]) * (d.u_delta0 - s) >= 0.0)
    assert np.all((u - s) * (d.u_delta0 - s) >= 0.0)


def test_an_atom_seeded_at_its_front_speed_keeps_it():
    for flux in (standard_flux(1), relativistic_flux(1, 1.0)):
        d = RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=flux)
        s = admissible_front_speed(d)
        sol = solve_constant_states(dataclasses.replace(d, e0=0.5, u_delta0=s), t_end=1.0)
        times = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(sol.u_delta(times), np.full(times.size, s))
        np.testing.assert_allclose(sol.phi(times), s * times, rtol=1e-15, atol=0.0)
        rate, _ = sol.deficits(sol.u_delta(0.0))
        np.testing.assert_allclose(sol.e(times), 0.5 + rate * times, rtol=1e-14)


@pytest.mark.parametrize(
    "rho_l, f, n, why",
    [
        (1.0, lambda u: -u, lambda u: -(u**2), "data carry no jump"),  # P = 0
        (1.0, lambda u: -2.0 * u, lambda u: u**2, "no single front speed"),  # P = 2 u repels
        (2.0, lambda u: u, lambda u: u**2 + 2.0 * u + 2.0, "no single front speed"),  # P = (u - 3)^2
        (2.0, lambda u: u, lambda u: u**2 + 5.0 * u + 5.0, "no real root"),  # P = u^2 - 6 u + 21
    ],
    ids=["P-vanishes", "repelling-root", "double-root", "no-real-root"],
)
def test_an_atom_with_no_attracting_front_speed_is_refused(rho_l, f, n, why):
    # A tabulated flux can leave u_delta no root of P(u) = B u^2 - (A + D) u
    # + C to move to. An ODE solve ran these: the first exited 3 with "front
    # mass negative at t=0.265625".
    u = np.linspace(-2.0, 2.0, 9)
    d = RiemannData1D(rho_l, 1.0, 1.0, -1.0, flux=tabulated_flux(u, f(u), n(u)), e0=0.5, u_delta0=0.2)
    with pytest.raises(NoDeltaShockError, match=why):
        solve_constant_states(d, t_end=0.5)


def test_relativistic_atom_tends_to_the_standard_atom_at_order_c0_squared():
    # |C(u) - u| <= |u|^3 / (2 c0^2), so each doubling of c0 quarters the gap.
    times = np.linspace(0.0, 1.0, 11)

    def curves(flux):
        sol = solve_constant_states(RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=flux, e0=0.5, u_delta0=0.1), 1.0)
        return np.array([sol.phi(times), sol.u_delta(times), sol.e(times)])

    standard = curves(standard_flux(1))
    gaps = np.array([np.max(np.abs(curves(relativistic_flux(1, c0)) - standard)) for c0 in (10, 20, 40, 80)])
    # Measured: 3.977, 3.994 and 3.999.
    np.testing.assert_allclose(gaps[:-1] / gaps[1:], 4.0, rtol=0.01)


def test_atoms_need_no_ode_solver(monkeypatch, tmp_path):
    import scipy.integrate

    from dshock.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a 1-D atom called solve_ivp")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
    u = np.linspace(-2.0, 2.0, 9)
    for flux in (standard_flux(1), relativistic_flux(1, 1.0), tabulated_flux(u, u, u**2 + 0.1 * np.cos(u))):
        d = RiemannData1D(4.0, 1.0, 1.0, -1.0, flux=flux, e0=0.4, u_delta0=0.3)
        assert np.all(np.isfinite(solve_constant_states(d, t_end=1.0).phi(np.linspace(0.0, 1.0, 5))))
    args = ["riemann", "--rho-l", "4", "--rho-r", "1", "--u-l", "1", "--u-r", "-1", "--flux", "relativistic",
            "--c0", "1", "--e0", "0.4", "--u-delta0", "0.3", "--t-end", "1", "--out", str(tmp_path / "r.csv")]
    assert main(args) == 0


# Admissible two-state data for each path kind: "constant" and
# "relativistic" start without an atom, "atom" and "relativistic-atom" seed
# one with the standard and the relativistic flux.
_PATH_KINDS = {
    "constant": "constant-speed",
    "relativistic": "constant-speed",
    "atom": "atom-exact",
    "relativistic-atom": "atom-exact",
}


@st.composite
def _admissible(draw, kinds=tuple(_PATH_KINDS)):
    kind = draw(st.sampled_from(kinds))
    rho_l = 10.0 ** draw(st.floats(-1.3, 1.3))
    rho_r = draw(st.one_of(st.just(rho_l), st.floats(-1.3, 1.3).map(lambda v: 10.0**v)))
    u_r = draw(st.floats(-3.0, 3.0))
    u_l = u_r + draw(st.floats(0.05, 4.0))
    data = {"rho_l": rho_l, "rho_r": rho_r, "u_l": u_l, "u_r": u_r, "x0": draw(st.floats(-2.0, 2.0))}
    if kind in ("relativistic", "relativistic-atom"):
        data["flux"] = relativistic_flux(1, draw(st.floats(0.5, 5.0)))
    if kind in ("atom", "relativistic-atom"):
        data["e0"] = 10.0 ** draw(st.floats(-8.0, 1.0))
        data["u_delta0"] = u_r + draw(st.floats(0.05, 0.95)) * (u_l - u_r)
    try:
        path_kind, _ = _solve(data)
    except NoDeltaShockError:  # a relativistic pair with no overcompressive speed
        assume(False)
    assert path_kind == _PATH_KINDS[kind]
    return data


_TIMES = np.array([0.0, 1e-6, 1e-3, 0.1, 0.37, 1.0])


def _solve(data):
    """The path kind and the (phi, u_delta, e) rows at _TIMES."""
    sol = solve_constant_states(RiemannData1D(**data), t_end=1.0)
    return sol.detail["kind"], np.array([sol.phi(_TIMES), sol.u_delta(_TIMES), sol.e(_TIMES)])


def _deviation(got, want, data, u_delta, speed=0.0):
    """Largest error of (phi, u_delta, e) rows, in units of the rounding of the data.

    The jumps A, B, C sum terms of size (rho_l + rho_r) U^2. Their rounding
    moves the front speed by itself over the mass growth rate
    alpha = rho_l (u_l - u_delta) + rho_r (u_delta - u_r), which is small
    when the states are close. So each row is measured against the size of
    its terms times kappa = (rho_l + rho_r) U / min alpha, with ``u_delta``
    the reference path's velocity and U the velocity scale, into which a
    boost by ``speed`` enters.
    """
    rho_l, rho_r, u_l, u_r = data["rho_l"], data["rho_r"], data["u_l"], data["u_r"]
    U = abs(u_l) + abs(u_r) + abs(speed)
    kappa = (rho_l + rho_r) * U / np.min(rho_l * (u_l - u_delta) + rho_r * (u_delta - u_r))
    terms = [abs(data["x0"]) + U * _TIMES, U, (rho_l + rho_r) * U * _TIMES + data.get("e0", 0.0)]
    with np.errstate(invalid="ignore"):  # 0 / 0 at t = 0, where both are exact
        return max(float(np.nanmax(np.abs(g - w) / (kappa * t))) for g, w, t in zip(got, want, terms))


@settings(max_examples=80, deadline=None)
@given(data=_admissible(), log_c=st.floats(-250.0, 200.0))
def test_density_scaling(data, log_c):
    # (rho, e) -> (c rho, c e) leaves phi and u_delta alone and scales e,
    # whatever the unit of density. With x0 = 0 the displacement itself is
    # compared. Before, an absolute floor in the front-speed and flux tests
    # refused data at c = 1e-100 or took a relativistic atom for a standard
    # one; the standard atom path was off by up to 0.04 in these units, and
    # an ODE solve of the relativistic atom by 1e-6 unscaled through its
    # absolute atol. Above c = 1e150 the standard atom path's s^2 overflowed,
    # until it took its masses and jumps in units of the data.
    data = dict(data, x0=0.0)
    kind, base = _solve(data)
    c = 10.0**log_c
    scaled = dict(data, rho_l=c * data["rho_l"], rho_r=c * data["rho_r"])
    if "e0" in data:
        scaled["e0"] = c * data["e0"]
    kind_c, curves = _solve(scaled)
    assert kind_c == kind
    curves[2] /= c
    # Largest found by a targeted search: 3.7e-16 on the closed forms. An ODE
    # solve of the relativistic atom reached 4.5e-12, as its steps moved with
    # the rounding.
    assert _deviation(curves, base, data, base[1]) <= 1e-14


@settings(max_examples=80, deadline=None)
@given(data=_admissible())
def test_reflection_is_exact(data):
    # x -> -x, u -> -u with the sides swapped mirrors the path bit for bit.
    mirrored = dict(
        data, rho_l=data["rho_r"], rho_r=data["rho_l"], u_l=-data["u_r"], u_r=-data["u_l"], x0=-data["x0"]
    )
    if "u_delta0" in data:
        mirrored["u_delta0"] = -data["u_delta0"]
    kind, (phi, u_delta, e) = _solve(data)
    kind_m, curves = _solve(mirrored)
    assert kind_m == kind
    np.testing.assert_array_equal(curves, np.array([-phi, -u_delta, e]))


@settings(max_examples=40, deadline=None)
@given(
    data=_admissible(kinds=("atom", "relativistic-atom")),
    log_t=st.lists(st.floats(-6.0, 0.0), min_size=2, max_size=8),
)
def test_each_time_of_an_array_gets_its_own_answer(data, log_t):
    # Each time stops its Newton iteration on its own test, so the times asked
    # with it leave its bits alone: the array equals the per-time loop.
    sol = solve_constant_states(RiemannData1D(**data), t_end=1.0)
    times = 10.0 ** np.array(log_t)
    for f in (sol.phi, sol.u_delta, sol.e):
        np.testing.assert_array_equal(f(times), [f(t) for t in times])


@settings(max_examples=80, deadline=None)
@given(data=_admissible(kinds=("constant", "atom")), speed=st.floats(-3.0, 3.0))
def test_galilean_boost(data, speed):
    # For the standard flux, u -> u + V moves the front by V t and leaves e.
    boosted = dict(data, u_l=data["u_l"] + speed, u_r=data["u_r"] + speed)
    if "u_delta0" in data:
        boosted["u_delta0"] = data["u_delta0"] + speed
    kind, (phi, u_delta, e) = _solve(data)
    kind_v, curves = _solve(boosted)
    assert kind_v == kind
    # Largest found by a targeted search: 5.6e-15, where |B| <= 1e-13 (rho_l
    # + rho_r) sends the front speed down the linear branch; that branch
    # costs at most 5e-14 in these units.
    assert _deviation(curves, [phi + speed * _TIMES, u_delta + speed, e], data, u_delta, speed) <= 1e-13
