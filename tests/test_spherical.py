"""Tests for radial fields and the spherical front integrator."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dshock import (
    AuditInvalidError,
    CausticError,
    InvalidDimensionError,
    InvalidParameterError,
    NoDeltaShockError,
    RadialField,
    RiemannData1D,
    SphericalFrontState,
    audit,
    constant_field,
    expression_field,
    free_flow_field,
    integrate_front,
    radial_moment_integral,
    radial_shells,
    solve_constant_states,
    steady_converging_field,
    unit_sphere_area,
    validate_field,
)
from dshock.spherical import _side


# Radial fields -----------------------------------------------------------


def test_constant_field_support_advects():
    f = constant_field(2.0, -0.5, support0=(1.0, 3.0))
    assert f.state(2.0, 0.0) == (2.0, -0.5)
    assert f.state(0.9, 0.0) == (0.0, 0.0)
    # The window moves with the particles.
    assert f.state(0.9, 1.0) == (2.0, -0.5)
    assert f.state(2.8, 1.0) == (0.0, 0.0)
    np.testing.assert_allclose(f.state(np.array([1.0, 2.0]), 1.0)[1], [-0.5, -0.5])


@pytest.mark.parametrize("edge", ["abc", float("nan")])
def test_numeric_support_edges_must_be_numbers(edge):
    # Only expression fields take edges as formulas in t.
    with pytest.raises(InvalidParameterError, match="expected a number"):
        constant_field(2.0, -0.5, support0=(edge, 3.0))
    with pytest.raises(InvalidParameterError, match="expected a number"):
        steady_converging_field(3, (1.0, edge))
    with pytest.raises(InvalidParameterError, match="expected a number"):
        free_flow_field(lambda r0: 1.0, lambda r0: -1.0, 3, (edge, 3.0))


def test_expression_field_eval():
    f = expression_field("r^2 * t", "0 - r", support_src=("1 + t", None))
    assert f.state(2.0, 0.5) == pytest.approx((2.0, -2.0))
    assert f.state(1.2, 0.5) == (0.0, 0.0)  # below the moving lower edge


def test_side_states_are_vacuum_where_density_is_not_positive():
    # rho = r - 2 is not positive up to r = 2, where u = 1/(r - 1) is never
    # evaluated (at r = 1 it would divide by zero). Arrays pair each radius
    # with its own time and equal the per-point side states.
    f = expression_field("r - 2", "1/(r - 1)")
    r, t = np.array([0.5, 1.0, 2.0, 3.0]), np.array([0.0, 0.1, 0.2, 0.3])
    rho, u = f.state(r, t)
    np.testing.assert_array_equal(rho, [0.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(u, [0.0, 0.0, 0.0, 0.5])
    assert [f.state(rk, tk) for rk, tk in zip(r, t)] == list(zip(rho, u))
    assert [a.shape for a in _side(None, r, t)] == [r.shape, r.shape]
    assert _side(None, 1.0, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("support, arrays", [(None, 5.26), ((0.5, 2.5), 4.22)])
def test_state_at_one_time_holds_few_arrays_of_its_radii(support, arrays):
    # At one time the support window is two numbers, not two arrays of r's
    # shape. state(r, 0.0) on 200k radii peaks at 5.25 and 4.22 arrays of
    # them (measured); it peaked at 7.25 and 6.22 while t was spread over r
    # first. The window keeps 2/3 of the radii inside.
    import tracemalloc

    f = constant_field(1.0, -1.0, support0=support)
    r = np.linspace(0.01, 3.0, 200_000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rho, u = f.state(r, 0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= arrays * r.nbytes
    np.testing.assert_array_equal(rho, 1.0 if support is None else 1.0 * ((r >= 0.5) & (r <= 2.5)))
    assert [f.state(rk, 0.0) for rk in r[::20_000]] == list(zip(rho[::20_000], u[::20_000]))


def test_steady_converging_field_solves_radial_system():
    for n in (2, 3):
        f = steady_converging_field(n)
        assert f.state(2.0, 0.7) == pytest.approx((2.0 ** (1.0 - n), -1.0))
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
    for want, got in zip(steady.state(r, t), flow.state(r, t)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_free_flow_field_linear_profile():
    # u0(r) = r spreads mass out; along characteristics r = r0 (1 + t) the
    # exact density is rho0(r0) (1 + t)^{-n} in the 1-D-geometry case n=1.
    f = free_flow_field(lambda r0: np.ones_like(r0), lambda r0: r0, n=1)
    t = 0.5
    assert f.state(3.0, t) == pytest.approx((1.0 / 1.5, 3.0 / 1.5))
    # The characteristic inversion carries ~1e-9 evaluation noise which the
    # validation stencil amplifies by 1/h; only order-1 errors matter here.
    res = validate_field(f, 1, (1.0, 3.0, 0.1, 0.5))
    assert res < 1e-4


def _ref_invert(u0, r: float, t: float) -> float:
    """Foot r0 of the characteristic through (r, t), one scalar brentq per point.

    This is the per-point inversion that ``free_flow_field`` ran before it
    inverted whole arrays, kept as the reference for the array code.
    """
    from scipy.optimize import brentq

    if t == 0.0:
        return float(r)

    def g(r0):
        return r0 + t * u0(r0) - r

    width = max(1.0, abs(t) * (abs(u0(r)) + 1.0))
    a, b = r - width, r + width
    for _ in range(60):
        if g(a) <= 0.0 <= g(b):
            break
        a -= width
        b += width
        width *= 2.0
    else:
        raise AssertionError(f"no bracket at r={r}, t={t}")
    return brentq(g, a, b, xtol=1e-14)


_EPS = np.finfo(float).eps


@st.composite
def _free_flow_data(draw):
    """Non-caustic data with feet away from the origin.

    |u0'| <= 0.8 and t <= 1 keep 1 + t u0' >= 0.2; |u0| <= 1.5 on (0.5, 5.5)
    keeps the foot of every r in [2, 4] inside it.
    """
    c0 = draw(st.floats(-0.5, 0.5))
    if draw(st.booleans()):
        c1 = draw(st.floats(-0.4, 0.4))
        u0 = lambda x: c0 + c1 * (x - 3.0)  # noqa: E731
    else:
        k = draw(st.floats(0.8, 3.0))
        a = draw(st.floats(0.0, 0.8)) / k
        p = draw(st.floats(0.0, 6.0))
        u0 = lambda x: c0 + a * np.sin(k * x + p)  # noqa: E731
    d0 = draw(st.floats(0.5, 2.0))
    d1 = draw(st.floats(-0.4, 0.4)) * d0
    m = draw(st.integers(1, 6))
    r = draw(st.lists(st.floats(2.0, 4.0), min_size=m, max_size=m))
    t = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=m, max_size=m))
    return (lambda x: d0 + d1 * np.cos(x)), u0, np.array(r), np.array(t)


@settings(max_examples=80, deadline=None)
@given(data=_free_flow_data(), n=st.sampled_from([1, 2, 3]))
def test_free_flow_state_matches_scalar_inversion(data, n):
    # One array inversion against one brentq per point. u = u0(r0) agrees
    # to rounding. rho divides by 1 + t u0'(r0), where u0' is a central
    # difference of step h = 1e-7 max(1, |r0|): the two inversions stop a
    # few ulps apart, and each ulp of r0 can move that difference by the
    # rounding of u0 and of r0 +- h over h, which bounds the rho tolerance.
    rho0, u0, r, t = data
    rho, u = free_flow_field(rho0, u0, n).state(r, t)
    for k, (rk, tk) in enumerate(zip(r, t)):
        r0 = _ref_invert(u0, rk, tk)
        h = 1e-7 * max(1.0, abs(r0))
        slope = (u0(r0 + h) - u0(r0 - h)) / (2.0 * h)
        jac = 1.0 + tk * slope
        ratio = (r0 / rk) ** (n - 1) if n > 1 else 1.0
        scale = abs(u0(r0)) + abs(slope) * abs(r0)
        noise = 16.0 * _EPS * tk * scale / (h * jac)
        assert abs(u[k] - u0(r0)) <= 1e-13 * (1.0 + abs(u0(r0)))
        want = rho0(r0) * ratio / jac
        assert abs(rho[k] - want) <= (1e-13 + noise) * want


def test_free_flow_evaluates_u0_on_whole_arrays():
    # One array inversion per state call: u0 never runs point by point.
    shapes = set()

    def u0(x):
        shapes.add(np.shape(x))
        return 0.2 * np.sin(x) - 0.3

    f = free_flow_field(lambda x: 1.0 + 0.0 * x, u0, 3)
    f.state(np.linspace(1.0, 3.0, 50), np.linspace(0.0, 0.8, 50))
    assert shapes == {(49,), (50,)}  # the point at t = 0 needs no inversion


def test_free_flow_faults_name_the_point():
    # u0'(2) = -4, so the characteristic from r0 = 2 (which stays at r = 2)
    # is crossed by its neighbours once t > 1/4.
    crossing = free_flow_field(lambda x: 1.0 + 0.0 * x, lambda x: -np.arctan(4.0 * (x - 2.0)), 2)
    with pytest.raises(CausticError, match=r"characteristics cross.* at r=2\.0, t=0\.3"):
        crossing.state(np.array([1.0, 2.0]), np.array([0.1, 0.3]))
    unreachable = free_flow_field(lambda x: 1.0 + 0.0 * x, lambda x: np.sqrt(x - 10.0), 2)
    with pytest.raises(CausticError, match=r"no characteristic reaches the point at r=2\.0, t=0\.5"):
        unreachable.state(2.0, 0.5)
    # A density that is not finite is an error, never a NaN or a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pole = free_flow_field(lambda x: 1.0 / (x - 2.0), lambda x: 0.0 * x, 2)
        with pytest.raises(InvalidParameterError, match=r"not finite at r=2\.0, t=0\.0: rho=inf"):
            pole.state(np.array([1.0, 2.0]), 0.0)
        origin = free_flow_field(lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x, 3)
        with pytest.raises(InvalidParameterError, match=r"r=0\.0"):
            origin.state(0.0, 0.3)


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
        assert traj.phi(t) == pytest.approx(10.0 + float(path.phi(t)), abs=1e-10)
        assert traj.e(t) == pytest.approx(float(path.e(t)), abs=1e-10)
        assert traj.u_delta(t) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_1d_and_spherical_fronts_answer_to_the_same_names():
    # phi, u_delta and e take an array of times and give arrays of its shape,
    # and the end is a float t_end, on both fronts.
    times = np.linspace(0.0, 0.5, 6).reshape(2, 3)
    sol = solve_constant_states(RiemannData1D(4.0, 1.0, 1.0, -1.0), t_end=0.5)
    traj = integrate_front(
        constant_field(4.0, 1.0),
        constant_field(1.0, -1.0),
        SphericalFrontState(0.0, 10.0, 0.0, 0.0),
        n=1,
        t_end=0.5,
    )
    for front in (sol, traj):
        assert isinstance(front.t_end, float) and front.t_end == 0.5
        for name in ("phi", "u_delta", "e"):
            assert getattr(front, name)(times).shape == times.shape
    np.testing.assert_allclose(traj.phi(times) - 10.0, sol.phi(times), atol=1e-10)
    np.testing.assert_allclose(traj.e(times), sol.e(times), atol=1e-10)


def test_at_is_phi_e_u_delta_and_m_of_one_evaluation():
    # Both fronts evaluate one function of the times: at(t) gives what the
    # four named methods give, bit for bit, arrays of t's shape or floats.
    times = np.linspace(0.0, 0.5, 6).reshape(2, 3)
    atom = solve_constant_states(RiemannData1D(4.0, 1.0, 1.0, -1.0, e0=0.5, u_delta0=0.1), 0.5)
    shell = integrate_front(
        None, steady_converging_field(3), SphericalFrontState(0.0, 1.0, 0.01, -0.5), n=3, t_end=0.5
    )
    for front in (atom, shell):
        for t, kind in ((times, np.ndarray), (0.3, float)):
            values = front.at(t)
            named = (front.phi(t), front.e(t), front.u_delta(t), front.m(t))
            for got, want in zip(values, named):
                assert type(got) is type(want) is kind
                np.testing.assert_array_equal(got, want, strict=True)
                assert np.shape(got) == np.shape(t)
    assert atom.at(0.3)[3] == atom.at(0.3)[1]  # m is e in 1-D
    phi, e, _, m = shell.at(0.3)
    assert m == e * unit_sphere_area(3) * phi**2


def test_a_dimension_whose_sphere_area_overflows_is_refused_before_any_work(monkeypatch):
    # From n = 344 on, Gamma(n/2) passes the largest float: math.gamma raised
    # OverflowError in the audit, after the front ODE had run.
    assert 0.0 < unit_sphere_area(343) < np.inf
    with pytest.raises(InvalidDimensionError, match="dimension must lie in 1 .. 343, got 344"):
        unit_sphere_area(344)
    monkeypatch.setattr("dshock.spherical.solve_ivp", lambda *a, **k: pytest.fail("integrated"))
    untouched = RadialField(raw=None, support=lambda t: pytest.fail("field evaluated"))
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    with pytest.raises(InvalidDimensionError):
        integrate_front(None, untouched, init, n=350, t_end=0.5)
    with pytest.raises(InvalidDimensionError):
        radial_shells(None, untouched, n=350, N=1000, box=(1.0, 3.5))


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
    assert traj.t_end == 0.5
    # The bootstrap speed is the Riemann root itself; the ODE then keeps it.
    assert traj.u_delta(0.0) == pytest.approx(float(path.u_delta(0.0)), rel=1e-12, abs=1e-12)
    for t in (0.1, 0.3, 0.5):
        assert traj.phi(t) == pytest.approx(10.0 + float(path.phi(t)), rel=1e-9, abs=1e-9)
        assert traj.e(t) == pytest.approx(float(path.e(t)), rel=1e-9, abs=1e-9)


def test_massless_front_started_late_takes_its_closed_form_from_its_start_time():
    # The massless closed form runs from the start time t0 = 0.5, not from 0,
    # up to t_eps, where the ODE takes over: the steps' second time.
    init = SphericalFrontState(0.5, 1.0, 0.0, 0.0)
    traj = integrate_front(
        constant_field(2.0, 1.0), constant_field(1.0, -1.0), init, n=2, t_end=1.0
    )
    assert traj.phi(0.5) == 1.0
    assert traj.e(0.5) == 0.0
    assert traj.steps.t[0] == 0.5 and traj.steps.e[0] == 0.0
    t_eps = traj.steps.t[1]
    assert abs(traj.phi(np.nextafter(t_eps, 1.0)) - traj.phi(t_eps)) <= 1e-8
    with pytest.raises(InvalidParameterError):
        traj.phi(0.2)


def test_front_ode_reads_each_side_window_once(monkeypatch):
    # Every side evaluation applies the support window once: each edge
    # formula runs exactly as often as the density and the velocity.
    from dshock.expressions import Expression

    counts = {}
    call = Expression.__call__

    def counted(self, **env):
        counts[self.source] = counts.get(self.source, 0) + 1
        return call(self, **env)

    monkeypatch.setattr(Expression, "__call__", counted)
    outer = expression_field("r^(0-2)", "0-1", ("1-t", "3.5-t"))
    init = SphericalFrontState(t=0.0, phi=1.0, e=0.01, u_delta=-0.5)
    integrate_front(None, outer, init, n=3, t_end=0.6)
    assert counts["1-t"] == counts["3.5-t"] == counts["r^(0-2)"] == counts["0-1"] > 0


def test_steady_converging_front_n3():
    n = 3
    outer = steady_converging_field(n)
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    traj = integrate_front(None, outer, init, n=n, t_end=0.6, r_min=1e-3)
    # The front keeps converging, faster than free fall but entropy-wise
    # between the (vacuum) inner and the u = -1 outer characteristics.
    phis = traj.steps.phi
    assert np.all(np.diff(phis) < 0.0)
    assert np.all(traj.steps.u_delta < 0.0)
    us = traj.steps.u_delta
    assert np.all((-1.0 < us) & (us < 0.0))
    assert not traj.entropy_violated
    # Front mass m = e |S^2| phi^2 grows as the shell sweeps mass up.
    ms = [traj.m(t) for t in np.linspace(0.0, traj.t_end, 9)]
    assert np.all(np.diff(ms) > 0.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    phi0=st.floats(1.0, 3.0),
    e0=st.floats(0.05, 2.0),
    u0=st.floats(-0.95, -0.05),
    t_end=st.floats(0.05, 0.6),
)
def test_front_into_steady_inflow_matches_its_closed_form(n, phi0, e0, u0, t_end):
    # Vacuum inside, rho = r^{1-n} and u = -1 outside. With M = phi^{n-1} e
    # the front equations read M' = 1 + u_delta and (M u_delta)' = -M', so
    # M (1 + u_delta) = C = M0 (1 + u0), M(t) = sqrt(M0^2 + 2 C t),
    # u_delta = C / M - 1 and phi = phi0 - t + M - M0.
    init = SphericalFrontState(0.0, phi0, e0, u0)
    traj = integrate_front(
        None, steady_converging_field(n), init, n=n, t_end=t_end, rtol=1e-12, atol=1e-14
    )
    assert traj.t_end == t_end and not (traj.focused or traj.entropy_violated)
    m0 = phi0 ** (n - 1) * e0
    c = m0 * (1.0 + u0)
    steps = traj.steps
    m = np.sqrt(m0**2 + 2.0 * c * steps.t)
    assert np.max(np.abs(steps.phi - (phi0 - steps.t + m - m0))) <= 1e-10
    assert np.max(np.abs(steps.u_delta - (c / m - 1.0))) <= 1e-10


_SCALING_TIMES = np.linspace(0.0, 0.3, 13)


@st.composite
def _constant_fronts(draw):
    """A front between constant states, massless or with mass, that runs to t = 0.3."""
    u_o = draw(st.floats(-2.0, 1.0))
    u_i = u_o + draw(st.floats(0.2, 2.0))
    rho_i, rho_o = (10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(2))
    e0 = draw(st.one_of(st.just(0.0), st.floats(-2.0, 0.0).map(lambda v: 10.0**v)))
    u0 = u_o + draw(st.floats(0.1, 0.9)) * (u_i - u_o)
    return dict(rho_i=rho_i, u_i=u_i, rho_o=rho_o, u_o=u_o, phi0=draw(st.floats(1.0, 2.0)), e0=e0, u0=u0)


def _front_rows(front, n, lam=1.0, c=1.0):
    """(phi, e, u_delta) at lam * _SCALING_TIMES of ``front`` with r, t, e -> lam r, lam t, lam e
    and rho, e -> c rho, c e; phi and e divided by their scale."""
    inner = constant_field(c * front["rho_i"], front["u_i"])
    outer = constant_field(c * front["rho_o"], front["u_o"])
    init = SphericalFrontState(0.0, lam * front["phi0"], lam * c * front["e0"], front["u0"])
    # atol in the units of e, so that it never outweighs rtol as the data scale.
    traj = integrate_front(
        inner, outer, init, n=n, t_end=lam * 0.3, rtol=1e-12, atol=1e-15 * lam * min(c, 1.0)
    )
    assert traj.t_end == lam * 0.3
    t = lam * _SCALING_TIMES
    return np.array([traj.phi(t) / lam, traj.e(t) / (lam * c), traj.u_delta(t)])


def _relative_rows(got, want, front):
    """Largest error of each row of ``got``: phi and e against their largest value, u_delta
    against the velocity scale."""
    scale = [np.max(np.abs(want[0])), np.max(want[1]), abs(front["u_i"]) + abs(front["u_o"])]
    return max(float(np.max(np.abs(g - w))) / s for g, w, s in zip(got, want, scale))


@settings(max_examples=40, deadline=None)
@given(
    front=_constant_fronts(),
    n=st.integers(1, 4),
    log_lam=st.floats(-2.0, 2.0),
    log_c=st.floats(-2.0, 2.0),
)
def test_front_scaling_symmetries(front, n, log_lam, log_c):
    # (r, t, e) -> (lam r, lam t, lam e) and (rho, e) -> (c rho, c e) map
    # solutions to solutions: curvature (n - 1) / phi and e shrink together,
    # and each density term is linear. A rescaled run takes its own steps, so
    # the floor is the global error of RK45 at rtol 1e-12. Largest found over
    # 4,000 hypothesis draws: 3.4e-9 for space-time (at n = 1) and 3.2e-10
    # for density.
    base = _front_rows(front, n)
    assert _relative_rows(_front_rows(front, n, lam=10.0**log_lam), base, front) <= 1e-8
    assert _relative_rows(_front_rows(front, n, c=10.0**log_c), base, front) <= 1e-8


def test_front_moving_out_of_an_inner_vacuum_is_refused():
    # Overcompression needs u_delta below the vacuum's 0, so u0 > 0 is refused.
    init = SphericalFrontState(0.0, 1.0, 0.5, 0.1)
    with pytest.raises(NoDeltaShockError, match="overcompression"):
        integrate_front(None, steady_converging_field(3), init, n=3, t_end=0.5)


def test_front_far_from_the_origin_runs_without_overflow():
    # spherical_converging_n3 scaled by L = 1e10, e0 by 1 / L: there
    # atol + rtol |y| exceeds 1, and the range check of the right-hand side
    # used to overflow (a RuntimeWarning) on every call.
    L = 1e10
    outer = steady_converging_field(3, (L, 3.5 * L))
    init = SphericalFrontState(0.0, L, 0.01 / L, -0.5)
    traj = integrate_front(None, outer, init, n=3, t_end=0.6 * L, r_min=1e-3)
    assert traj.t_end == 0.6 * L and not (traj.focused or traj.entropy_violated)
    assert audit(traj, box=(0.0, 3.6 * L)).mass_conserved()


@pytest.mark.parametrize("rtol", [0.99 * 100.0 * np.finfo(float).eps, 1.0, float("nan")])
def test_rtol_outside_the_solvers_range_is_refused(rtol):
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    with pytest.raises(InvalidParameterError, match="rtol must lie in"):
        integrate_front(None, steady_converging_field(3), init, n=3, t_end=0.1, rtol=rtol)


def test_rtol_at_the_solvers_floor_runs():
    # scipy raises an rtol below 100 eps to it, with a UserWarning.
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    traj = integrate_front(
        None, steady_converging_field(3), init, n=3, t_end=0.01, rtol=100.0 * np.finfo(float).eps
    )
    assert traj.t_end == 0.01


def test_focusing_stops_at_r_min():
    outer = steady_converging_field(3)
    init = SphericalFrontState(0.0, 1.0, 0.01, -0.5)
    traj = integrate_front(None, outer, init, n=3, t_end=10.0, r_min=0.05)
    assert traj.focused
    assert traj.t_end < 10.0
    assert traj.phi(traj.t_end) == pytest.approx(0.05, abs=1e-6)


def test_passive_advection_of_massless_front():
    # Equal states on both sides: nothing concentrates, the marker just
    # rides the common flow.
    inner = constant_field(1.0, -0.3)
    outer = constant_field(1.0, -0.3)
    init = SphericalFrontState(0.0, 2.0, 0.0, -0.3)
    traj = integrate_front(inner, outer, init, n=3, t_end=1.0)
    assert traj.passive
    assert traj.e(1.0) == 0.0
    assert traj.phi(1.0) == pytest.approx(2.0 - 0.3, abs=1e-9)


def test_passive_front_reports_its_velocity():
    # A massless front between equal velocities and unequal densities rides
    # the flow; its dense velocity is that flow speed, as at the steps.
    inner = constant_field(1.0, -0.5)
    outer = constant_field(2.0, -0.5)
    traj = integrate_front(inner, outer, SphericalFrontState(0.0, 1.0, 0.0, 0.0), n=3, t_end=1.0)
    assert traj.passive
    np.testing.assert_array_equal(traj.steps.u_delta, -0.5)
    np.testing.assert_array_equal(traj.u_delta(traj.steps.t), traj.steps.u_delta)
    assert traj.u_delta(0.37) == -0.5
    assert traj.phi(1.0) == pytest.approx(0.5, abs=1e-9)
    rep = audit(traj, np.linspace(0.0, 1.0, 5), box=(0.0, 5.0))
    assert not rep.entropy_strict.any()


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
    assert traj.t_end < 2.0
    # At the stop time the lower entropy margin has closed.
    u_stop = traj.u_delta(traj.t_end)
    assert u_stop == pytest.approx(0.8 * traj.t_end - 0.6, abs=1e-6)


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
    rep = audit(traj, box=(0.0, 3.6))
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
        audit(traj, box=(0.9, 3.6))
    with pytest.raises(AuditInvalidError):
        audit(traj, box=(-1.0, 3.6))
