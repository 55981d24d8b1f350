"""Tests for level-set fronts, surface calculus, quadrature, and transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dshock import InvalidParameterError, SupportViolationError
from dshock.errors import DegenerateGradientError, OffSurfaceError
from dshock.bumps import BumpFactor, TensorBump
from dshock.geometry import (
    Box,
    ExpressionFront,
    LevelSetFront,
    MovingBall,
    MovingPlaneFront,
    MovingSphereFront,
    check_integration_by_parts,
    check_surface_transport,
    check_volume_transport,
    circle_chart,
    delta_derivative_time,
    delta_shock_velocity,
    front_from_spec,
    gauss_panels,
    mean_curvature,
    normal,
    normal_speed,
    plane_chart,
    project_to_front,
    sphere_chart,
    surface_integral,
    tangential_divergence,
    tangential_gradient,
)


# Quadrature ------------------------------------------------------------


def test_gauss_panels_polynomial_exactness():
    pts, wts = gauss_panels(-1.0, 2.0, panels=3, nodes=4)
    # 4-node Gauss is exact through degree 7.
    for k in range(8):
        exact = (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert float(wts @ pts**k) == pytest.approx(exact, rel=1e-13)


def test_gauss_panels_rows_are_each_intervals_rule():
    # Arrays of interval ends give one rule per row, each equal bit for bit to
    # the rule built on np.linspace(a, b, panels + 1) for that interval alone,
    # with empty intervals among them.
    rng = np.random.default_rng(4)
    a = rng.uniform(-3.0, 3.0, 60)
    b = a + rng.uniform(0.0, 5.0, 60)
    b[::9] = a[::9]
    xi, wi = np.polynomial.legendre.leggauss(4)
    pts, wts = gauss_panels(a, b, panels=7, nodes=4)
    assert pts.shape == wts.shape == (60, 28)
    for k in range(a.size):
        edges = np.linspace(a[k], b[k], 8)
        mids, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        np.testing.assert_array_equal(pts[k], (mids[:, None] + half[:, None] * xi).ravel())
        np.testing.assert_array_equal(wts[k], (half[:, None] * wi).ravel())
        one = gauss_panels(a[k], b[k], panels=7, nodes=4)
        np.testing.assert_array_equal(np.stack(one), np.stack([pts[k], wts[k]]))
    with pytest.raises(InvalidParameterError):
        gauss_panels(a, a - 1.0, panels=1)


def test_sphere_chart_measures():
    # Total weight is the sphere area in each supported dimension.
    assert sphere_chart(np.zeros(1), 2.0).measure() == pytest.approx(2.0)
    assert circle_chart(np.zeros(2), 1.5).measure() == pytest.approx(2.0 * np.pi * 1.5)
    assert sphere_chart(np.zeros(3), 0.7, level=2).measure() == pytest.approx(
        4.0 * np.pi * 0.49, rel=1e-12
    )


def test_sphere_chart_moment():
    # int_{|x|=R} x_3^2 dmu = (4/3) pi R^4.
    quad = sphere_chart(np.zeros(3), 1.3, level=2)
    val = float(quad.weights @ quad.nodes[:, 2] ** 2)
    assert val == pytest.approx(4.0 * np.pi * 1.3**4 / 3.0, rel=1e-10)


def test_plane_chart_integrates_gaussian():
    quad = plane_chart(
        point=np.zeros(2), normal=np.array([0.0, 1.0]), half_widths=np.array([8.0]), level=3
    )
    val = surface_integral(lambda x, t: np.exp(-np.sum(x**2, axis=1)), quad)
    assert val == pytest.approx(np.sqrt(np.pi), rel=1e-12)


# Fronts and pointwise calculus ------------------------------------------


def test_moving_plane_front_basics():
    nu = np.array([0.6, 0.8])
    front = MovingPlaneFront(nu, offset=(0.5, 2.0))
    x = front.point_on(0.25)
    assert front.value(x, 0.25) == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(normal(front, x, 0.25), nu)
    assert normal_speed(front, x, 0.25) == pytest.approx(2.0)
    assert mean_curvature(front, x, 0.25) == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(delta_shock_velocity(front, x, 0.25), 2.0 * nu, atol=1e-12)


def test_sphere_front_orientations():
    # Outward: nu away from the center, G = Rdot, K = -(n-1)/(2R).
    # Inward flips all three signs.
    for dim in (2, 3):
        c = np.zeros(dim)
        rate = -0.4
        x = np.zeros(dim)
        x[0] = 1.0

        out = MovingSphereFront(c, lambda t: 1.0 + rate * t, lambda t: rate, "outward")
        np.testing.assert_allclose(normal(out, x, 0.0), x)
        assert normal_speed(out, x, 0.0) == pytest.approx(rate)
        assert mean_curvature(out, x, 0.0) == pytest.approx(-(dim - 1) / 2.0, abs=1e-9)

        inw = MovingSphereFront(c, lambda t: 1.0 + rate * t, lambda t: rate, "inward")
        np.testing.assert_allclose(normal(inw, x, 0.0), -x)
        assert normal_speed(inw, x, 0.0) == pytest.approx(-rate)
        assert mean_curvature(inw, x, 0.0) == pytest.approx((dim - 1) / 2.0, abs=1e-9)
        # U_delta = G nu is orientation independent.
        np.testing.assert_allclose(
            delta_shock_velocity(out, x, 0.0),
            delta_shock_velocity(inw, x, 0.0),
            atol=1e-12,
        )


def test_generic_level_set_front_fd_gradient():
    # Ellipse x^2/4 + y^2 = 1 via finite differences only.
    front = LevelSetFront(lambda x, t: x[0] ** 2 / 4.0 + x[1] ** 2 - 1.0, dim=2)
    assert front.grad_mode == "central-difference"
    x = np.array([2.0, 0.0])
    np.testing.assert_allclose(normal(front, x, 0.0), [1.0, 0.0], atol=1e-9)
    # Curvature of the ellipse at the major vertex: kappa = a/b^2 = 2, and
    # the mean-curvature convention carries -(1/2) of the divergence.
    assert mean_curvature(front, x, 0.0) == pytest.approx(-1.0, abs=1e-3)


def test_project_to_front():
    front = MovingSphereFront(np.zeros(2), 2.0)
    y = project_to_front(front, np.array([0.3, 0.1]), 0.0)
    assert np.linalg.norm(y) == pytest.approx(2.0, abs=1e-10)
    # Rows: on-front rows come back unchanged, the others are projected.
    x = np.array([[2.0, 0.0], [0.3, 0.1], [0.0, -2.0]])
    rows = project_to_front(front, x, 0.0)
    np.testing.assert_array_equal(rows[[0, 2]], x[[0, 2]])
    np.testing.assert_array_equal(rows[1], y)
    with pytest.raises(DegenerateGradientError):
        normal(front, np.array([[2.0, 0.0], [0.0, 0.0]]), 0.0)
    # One Newton step cannot bring a far point onto an ellipse.
    ellipse = LevelSetFront(lambda x, t: x[0] ** 2 / 4.0 + x[1] ** 2 - 1.0, dim=2)
    with pytest.raises(OffSurfaceError):
        project_to_front(ellipse, np.array([[2.0, 0.0], [0.1, 0.1]]), 0.0)


def test_delta_derivative_rides_the_front():
    # On a sphere with radius R(t), the front-riding derivative of a radial
    # field f(|x|, t) is f_t + Rdot f_r for the outward orientation.
    front = MovingSphereFront(np.zeros(2), lambda t: 1.0 + 0.3 * t, lambda t: 0.3)
    f = lambda x, t: float(np.linalg.norm(x)) ** 3 + 2.0 * t
    x = np.array([1.0, 0.0])
    got = delta_derivative_time(f, front, x, 0.0)
    assert got == pytest.approx(2.0 + 0.3 * 3.0, abs=1e-6)


def test_tangential_operators_on_sphere():
    front = MovingSphereFront(np.zeros(3), 2.0)
    x = np.array([0.0, 0.0, 2.0])
    # Radial scalars have no in-surface variation.
    g = tangential_gradient(lambda x, t: float(np.linalg.norm(x)) ** 2, front, x, 0.0)
    np.testing.assert_allclose(g, np.zeros(3), atol=1e-6)
    # div_Gamma nu = -2K = (n-1)/R.
    div = tangential_divergence(
        lambda x, t: np.asarray(x) / np.linalg.norm(x), front, x, 0.0
    )
    assert div == pytest.approx(2.0 / 2.0, abs=1e-6)
    assert div == pytest.approx(-2.0 * mean_curvature(front, x, 0.0), abs=1e-6)


def test_expression_front_rows_match_points():
    # S = |x| - 1 - t: a circle of radius 1.5 at t = 0.5 moving outward at
    # unit speed, with every derivative taken by central differences.
    front = ExpressionFront("r - 1 - t", 2)
    theta = 0.3 + np.pi * np.arange(6) / 3.0
    x = 1.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    np.testing.assert_allclose(normal(front, x, 0.5), x / 1.5, atol=1e-9)
    np.testing.assert_allclose(normal_speed(front, x, 0.5), 1.0, atol=1e-9)
    kappa = mean_curvature(front, x, 0.5)
    np.testing.assert_allclose(kappa, -1.0 / (2.0 * 1.5), atol=1e-6)
    # The expression evaluates the rows elementwise, so one (m, 2) call is
    # exactly m single-point calls.
    for k, xk in enumerate(x):
        assert mean_curvature(front, xk, 0.5) == kappa[k]
        assert normal_speed(front, xk, 0.5) == normal_speed(front, x, 0.5)[k]
        np.testing.assert_array_equal(normal(front, xk, 0.5), normal(front, x, 0.5)[k])


def test_front_from_spec():
    plane = front_from_spec({"kind": "plane", "normal": [0.0, 1.0], "offset": [0.0, 1.0]})
    assert isinstance(plane, MovingPlaneFront)
    assert plane.offset(2.0) == pytest.approx(2.0)
    sphere = front_from_spec({"kind": "sphere", "center": [0.0, 0.0, 0.0], "radius": "2 - t"})
    assert isinstance(sphere, MovingSphereFront)
    assert sphere.radius(0.5) == pytest.approx(1.5)
    # Expressions in t are evaluated elementwise on arrays of row times.
    np.testing.assert_array_equal(sphere.radius(np.array([0.5, 1.0])), [1.5, 1.0])
    line = front_from_spec({"kind": "plane", "normal": [1.0, 0.0], "offset": "0.5*t"})
    np.testing.assert_array_equal(line.offset(np.array([0.0, 1.0])), [0.0, 0.5])
    assert line.value(np.ones((2, 2)), np.array([0.0, 1.0])).tolist() == [1.0, 0.5]
    expr = front_from_spec({"kind": "level_set_expr", "expr": "r - 1 - t", "dim": 2})
    assert expr.value(np.array([1.0, 0.0]), 0.0) == pytest.approx(0.0)
    with pytest.raises(InvalidParameterError):
        front_from_spec({"kind": "torus"})


# Transport identities ----------------------------------------------------


def test_surface_transport_shrinking_circle():
    front = MovingSphereFront(np.zeros(2), lambda t: 1.0 - 0.25 * t, lambda t: -0.25)
    e = lambda x, t: np.exp(-0.5 * np.sum(np.atleast_2d(x) ** 2, axis=1)) * (1.0 + t)
    rep = check_surface_transport(e, front, t=0.5, dt=1e-4, level=2)
    assert rep.residual < 1e-7


def test_surface_transport_pure_curvature_term():
    # Constant e on a shrinking circle: d/dt (2 pi R e0) = 2 pi Rdot e0,
    # and the right side is the -2 K G e term alone.
    e0 = 1.7
    front = MovingSphereFront(np.zeros(2), lambda t: 2.0 - 0.5 * t, lambda t: -0.5)
    rep = check_surface_transport(lambda x, t: np.full(np.atleast_2d(x).shape[0], e0), front, 0.0)
    assert rep.lhs == pytest.approx(2.0 * np.pi * (-0.5) * e0, rel=1e-6)
    assert rep.residual < 1e-8


def test_volume_transport_growing_ball():
    ball = MovingBall(np.zeros(2), lambda t: 1.0 + 0.5 * t, lambda t: 0.5)
    f = lambda pts, t: (1.0 + np.sum(np.atleast_2d(pts) ** 2, axis=1)) * np.exp(-t)
    rep = check_volume_transport(f, ball, t=0.4, dt=1e-4, level=2)
    assert rep.residual < 1e-7


def test_volume_transport_static_box():
    box = Box([(-1.0, 1.0), (0.0, 2.0)])
    f = lambda pts, t: np.sin(np.atleast_2d(pts)[:, 0] + t)
    rep = check_volume_transport(f, box, t=0.3, dt=1e-4, level=1)
    assert rep.residual < 1e-9


def test_integration_by_parts_translating_plane():
    front = MovingPlaneFront(np.array([1.0, 0.0]), offset=(0.0, 0.3), window_half_width=4.0)
    e = lambda x, t: 1.0 + 0.5 * np.sin(np.atleast_2d(x)[:, 1]) * np.exp(-t)
    phi = TensorBump(
        [BumpFactor(-1.0, 1.0), BumpFactor(-1.0, 1.0)], BumpFactor(0.05, 0.8)
    )
    rep = check_integration_by_parts(e, phi, front, t_end=1.0, level=2)
    assert rep.residual < 1e-6


def test_integration_by_parts_rejects_open_support():
    front = MovingPlaneFront(np.array([1.0, 0.0]), offset=0.0)
    phi = TensorBump([BumpFactor(-1.0, 1.0), BumpFactor(-1.0, 1.0)], BumpFactor(0.1, 1.2))
    with pytest.raises(SupportViolationError):
        check_integration_by_parts(lambda x, t: 1.0, phi, front, t_end=1.0)


# Scalar reference ----------------------------------------------------------
# The per-node path the array operators replaced: one node at a time, from
# the plane's and sphere's own pointwise formulas for S, grad S and S_t, with
# the same stencils and steps. It shares only the charts and the time rule.


def _ref_level_set(front, x, t):
    """(S, grad S, S_t) at one point."""
    if isinstance(front, MovingPlaneFront):
        nu = front.normal_vector
        return float(nu @ x) - front.offset(t), nu.copy(), -front.offset_rate(t)
    sign = 1.0 if front.orientation == "outward" else -1.0
    d = x - front.center
    r = float(np.linalg.norm(d))
    return sign * (r - front.radius(t)), sign * d / r, -sign * front.radius_rate(t)


def _ref_project(front, x, t):
    s, g, _ = _ref_level_set(front, x, t)
    if abs(s) <= front.tol_on_surface:
        return x
    x = x - (s / float(g @ g)) * g
    assert abs(_ref_level_set(front, x, t)[0]) <= front.tol_on_surface
    return x


def _ref_unit_normal(front, x, t):
    g = _ref_level_set(front, x, t)[1]
    return g / float(np.linalg.norm(g))


def _ref_normal_speed(front, x, t):
    _, g, s_t = _ref_level_set(front, _ref_project(front, x, t), t)
    return -s_t / float(np.linalg.norm(g))


def _ref_mean_curvature(front, x, t):
    x = _ref_project(front, x, t)
    h = 1e-4 * front.char_length
    div = 0.0
    for j in range(front.dim):
        step = np.zeros(front.dim)
        step[j] = h
        acc = 0.0
        for off, w in zip((-2.0, -1.0, 1.0, 2.0), np.array([1.0, -8.0, 8.0, -1.0]) / 12.0):
            acc += w * _ref_unit_normal(front, x + off * step, t)[j]
        div += acc / h
    return -0.5 * div


def _at(e, x, t):
    return float(np.atleast_1d(e(x[None, :], t))[0])


def _ref_delta_derivative_time(e, front, x, t, h_t=1e-6):
    x = _ref_project(front, x, t)
    h_x = 1e-6 * front.char_length
    nu = _ref_unit_normal(front, x, t)
    e_t = (_at(e, x, t + h_t) - _at(e, x, t - h_t)) / (2.0 * h_t)
    de_dnu = (_at(e, x + h_x * nu, t) - _at(e, x - h_x * nu, t)) / (2.0 * h_x)
    return e_t + _ref_normal_speed(front, x, t) * de_dnu


def _ref_transport_rhs(e, front, x, t, h_t=1e-6):
    de_dt = _ref_delta_derivative_time(e, front, x, t, h_t)
    big_g = _ref_normal_speed(front, x, t)
    return de_dt - 2.0 * _ref_mean_curvature(front, x, t) * big_g * _at(e, x, t)


def _ref_surface_transport(e, front, t, dt, level):
    m_plus = surface_integral(e, front.patch_quadrature(t + dt, level))
    m_minus = surface_integral(e, front.patch_quadrature(t - dt, level))
    quad = front.patch_quadrature(t, level)
    rhs = sum(w * _ref_transport_rhs(e, front, x, t) for x, w in zip(quad.nodes, quad.weights))
    return (m_plus - m_minus) / (2.0 * dt), rhs


def _ref_integration_by_parts(e, phi, front, t_end, level, dt_fd=1e-5):
    box = np.array(phi.space_box)
    t_lo, t_hi = phi.t_support
    lhs = rhs_volume = 0.0
    for tau, wt in zip(*gauss_panels(t_lo, t_hi, 8 * (2**level), nodes=6)):
        quad = front.patch_quadrature(tau, level)
        # phi and its derivatives vanish outside the open box of its support.
        inside = np.all((quad.nodes > box[:, 0]) & (quad.nodes < box[:, 1]), axis=1)
        lhs_chart = rhs_chart = 0.0
        for x, w in zip(quad.nodes[inside], quad.weights[inside]):
            nu = _ref_unit_normal(front, _ref_project(front, x, tau), tau)
            dphi = phi.dt(x, tau)[0] + _ref_normal_speed(front, x, tau) * float(
                phi.grad(x, tau)[0] @ nu
            )
            lhs_chart += w * _at(e, x, tau) * dphi
            phi_x = phi.value(x, tau)[0]
            if phi_x != 0.0:
                rhs_chart += w * _ref_transport_rhs(e, front, x, tau, dt_fd) * phi_x
        lhs += wt * lhs_chart
        rhs_volume += wt * rhs_chart
    quad0 = front.patch_quadrature(0.0, level)
    gamma0 = float(quad0.weights @ (e(quad0.nodes, 0.0) * phi.value(quad0.nodes, 0.0)))
    return lhs, -rhs_volume - gamma0


def _gaussian_field(a, b):
    def e(x, t):
        x = np.atleast_2d(x)
        return np.exp(-0.5 * np.sum((x - a) ** 2, axis=1)) * (1.0 + 0.3 * np.sin(2.0 * t + b))

    return e


_rates = st.tuples(st.floats(0.05, 0.4), st.sampled_from([-1.0, 1.0])).map(lambda p: p[0] * p[1])


@st.composite
def _fronts(draw):
    dim = draw(st.integers(2, 3))
    center = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    rate = draw(_rates)
    if draw(st.booleans()):
        direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        direction[0] += 2.0  # keeps the normal away from zero
        offset = (draw(st.floats(-1.0, 1.0)), rate)
        return MovingPlaneFront(
            direction, offset, window_center=center, window_half_width=draw(st.floats(2.0, 3.0))
        )
    r0 = draw(st.floats(0.5, 2.0))
    orientation = draw(st.sampled_from(["outward", "inward"]))
    return MovingSphereFront(center, lambda t: r0 + rate * t, lambda t: rate, orientation)


def _close(got, ref, tol):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.all(np.abs(got - ref) <= tol * (1.0 + np.abs(ref))), np.max(np.abs(got - ref))


@settings(max_examples=40, deadline=None)
@given(
    front=_fronts(),
    t=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    shift=st.sampled_from([0.0, 1e-11, 1e-8]),
)
def test_array_operators_match_scalar_reference(front, t, seed, shift):
    # Chart nodes, some moved off the front: by less than the projection
    # tolerance (1e-9 char_length, kept as is) or by more (projected once).
    rng = np.random.default_rng(seed)
    nodes = front.patch_quadrature(t, level=0).nodes[:40]
    x = nodes + shift * front.char_length * rng.uniform(-1.0, 1.0, nodes.shape)
    e = _gaussian_field(rng.uniform(-1.0, 1.0, front.dim), rng.uniform(0.0, 3.0))
    _close(mean_curvature(front, x, t), [_ref_mean_curvature(front, p, t) for p in x], 1e-12)
    _close(normal_speed(front, x, t), [_ref_normal_speed(front, p, t) for p in x], 1e-12)
    _close(
        delta_derivative_time(e, front, x, t),
        [_ref_delta_derivative_time(e, front, p, t) for p in x],
        1e-12,
    )
    ref_nu = [_ref_unit_normal(front, _ref_project(front, p, t), t) for p in x]
    _close(normal(front, x, t), ref_nu, 1e-12)


@settings(max_examples=10, deadline=None)
@given(
    front=_fronts(),
    level=st.integers(0, 1),
    seed=st.integers(0, 2**16),
    t_lo=st.floats(0.0, 0.3),
    t_hi=st.floats(0.5, 0.9),
    width=st.floats(0.15, 0.4),
)
def test_transport_checks_match_scalar_reference(front, level, seed, t_lo, t_hi, width):
    # Level 1 only in 2-D: a 3-D chart there has up to 2304 nodes, seconds
    # of work for the scalar loop.
    level = level if front.dim == 2 else 0
    rng = np.random.default_rng(seed)
    e = _gaussian_field(rng.uniform(-1.0, 1.0, front.dim), rng.uniform(0.0, 3.0))
    rep = check_surface_transport(e, front, 0.4, dt=1e-3, level=level)
    lhs, rhs = _ref_surface_transport(e, front, 0.4, 1e-3, level)
    _close([rep.lhs, rep.rhs], [lhs, rhs], 1e-13)

    # A bump centred on the front at t = 0, so its support meets every chart.
    nodes = front.patch_quadrature(0.0, level).nodes
    c = nodes[rng.integers(nodes.shape[0])]
    phi = TensorBump([BumpFactor(cj - width, cj + width) for cj in c], BumpFactor(t_lo, t_hi))
    rep = check_integration_by_parts(e, phi, front, t_end=1.0, level=level)
    lhs, rhs = _ref_integration_by_parts(e, phi, front, 1.0, level)
    _close([rep.lhs, rep.rhs], [lhs, rhs], 1e-13)


# Space-time rows: one time per row ------------------------------------------


def _row_time_fronts():
    # Offsets and radii linear in t, so an array of times rounds like each time.
    return [
        MovingPlaneFront(np.array([1.0, 0.5]), (0.2, 0.3)),
        MovingSphereFront(np.zeros(3), lambda t: 1.0 + 0.5 * t, lambda t: 0.5),
        MovingSphereFront(np.array([0.1, -0.2]), lambda t: 1.5 - 0.4 * t, orientation="inward"),
        ExpressionFront("r - 1 - t", 2),
    ]


def _rows_on_front(front, times):
    """Per time, a few points near the front: some on it, some 1e-8 off it."""
    dim = front.dim
    theta = 0.3 + 2.0 * np.pi * np.arange(7) / 7.0
    blocks = []
    for t in times:
        if isinstance(front, ExpressionFront):
            pts = (1.0 + t) * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        else:
            pts = front.patch_quadrature(t, level=0).nodes[::5][:7]
        pts = pts + 1e-8 * np.resize([0.0, 1.0, -1.0], pts.shape[0])[:, None] * np.ones(dim)
        blocks.append(pts)
    return blocks


@pytest.mark.parametrize("front", _row_time_fronts(), ids=["plane", "sphere", "inward", "expr"])
def test_row_times_match_per_time_calls_bit_for_bit(front):
    times = np.array([0.05, 0.3, 0.55, 0.8])
    blocks = _rows_on_front(front, times)
    x = np.concatenate(blocks)
    tau = np.repeat(times, [b.shape[0] for b in blocks])
    a = np.linspace(-0.5, 0.5, front.dim)

    def e(pts, t):
        return np.exp(-0.5 * np.sum((np.atleast_2d(pts) - a) ** 2, axis=1)) * (1.0 + 0.3 * t)

    ops = {
        "project_to_front": project_to_front,
        "normal": normal,
        "normal_speed": normal_speed,
        "mean_curvature": mean_curvature,
        "delta_derivative_time": lambda f, p, t: delta_derivative_time(e, f, p, t),
    }
    for name, op in ops.items():
        per_time = np.concatenate([op(front, b, t) for b, t in zip(blocks, times)])
        np.testing.assert_array_equal(op(front, x, tau), per_time, err_msg=name)

    c = x[0]
    phi = TensorBump(
        [BumpFactor(cj - 1.5, cj + 1.5, poly=(1.0, 0.2)) for cj in c],
        BumpFactor(0.0, 1.0, poly=(0.5, -0.3)),
        amplitude=1.7,
    )
    for name in ("value", "dt", "grad"):
        per_time = np.concatenate([getattr(phi, name)(b, t) for b, t in zip(blocks, times)])
        np.testing.assert_array_equal(getattr(phi, name)(x, tau), per_time, err_msg=name)


def test_row_times_must_align_with_rows():
    front = MovingPlaneFront(np.array([1.0, 0.0]), (0.0, 0.3))
    x = np.zeros((3, 2))
    with pytest.raises(InvalidParameterError):
        normal_speed(front, x, np.zeros(2))
    phi = TensorBump([BumpFactor(-1.0, 1.0), BumpFactor(-1.0, 1.0)], BumpFactor(0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        phi.value(x, np.zeros(2))


def test_integration_by_parts_over_several_blocks_matches_scalar_reference():
    from dshock.geometry import transport

    front = MovingPlaneFront(np.array([1.0, 0.4]), (0.1, 0.3), window_half_width=3.0)
    e = _gaussian_field(np.array([0.2, -0.1]), 0.7)
    phi = TensorBump([BumpFactor(-0.3, 0.7), BumpFactor(-0.5, 0.4)], BumpFactor(0.1, 0.9))
    size, _ = front.moving_chart(2)
    time_nodes = 8 * 2**2 * 6
    assert size * time_nodes > 2 * transport._BLOCK  # at least three blocks
    rep = check_integration_by_parts(e, phi, front, t_end=1.0, level=2)
    lhs, rhs = _ref_integration_by_parts(e, phi, front, 1.0, 2)
    _close([rep.lhs, rep.rhs], [lhs, rhs], 1e-13)


def _count_chart_builds(monkeypatch):
    """A list that gains one entry per plane_chart or sphere_chart call."""
    from dshock.geometry import quadrature

    builds = []
    for name in ("plane_chart", "sphere_chart"):
        chart = getattr(quadrature, name)

        def counted(*args, _chart=chart, **kwargs):
            builds.append(1)
            return _chart(*args, **kwargs)

        monkeypatch.setattr(quadrature, name, counted)
    return builds


def _counted_fronts():
    return [
        MovingPlaneFront(np.array([1.0, 0.0]), (0.0, 0.3)),
        MovingSphereFront(np.zeros(2), lambda t: 1.0 - 0.2 * t, lambda t: -0.2),
    ]


def test_integration_by_parts_builds_its_charts_once(monkeypatch):
    builds = _count_chart_builds(monkeypatch)
    e = _gaussian_field(np.array([0.1, 0.2]), 0.3)
    phi = TensorBump([BumpFactor(-1.0, 1.0), BumpFactor(-1.0, 1.0)], BumpFactor(0.05, 0.8))
    for front in _counted_fronts():
        counts = []
        for level in (0, 1, 2):
            builds.clear()
            check_integration_by_parts(e, phi, front, t_end=1.0, level=level)
            counts.append(len(builds))
        # One moving chart serves the space-time grid and the t = 0 term.
        assert counts == [1, 1, 1]


def test_surface_transport_builds_its_chart_once(monkeypatch):
    builds = _count_chart_builds(monkeypatch)
    e = _gaussian_field(np.array([0.1, 0.2]), 0.3)
    for front in _counted_fronts():
        counts = []
        for level in (0, 1, 2):
            builds.clear()
            check_surface_transport(e, front, 0.4, dt=1e-3, level=level)
            counts.append(len(builds))
        # t - dt, t and t + dt on one moving chart.
        assert counts == [1, 1, 1]


# One time law and one chart path ---------------------------------------------


def _laws():
    """(name, law, rate) triples: constant, (f0, speed), callable with and without a rate."""

    def scalar_only(fn):
        # The scalar chart path must keep calling the law with plain floats.
        def law(t):
            assert isinstance(t, float), type(t)
            return fn(t)

        return law

    return [
        ("constant", 1.3, None),
        ("pair", (1.2, -0.3), None),
        ("callable", scalar_only(lambda t: 1.0 + 0.25 * np.sin(t)), lambda t: 0.25 * np.cos(t)),
        ("callable-fd", scalar_only(lambda t: 1.1 + 0.2 * t * t), None),
    ]


def _law_reference(law, rate, t):
    """(f(t), f'(t)) as the per-class copies of the time law computed them."""
    if callable(law):
        h = 1e-6
        return float(law(t)), float(rate(t) if rate else (law(t + h) - law(t - h)) / (2.0 * h))
    f0, speed = (float(law), 0.0) if np.ndim(law) == 0 else map(float, law)
    return f0 + speed * t, speed


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name, law, rate", _laws(), ids=[n for n, _, _ in _laws()])
def test_plane_patch_quadrature_is_the_public_chart_bit_for_bit(dim, name, law, rate):
    normal = np.array([-2.0]) if dim == 1 else np.linspace(1.0, 0.3, dim)
    front = MovingPlaneFront(
        normal, law, rate, window_center=np.linspace(-0.3, 0.4, dim), window_half_width=2.5
    )
    for t in (0.0, 0.37, 0.9):
        f, df = _law_reference(law, rate, t)
        assert _same_bits(front.offset(t), f) and _same_bits(front.offset_rate(t), df)
        for level in (0, 1, 2):
            quad = front.patch_quadrature(t, level)
            ref = plane_chart(
                front.point_on(t),
                front.normal_vector,
                np.full(dim - 1, 2.5),
                t=t,
                level=level,
                tangent_basis=front.tangent_basis,
            )
            assert _same_bits(quad.nodes, ref.nodes) and _same_bits(quad.weights, ref.weights)
            assert quad.t == ref.t == t


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("orientation", ["outward", "inward"])
@pytest.mark.parametrize("name, law, rate", _laws(), ids=[n for n, _, _ in _laws()])
def test_sphere_patch_quadrature_is_the_public_chart_bit_for_bit(dim, orientation, name, law, rate):
    front = MovingSphereFront(np.linspace(-0.3, 0.4, dim), law, rate, orientation)
    for t in (0.0, 0.37, 0.9):
        f, df = _law_reference(law, rate, t)
        assert _same_bits(front.radius(t), f) and _same_bits(front.radius_rate(t), df)
        for level in (0, 1, 2):
            quad = front.patch_quadrature(t, level)
            ref = sphere_chart(front.center, front.radius(t), t, level)
            assert _same_bits(quad.nodes, ref.nodes) and _same_bits(quad.weights, ref.weights)
            assert quad.t == ref.t == t


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name, law, rate", _laws(), ids=[n for n, _, _ in _laws()])
def test_ball_is_the_interior_of_its_sphere(dim, name, law, rate):
    center = np.linspace(-0.3, 0.4, dim)
    ball = MovingBall(center, law, rate)
    sphere = MovingSphereFront(center, law, rate)
    f = lambda pts, t: np.exp(-np.sum(np.atleast_2d(pts) ** 2, axis=1)) * (1.0 + t)
    for t in (0.0, 0.37, 0.9):
        assert _same_bits(ball.radius(t), sphere.radius(t))
        assert _same_bits(ball.rate(t), sphere.radius_rate(t))
        assert _same_bits(ball.rate(t), _law_reference(law, rate, t)[1])
        ref = surface_integral(f, sphere_chart(center, sphere.radius(t), t=t, level=1))
        assert _same_bits(ball.boundary_integral(f, t, level=1), ref)


def test_moving_chart_at_times_matches_each_time():
    for front in _row_time_fronts()[:3]:
        _, at = front.moving_chart(1)
        times = np.array([0.1, 0.45, 0.8])
        nodes, weights = at(times)
        for k, t in enumerate(times):
            quad = front.patch_quadrature(t, 1)
            np.testing.assert_array_equal(nodes[k], quad.nodes)
            np.testing.assert_array_equal(weights[k], quad.weights)
    with pytest.raises(InvalidParameterError):
        _row_time_fronts()[3].patch_quadrature(0.0)
