"""Tests for bump test functions and the weak-identity residual engine."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dshock import (
    DShockError,
    InvalidBatteryError,
    InvalidParameterError,
    PlanarSolution,
    RiemannData1D,
    evaluate_identities,
    identity_value,
    make_battery,
    relativistic_flux,
    solve_constant_states,
    time_reversed,
    with_front_speed_offset,
)
from dshock.bumps import BumpFactor, TensorBump
from dshock.geometry.quadrature import gauss_panels
from dshock.weakcheck import TestFunctionBattery as Battery
from dshock.weakcheck import _time_segments


def _solution(rho_l=4.0, rho_r=1.0, u_l=1.0, u_r=-1.0, support=(-5.0, 5.0), t_end=1.0, **kw):
    d = RiemannData1D(rho_l, rho_r, u_l, u_r, **kw)
    return solve_constant_states(d, t_end, support)


# Bump factors -------------------------------------------------------------


def test_bump_vanishes_smoothly_at_edges():
    f = BumpFactor(-1.0, 2.0)
    for x in (-1.0, 2.0, -1.5, 2.5):
        assert f.value(x) == 0.0
        assert f.deriv(x) == 0.0
    assert f.value(0.5) > 0.0


def test_bump_derivative_matches_fd():
    f = BumpFactor(-1.0, 2.0, poly=(0.3, -0.7, 1.1))
    xs = np.linspace(-0.9, 1.9, 17)
    h = 1e-6
    fd = (f.value(xs + h) - f.value(xs - h)) / (2.0 * h)
    np.testing.assert_allclose(f.deriv(xs), fd, atol=1e-7)


def test_anchored_bump_is_one_sided():
    f = BumpFactor(0.0, 1.0, anchored_left=True)
    assert f.value(0.0) > 0.0  # alive at the anchor
    assert f.value(1.0) == 0.0
    assert f.value(-0.1) == 0.0


def test_tensor_bump_gradient_and_dt():
    bump = TensorBump(
        [BumpFactor(-1.0, 1.0), BumpFactor(0.0, 2.0)], BumpFactor(0.0, 1.0, anchored_left=True)
    )
    pts = np.array([[0.2, 0.9], [-0.5, 1.5]])
    t = 0.4
    h = 1e-6
    g = bump.grad(pts, t)
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        fd = (bump.value(pts + step, t) - bump.value(pts - step, t)) / (2.0 * h)
        np.testing.assert_allclose(g[:, j], fd, atol=1e-7)
    fd_t = (bump.value(pts, t + h) - bump.value(pts, t - h)) / (2.0 * h)
    np.testing.assert_allclose(bump.dt(pts, t), fd_t, atol=1e-7)


def test_battery_determinism_and_nonneg():
    box = [(-5.0, 5.0), (0.0, 1.0)]
    a = make_battery(box, count=6, seed=3, nonneg_count=2)
    b = make_battery(box, count=6, seed=3, nonneg_count=2)
    assert len(a) == 6
    assert len(a.nonneg_members) >= 2
    for fa, fb in zip(a.functions, b.functions):
        assert fa.space_factors[0].lo == fb.space_factors[0].lo
        assert fa.time_factor.poly == fb.time_factor.poly
    # First member spans the box and is anchored at t = 0.
    first = a.functions[0]
    assert first.space_factors[0].lo == -5.0 and first.space_factors[0].hi == 5.0
    assert first.time_factor.anchored_left and first.time_factor.lo == 0.0


def test_battery_validation():
    with pytest.raises(InvalidBatteryError):
        make_battery([(-1.0, 1.0)], count=4, seed=0)  # missing time axis
    with pytest.raises(InvalidBatteryError):
        make_battery([(-1.0, 1.0), (-0.5, 1.0)], count=4, seed=0)  # t < 0
    with pytest.raises(InvalidBatteryError):
        make_battery([(1.0, -1.0), (0.0, 1.0)], count=4, seed=0)
    with pytest.raises(InvalidBatteryError):
        make_battery([(-1.0, 1.0), (0.0, 1.0)], count=0, seed=0)


# Weak identities -----------------------------------------------------------


def test_identity_values_vanish_for_solution():
    sol = _solution()
    bump = TensorBump([BumpFactor(-3.0, 3.0)], BumpFactor(0.0, 0.9, anchored_left=True))
    assert abs(identity_value(sol, bump, "mass", level=3)) < 1e-8
    assert abs(identity_value(sol, bump, "momentum", level=3)) < 1e-8


def test_identity_value_rejects_unknown_kind():
    sol = _solution()
    bump = TensorBump([BumpFactor(-3.0, 3.0)], BumpFactor(0.1, 0.9))
    with pytest.raises(InvalidParameterError):
        identity_value(sol, bump, "vorticity")


def test_residual_ladder_converges():
    sol = _solution()
    battery = make_battery([(-6.5, 6.5), (0.0, 1.0 - 1e-9)], count=4, seed=5)
    res = evaluate_identities(sol, battery, levels=(0, 1, 2, 3))
    assert res.identity_names == ("mass", "momentum_1")
    assert res.max_residual < 1e-6
    assert np.all(res.orders >= 4.0)
    # The table is (levels, identities) and the last row is the residual.
    assert res.table.shape == (4, 2)
    np.testing.assert_allclose(res.residuals, res.table[-1])


def test_perturbed_front_speed_is_detected():
    sol = _solution()
    bad = with_front_speed_offset(sol, 0.1)
    battery = make_battery([(-6.5, 6.5), (0.0, 1.0 - 1e-9)], count=4, seed=5)
    res = evaluate_identities(bad, battery, levels=(1, 2))
    assert res.table[-1][0] >= 1e-2  # mass residual blows up
    assert float(np.max(res.per_member[:, 0])) >= 1e-2


def test_time_reversed_still_weak_solution():
    # Reversal breaks entropy, not the conservation identities.
    rev = time_reversed(_solution())
    battery = make_battery([(-6.5, 6.5), (0.0, 1.0 - 1e-9)], count=3, seed=2)
    res = evaluate_identities(rev, battery, levels=(2, 3))
    assert res.max_residual < 1e-6


def test_levels_validation():
    sol = _solution()
    battery = make_battery([(-6.5, 6.5), (0.0, 0.9)], count=2, seed=1)
    with pytest.raises(InvalidParameterError):
        evaluate_identities(sol, battery, levels=(2, 1))
    with pytest.raises(InvalidParameterError):
        evaluate_identities(sol, battery, levels=())


def test_empty_battery_is_rejected():
    empty = Battery(functions=())
    with pytest.raises(InvalidBatteryError):
        evaluate_identities(_solution(), empty, levels=(1,))


def test_planar_identities_small_and_rotation_covariant():
    d = RiemannData1D(3.0, 1.0, 1.0, -0.8)
    base = solve_constant_states(d, 1.0, support0=(-5.0, 5.0))
    frame = np.array([[0.6, 0.8], [-0.8, 0.6]])
    sol = PlanarSolution(base, frame, np.array([0.0]), np.array([0.0]))
    battery = make_battery(
        [(-6.5, 6.5), (-1.5, 1.5), (0.0, 1.0 - 1e-9)], count=3, seed=4
    )
    res = evaluate_identities(sol, battery, levels=(2, 3))
    assert res.identity_names == ("mass", "momentum_1", "momentum_2")
    assert res.max_residual < 1e-6


def test_planar_tangential_slip_breaks_momentum():
    # With tangential slip the front would need to store tangential
    # momentum it cannot carry; the momentum identities must flag it.
    d = RiemannData1D(3.0, 1.0, 1.0, -0.8)
    base = solve_constant_states(d, 1.0, support0=(-5.0, 5.0))
    sol = PlanarSolution(base, np.eye(2), np.array([0.8]), np.array([-0.4]))
    battery = make_battery(
        [(-6.5, 6.5), (-1.5, 1.5), (0.0, 1.0 - 1e-9)], count=3, seed=4
    )
    res = evaluate_identities(sol, battery, levels=(2, 3))
    assert res.table[-1][0] < 1e-6  # mass still fine
    assert res.table[-1][2] > 1e-3  # tangential momentum is not


def test_battery_dimension_mismatch():
    d = RiemannData1D(3.0, 1.0, 1.0, -0.8)
    base = solve_constant_states(d, 1.0, support0=(-5.0, 5.0))
    sol = PlanarSolution(base, np.eye(2), np.zeros(1), np.zeros(1))
    battery = make_battery([(-6.5, 6.5), (0.0, 0.9)], count=2, seed=1)
    with pytest.raises(InvalidBatteryError):
        evaluate_identities(sol, battery, levels=(1,))


# Scalar reference ----------------------------------------------------------
# The per-time-node loop the array engine replaced: at every Gauss node in
# time the pieces come from the sorted breakpoints and every term is a
# scalar TensorBump call. It shares only the time cuts (the composite rule).


def _ref_pieces(sol, t, xlo, xhi):
    pos = float(sol.phi(t))
    lo_e, hi_e = float(sol.edge_l(t)), float(sol.edge_r(t))
    brk = sorted(b for b in (pos, lo_e, hi_e) if np.isfinite(b) and xlo < b < xhi)
    edges = [xlo] + brk + [xhi]
    for a, b in zip(edges[:-1], edges[1:]):
        xm = 0.5 * (a + b)
        if b - a > 1e-14 and lo_e <= xm <= hi_e:
            yield a, b, 0 if xm < pos else 1


def _reference_value(sol, bump, kind, level, nodes=8):
    """(value, sum of |terms|) of one identity by the scalar per-node loop."""
    p = {"mass": 0, "momentum": 1, "energy": 2}[kind]
    g = {"mass": sol.flux.f1, "momentum": sol.flux.n1, "energy": lambda u: u**3}[kind]
    sides = ((sol.rho_l, sol.u_l), (sol.rho_r, sol.u_r))
    d = [rho * u**p for rho, u in sides]
    q = [rho * g(u) for rho, u in sides]
    panels = 2 ** (level + 1)
    (xlo, xhi), (t_lo, _) = bump.space_box[0], bump.t_support
    terms = []
    for s0, s1 in zip(*_time_segments(sol, bump)):
        for t, wt in zip(*gauss_panels(s0, s1, panels, nodes)):
            for a, b, side in _ref_pieces(sol, t, xlo, xhi):
                xs, ws = gauss_panels(a, b, panels, nodes)
                terms.append(wt * d[side] * float(ws @ bump.dt(xs[:, None], t)))
                terms.append(wt * q[side] * float(bump.value([b], t)[0] - bump.value([a], t)[0]))
            pos, ud = float(sol.phi(t)), float(sol.u_delta(t))
            if xlo < pos < xhi:
                front = bump.dt([pos], t)[0] + ud * bump.grad([pos], t)[0, 0]
                terms.append(wt * float(sol.e(t)) * ud**p * front)
    if t_lo <= 1e-15:
        for a, b, side in _ref_pieces(sol, 0.0, xlo, xhi):
            xs, ws = gauss_panels(a, b, panels, nodes)
            terms.append(d[side] * float(ws @ bump.value(xs[:, None], 0.0)))
        atom0 = float(sol.e(0.0)) * float(sol.u_delta(0.0)) ** p
        terms.append(atom0 * bump.value([float(sol.phi(0.0))], 0.0)[0])
    return sum(terms), sum(abs(x) for x in terms)


@st.composite
def _candidates(draw):
    relativistic = draw(st.booleans())
    kw = {}
    if relativistic:
        kw["flux"] = relativistic_flux(1, draw(st.floats(0.8, 2.0)))
    elif draw(st.booleans()):
        kw["e0"] = draw(st.floats(0.1, 1.0))
    rho_l, rho_r = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    u_l, u_r = draw(st.floats(0.1, 1.5)), draw(st.floats(-1.5, -0.1))
    if "e0" in kw:
        kw["u_delta0"] = u_r + (u_l - u_r) * draw(st.floats(0.05, 0.95))
    support = draw(st.sampled_from([None, (-5.0, 5.0)]))
    variant = draw(st.sampled_from(["plain", "offset", "reversed"]))
    try:
        sol = _solution(rho_l, rho_r, u_l, u_r, support=support, **kw)
        if variant == "offset":
            sol = with_front_speed_offset(sol, draw(st.floats(-0.3, 0.3)))
        elif variant == "reversed":
            sol = time_reversed(sol)
    except DShockError:
        assume(False)
    return sol


@settings(max_examples=40, deadline=None)
@given(
    sol=_candidates(),
    seed=st.integers(0, 2**16),
    member=st.integers(0, 5),
    level=st.integers(0, 1),
)
def test_identity_value_matches_scalar_reference(sol, seed, member, level):
    lo, hi = sol.spatial_bounds(0.1)
    battery = make_battery([(lo, hi), (0.0, sol.t_end * (1.0 - 1e-9))], count=6, seed=seed)
    bump = battery.functions[member]
    kinds = ("mass", "momentum", "energy") if sol.flux.name == "standard" else ("mass", "momentum")
    for kind in kinds:
        ref, scale = _reference_value(sol, bump, kind, level)
        assert abs(identity_value(sol, bump, kind, level) - ref) <= 1e-13 * (1.0 + scale), kind


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["constant", "relativistic", "atom", "atom-ode"]),
    rho=st.tuples(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3)),
    u_r=st.floats(-3.0, 3.0),
    jump=st.floats(0.05, 4.0),
    c0=st.floats(0.5, 5.0),
    e0=st.floats(-3.0, 0.0),
    where=st.floats(0.05, 0.95),
    k=st.integers(-600, 600),
)
def test_density_scaling_scales_the_residual_table(kind, rho, u_r, jump, c0, e0, where, k):
    # The weak identities are linear in (rho, e), so (rho, e) -> (c rho, c e)
    # scales every residual by c. For c a power of two no product rounds
    # differently, so the table scales exactly, on every solver path.
    u_l = u_r + jump
    data = {"rho_l": 10.0 ** rho[0], "rho_r": 10.0 ** rho[1], "u_l": u_l, "u_r": u_r}
    if kind in ("relativistic", "atom-ode"):
        data["flux"] = relativistic_flux(1, c0)
    if kind in ("atom", "atom-ode"):
        data["e0"] = 10.0**e0
        data["u_delta0"] = u_r + where * (u_l - u_r)
    try:
        sol = solve_constant_states(RiemannData1D(**data), 1.0)
    except DShockError:  # a relativistic pair with no overcompressive speed
        assume(False)
    phi = sol.phi(np.linspace(0.0, 1.0, 9))
    battery = make_battery([(phi.min() - 1.0, phi.max() + 1.0), (0.0, 1.0 - 1e-9)], 4, seed=3)
    c = 2.0**k
    scaled = dict(data, rho_l=c * data["rho_l"], rho_r=c * data["rho_r"])
    if "e0" in data:
        scaled["e0"] = c * data["e0"]
    res = evaluate_identities(sol, battery, levels=(0, 1, 2))
    res_c = evaluate_identities(solve_constant_states(RiemannData1D(**scaled), 1.0), battery, levels=(0, 1, 2))
    np.testing.assert_array_equal(res_c.table, c * res.table)
    assert res_c.quadrature_nodes == res.quadrature_nodes
