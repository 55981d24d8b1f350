"""Tests for the sticky-particle oracle."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dshock import (
    ClusterReport,
    InvalidParameterError,
    NotConvergedError,
    ParticleSystem,
    RiemannData1D,
    UndersamplingError,
    delta_cluster_estimate,
    radial_shells,
    sample_riemann,
    steady_converging_field,
    unit_sphere_area,
)


def test_unit_sphere_area_values():
    assert unit_sphere_area(1) == pytest.approx(2.0)
    assert unit_sphere_area(2) == pytest.approx(2.0 * np.pi)
    assert unit_sphere_area(3) == pytest.approx(4.0 * np.pi)
    assert unit_sphere_area(4) == pytest.approx(2.0 * np.pi**2)


def test_two_particle_head_on_merge():
    ps = ParticleSystem([-1.0, 1.0], [1.0, -1.0], [2.0, 2.0])
    ps.run_until(2.0)
    assert ps.count == 1
    assert ps.positions[0] == pytest.approx(0.0)
    assert ps.velocities[0] == pytest.approx(0.0)
    assert ps.masses[0] == pytest.approx(4.0)
    assert ps.merges == 1
    # Half the relative kinetic energy is lost in the merge.
    assert ps.ke_dissipated == pytest.approx(2.0)


def test_merge_happens_at_contact_time():
    ps = ParticleSystem([0.0, 3.0], [1.0, 0.0], [1.0, 1.0])
    ps.run_until(2.9)
    assert ps.count == 2
    ps.run_until(3.1)
    assert ps.count == 1
    assert ps.positions[0] == pytest.approx(3.0 + 0.5 * 0.1)
    # Particles in exact contact at the queried time count as merged.
    assert ParticleSystem([-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]).run_until(1.0).count == 1


def test_unequal_mass_merge_momentum():
    ps = ParticleSystem([0.0, 1.0], [2.0, 0.0], [3.0, 1.0])
    ps.run_until(1.0)
    assert ps.count == 1
    assert ps.velocities[0] == pytest.approx(1.5)
    assert ps.total_momentum() == pytest.approx(6.0)


def test_chain_merge_conserves_invariants():
    rng = np.random.default_rng(4)
    x = np.sort(rng.uniform(-10.0, 10.0, size=200))
    x += np.arange(200) * 1e-9  # enforce strict ordering
    v = rng.normal(scale=2.0, size=200)
    m = rng.uniform(0.1, 2.0, size=200)
    ps = ParticleSystem(x, v, m)
    mass0, mom0, ke0 = ps.total_mass(), ps.total_momentum(), ps.kinetic_energy()
    ps.run_until(50.0)
    assert ps.count < 200
    assert ps.total_mass() == pytest.approx(mass0, rel=1e-13)
    assert ps.total_momentum() == pytest.approx(mom0, abs=1e-10)
    # Energy only ever decreases, and the ledger accounts for all of it.
    assert ps.kinetic_energy() <= ke0 + 1e-12
    assert ps.kinetic_energy() + ps.ke_dissipated == pytest.approx(ke0, rel=1e-12)
    # After long enough, the ordering is still strict.
    assert np.all(np.diff(ps.positions) > 0.0)


def _brute_force(x, v, m, T):
    """Pairwise sticky simulation in exact arithmetic, independent of the oracle.

    Advances to the earliest contact of adjacent clusters, merges that pair
    and books the energy m_i m_j (v_i - v_j)^2 / 2 (m_i + m_j) it destroys.
    Returns the clusters at T as [position, velocity, mass, member indices],
    the number of merges and the dissipated energy.
    """
    cl = [[xi, vi, mi, [i]] for i, (xi, vi, mi) in enumerate(zip(x, v, m))]
    t, merges, lost = Fraction(0), 0, Fraction(0)
    while True:
        hits = [((b[0] - a[0]) / (a[1] - b[1]), i)
                for i, (a, b) in enumerate(zip(cl, cl[1:])) if a[1] > b[1]]
        dt, i = min(hits, default=(T - t + 1, None))
        if dt > T - t:
            for c in cl:
                c[0] += (T - t) * c[1]
            return cl, merges, lost
        for c in cl:
            c[0] += dt * c[1]
        t += dt
        a, b = cl[i], cl[i + 1]
        mass = a[2] + b[2]
        lost += a[2] * b[2] * (a[1] - b[1]) ** 2 / (2 * mass)
        cl[i:i + 2] = [[a[0], (a[2] * a[1] + b[2] * b[1]) / mass, mass, a[3] + b[3]]]
        merges += 1


def _tie_slack(x, v, m, clusters, T):
    """Smallest exact slack of the projection's block conditions at T.

    Adjacent clusters sit strictly apart, and inside a cluster every left part
    sits at or right of the rest in free flight. At zero slack (an exact
    contact at T) floating-point rounding decides whether the regression pools.
    """
    y = [xi + T * vi for xi, vi in zip(x, v)]

    def centre(idx):
        return sum(m[i] * y[i] for i in idx) / sum(m[i] for i in idx)

    slack = [centre(b[3]) - centre(a[3]) for a, b in zip(clusters, clusters[1:])]
    for c in clusters:
        slack += [centre(c[3][:k]) - centre(c[3][k:]) for k in range(1, len(c[3]))]
    return min(slack, default=1)


@st.composite
def _sticky_systems(draw):
    n = draw(st.integers(1, 12))
    real = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)
    x = sorted(draw(st.lists(st.floats(-10, 10, **real), min_size=n, max_size=n, unique=True)))
    v = draw(st.lists(st.floats(-5, 5, **real), min_size=n, max_size=n))
    m = draw(st.lists(st.floats(1e-3, 10, **real), min_size=n, max_size=n))
    times = draw(st.lists(st.floats(0, 20, **real), min_size=1, max_size=4, unique=True))
    return x, v, m, sorted(times)


@settings(max_examples=200, deadline=None)
@given(_sticky_systems())
def test_matches_brute_force_sticky_simulation(system):
    x, v, m, times = system
    assume(all(a < b for a, b in zip(x, x[1:])))
    ps = ParticleSystem(x, v, m)
    exact = [[Fraction(q) for q in col] for col in (x, v, m)]
    x_scale = max(map(abs, x)) + times[-1] * max(map(abs, v))
    v_scale = max(map(abs, v))
    for T in times:
        clusters, merges, lost = _brute_force(*exact, Fraction(T))
        # Systems within rounding of an exact contact at T are skipped.
        assume(_tie_slack(*exact, clusters, Fraction(T)) > 1e-9 * x_scale)
        ps.run_until(T)
        assert ps.count == len(clusters)
        assert ps.merges == merges
        pos, vel, mass = (np.array([float(c[k]) for c in clusters]) for k in range(3))
        np.testing.assert_allclose(ps.positions, pos, rtol=1e-12, atol=1e-12 * x_scale)
        np.testing.assert_allclose(ps.velocities, vel, rtol=1e-12, atol=1e-12 * v_scale)
        np.testing.assert_allclose(ps.masses, mass, rtol=1e-12)
        assert ps.ke_dissipated == pytest.approx(
            float(lost), rel=1e-12, abs=1e-12 * sum(m) * v_scale**2
        )


def test_particle_system_validation():
    with pytest.raises(InvalidParameterError):
        ParticleSystem([0.0, 0.0], [0.0, 0.0], [1.0, 1.0])  # not increasing
    with pytest.raises(InvalidParameterError):
        ParticleSystem([0.0, 1.0], [0.0, 0.0], [1.0, 0.0])  # nonpositive mass
    ps = ParticleSystem([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    ps.run_until(1.0)
    with pytest.raises(InvalidParameterError):
        ps.run_until(0.5)


def test_sample_riemann_masses():
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0, e0=0.5, u_delta0=0.2)
    ps = sample_riemann(d, L=2.0, N=1000)
    assert ps.total_mass() == pytest.approx(2.0 * 5.0 + 0.5, rel=1e-12)
    with pytest.raises(UndersamplingError):
        sample_riemann(d, L=2.0, N=50)


def test_sample_riemann_random_mode_seeded():
    d = RiemannData1D(2.0, 1.0, 1.0, -1.0)
    a = sample_riemann(d, L=1.0, N=200, mode="random", seed=9)
    b = sample_riemann(d, L=1.0, N=200, mode="random", seed=9)
    np.testing.assert_array_equal(a.positions, b.positions)
    with pytest.raises(InvalidParameterError):
        sample_riemann(d, L=1.0, N=200, mode="sobol")


def test_cluster_estimate_matches_front_solution():
    # Desk-scale version of the oracle comparison: modest N already puts
    # the dominant-cluster speed near the admissible root 1/3.
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    ps = sample_riemann(d, L=2.0, N=4000)
    rep = delta_cluster_estimate(ps, T=1.0)
    assert rep.u_delta_hat == pytest.approx(1.0 / 3.0, abs=2e-3)
    assert rep.mass_hat == pytest.approx(4.0, rel=2e-2)
    assert rep.position_hat == pytest.approx(1.0 / 3.0, abs=2e-3)
    # The history grows monotonically while the front eats both sides.
    assert np.all(np.diff(rep.mass_history) >= 0.0)


def test_cluster_estimate_needs_dominance():
    # Rarefaction data never collide; the estimate must refuse.
    d = RiemannData1D(1.0, 1.0, -1.0, 1.0)
    ps = sample_riemann(d, L=2.0, N=500)
    with pytest.raises(NotConvergedError):
        delta_cluster_estimate(ps, T=1.0)


def test_cluster_estimate_accepts_a_lone_cluster():
    # 100 unit masses with v = -10x all meet at x = 0 by t = 0.1: one
    # cluster holds everything, and it is dominant.
    x = np.linspace(0.0, 1.0, 100)
    rep = delta_cluster_estimate(ParticleSystem(x, -10.0 * x, np.ones(100)), T=1.0)
    assert rep.masses.tolist() == [100.0]
    assert rep.mass_hat == 100.0


def test_cluster_estimate_dominance_is_against_the_other_clusters():
    # Two clusters, 50 and 2.5: the heaviest holds 20x the other one, though
    # not 10x the median of both.
    x = np.concatenate([np.linspace(0.0, 1.0, 50), [5.0]])
    v = np.concatenate([-10.0 * np.linspace(0.0, 1.0, 50), [0.0]])
    m = np.concatenate([np.ones(50), [2.5]])
    rep = delta_cluster_estimate(ParticleSystem(x, v, m), T=1.0)
    assert rep.masses.tolist() == [50.0, 2.5]
    assert rep.mass_hat == 50.0


def test_cluster_estimate_time_grid_validation():
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    ps = sample_riemann(d, L=2.0, N=500)
    with pytest.raises(InvalidParameterError):
        delta_cluster_estimate(ps, T=1.0, times=np.array([0.5, 0.4]))
    with pytest.raises(InvalidParameterError):
        delta_cluster_estimate(ps, T=1.0, times=np.array([0.5, 1.5]))
    # Query times before the system's time are refused before any solve.
    ps.run_until(1.0)
    with pytest.raises(InvalidParameterError, match="backwards"):
        delta_cluster_estimate(ps, T=2.0, times=np.array([0.5, 2.0]))
    assert ps.time == 1.0


@pytest.mark.parametrize("speed", [0.37, -1.3, 2.5, 10.0])
@pytest.mark.parametrize("data", [(4.0, 1.0, 1.0, -1.0), (2.0, 0.7, 1.3, -0.4), (1.0, 3.0, 0.5, -2.0)])
def test_cluster_estimate_is_galilean_invariant(data, speed):
    # u -> u + V moves every cluster by V t and adds V to its velocity; the
    # same particles merge, so the masses are equal bit for bit. A fixed
    # table of V, not drawn ones: at an exact contact rounding decides the
    # pooling, which a boost may change. The worst error in this table is
    # 8.0e-13, at V = 10.
    rho_l, rho_r, u_l, u_r = data
    base = delta_cluster_estimate(sample_riemann(RiemannData1D(*data), L=2.0, N=20_000), T=1.0)
    boosted = RiemannData1D(rho_l, rho_r, u_l + speed, u_r + speed)
    rep = delta_cluster_estimate(sample_riemann(boosted, L=2.0, N=20_000), T=1.0)
    np.testing.assert_array_equal(rep.mass_history, base.mass_history)
    np.testing.assert_array_equal(rep.masses, base.masses)
    tol = 1e-13 * (1.0 + abs(speed))
    np.testing.assert_allclose(rep.positions, base.positions + speed * rep.time, rtol=0.0, atol=tol)
    np.testing.assert_allclose(rep.velocities, base.velocities + speed, rtol=0.0, atol=tol)
    np.testing.assert_allclose(
        rep.position_history, base.position_history + speed * base.times, rtol=0.0, atol=tol
    )
    np.testing.assert_allclose(rep.velocity_history, base.velocity_history + speed, rtol=0.0, atol=tol)


def test_radial_shells_mass_budget():
    # Steady converging profile rho = r^(1-n): each shell carries
    # area * dr of mass, so the total is area * (b - a) plus the seed.
    n = 3
    outer = steady_converging_field(n)
    ps = radial_shells(None, outer, n=n, N=400, box=(1.0, 3.0), front_seed=(1.0, 0.01, -0.5))
    area = unit_sphere_area(n)
    assert ps.total_mass() == pytest.approx(area * 2.0 + 0.01 * area, rel=1e-12)
    with pytest.raises(UndersamplingError):
        radial_shells(None, outer, n=n, N=50, box=(1.0, 3.0))


def test_radial_shells_truncation_flag():
    # All shells drift inward at speed 1; the innermost reaches r_min and
    # trips the truncation flag.
    outer = steady_converging_field(3)
    ps = radial_shells(None, outer, n=3, N=150, box=(1.0, 2.0), r_min=0.5)
    ps.run_until(0.2)
    assert not ps.truncated
    ps.run_until(0.6)
    assert ps.truncated


def test_radial_shells_validation():
    outer = steady_converging_field(3)
    with pytest.raises(InvalidParameterError):
        radial_shells(None, outer, n=3, N=200, box=(2.0, 1.0))
    with pytest.raises(InvalidParameterError):
        radial_shells(None, None, n=3, N=200, box=(1.0, 2.0))


# -- reference for the samplers' ordering ------------------------------------
# The samplers used to append the seed particle last and reorder everything
# with a stable argsort; they now build the blocks in order and insert it.


def _argsort_riemann(d, L, N, mode="midpoint", seed=None):
    rng = np.random.default_rng(seed) if mode == "random" else None
    half = N // 2
    xs, vs, ms = [], [], []
    for lo, hi, rho, u in ((-L, 0.0, d.rho_l, d.u_l), (0.0, L, d.rho_r, d.u_r)):
        if rho <= 0.0:
            continue
        if rng is None:
            pts = lo + (np.arange(half) + 0.5) * (hi - lo) / half
        else:
            pts = np.sort(rng.uniform(lo, hi, size=half))
        xs.append(pts)
        vs.append(np.full(half, u))
        ms.append(np.full(half, rho * (hi - lo) / half))
    if d.e0 > 0.0:
        xs.append(np.array([d.x0]))
        vs.append(np.array([float(d.u_delta0)]))
        ms.append(np.array([d.e0]))
    x = np.concatenate(xs)
    order = np.argsort(x, kind="stable")
    return x[order], np.concatenate(vs)[order], np.concatenate(ms)[order]


def _argsort_shells(inner, outer, n, N, box, boundary, front_seed):
    r_lo, r_hi = box
    area = unit_sphere_area(n)
    dr = (r_hi - r_lo) / N
    r = r_lo + (np.arange(N) + 0.5) * dr
    xs, vs, ms = [], [], []
    for fld, side in ((inner, r < boundary), (outer, r >= boundary)):
        if fld is None:
            continue
        rs = r[side]
        rho, u = fld.state(rs, 0.0)
        keep = rho > 0.0
        rs, rho = rs[keep], rho[keep]
        xs.append(rs)
        vs.append(u[keep])
        ms.append(rho * area * rs ** (n - 1) * dr)
    phi0, e0, ud0 = map(float, front_seed)
    if e0 > 0.0:
        xs.append(np.array([phi0]))
        vs.append(np.array([ud0]))
        ms.append(np.array([e0 * area * phi0 ** (n - 1)]))
    x = np.concatenate(xs)
    order = np.argsort(x, kind="stable")
    return x[order], np.concatenate(vs)[order], np.concatenate(ms)[order]


def _assert_same_bits_or_rejected(build, ref):
    """``build()`` equals the reference arrays bit for bit, or both are invalid.

    A seed exactly on a sampled position is a tie; the system rejects it.
    """
    if np.any(np.diff(ref[0]) <= 0.0):
        with pytest.raises(InvalidParameterError):
            build()
        return
    ps = build()
    for got, want in zip((ps._x0, ps._v0, ps._m0), ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    rho=st.sampled_from([(1.0, 0.5), (4.0, 0.0), (0.0, 1.0), (0.0, 0.0)]),
    N=st.integers(100, 401),
    mode=st.sampled_from(["midpoint", "random"]),
    seed=st.integers(0, 2**16),
    atom=st.sampled_from([None, "origin", "anywhere", "on_a_particle"]),
    where=st.floats(-3.0, 3.0),
    k=st.integers(0, 10**6),
)
def test_sample_riemann_equals_argsort_construction(rho, N, mode, seed, atom, where, k):
    assume(sum(rho) > 0.0 or atom is not None)
    L = 2.0
    x0 = 0.0 if atom in (None, "origin") else where
    if atom == "on_a_particle" and sum(rho) > 0.0:
        pts = _argsort_riemann(RiemannData1D(*rho, 1.0, -1.0), L, N, mode, seed)[0]
        x0 = float(pts[k % pts.size])
    e0, ud0 = (0.0, None) if atom is None else (0.3, 0.1)
    d = RiemannData1D(*rho, 1.0, -1.0, e0=e0, u_delta0=ud0, x0=x0)
    _assert_same_bits_or_rejected(
        lambda: sample_riemann(d, L, N, mode, seed), _argsort_riemann(d, L, N, mode, seed)
    )


@pytest.mark.parametrize("phi0", [0.5, 1.0, 1.5, 1.7125, 2.0, 3.5])
@pytest.mark.parametrize("e0", [0.0, 0.01])
def test_radial_shells_equal_argsort_construction(phi0, e0):
    from dshock.spherical import constant_field

    inner = constant_field(0.5, 0.2, (1.0, 1.6))
    outer = steady_converging_field(3, (1.0, 3.5))
    args = dict(n=3, N=400, box=(1.0, 3.0), boundary=1.5, front_seed=(phi0, e0, -0.5))
    # 1.7125 is a shell radius; (None, None) leaves only the front shell.
    for fields in ((inner, outer), (None, outer), (inner, None), (None, None)):
        if fields == (None, None) and e0 == 0.0:
            continue
        _assert_same_bits_or_rejected(
            lambda: radial_shells(*fields, **args), _argsort_shells(*fields, **args)
        )


@settings(max_examples=60, deadline=None)
@given(
    x=st.lists(st.integers(-5, 5), min_size=0, max_size=12).map(sorted),
    x0=st.integers(-6, 6),
)
def test_insert_seed_places_ties_like_a_stable_sort(x, x0):
    from dshock.sticky_oracle import _insert_seed

    x = np.array(x, dtype=float)
    ids = np.arange(x.size, dtype=float)
    got_x, got_id, _ = _insert_seed(x, ids, ids, (float(x0), -1.0, -1.0))
    order = np.argsort(np.append(x, x0), kind="stable")
    np.testing.assert_array_equal(got_x, np.append(x, x0)[order])
    np.testing.assert_array_equal(got_id, np.append(ids, -1.0)[order])


# -- reference for the deferred fields ---------------------------------------


class _RefSystem:
    """The eager oracle state: every field is built at every query time."""

    def __init__(self, ps):
        self.x0, self.v0, self.m0 = ps.positions, ps.velocities, ps.masses
        self.positions, self.velocities, self.masses = self.x0, self.v0, self.m0
        self.r_min = ps.r_min
        self.time = 0.0
        self.merges = 0
        self.ke_dissipated = 0.0
        self.truncated = False


def _ref_run_until(ref, T):
    from scipy.optimize import isotonic_regression

    T = float(T)
    x0, v0, m0 = ref.x0, ref.v0, ref.m0
    fit = isotonic_regression(x0 + T * v0, weights=m0)
    starts = fit.blocks[:-1]
    ref.positions = fit.x[starts]
    ref.masses = fit.weights
    ref.velocities = np.add.reduceat(m0 * v0, starts) / ref.masses
    rel_v = v0 - np.repeat(ref.velocities, np.diff(fit.blocks))
    ref.ke_dissipated = float(0.5 * np.sum(m0 * rel_v**2))
    ref.merges = x0.size - ref.positions.size
    ref.time = T
    if ref.r_min is not None and ref.positions[0] < ref.r_min:
        ref.truncated = True
    return ref


def _ref_delta_cluster_estimate(ref, T, times=None):
    if times is None:
        times = np.linspace(0.0, T, 17)[1:]
    times = np.asarray(times, dtype=float)
    pos_h, mass_h, vel_h = [], [], []
    for t in times:
        _ref_run_until(ref, t)
        k = int(np.argmax(ref.masses))
        pos_h.append(ref.positions[k])
        mass_h.append(ref.masses[k])
        vel_h.append(ref.velocities[k])
    _ref_run_until(ref, T)
    k = int(np.argmax(ref.masses))
    return ClusterReport(
        time=ref.time,
        positions=ref.positions,
        masses=ref.masses,
        velocities=ref.velocities,
        times=times,
        position_history=np.array(pos_h),
        mass_history=np.array(mass_h),
        velocity_history=np.array(vel_h),
        u_delta_hat=float(ref.velocities[k]),
        mass_hat=float(ref.masses[k]),
        position_hat=float(ref.positions[k]),
    )


def _assert_state_equal(ps, ref):
    for name in ("positions", "masses", "velocities"):
        assert np.array_equal(getattr(ps, name), getattr(ref, name)), name
    for name in ("time", "merges", "ke_dissipated", "truncated"):
        assert getattr(ps, name) == getattr(ref, name), name


def _oracle_cases():
    riemann = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    atom = RiemannData1D(4.0, 1.0, 1.0, -1.0, e0=0.5, u_delta0=0.2)
    outer = steady_converging_field(3, (1.0, 3.5))

    def shells():
        return radial_shells(
            None, outer, n=3, N=2000, box=(1.0, 3.5),
            front_seed=(1.0, 0.01, -0.5), r_min=0.9,
        )

    return {
        "riemann_midpoint": (lambda: sample_riemann(riemann, L=2.0, N=20000), 1.0, None),
        "riemann_random": (
            lambda: sample_riemann(riemann, L=2.0, N=20000, mode="random", seed=5), 1.0, None
        ),
        "initial_atom": (lambda: sample_riemann(atom, L=2.0, N=20000), 1.0, None),
        "shells_truncated": (shells, 1.0, None),
        "times_before_T": (
            lambda: sample_riemann(riemann, L=2.0, N=20000), 1.0, [0.1, 0.25, 0.6, 0.9]
        ),
    }


@pytest.mark.parametrize("case", sorted(_oracle_cases()))
def test_cluster_estimate_equals_eager_reference_bitwise(case):
    build, T, times = _oracle_cases()[case]
    ps = build()
    ref = _RefSystem(ps)
    rep = delta_cluster_estimate(ps, T, times=times)
    want = _ref_delta_cluster_estimate(ref, T, times=times)
    for f in dataclasses.fields(ClusterReport):
        got, exp = getattr(rep, f.name), getattr(want, f.name)
        if isinstance(exp, np.ndarray):
            assert np.array_equal(got, exp), f.name
        else:
            assert got == exp, f.name
    _assert_state_equal(ps, ref)
    if case == "shells_truncated":
        assert ps.truncated
    # After later solves, read ke_dissipated before velocities, so that it
    # builds the velocities itself.
    for t in (T + 0.5, T + 1.0):
        ps.run_until(t)
        _ref_run_until(ref, t)
        assert ps.ke_dissipated == ref.ke_dissipated
        _assert_state_equal(ps, ref)


def _compare_with_reference(ps, T, times):
    """``delta_cluster_estimate`` equals the eager reference bit for bit."""
    ref = _RefSystem(ps)
    want = _ref_delta_cluster_estimate(ref, T, times=times)
    try:
        rep = delta_cluster_estimate(ps, T, times=times)
    except NotConvergedError:
        others = np.delete(want.masses, np.argmax(want.masses))
        assert others.size and want.mass_hat < 10.0 * np.median(others)
    else:
        for f in dataclasses.fields(ClusterReport):
            got, exp = getattr(rep, f.name), getattr(want, f.name)
            if isinstance(exp, np.ndarray):
                assert got.tobytes() == exp.tobytes(), f.name
            else:
                assert got == exp, f.name
    _assert_state_equal(ps, ref)


@st.composite
def _oracle_inputs(draw):
    """A particle system, a final time and a query grid (None: the default).

    Spacings are far above rounding, so clusters nest in time and the
    restricted regressions carry the estimate.
    """
    kind = draw(st.sampled_from(["particles", "riemann", "atom", "shells"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = draw(st.sampled_from([0.5, 1.0, 2.5]))
    if kind == "particles":
        n = draw(st.integers(20, 400))
        x = np.cumsum(rng.uniform(1e-3, 0.1, n))
        levels = rng.normal(size=draw(st.integers(1, 6)))
        v = rng.choice(levels, n) if draw(st.booleans()) else rng.normal(size=n)
        # A converging drift on a window of particles lets a dominant cluster form.
        i, j = np.sort(rng.choice(n + 1, 2, replace=False))
        v[i:j] -= (x[i:j] - x[i:j].mean()) * draw(st.floats(0.0, 4.0)) / T
        m = rng.uniform(0.5, 2.0, n) if draw(st.booleans()) else rng.choice([1.0, 2.0], n)
        r_min = x[0] + draw(st.floats(-1.0, 1.0)) if draw(st.booleans()) else None
        ps = ParticleSystem(x, v, m, r_min=r_min)
    elif kind in ("riemann", "atom"):
        rho_l, rho_r = rng.uniform(0.2, 4.0, 2)
        u_r = rng.uniform(-2.0, 0.5)
        u_l = u_r + rng.uniform(0.5, 2.5)
        e0, ud0, x0 = rng.uniform((0.05, u_r, -1.0), (2.0, u_l, 1.0))
        atom = dict(e0=e0, u_delta0=ud0, x0=x0) if kind == "atom" else {}
        d = RiemannData1D(rho_l, rho_r, u_l, u_r, **atom)
        mode = draw(st.sampled_from(["midpoint", "random"]))
        ps = sample_riemann(d, L=2.0, N=draw(st.integers(400, 3000)), mode=mode,
                            seed=int(rng.integers(2**16)))
    else:
        # Every shell drifts inward, so the first cluster crosses r_min.
        T = min(T, 1.0)
        ps = radial_shells(
            None, steady_converging_field(3, (1.0, 3.5)), n=3, N=draw(st.integers(400, 3000)),
            box=(1.0, 3.5), front_seed=(draw(st.floats(1.0, 3.5)), 0.01, -0.5),
            r_min=draw(st.floats(0.0, 1.0)),
        )
    grid = draw(st.sampled_from(["default", "random", "before_T", "from_below_zero", "early"]))
    if grid == "default":
        return ps, T, None
    if grid == "early":
        # Before the first contacts the heaviest cluster is a single particle.
        return ps, T, T * np.geomspace(1e-7, 1.0, draw(st.integers(2, 12)))
    times = np.unique(rng.uniform(0.0, T, draw(st.integers(1, 12))))
    if grid == "random":
        times = np.append(times[times < T], T)
    elif grid == "from_below_zero":
        times = np.append(-5e-14, times)
    return ps, T, times


@settings(max_examples=120, deadline=None)
@given(_oracle_inputs())
def test_cluster_estimate_equals_reference_on_random_systems(inputs):
    _compare_with_reference(*inputs)


def _full_clusters(c, ps):
    """The (blocks, values, weights) of all particles from restricted clusters c."""
    if c.ids is None:
        return c.blocks, c.values, c.weights
    n = ps.count
    free = np.setdiff1d(np.arange(n), c.ids)
    starts = np.concatenate([free, c.ids[c.blocks[:-1]]])
    values = np.concatenate([ps._x0[free] + c.t * ps._v0[free], c.values])
    weights = np.concatenate([ps._m0[free], c.weights])
    order = np.argsort(starts)
    return np.append(starts[order], n), values[order], weights[order]


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    spacing=st.sampled_from([np.spacing(1.0), 1e-14, 1e-12, 1e-3, 0.1]),
    t=st.sampled_from([-5e-14, 0.0, 0.25, 0.5, 1.0, 3.0]),
)
def test_restricted_regression_is_the_full_one_whatever_the_prior_clusters(n, seed, spacing, t):
    # The checks of _earlier make it exact for any claimed clusters at the
    # later time, also ones that do not hold: a guard that pools or free
    # neighbours that meet send it to the full regression.
    from scipy.optimize import isotonic_regression

    from dshock.sticky_oracle import _Clusters, _earlier, _touching_pairs

    rng = np.random.default_rng(seed)
    x = 1.0 + np.cumsum(rng.integers(1, 4, n)) * spacing
    v = rng.normal(size=n) * rng.choice([spacing, 1e3 * spacing, 1.0])
    m = rng.choice([0.5, 1.0, 2.0], n)
    ps = ParticleSystem(x, v, m)
    cuts = np.flatnonzero(rng.random(n - 1) < 0.5) + 1
    blocks = np.concatenate([[0], cuts, [n]])
    prior = _Clusters(t + 1.0, None, blocks, np.zeros(blocks.size - 1), np.ones(blocks.size - 1))
    got = _full_clusters(_earlier(ps, prior, t, _touching_pairs(x, v, np.array([t]))), ps)
    fit = isotonic_regression(x + t * v, weights=m)
    want = (fit.blocks, fit.x[fit.blocks[:-1]], fit.weights)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def _record_regression_lengths(monkeypatch) -> list:
    """The length of every array passed to ``isotonic_regression`` from now on."""
    import scipy.optimize

    lengths = []
    solve = scipy.optimize.isotonic_regression

    def counted(y, **kwargs):
        lengths.append(len(y))
        return solve(y, **kwargs)

    monkeypatch.setattr(scipy.optimize, "isotonic_regression", counted)
    return lengths


def _with_dominant_cluster(x, v, m, at=-5.0, r_min=None):
    """(x, v, m) with 20 unit masses from ``at`` on that collide into one cluster by t = 1."""
    xs = np.concatenate([at + 0.1 * np.arange(20), x])
    order = np.argsort(xs)
    v = np.concatenate([np.repeat([1.0, -1.0], 10), v])
    return ParticleSystem(xs[order], v[order], np.concatenate([np.ones(20), m])[order], r_min)


_U = np.spacing(1.0)


@pytest.mark.parametrize(
    "x, v, times",
    [
        # One ulp apart with equal velocities, particles 21 and 22 never meet
        # in exact arithmetic; rounded, they are apart at T = 1 but tie at
        # t = 1/2, where the full regression pools them.
        (1.0 + np.array([2.0, 3.0, 4.0]) * _U, np.array([-3.0, 1.0, 1.0]) * _U, [0.5, 1.0]),
        # A receding pair 1e-14 apart has crossed at the query time -5e-14,
        # which the 1e-13 tolerance on query times admits.
        (np.array([1.0, 1.0 + 1e-14, 2.0]), np.array([-1.0, 1.0, 2.0]), [-5e-14, 1.0]),
    ],
    ids=["rounding_tie", "negative_time"],
)
def test_cluster_estimate_falls_back_where_free_neighbours_meet(monkeypatch, x, v, times):
    lengths = _record_regression_lengths(monkeypatch)
    ps = _with_dominant_cluster(x, v, np.ones(3))
    _compare_with_reference(ps, 1.0, times)
    # After the reference's three full solves: the regression at T, the one
    # over the cluster and its guard at the earlier time, then all particles.
    assert lengths[3:] == [23, 21, 23]


def test_cluster_estimate_reads_lone_particles_at_every_time():
    # Particle 0 (mass 3, velocity 0.1) is the heaviest cluster before the
    # first collision at t = 0.05, and its momentum over mass is not 0.1 in
    # floating point. It is also the first cluster, and no guard: below
    # r_min = 0.05 until t = 0.5 and above it at T = 1, so only the earlier
    # query times truncate.
    ps = _with_dominant_cluster(
        np.array([0.0, 1.0, 10.0, 11.0, 12.0]), np.array([0.1, 0.1, 2.0, 2.0, 2.0]),
        np.array([3.0, 1.0, 1.0, 1.0, 1.0]), at=2.0, r_min=0.05,
    )
    assert (ps._m0[0] * ps._v0[0]) / ps._m0[0] != ps._v0[0]
    _compare_with_reference(ps, 1.0, [0.01, 0.3, 1.0])
    assert ps.truncated and ps.positions[0] > ps.r_min


@pytest.mark.parametrize("mode", ["random", "midpoint"])
def test_cluster_estimate_holds_at_most_eight_particle_arrays(mode):
    # The peak counts the system's own arrays (x0, v0, m0) and every array
    # allocated while the estimate runs. The floor with scipy's
    # isotonic_regression is 7 arrays of N floats: those three, the
    # free-flight positions and scipy's value copy, weight copy and block
    # index. tracemalloc counts bytes and no time, so the bound is exact.
    import tracemalloc

    from scipy.optimize import isotonic_regression  # noqa: F401  (imported untraced)

    N = 50_000
    tracemalloc.start()
    try:
        ps = sample_riemann(RiemannData1D(4.0, 1.0, 1.0, -1.0), L=2.0, N=N, mode=mode, seed=1)
        tracemalloc.reset_peak()
        delta_cluster_estimate(ps, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * N * 8



@pytest.mark.parametrize("two_sided", [False, True])
def test_radial_shells_hold_at_most_six_shell_arrays(two_sided):
    # The floor is 6 arrays of N floats: the three filled buffers and the
    # system's copies of them. The shells used to be built per side, with
    # each side's state, its filtered copies, their concatenation and the
    # seeded copies alive at once: 12.3 arrays (11.8 two-sided). Measured:
    # 6.08 and 6.07; the fields' temporaries stay one chunk of radii long.
    import tracemalloc

    from dshock.spherical import constant_field

    N = 200_000
    inner = constant_field(0.5, 0.2, (1.0, 1.6)) if two_sided else None
    args = dict(n=3, N=N, box=(1.0, 3.5), front_seed=(1.7, 0.01, -0.5))
    if two_sided:
        args["boundary"] = 1.5
    outer = steady_converging_field(3, (1.0, 3.5))
    tracemalloc.start()
    try:
        ps = radial_shells(inner, outer, **args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.count == N + 1
    assert peak <= 6.1 * N * 8

@pytest.mark.parametrize("times", [None, [0.2, 0.5, 1.0], [0.2, 0.5, 0.8]])
def test_cluster_estimate_solves_once_per_query_time(monkeypatch, times):
    lengths = _record_regression_lengths(monkeypatch)
    N = 1000
    ps = sample_riemann(RiemannData1D(4.0, 1.0, 1.0, -1.0), L=2.0, N=N)
    rep = delta_cluster_estimate(ps, 1.0, times=times)
    expected = len(rep.times) + (0 if rep.times[-1] == 1.0 else 1)
    assert len(lengths) == expected
    # Only the solve at T sees every particle; each earlier time regresses
    # the particles clustered at the next later time (half of them at T on
    # the 4:1 data) and their guards.
    assert lengths[0] == N and lengths.count(N) == 1
    assert sum(lengths[1:]) <= 0.5 * (len(lengths) - 1) * N


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_times_are_rejected(bad):
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    ps = sample_riemann(d, L=2.0, N=500)
    with pytest.raises(InvalidParameterError, match="finite"):
        ps.run_until(bad)
    with pytest.raises(InvalidParameterError, match="finite"):
        delta_cluster_estimate(ps, bad)
    with pytest.raises(InvalidParameterError, match="finite"):
        delta_cluster_estimate(ps, 1.0, times=[0.5, bad])
    assert ps.time == 0.0


# -- convergence to the front ------------------------------------------------

# Random sampling of the 4:1 data on [-2, 2]: by the Dvoretzky-Kiefer-Wolfowitz
# inequality each side's empirical CDF is off by at most
# eps = sqrt(ln(2 / delta) / (2 n)), n = N / 2 particles per side, except with
# probability delta, whatever the seed. The cluster at t = 1 holds the left
# mass rho_l (u_l - s) = 8/3 and the right mass rho_r (s - u_r) = 4/3, so the
# swept masses are off by at most rho_l L eps = 8 eps and rho_r L eps = 2 eps.
# Linearising u = (m_l u_l + m_r u_r) / (m_l + m_r) around M = 4 gives
# |du| <= (2/3)/4 * 8 eps + (4/3)/4 * 2 eps = 2 eps and |dM| <= 10 eps; a
# further factor 1.5 covers the linearisation.
_DKW_DELTA = 1e-9


@settings(max_examples=24, deadline=None)
@given(st.sampled_from([2000, 8000, 32000]), st.integers(0, 2**32 - 1))
def test_random_oracle_converges_at_dkw_rate(N, seed):
    eps = np.sqrt(np.log(2.0 / _DKW_DELTA) / (2.0 * (N // 2)))
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    rep = delta_cluster_estimate(sample_riemann(d, L=2.0, N=N, mode="random", seed=seed), 1.0)
    assert abs(rep.u_delta_hat - 1.0 / 3.0) <= 3.0 * eps
    assert abs(rep.mass_hat - 4.0) <= 15.0 * eps


def test_exact_contact_is_within_one_cluster():
    # Symmetric data: the particles at +-(j + 1/2) dx, dx = 1e-3, meet at
    # t = (j + 1/2) dx, so by t = 1/16 the pairs j = 0..62 have merged and the
    # pair j = 62 touches the cluster exactly at t. Exact arithmetic pools
    # all 126 into one cluster: 4000 - 126 + 1 = 3875. The rounded free-flight
    # positions leave one of them apart (3876 clusters), which is the
    # documented tolerance.
    d = RiemannData1D(1.0, 1.0, 1.0, -1.0)
    ps = sample_riemann(d, L=2.0, N=4000).run_until(1.0 / 16.0)
    assert abs(ps.count - 3875) <= 1
