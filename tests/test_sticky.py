"""Tests for the sticky-particle oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dshock import (
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


def test_cluster_estimate_time_grid_validation():
    d = RiemannData1D(4.0, 1.0, 1.0, -1.0)
    ps = sample_riemann(d, L=2.0, N=500)
    with pytest.raises(InvalidParameterError):
        delta_cluster_estimate(ps, T=1.0, times=np.array([0.5, 0.4]))
    with pytest.raises(InvalidParameterError):
        delta_cluster_estimate(ps, T=1.0, times=np.array([0.5, 1.5]))


def test_radial_shells_mass_budget():
    # Steady converging profile rho = r^(1-n): each shell carries
    # area * dr of mass, so the total is area * (b - a) plus the seed.
    n = 3
    outer = steady_converging_field(n)
    ps = radial_shells(None, outer, n=n, N=400, annulus=(1.0, 3.0), front_seed=(1.0, 0.01, -0.5))
    area = unit_sphere_area(n)
    assert ps.total_mass() == pytest.approx(area * 2.0 + 0.01 * area, rel=1e-12)
    with pytest.raises(UndersamplingError):
        radial_shells(None, outer, n=n, N=50, annulus=(1.0, 3.0))


def test_radial_shells_truncation_flag():
    # All shells drift inward at speed 1; the innermost reaches r_min and
    # trips the truncation flag.
    outer = steady_converging_field(3)
    ps = radial_shells(None, outer, n=3, N=150, annulus=(1.0, 2.0), r_min=0.5)
    ps.run_until(0.2)
    assert not ps.truncated
    ps.run_until(0.6)
    assert ps.truncated


def test_radial_shells_validation():
    outer = steady_converging_field(3)
    with pytest.raises(InvalidParameterError):
        radial_shells(None, outer, n=3, N=200, annulus=(2.0, 1.0))
    with pytest.raises(InvalidParameterError):
        radial_shells(None, None, n=3, N=200, annulus=(1.0, 2.0))
