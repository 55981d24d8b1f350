"""
Sticky particles: the micro-model behind the concentrated front
===============================================================

Replace the gas by many free-streaming point masses that merge on
contact (conserving mass and momentum, dissipating kinetic energy).
As the particle count grows, the merged mega-cluster converges to the
continuum front: same position, same velocity, same absorbed mass.
"""

import numpy as np

from dshock import RiemannData1D, delta_cluster_estimate, sample_riemann

data = RiemannData1D(rho_l=4.0, rho_r=1.0, u_l=1.0, u_r=-1.0)

# Discretize x in [-2, 2] into N cells of equal width, one particle per
# cell carrying the local mass, then merge them on contact.
print("       N   u_delta_hat     err        e(1)_hat     err      merges")
for N in (1000, 10000, 100000):
    ps = sample_riemann(data, L=2.0, N=N, mode="midpoint", seed=0)
    est = delta_cluster_estimate(ps, T=1.0)
    print(
        f"{N:8d}   {est.u_delta_hat:+.6f}  {abs(est.u_delta_hat - 1/3):.1e}"
        f"   {est.mass_hat:9.6f}  {abs(est.mass_hat - 4.0):.1e}   {ps.merges:7d}"
    )
print("continuum:  +0.333333              4.000000")

# The cluster history shows the shock absorbing mass linearly in time,
# and the total energy ledger closes: initial KE = final KE + dissipated.
ps = sample_riemann(data, L=2.0, N=10000, mode="midpoint", seed=0)
est = delta_cluster_estimate(ps, T=1.0)
print("\n   t     cluster mass   (continuum e(t) = 4t)")
for t, m in zip(est.times[::4], est.mass_history[::4]):
    print(f"{t:5.2f}   {m:10.4f}")
ke_final = 0.5 * float(np.sum(ps.masses * ps.velocities**2))
print(f"\nenergy ledger: final KE {ke_final:.4f} + dissipated {ps.ke_dissipated:.4f}"
      f" = {ke_final + ps.ke_dissipated:.4f} (initial KE)")
