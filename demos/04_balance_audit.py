"""
Bookkeeping for a singular front: mass, momentum, energy
========================================================

For a compactly supported solution, the bulk integrals (M, P, W) and
the front's own ledger (m, p, w) must satisfy exact sum rules: M + m
and P + p constant, W + w nonincreasing. The audit below samples the
symmetric collision (rho = 1, u = +/-1 on [-5, 5]) and prints the
ledger; the front eats mass at rate 2 and kinetic energy at rate 1.
"""

import numpy as np

from dshock import RiemannData1D, audit, solve_constant_states, time_reversed

data = RiemannData1D(rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)
sol = solve_constant_states(data, t_end=1.0, support0=(-5.0, 5.0))

times = np.linspace(0.0, 1.0, 11)
rep = audit(sol, times)

print("   t      M        m       M+m      W        w       W+w")
for k, t in enumerate(times):
    print(
        f"{t:5.2f}  {rep.M[k]:7.4f}  {rep.m[k]:6.4f}  {rep.sum_mass[k]:7.4f}"
        f"  {rep.W[k]:7.4f}  {rep.w[k]:6.4f}  {rep.sum_energy[k]:7.4f}"
    )

# The support itself shrinks (gas streams inward at both edges), but no
# mass crosses the audit box, so M + m holds at exactly 10.
print("\nmass conserved:    ", rep.mass_conserved())
print("momentum conserved:", rep.momentum_conserved())
print("energy monotone:   ", rep.energy_monotone())
print("front mass growing:", rep.concentration_holds())
rate = np.gradient(rep.sum_energy, rep.t)
print(f"dissipation rate d(W+w)/dt = {rate[len(rate)//2]:+.6f}  (exact: -1)")

# Running the film backwards keeps mass and momentum books balanced but
# turns dissipation into creation; the audit flags it.
rev = audit(time_reversed(sol), times)
print("\ntime reversed: mass conserved =", rev.mass_conserved(),
      " energy monotone =", rev.energy_monotone())
