"""
Two colliding gas states and the singular front between them
============================================================

Pressureless gas cannot resolve a velocity collision with a classical
shock: whenever both densities and the velocity jump are nonzero, no
bounded intermediate state balances the books. The excess mass and
momentum pile up in a moving Dirac measure instead. This demo solves
the two-state problem for the data (rho_l, rho_r, u_l, u_r) =
(4, 1, 1, -1) and inspects the resulting front.
"""

import numpy as np

from dshock import (
    RiemannData1D,
    classical_shock_feasible,
    solve_constant_states,
)

data = RiemannData1D(rho_l=4.0, rho_r=1.0, u_l=1.0, u_r=-1.0)

# First confirm that a classical shock is impossible here.
print("classical shock feasible:", classical_shock_feasible(data))

# The front speed solves the jump quadratic; for this data the admissible
# root is exactly 1/3, and the front absorbs mass at the constant rate 4.
sol = solve_constant_states(data, t_end=2.0)
print(f"front speed u_delta = {sol.u_delta(1.0):.6f}  (exact: 1/3)")
print(f"mass growth   e(t) = {sol.e(0.5):.3f}, {sol.e(1.0):.3f}, {sol.e(2.0):.3f}"
      "  (exact: 2, 4, 8)")
print(f"front path   x(t) = t/3: x(1.5) = {sol.phi(1.5):.6f}")

# The same solution object gives the piecewise fields away from the front.
print("\n  x      rho    u   (at t = 1.5, front at x = 0.5)")
for x in np.linspace(-2.0, 2.0, 9):
    print(f"{x:5.1f}  {sol.rho(x, 1.5):5.1f}  {sol.u(x, 1.5):4.1f}")

# The same machinery accepts an initial point mass riding between the
# states; the front then relaxes toward the constant-speed root.
seeded = RiemannData1D(4.0, 1.0, 1.0, -1.0, e0=0.5, u_delta0=0.9)
ssol = solve_constant_states(seeded, t_end=6.0)
print(f"\nseeded atom ({ssol.detail['kind']} path): u_delta(t) ->",
      [round(float(ssol.u_delta(t)), 4) for t in (0.0, 1.0, 6.0)])
