"""
Verifying a singular solution in the weak sense
===============================================

A candidate solution with a Dirac mass on a moving front cannot be
plugged into the PDE pointwise. Instead we integrate the conservation
identities against smooth compactly supported test functions: for a
genuine solution every such integral vanishes. The checker uses a
seeded battery of bump functions and a quadrature refinement ladder,
so a true solution shows residuals racing to zero at high order while
a corrupted one saturates at a finite defect.
"""

import numpy as np

from dshock import (
    RiemannData1D,
    evaluate_identities,
    make_battery,
    solve_constant_states,
    with_front_speed_offset,
)

data = RiemannData1D(rho_l=4.0, rho_r=1.0, u_l=1.0, u_r=-1.0)
sol = solve_constant_states(data, t_end=1.0, support0=(-5.0, 5.0))

battery = make_battery([(-6.5, 6.5), (0.0, 1.0 - 1e-9)], count=6, seed=5)
levels = (0, 1, 2, 3, 4)
res = evaluate_identities(sol, battery, levels=levels)

print("residual ladder (max over 6 test functions):")
print("panels    mass          momentum")
for lv, row in zip(levels, res.table):
    print(f"{2 ** (lv + 1):6d}    {row[0]:.3e}     {row[1]:.3e}")
print(f"observed convergence orders: {np.round(res.orders, 1)}")
print(f"finest-level residual: {res.max_residual:.2e}")

# Now corrupt the candidate: translate the front 0.1 too fast while
# keeping everything else. The mass identity pins the defect immediately
# and no amount of quadrature refinement makes it go away.
bad = with_front_speed_offset(sol, 0.1)
res_bad = evaluate_identities(bad, battery, levels=(2, 3, 4))
print("\nfront speed off by +0.1:")
print("panels    mass          momentum")
for lv, row in zip((2, 3, 4), res_bad.table):
    print(f"{2 ** (lv + 1):6d}    {row[0]:.3e}     {row[1]:.3e}")
