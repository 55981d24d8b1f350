"""
Oblique collisions in the plane
===============================

For piecewise-constant data separated by a moving plane, the normal
dynamics reduce exactly to the 1-D two-state problem along the normal
axis. What is new in several dimensions is tangential slip: if the
side velocities shear along the front, the front would have to carry
tangential momentum it has no equation for, and the mismatch is
reported as a tangential deficit rather than silently dropped.
"""

from pathlib import Path

import numpy as np

from dshock.scenario import load_scenario, planar_from_spec

obj = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "planar_2d.json")
sol = planar_from_spec(obj)

nu = sol.frame[0]
print(f"unit normal nu = {np.round(nu, 3)}")
print(f"normal two-state data: rho ({sol.base.rho_l}, {sol.base.rho_r}), "
      f"u ({sol.base.u_l:+.2f}, {sol.base.u_r:+.2f})")

# One evaluation of the front at t = 1; the deficit takes its normal speed G.
f = sol.front_state(1.0)
print(f"front normal speed u_delta = {f.G:+.6f}")
print(f"front velocity vector U_delta = {np.round(f.U_delta, 6)}  (= G nu)")
print(f"surface density e(1) = {f.e:.4f}")
deficit = float(np.linalg.norm(sol.tangential_deficit(f.G)))
print(f"tangential slip deficit = {deficit:+.6f}"
      "  (constant in time for constant states)")

# Rotate the whole dataset by 30 degrees: the front state rotates with
# it and the scalar deficit is unchanged.
th = np.pi / 6.0
rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
robj = dict(obj)
for key in ("U_minus", "U_plus", "normal"):
    robj[key] = list(rot @ np.asarray(obj[key], dtype=float))
rsol = planar_from_spec(robj)
rf = rsol.front_state(1.0)
print("\nafter a rigid 30 degree rotation:")
print(f"  |R U_delta - U_delta'| = {np.max(np.abs(rot @ f.U_delta - rf.U_delta)):.2e}")
rdeficit = float(np.linalg.norm(rsol.tangential_deficit(rf.G)))
print(f"  deficit unchanged to   {abs(deficit - rdeficit):.2e}")
