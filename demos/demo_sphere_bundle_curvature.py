"""Curvature of the tangent bundle over the unit sphere, closed forms
against the finite-difference oracle.

Run with:  python3 demos/demo_sphere_bundle_curvature.py
"""

import numpy as np

from tbcurv import (
    OracleConfig,
    adapted_frame,
    base_invariants,
    compare,
    preset,
    sphere,
    tm_sectional,
)
from tbcurv.basemanifold import vector_norm

M = sphere(2)
q = np.array([0.9, 0.3])
direction = np.array([0.3, 0.7])
unit = direction / vector_norm(M.metric(q), direction)

print("Base manifold: unit sphere, polar chart, at (theta, phi) =", q.tolist())
inv = base_invariants(M, adapted_frame(M, q, np.zeros(2)))
print(f"base sectional curvature K = {inv.sectional[0, 1]:.6f}, scalar S = {inv.scalar:.6f}")

print()
print("=" * 72)
print("Closed-form bundle curvature vs the 4-dimensional numeric oracle")
print("(Richardson stencils, tolerance abs 1e-5 / rel 1e-3)")
print("=" * 72)
for fam_name in ("sasaki", "cheeger-gromoll", "exp+", "exp-"):
    fam = preset(fam_name)
    # the points (q, s * unit) as stacks of base points and vectors
    speeds = np.array([0.0, 0.5, 1.5])
    xs, vs = np.broadcast_to(q, (3, 2)), speeds[:, None] * unit
    for report in compare(M, fam, xs, vs, OracleConfig()):
        print(report.summary_line())

print()
print("=" * 72)
print("Sectional curvature of adapted-frame planes, Sasaki metric, |v| = 1")
print("=" * 72)
fam = preset("sasaki")
fp = adapted_frame(M, q, unit)
sec = tm_sectional(M, fam, fp)
print(f"horizontal plane (e1, e2):      {sec.hh[0, 1]: .6f}")
print("   (= K - 3/4 |R(u1,u2)v|^2 = 1 - 3/4 = 0.25 on the unit sphere)")
print(f"mixed plane (e1, vertical e2):  {sec.hv[0, 1]: .6f}")
print(f"mixed plane (e2, vertical e1):  {sec.hv[1, 0]: .6f}")
print("   (radial mixed planes vanish identically)")
print(f"vertical plane:                 {sec.vv[0, 1]: .6f}")
print("   (Sasaki fibers are flat: F = H = 0)")

print()
print("Mixed planes are sums of squares, so the bundle never has negative")
print(f"sectional curvature there: min over this table = {sec.hv.min():.3g}")
