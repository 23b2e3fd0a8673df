"""Scalar curvature of the exponential bundle metrics over flat space:
the plus family is always negative, the minus family changes sign at
|v|^2 = ((n-1) + sqrt(4n(n-2) + 1)) / (n-2) in dimension >= 3.

Run with:  python3 demos/demo_scalar_scan.py
"""

import numpy as np

from tbcurv import (
    adapted_frame,
    euclidean,
    minus_exp_flat_threshold,
    preset,
    scalar_exp_specials,
    tm_scalar,
)

n = 3
M = euclidean(n)
threshold = minus_exp_flat_threshold(n)
print(f"flat R^{n}: minus-exponential positivity threshold |v|^2 = "
      f"{threshold:.6f} (= 2 + sqrt(13))")

print()
print(f"{'|v|^2':>8s} {'S plus-exp':>14s} {'S minus-exp':>14s} {'general minus':>14s}")
# One stacked frame and one tm_scalar call for the whole column of |v|^2.
v_sqs = np.array([0.0, 1.0, 3.0, 5.0, 5.6055, 6.0, 8.0])
vs = np.zeros((len(v_sqs), n))
vs[:, 0] = np.sqrt(v_sqs)
fp = adapted_frame(M, np.zeros(n), vs)
s_general = tm_scalar(M, preset("exp-"), fp)
for v_sq, general in zip(v_sqs, s_general):
    s_plus = scalar_exp_specials(0.0, n, v_sq, "plus")
    s_minus = scalar_exp_specials(0.0, n, v_sq, "minus")
    print(f"{v_sq:8.4f} {s_plus:14.6f} {s_minus:14.6f} {general:14.6f}")

print()
print("The sign change sits exactly at the threshold:")
for v_sq in (threshold - 1e-9, threshold, threshold + 1e-9):
    s = scalar_exp_specials(0.0, n, v_sq, "minus")
    print(f"  S_minus({v_sq:.9f}) = {s: .3e}")

print()
print("Same comparison on the unit sphere (constant curvature 1), where the")
print("specialized forms take the base curvature into account:")
from tbcurv import sphere  # noqa: E402
from tbcurv.basemanifold import vector_norm  # noqa: E402

M2 = sphere(2)
q = np.array([0.9, 0.3])
d = np.array([0.3, 0.7])
ts = np.array([0.5, 1.0, 1.8])
fp = adapted_frame(M2, q, np.outer(ts, d / vector_norm(M2.metric(q), d)))
for t, general in zip(ts, tm_scalar(M2, preset("exp+"), fp)):
    special = scalar_exp_specials(1.0, 2, t * t, "plus")
    print(f"  |v| = {t:3.1f}: general = {general:12.6f}, specialized = {special:12.6f}")
