"""Tour of the natural-metric families: validity, the F/H functions, and
the flat-fiber construction.

Run with:  python3 demos/demo_metric_families.py
"""

import numpy as np

from tbcurv import NaturalMetricFamily, flatness_beta, preset

print("=" * 72)
print("The four named families, alpha(t) and beta(t) with t = |v|^2")
print("=" * 72)
for name in ("sasaki", "cheeger-gromoll", "exp+", "exp-"):
    fam = preset(name)
    print(f"\n{name}: alpha = {fam.alpha.name}, beta = {fam.beta.name}")
    print(f"  validation: {fam.validate().summary()}")
    ts = [0.0, 1.0, 4.0]
    jets = fam.jets(np.array(ts))
    print("  F:", ", ".join(f"F({t:g}) = {f: .5f}" for t, f in zip(ts, jets.F)))
    print("  H:", ", ".join(f"H({t:g}) = {h: .5f}" for t, h in zip(ts, jets.H)))

print()
print("=" * 72)
print("F and H both vanish exactly when both fibers are flat.  Given any")
print("alpha > 0 with alpha + t alpha' > 0, the beta below kills F (and")
print("hence H), so the bundle over a flat base is flat:")
print("=" * 72)
for alpha in ("exp(t)", "1+t", "exp(0.2*t)+0.5"):
    beta = flatness_beta(alpha)
    fam = NaturalMetricFamily(alpha, beta, name=f"flatness({alpha})", t_max=10.0)
    t = np.linspace(0.0, 10.0, 2048)
    max_f, max_h, _, _ = fam.jets(t).flatness(t)
    print(
        f"\nalpha = {alpha:16s} beta(0) = {beta.value(0.0):.4f}   "
        f"max|F| = {max_f:.2e}   max|H| = {max_h:.2e}"
    )

print()
print("=" * 72)
print("The construction can leave the admissible class: alpha = exp(-t)")
print("gives alpha + t beta = exp(-t) (1 - t)^2, which touches zero at t = 1.")
print("Grid sampling alone would miss the tangential zero; the validator")
print("locates it by bisecting the derivative:")
print("=" * 72)
fam = NaturalMetricFamily("exp(-t)", flatness_beta("exp(-t)"), t_max=25.0)
print(f"\n{fam.validate().summary()}")

print()
print("=" * 72)
print("Fiber Gram block alpha*Id + beta*xi^T xi for exp+ at xi = (1, 0):")
print("=" * 72)
print(np.array2string(preset("exp+").fiber_block(np.array([1.0, 0.0])), precision=5))
print("eigenvalues are alpha(1) = e and alpha(1) + 1*beta(1) = 2e")
