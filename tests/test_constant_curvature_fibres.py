"""Families whose fibres have constant curvature K: exact answers for the
vertical algebra.

The fibre of (TM, G) over x, in g-orthonormal coordinates xi, is R^n with
the metric h = alpha(|xi|^2) I + beta(|xi|^2) xi xi^T.  In polar
coordinates r = |xi|, t = r^2, it is the rotationally symmetric metric
Delta dr^2 + alpha r^2 dsigma^2, Delta = alpha + t beta, that is
drho^2 + f(rho)^2 dsigma^2 with drho = sqrt(Delta) dr and
f = r sqrt(alpha).  Such a metric has constant curvature K exactly when
(1 - f'^2) / f^2 = K, with ' = d/drho; the radial condition -f''/f = K
follows by differentiation (P. Petersen, Riemannian Geometry, 3rd ed.,
Springer 2016, ch. 4).  Since df/dr = phi / sqrt(alpha), with
phi = alpha + t alpha', f'^2 = phi^2 / (alpha Delta), and the condition
reads

    alpha Delta (1 - K t alpha) = phi^2.

Solved for beta:

    beta_K = (t alpha'^2 + 2 alpha alpha' + K alpha^3) / (alpha (1 - K t alpha)),

which has no 0/0 at t = 0 and is a family where 1 - K t alpha > 0 and
phi > 0.  K = 0 is the flatness beta.

The fibres are totally geodesic in (TM, G) (B. O'Neill, The fundamental
equations of a submersion, Michigan Math. J. 13 (1966), 459-469; A. Besse,
Einstein Manifolds, Springer 1987, ch. 9), so by Gauss's equation a
vertical plane of TM has the fibre's sectional curvature K, and the
vertical block of TM's curvature is the fibre's:

- F / alpha^2 = K and H / (alpha Delta) = K (the library's sectional
  curvatures of the planes off and through the radial direction);
- ``tm_sectional(...).vv`` is K off the diagonal;
- the vvvv block of ``tm_curvature`` is -K (G_ac G_bd - G_ad G_bc), G the
  vertical Gram block diag(Delta, alpha, ..., alpha) of the adapted frame,
  in the library's index convention (R_1221 = +K);
- over a space form of curvature c, O'Neill's scalar formula with the
  fibre's n(n-1)K gives ``tm_scalar`` = n(n-1)(c + K) - 1/2 (n-1) alpha
  c^2 |v|^2 (``references.space_form_scalar``).

Each identity moves by about e when F or H is scaled by (1 + e), so the
bounds below see e = 1e-6, which the two-route check against the oracle
(tolerance rel 1e-3) does not.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tbcurv.basemanifold import (
    adapted_frame,
    conformal_polynomial,
    euclidean,
    hyperbolic,
    sphere,
    vector_norm,
)
from tbcurv.closedform import tm_curvature, tm_scalar, tm_sectional
from tbcurv.metricfamily import NaturalMetricFamily

from references import gram_diagonal, space_form_scalar

# alpha and its derivative alpha', as expression strings
ALPHAS = {
    "1": "0",
    "1+t": "1",
    "exp(t)": "exp(t)",
    "1/(1+t)": "-1/(1+t)^2",
    "exp(-0.5*t)": "-0.5*exp(-0.5*t)",
}
# the gap 1 - K t alpha and phi stay above this at every drawn t
MARGIN = 0.05
# The bounds.  The worst deviations over 952 points (the five alphas, 15
# values of K and t on a grid, every chart below): F 3.0e-14, H 3.1e-12,
# vv 2.9e-12, vvvv 6.7e-15 of max(1, |G|^2) and the scalar 1.7e-11 of
# max(1, |scalar|).  H, and the vv and scalar entries built from it, lose
# digits as the gap nears MARGIN.
F_BOUND = 1e-12
H_BOUND = 1e-10
SECTIONAL_BOUND = 1e-10
BLOCK_BOUND = 1e-10
SCALAR_BOUND = 1e-10

# charts with a base point and a direction inside; the space forms with
# their curvature c
CHARTS = [
    (sphere(2), [0.9, 0.3], [0.3, 0.7]),
    (hyperbolic(3), [0.1, 0.2, -0.1], [1.0, 0.5, 0.2]),
    (conformal_polynomial(4, [[0.2, 1, 0, 1, 0], [-0.1, 0, 2, 0, 1]]),
     [0.3, -0.2, 0.4, 0.1], [0.5, 0.1, -0.7, 0.3]),
]
SPACE_FORMS = [
    (euclidean(3), 0.0, [1.0, -2.0, 0.5], [0.2, 0.6, -0.3]),
    (hyperbolic(3), -1.0, [0.1, -0.2, 0.15], [0.4, -0.1, 0.8]),
    (sphere(4), 1.0, [0.2, 0.1, -0.3, 0.4], [0.6, -0.3, 0.2, 0.5]),
    (hyperbolic(5), -1.0, [0.1, 0.05, -0.1, 0.2, 0.0], [0.3, 0.2, -0.5, 0.1, 0.4]),
]


def fibre_family(alpha: str, K: float) -> NaturalMetricFamily:
    """(alpha, beta_K) with beta_K as an expression string."""
    a, ad, k = f"({alpha})", f"({ALPHAS[alpha]})", f"({K!r})"
    beta = f"(t*{ad}^2 + 2*{a}*{ad} + {k}*{a}^3) / ({a}*(1 - {k}*t*{a}))"
    return NaturalMetricFamily(alpha, beta, name=f"K={K!r} over alpha={alpha}")


def frame(M, x, d, t):
    """The adapted frame at x of the vector along d with |v|^2 = t."""
    x, d = np.array(x), np.array(d)
    return adapted_frame(M, x, d * (np.sqrt(t) / vector_norm(M.metric(x), d)))


def inside(alpha: str, K: float, t: float) -> bool:
    a = fibre_family(alpha, K).alpha.jet(t)
    return 1.0 - K * t * a.value > MARGIN and a.value + t * a.d1 > MARGIN


@seed(36)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_fibres_of_constant_curvature(data):
    alpha = data.draw(st.sampled_from(sorted(ALPHAS)), "alpha")
    K = data.draw(st.floats(-1.0, 1.0), "K")
    t = data.draw(st.floats(0.0, 2.0).filter(lambda t: inside(alpha, K, t)), "t")
    fam = fibre_family(alpha, K)

    j = fam.jets(t)
    assert abs(j.F / j.alpha**2 - K) <= F_BOUND
    assert abs(j.H / (j.alpha * j.delta) - K) <= H_BOUND

    M, x, d = data.draw(st.sampled_from(CHARTS), "chart")
    n = M.dim
    fp = frame(M, x, d, t)
    vv = tm_sectional(M, fam, fp).vv
    assert np.max(np.abs(vv[~np.eye(n, dtype=bool)] - K)) <= SECTIONAL_BOUND
    G = np.diag(gram_diagonal(fam, fp.t, n)[n:])
    block = -K * (np.einsum("ac,bd->abcd", G, G) - np.einsum("ad,bc->abcd", G, G))
    got = tm_curvature(M, fam, fp)[n:, n:, n:, n:]
    assert np.max(np.abs(got - block)) <= BLOCK_BOUND * max(1.0, np.max(G) ** 2)

    M, c, x, d = data.draw(st.sampled_from(SPACE_FORMS), "space form")
    n = M.dim
    fp = frame(M, x, d, t)
    want = space_form_scalar(c, n * (n - 1) * K, j.alpha, fp.t, n)
    assert abs(tm_scalar(M, fam, fp) - want) <= SCALAR_BOUND * max(1.0, abs(want))
