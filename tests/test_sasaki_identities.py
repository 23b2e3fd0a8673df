"""Kowalski's curvature identities of the Sasaki metric, as properties of
the closed forms.

For the Sasaki metric (alpha = 1, beta = 0) on TM, at a point (x, u) and
for g-orthonormal X, Y at x (O. Kowalski, Curvature of the induced
Riemannian metric on the tangent bundle of a Riemannian manifold,
J. Reine Angew. Math. 250 (1971), 124-129):

    K(X^h, Y^h) = K(X, Y) - 3/4 |R(X, Y)u|^2
    K(X^h, Y^v) = 1/4 |R(u, Y)X|^2
    K(X^v, Y^v) = 0
    tau~        = tau - 1/4 sum_ij |R(e_i, e_j)u|^2

with e_i a g-orthonormal basis at x.  ``tm_sectional`` and ``tm_scalar``
give the left-hand sides on the planes of the adapted frame.

On random conformal-polynomial charts the right-hand sides are contracted
in coordinates from the chart's curvature ``M.curvature``; the scalar one
uses no frame at all.  On the catalog space forms they come from the
literal curvature constant K (0, 1/radius^2 or -1), by
R(X, Y)Z = K (g(Y, Z) X - g(X, Z) Y).  With u_0 = u / |u| the identities
then read, for frame indices i, j (``references.space_form_sectional`` and
``space_form_scalar`` at alpha = 1 and flat fibres),

    K(u_i^h, u_j^h) = K - 3/4 K^2 |u|^2 (delta_i0 + delta_j0),   i != j
    K(u_i^h, u_j^v) = 1/4 K^2 |u|^2 (delta_ij + delta_i0 - 2 delta_i0 delta_j0)
    tau~            = n(n-1) K - 1/2 (n-1) K^2 |u|^2

so a fault in a chart's Christoffel symbols or in the adapted frame shows
there, though both curvature routes share them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tbcurv.basemanifold import (
    adapted_frame,
    conformal_polynomial,
    euclidean,
    hyperbolic,
    sphere,
)
from tbcurv.closedform import tm_scalar, tm_sectional
from tbcurv.metricfamily import preset

from references import space_form_scalar, space_form_sectional

SASAKI = preset("sasaki")
POINTS = 4  # per example, as one stack
SPEEDS = st.just(0.0) | st.floats(1e-300, 1.5)


def _close(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-10 * (1.0 + np.max(np.abs(expected)))


def _off_diagonal(table):
    n = table.shape[-1]
    return table[..., ~np.eye(n, dtype=bool)]


def _points(M, speed, rng, margin):
    """POINTS base points x inside the chart, margin of its width from
    each side, and vectors v of g-norm speed there."""
    x = M.lo + (M.hi - M.lo) * rng.uniform(margin, 1.0 - margin, (POINTS, M.dim))
    v = rng.normal(size=(POINTS, M.dim))
    v *= (speed / np.sqrt(np.einsum("ma,mab,mb->m", v, M.metric(x), v)))[:, None]
    return x, v


def _check(M, fp, hh, hv, scalar):
    """The closed forms at the stack fp against the right-hand sides."""
    sec = tm_sectional(M, SASAKI, fp)
    _close(_off_diagonal(sec.hh), _off_diagonal(hh))
    _close(sec.hv, hv)
    assert np.all(sec.vv == 0.0)
    _close(tm_scalar(M, SASAKI, fp), scalar)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 4), terms=st.integers(1, 3), speed=SPEEDS,
       seed=st.integers(0, 2**32 - 1))
def test_identities_on_conformal_charts(n, terms, speed, seed):
    rng = np.random.default_rng(seed)
    coeffs = np.hstack([rng.uniform(-0.4, 0.4, (terms, 1)), rng.integers(0, 3, (terms, n))])
    M = conformal_polynomial(n, coeffs.tolist())
    fp = adapted_frame(M, *_points(M, speed, rng, 0.2))
    g = M.metric(fp.q)
    ginv = np.linalg.inv(g)
    u, v = fp.u, fp.v
    assert np.allclose(u @ g @ np.swapaxes(u, -1, -2), np.eye(n), atol=1e-12)
    r, _ = M.curvature(fp.q)  # r[a, b, c, d] = g(R(d_a, d_b) d_c, d_d)

    def sq_norm(w):  # |w|^2 of lowered vectors w[..., i, j, d]
        return np.einsum("mijd,mde,mije->mij", w, ginv, w)

    K = np.einsum("mabcd,mia,mjb,mjc,mid->mij", r, u, u, u, u)
    R_xy_u = np.einsum("mabcd,mia,mjb,mc->mijd", r, u, u, v)
    R_u_y_x = np.einsum("mabcd,ma,mjb,mic->mijd", r, v, u, u)
    tau = np.einsum("mil,mjk,mijkl->m", ginv, ginv, r)
    R_u = np.einsum("mijcd,mc->mijd", r, v)
    sum_sq = np.einsum("mia,mjb,mde,mijd,mabe->m", ginv, ginv, ginv, R_u, R_u)
    _check(M, fp, K - 0.75 * sq_norm(R_xy_u), 0.25 * sq_norm(R_u_y_x), tau - 0.25 * sum_sq)


SPACE_FORMS = {
    "euclidean": lambda n, radius: (euclidean(n), 0.0),
    "sphere": lambda n, radius: (sphere(n, radius, "stereographic"), radius**-2),
    "sphere-polar": lambda n, radius: (sphere(2, radius), radius**-2),
    "hyperbolic": lambda n, radius: (hyperbolic(n), -1.0),
}


@settings(max_examples=50, deadline=None)
@given(form=st.sampled_from(sorted(SPACE_FORMS)), n=st.integers(2, 4),
       radius=st.floats(0.5, 3.0), speed=SPEEDS, seed=st.integers(0, 2**32 - 1))
def test_identities_on_space_forms(form, n, radius, speed, seed):
    M, k = SPACE_FORMS[form](n, radius)
    n = M.dim
    fp = adapted_frame(M, *_points(M, speed, np.random.default_rng(seed), 0.1))
    hh, hv = space_form_sectional(k, 1.0, speed, n)
    scalar = space_form_scalar(k, 0.0, 1.0, speed, n)  # flat fibres
    stack = (POINTS, n, n)
    _check(M, fp, np.broadcast_to(hh, stack), np.broadcast_to(hv, stack), np.full(POINTS, scalar))
