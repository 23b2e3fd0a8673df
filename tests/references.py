"""Reference constructions that several test modules compare the library
against: the adapted-frame Gram matrix and its diagonal, the vertical
Gram block of a family, a frame with another completion, the metric and
connection of the catalog's space forms, and the sectional and scalar
curvature of (TM, G) over a space form in closed form; and, for the
properties of |2^k v|_g, the vector entries and the powers of two that
scale them exactly.  Written from the definitions, with no shortcut the
library takes."""

import math

import numpy as np
from hypothesis import strategies as st

from tbcurv.bundlemetric import adapted_frame_vectors, induced_metric


def frame_gram(M, fam, fp) -> np.ndarray:
    """Gram matrix of the adapted frame under G; equals the fiber-block
    matrix with xi = (t, 0, ..., 0) in the vertical corner."""
    G, _ = induced_metric(M, fam, fp.q, fp.v)
    frame = adapted_frame_vectors(fp, M.connection(fp.q, second=False)[1])
    return frame @ G @ frame.T


def gram_diagonal(fam, t: float, n: int) -> np.ndarray:
    """Diagonal of the adapted-frame Gram matrix: n ones, then
    alpha + t^2 beta (radial vertical), then alpha for the rest."""
    j = fam.jets(t * t)
    return np.array([1.0] * n + [j.delta] + [j.alpha] * (n - 1))


# a vector entry: 0, or of a size within 2^22 of the others
sized_entry = st.just(0.0) | st.builds(lambda m, s: m * s, st.floats(2.0**-20, 4.0),
                                       st.sampled_from([-1.0, 1.0]))


def exact_scalings(values, quotients=()) -> tuple[int, int]:
    """The range lo..hi of the k for which 2^k times each nonzero value,
    and 2^-k times each nonzero quotient, is a normal double below 2^1023:
    where each such product is exact."""
    exps = [math.frexp(x)[1] for x in values if x != 0.0]  # x in [2^(e-1), 2^e)
    quotient_exps = [math.frexp(x)[1] for x in quotients if x != 0.0]
    return (max([-1021 - e for e in exps] + [e - 1023 for e in quotient_exps]),
            min([1023 - e for e in exps] + [e + 1021 for e in quotient_exps]))


def fiber_block(fam, xi: np.ndarray) -> np.ndarray:
    """alpha(|xi|^2)*Id + beta(|xi|^2)*xi^T xi, the vertical Gram block.

    Symmetric positive definite whenever the family is valid at |xi|^2
    (eigenvalues alpha with multiplicity n-1 and alpha + |xi|^2 beta).
    """
    xi = np.asarray(xi, dtype=float)
    j = fam.jets(float(xi @ xi))
    return j.alpha * np.eye(xi.shape[0]) + j.beta * np.outer(xi, xi)


def rotate_completion(fp, rotation: np.ndarray):
    """fp with u[1:] replaced by rotation @ u[1:] (rotation orthogonal,
    (n-1)x(n-1)): another normal-form frame at the same point, to check
    that invariants ignore the completion choice."""
    u = fp.u.copy()
    u[..., 1:, :] = np.asarray(rotation, dtype=float) @ u[..., 1:, :]
    return fp._replace(u=u)


# --------------------------------------------------------------------------
# Space forms in their catalog charts, one component at a time
# --------------------------------------------------------------------------


def _conformal_components(x, f, df, ddf):
    """g_ab, Gamma^a_bc and d_p Gamma^a_bc of g = exp(2 f) delta at x, from
    f, df[a] = d_a f and ddf[a][b] = d_a d_b f, by the component formulas
    g_ab = delta_ab exp(2 f), Gamma^a_bc = delta_ab f_c + delta_ac f_b -
    delta_bc f_a and d_p Gamma^a_bc = delta_ab f_cp + delta_ac f_bp -
    delta_bc f_ap, each summed left to right."""
    n = len(x)
    idx = range(n)

    def delta(a, b):
        return float(a == b)

    scale = float(np.exp(2.0 * f))
    g = [[scale * delta(a, b) for b in idx] for a in idx]
    gamma = [[[delta(a, b) * df[c] + delta(a, c) * df[b] - delta(b, c) * df[a]
               for c in idx] for b in idx] for a in idx]
    dgamma = [[[[delta(a, b) * ddf[c][p] + delta(a, c) * ddf[b][p] - delta(b, c) * ddf[a][p]
                 for c in idx] for b in idx] for a in idx] for p in idx]
    return np.array(g), np.array(gamma), np.array(dgamma)


def flat_connection(x):
    """Flat R^n in cartesian coordinates: f = 0, so g = delta and every
    Christoffel symbol and its derivative is +0.0."""
    n = len(x)
    return _conformal_components(x, 0.0, [0.0] * n, [[0.0] * n] * n)


def stereographic_sphere_connection(x, radius):
    """The sphere of radius R through stereographic projection,
    g = 4 R^2 delta / (1 + |x|^2)^2: f = log(2 R) - log(1 + |x|^2),
    f_a = -2 x_a / (1 + |x|^2) and
    f_ab = -2 delta_ab / (1 + |x|^2) + 4 x_a x_b / (1 + |x|^2)^2."""
    n = len(x)
    r2 = sum(xi * xi for xi in x)
    d = 1.0 + r2
    f = math.log(2.0 * radius) - np.log1p(r2)
    df = [-2.0 * x[a] / d for a in range(n)]
    ddf = [[-2.0 * float(a == b) / d + 4.0 * (x[a] * x[b]) / (d * d) for b in range(n)]
           for a in range(n)]
    return _conformal_components(x, f, df, ddf)


def poincare_ball_connection(x):
    """The Poincare ball, g = 4 delta / (1 - |x|^2)^2: f = log 2 -
    log(1 - |x|^2), f_a = 2 x_a / (1 - |x|^2) and
    f_ab = 2 delta_ab / (1 - |x|^2) + 4 x_a x_b / (1 - |x|^2)^2."""
    n = len(x)
    r2 = sum(xi * xi for xi in x)
    d = 1.0 - r2
    f = math.log(2.0) - np.log1p(-r2)
    df = [2.0 * x[a] / d for a in range(n)]
    ddf = [[2.0 * float(a == b) / d + 4.0 * (x[a] * x[b]) / (d * d) for b in range(n)]
           for a in range(n)]
    return _conformal_components(x, f, df, ddf)


# --------------------------------------------------------------------------
# (TM, G) over a space form: the literals the general formulas reduce to
# --------------------------------------------------------------------------
#
# On a base of constant curvature c, R(X, Y)Z = c (g(Y, Z) X - g(X, Z) Y).
# At a normal-form point, v = t u_0 with t = |v|_g, so with frame indices
# R(u_i, u_j)v = c t (delta_j0 u_i - delta_i0 u_j) and
# R(u_j, v)u_i = c t (delta_i0 u_j - delta_ij u_0).  alpha is the family's
# alpha at |v|^2 = t^2.


def space_form_sectional(c: float, alpha: float, t: float, n: int) -> tuple:
    """(hh, hv): the sectional curvature of (TM, G) over the horizontal
    planes (u_i, u_j) and the mixed planes (u_i, vertical u_j) of the
    adapted frame, over a space form of curvature c.  With
    |R(u_i, u_j)v|^2 = c^2 t^2 (delta_i0 + delta_j0) for i != j and
    |R(u_j, v)u_i|^2 = c^2 t^2 (delta_ij + delta_i0 - 2 delta_i0 delta_j0):

        hh_ij = c - 3/4 alpha c^2 t^2 (delta_i0 + delta_j0)   (i != j; 0 on
                                                                the diagonal)
        hv_ij = 1/4 alpha c^2 t^2 (delta_ij + delta_i0 - 2 delta_i0 delta_j0)

    The aligned mixed plane (u_0, vertical u_0) is flat."""
    d0 = np.zeros(n)
    d0[0] = 1.0
    correction = alpha * c * c * t * t
    hh = c - 0.75 * correction * (d0[:, None] + d0[None, :])
    np.fill_diagonal(hh, 0.0)
    hv = 0.25 * correction * (np.eye(n) + d0[:, None] - 2.0 * np.outer(d0, d0))
    return hh, hv


def space_form_scalar(c: float, fibre_scalar: float, alpha: float, t: float, n: int) -> float:
    """The scalar curvature of (TM, G) over a space form of curvature c, for
    a family whose fibre (R^n with the vertical Gram block) has scalar
    curvature fibre_scalar at |v|^2 = t^2: the base's n(n-1)c, plus the
    fibre's, minus 1/4 alpha sum_ij |R(u_i, u_j)v|^2 = 1/2 (n-1) alpha c^2 t^2
    (O'Neill's formula for a submersion with totally geodesic fibres).  A
    fibre of constant curvature K has fibre_scalar = n(n-1)K, which makes it
    n(n-1)(c + K) - 1/2 (n-1) alpha c^2 t^2."""
    return n * (n - 1) * c + fibre_scalar - 0.5 * (n - 1) * alpha * c * c * t * t
