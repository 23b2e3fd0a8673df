"""The natural metric G on TM in induced coordinates (x, v).

A bundle tangent vector A at (x, v) splits through the connection map into
a horizontal part pi_* A = A_x and a vertical part
K(A)^a = A_v^a + Gamma^a_bc v^b A_x^c.  The metric is assembled directly
from that split,

    G(A, B) = g(pi_* A, pi_* B) + alpha(t^2) g(KA, KB)
              + beta(t^2) g(KA, v) g(KB, v),      t^2 = |v|^2_g,

which is frame-free and doubles as an independent check of the adapted
frame Gram identity.  All alpha/beta arguments are squared norms
t^2 = |v|^2_g, which `induced_metric` forms from g and v.  The adapted frame,
the closed forms and the CLI tables carry the norm t = |v|_g instead, and
the closed forms square it where they evaluate the family.
"""

from __future__ import annotations

import numpy as np

from .basemanifold import AdaptedFramePoint, ChartManifold
from .metricfamily import NaturalMetricFamily

__all__ = [
    "connection_split",
    "induced_metric",
    "adapted_frame_vectors",
    "frame_gram",
]


def connection_split(
    M: ChartManifold, x: np.ndarray, v: np.ndarray, A: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split a 2n induced-coordinate vector A at the point (x, v), each of
    shape (n,), into (pi_* A, K A)."""
    n = M.dim
    A = np.asarray(A, dtype=float)
    hor = A[:n]
    _, gamma, _ = M.connection(x, second=False)
    ver = A[n:] + np.einsum("abc,b,c->a", gamma, v, hor)
    return hor, ver


def induced_metric(
    M: ChartManifold, fam: NaturalMetricFamily, x: np.ndarray, v: np.ndarray, *,
    check: bool = True
) -> np.ndarray:
    """The 2n x 2n matrix of G over (d/dx^1..d/dx^n, d/dv^1..d/dv^n) at the
    point (x, v).

    x and v have shape (n,), or are stacks of shape (..., n); G then has
    shape (..., 2n, 2n), one matrix per row.  ``check=False``: the caller
    has checked x (stencil points).
    """
    g, gamma, _ = M.connection(x, second=False, check=check)
    return _metric_from(fam, g, gamma, np.asarray(v, dtype=float))


def _metric_from(
    fam: NaturalMetricFamily, g: np.ndarray, gamma: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """G at (x, v) from g and Gamma at x: G reads the base only through
    them.  g (..., n, n), Gamma (..., n, n, n) and v (..., n) stack alike."""
    n = v.shape[-1]
    gv = np.einsum("...ab,...b->...a", g, v)
    j = fam.jets(np.einsum("...a,...a->...", v, gv))
    alpha = j.alpha[..., None, None]
    beta = j.beta[..., None, None]

    # K(d/dx^c)^a = w[a, c];  K(d/dv^c)^a = delta_ac.
    w = np.einsum("...abc,...b->...ac", gamma, v)
    wt_g = np.swapaxes(w, -1, -2) @ g
    wt_gv = np.einsum("...ca,...a->...c", wt_g, v)

    G = np.empty(v.shape[:-1] + (2 * n, 2 * n))
    G[..., :n, :n] = g + alpha * (wt_g @ w) + beta * (wt_gv[..., :, None] * wt_gv[..., None, :])
    G[..., :n, n:] = alpha * wt_g + beta * (wt_gv[..., :, None] * gv[..., None, :])
    G[..., n:, :n] = np.swapaxes(G[..., :n, n:], -1, -2)
    G[..., n:, n:] = alpha * g + beta * (gv[..., :, None] * gv[..., None, :])
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def adapted_frame_vectors(M: ChartManifold, fp: AdaptedFramePoint) -> np.ndarray:
    """The 2n adapted frame vectors in induced coordinates, as rows.

    Row i (< n) is the horizontal lift of u_i: x-slots u_i, v-slots
    -Gamma^a_bc v^b u_i^c, so the connection split returns (u_i, 0)
    exactly.  Row n+i is the vertical lift (0, u_i).  For a stack of frame
    points, one (2n, 2n) matrix per point.
    """
    n = M.dim
    _, gamma, _ = M.connection(fp.q, second=False)
    w = np.einsum("...abc,...b->...ac", gamma, fp.v)
    frame = np.zeros(fp.u.shape[:-2] + (2 * n, 2 * n))
    frame[..., :n, :n] = fp.u
    frame[..., :n, n:] = -fp.u @ np.swapaxes(w, -1, -2)
    frame[..., n:, n:] = fp.u
    return frame


def frame_gram(
    M: ChartManifold, fam: NaturalMetricFamily, fp: AdaptedFramePoint
) -> np.ndarray:
    """Gram matrix of the adapted frame under G; equals the fiber-block
    matrix with xi = (t, 0, ..., 0) in the vertical corner."""
    G = induced_metric(M, fam, fp.q, fp.v)
    frame = adapted_frame_vectors(M, fp)
    return frame @ G @ frame.T
