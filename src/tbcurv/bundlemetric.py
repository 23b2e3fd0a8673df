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

from dataclasses import dataclass

import numpy as np

from .basemanifold import AdaptedFramePoint, ChartManifold
from .metricfamily import NaturalMetricFamily

__all__ = [
    "BundlePoint",
    "squared_norm",
    "connection_split",
    "induced_metric",
    "adapted_frame_vectors",
    "frame_gram",
]


@dataclass(frozen=True)
class BundlePoint:
    """Base coordinates x and fiber components v in the induced chart."""

    x: np.ndarray
    v: np.ndarray

    @classmethod
    def of(cls, x, v) -> "BundlePoint":
        return cls(np.asarray(x, dtype=float), np.asarray(v, dtype=float))


def squared_norm(M: ChartManifold, x: np.ndarray, v: np.ndarray) -> float:
    """|v|^2_g at x: the argument every family function is evaluated at;
    inf or nan, without a warning, where the metric is not finite."""
    g = M.metric(x)
    with np.errstate(invalid="ignore", over="ignore"):
        return float(v @ g @ v)


def connection_split(
    M: ChartManifold, p: BundlePoint, A: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split a 2n induced-coordinate vector into (pi_* A, K A)."""
    n = M.dim
    A = np.asarray(A, dtype=float)
    hor = A[:n]
    gamma = M.christoffels(p.x)
    ver = A[n:] + np.einsum("abc,b,c->a", gamma, p.v, hor)
    return hor, ver


def induced_metric(
    M: ChartManifold, fam: NaturalMetricFamily, p: BundlePoint, *, check: bool = True
) -> np.ndarray:
    """The 2n x 2n matrix of G over (d/dx^1..d/dx^n, d/dv^1..d/dv^n).

    p.x and p.v may be stacks of shape (..., n); G then has shape
    (..., 2n, 2n), one matrix per row.  ``check=False``: the caller has
    checked p.x (stencil points).
    """
    n = M.dim
    x, v = p.x, p.v
    if check:
        M.check_interior(x, M.christoffel_reach(x))
    g, gamma = M.metric_and_christoffels(x)
    gv = np.einsum("...ab,...b->...a", g, v)
    alpha, beta = fam.check_point(np.einsum("...a,...a->...", v, gv))
    alpha = alpha[..., None, None]
    beta = beta[..., None, None]

    # K(d/dx^c)^a = w[a, c];  K(d/dv^c)^a = delta_ac.
    w = np.einsum("...abc,...b->...ac", gamma, v)
    wt_g = np.swapaxes(w, -1, -2) @ g
    wt_gv = np.einsum("...ca,...a->...c", wt_g, v)

    G = np.empty(x.shape[:-1] + (2 * n, 2 * n))
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
    gamma = M.christoffels(fp.q)
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
    G = induced_metric(M, fam, BundlePoint(fp.q, fp.v))
    frame = adapted_frame_vectors(M, fp)
    return frame @ G @ frame.T
