"""The natural metric G on TM in induced coordinates (x, v).

A bundle tangent vector A at (x, v) splits through the connection map into
a horizontal part pi_* A = A_x and a vertical part
K(A)^a = A_v^a + Gamma^a_bc v^b A_x^c.  The metric is assembled directly
from that split,

    G(A, B) = g(pi_* A, pi_* B) + alpha(t^2) g(KA, KB)
              + beta(t^2) g(KA, v) g(KB, v),      t^2 = |v|^2_g,

which is frame-free and doubles as an independent check of the adapted
frame Gram identity.  All alpha/beta arguments are squared norms; a single
helper (`squared_norm`) owns the t-vs-t^2 convention.
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
    """|v|^2_g at x: the argument every family function is evaluated at."""
    g = M.metric(x)
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
    ``check=False``: the caller has checked p.x (a stencil point)."""
    n = M.dim
    g = M.metric(p.x)
    t_sq = float(p.v @ g @ p.v)
    fam.check_point(t_sq)
    alpha = fam.alpha_at(t_sq)
    beta = fam.beta_at(t_sq)

    gamma = M.christoffels(p.x, check=check)
    # K(d/dx^c)^a = w[a, c];  K(d/dv^c)^a = delta_ac.
    w = np.einsum("abc,b->ac", gamma, p.v)
    gv = g @ p.v

    g_xx = g + alpha * w.T @ g @ w + beta * np.outer(w.T @ gv, w.T @ gv)
    g_xv = alpha * (w.T @ g) + beta * np.outer(w.T @ gv, gv)
    g_vv = alpha * g + beta * np.outer(gv, gv)

    G = np.empty((2 * n, 2 * n))
    G[:n, :n] = g_xx
    G[:n, n:] = g_xv
    G[n:, :n] = g_xv.T
    G[n:, n:] = g_vv
    return 0.5 * (G + G.T)


def adapted_frame_vectors(M: ChartManifold, fp: AdaptedFramePoint) -> np.ndarray:
    """The 2n adapted frame vectors in induced coordinates, as rows.

    Row i (< n) is the horizontal lift of u_i: x-slots u_i, v-slots
    -Gamma^a_bc v^b u_i^c, so the connection split returns (u_i, 0)
    exactly.  Row n+i is the vertical lift (0, u_i).
    """
    n = M.dim
    gamma = M.christoffels(fp.q)
    w = np.einsum("abc,b->ac", gamma, fp.v)
    frame = np.zeros((2 * n, 2 * n))
    frame[:n, :n] = fp.u
    frame[:n, n:] = -fp.u @ w.T
    frame[n:, n:] = fp.u
    return frame


def frame_gram(
    M: ChartManifold, fam: NaturalMetricFamily, fp: AdaptedFramePoint
) -> np.ndarray:
    """Gram matrix of the adapted frame under G; equals the fiber-block
    matrix with xi = (t, 0, ..., 0) in the vertical corner."""
    G = induced_metric(M, fam, BundlePoint(fp.q, fp.v))
    frame = adapted_frame_vectors(M, fp)
    return frame @ G @ frame.T
