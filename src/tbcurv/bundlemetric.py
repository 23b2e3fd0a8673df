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

from .basemanifold import AdaptedFramePoint, ChartManifold, _at_distinct
from .metricfamily import NaturalMetricFamily

__all__ = [
    "induced_metric",
    "adapted_frame_vectors",
]


def induced_metric(
    M: ChartManifold, fam: NaturalMetricFamily, x: np.ndarray, v: np.ndarray, *,
    check: bool = True
) -> np.ndarray:
    """The 2n x 2n matrix of G over (d/dx^1..d/dx^n, d/dv^1..d/dv^n) at the
    point (x, v).

    x and v have shape (n,), or are stacks of shape (..., n); G then has
    shape (..., 2n, 2n), one matrix per row.  G reads the base only through
    g and Gamma at x, and a stack repeats its base points (a grid, the x
    parts of the oracle's stencil): the chart's connection is evaluated
    once per distinct x, in one call (``_at_distinct``).  ``check=False``:
    the caller has checked x (stencil points).
    """
    g, gamma, _ = _at_distinct(
        lambda rows: M.connection(rows, second=False, check=check), np.asarray(x, dtype=float)
    )
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    gv = np.einsum("...ab,...b->...a", g, v)
    j = fam.jets(np.einsum("...a,...a->...", v, gv))
    alpha = j.alpha[..., None, None]
    beta = j.beta[..., None, None]

    # G = A^T diag(g, H) A with A = [[1, 0], [w, 1]], the split into
    # (pi_*, K), and H = alpha g + beta gv gv^T, exactly symmetric; so
    # G = [[g + w^T H w, w^T H], [H w, H]], and only w^T H w, a product of
    # three matrices, is symmetrized.
    w = _vertical_of_horizontal(gamma, v)
    H = alpha * g + beta * (gv[..., :, None] * gv[..., None, :])
    wt_h = np.swapaxes(w, -1, -2) @ H
    wt_h_w = wt_h @ w
    G = np.empty(v.shape[:-1] + (2 * n, 2 * n))
    G[..., :n, :n] = g + 0.5 * (wt_h_w + np.swapaxes(wt_h_w, -1, -2))
    G[..., :n, n:] = wt_h
    G[..., n:, :n] = np.swapaxes(wt_h, -1, -2)
    G[..., n:, n:] = H
    return G


def _vertical_of_horizontal(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """w[..., a, c] = Gamma^a_bc v^b, so that K(d/dx^c)^a = w[a, c] and
    K(d/dv^c)^a = delta_ac: per point the row v times Gamma as a (b, a c)
    matrix."""
    n = v.shape[-1]
    by_b = np.swapaxes(gamma, -3, -2).reshape(gamma.shape[:-3] + (n, n * n))
    return (v[..., None, :] @ by_b).reshape(v.shape[:-1] + (n, n))


def adapted_frame_vectors(M: ChartManifold, fp: AdaptedFramePoint) -> np.ndarray:
    """The 2n adapted frame vectors in induced coordinates, as rows.

    Row i (< n) is the horizontal lift of u_i: x-slots u_i, v-slots
    -Gamma^a_bc v^b u_i^c, so the connection split returns (u_i, 0)
    exactly.  Row n+i is the vertical lift (0, u_i).  For a stack of frame
    points, one (2n, 2n) matrix per point.
    """
    n = M.dim
    _, gamma, _ = M.connection(fp.q, second=False)
    w = _vertical_of_horizontal(gamma, fp.v)
    frame = np.zeros(fp.u.shape[:-2] + (2 * n, 2 * n))
    frame[..., :n, :n] = fp.u
    frame[..., :n, n:] = -fp.u @ np.swapaxes(w, -1, -2)
    frame[..., n:, n:] = fp.u
    return frame
