"""Finite-difference jets of matrix-valued functions and the standard
Levi-Civita curvature assembly from metric derivatives.

Index conventions used throughout the package:

- ``dg[p, a, b]``        first partials  d_p g_ab
- ``d2g[p, q, a, b]``    second partials d_p d_q g_ab (symmetric in p, q)
- ``gamma[a, b, c]``     Christoffel symbols Gamma^a_bc (symmetric in b, c)
- ``dgamma[p, a, b, c]`` partials d_p Gamma^a_bc
- ``rlow[i, j, k, l]``   fully lowered curvature g(R(d_i, d_j) d_k, d_l)

The sign convention is pinned so that on the unit round sphere the
orthonormal-frame component R_1221 equals +1, i.e. sectional curvature is
K(X, Y) = g(R(X, Y)Y, X) for orthonormal X, Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Stencil",
    "CONNECTION",
    "NABLA_EXACT",
    "NABLA_FD",
    "ORACLE",
    "matrix_jets",
    "christoffels_from_jets",
    "christoffel_jacobian_from_jets",
    "riemann_from_christoffels",
    "project_curvature_symmetries",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Stencil:
    """Central differences with per-axis steps h_p = base * max(1, |x_p|).

    With ``richardson`` the O(h^2) estimates at h and h/2 are combined into
    O(h^4) ones, (4 D(h/2) - D(h)) / 3.  Every point a stencil evaluates
    lies within ``steps(x)`` of x on each axis, mixed second differences
    included.
    """

    base: float
    richardson: bool

    def steps(self, x: np.ndarray) -> np.ndarray:
        return self.base * np.maximum(1.0, np.abs(np.asarray(x, dtype=float)))

    def reach(
        self,
        x: np.ndarray,
        inner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> np.ndarray:
        """Per-axis distance from x of every point the computation touches.

        ``inner(y)`` is the reach of the function evaluated at each stencil
        point y; it must not shrink as |y| grows, so evaluating it at
        |x| + h bounds it over the whole stencil.
        """
        h = self.steps(x)
        if inner is None:
            return h
        return h + inner(np.abs(np.asarray(x, dtype=float)) + h)


# The step table: every finite-difference step of the package.  Each one
# balances rounding eps * |f| / h^k (k-th derivative) against truncation h^2
# (plain) or h^4 (Richardson); README.md gives the measurements.
#
# Connection data a chart lacks, derivatives of g up to second order: h^4
# against eps / h^2.  Also used for the Christoffels, which the oracle and
# nabla R differentiate twice more, so their rounding matters most.
CONNECTION = Stencil(_EPS ** (1.0 / 6.0), richardson=True)
# nabla R of exact curvature: h^2 against eps / h.
NABLA_EXACT = Stencil(_EPS ** (1.0 / 3.0), richardson=False)
# nabla R of CONNECTION curvature: h^2 against its ~eps^(2/3) noise / h.
NABLA_FD = Stencil(5e-4, richardson=False)
# Oracle, second derivatives of the bundle metric G: below eps^(1/6), since
# G grows fast with |v| on exp+ and its h^4 truncation would reach abs tol.
ORACLE = Stencil(1e-3, richardson=True)


def _plain_jets(
    fun: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    steps: np.ndarray,
    m0: np.ndarray,
    second: bool,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Second-order central first (and second) derivatives of fun at x."""
    dim = x.shape[0]
    shape = m0.shape
    dm = np.zeros((dim,) + shape)
    d2m = np.zeros((dim, dim) + shape) if second else None
    for p in range(dim):
        e = np.zeros(dim)
        e[p] = steps[p]
        mp = fun(x + e)
        mm = fun(x - e)
        dm[p] = (mp - mm) / (2.0 * steps[p])
        if second:
            d2m[p, p] = (mp - 2.0 * m0 + mm) / steps[p] ** 2
    if not second:
        return dm, None
    for p in range(dim):
        ep = np.zeros(dim)
        ep[p] = steps[p]
        for q in range(p + 1, dim):
            eq = np.zeros(dim)
            eq[q] = steps[q]
            mpq = fun(x + ep + eq)
            mpmq = fun(x + ep - eq)
            mmpq = fun(x - ep + eq)
            mmq = fun(x - ep - eq)
            mixed = (mpq - mpmq - mmpq + mmq) / (4.0 * steps[p] * steps[q])
            d2m[p, q] = mixed
            d2m[q, p] = mixed
    return dm, d2m


def matrix_jets(
    fun: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    stencil: Stencil,
    second: bool = True,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(f, df, d2f) of a matrix-valued function by central differences on
    ``stencil``; d2f is None when ``second`` is false.

    Nothing here checks a domain: callers check x against the reach of the
    whole computation once, before differentiating.
    """
    x = np.asarray(x, dtype=float)
    steps = stencil.steps(x)
    m0 = fun(x)
    dm, d2m = _plain_jets(fun, x, steps, m0, second)
    if stencil.richardson:
        dm_half, d2m_half = _plain_jets(fun, x, steps / 2.0, m0, second)
        dm = (4.0 * dm_half - dm) / 3.0
        if second:
            d2m = (4.0 * d2m_half - d2m) / 3.0
    return m0, dm, d2m


def christoffels_from_jets(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^a_bc = (1/2) g^ad (d_b g_dc + d_c g_bd - d_d g_bc)."""
    ginv = np.linalg.inv(g)
    s = np.einsum("bdc->dbc", dg) + np.einsum("cbd->dbc", dg) - dg
    return 0.5 * np.einsum("ad,dbc->abc", ginv, s)


def christoffel_jacobian_from_jets(
    g: np.ndarray, dg: np.ndarray, d2g: np.ndarray
) -> np.ndarray:
    """d_p Gamma^a_bc from metric first and second derivatives."""
    ginv = np.linalg.inv(g)
    dginv = -np.einsum("ae,pef,fd->pad", ginv, dg, ginv)
    s = np.einsum("bdc->dbc", dg) + np.einsum("cbd->dbc", dg) - dg
    ds = (
        np.einsum("pbdc->pdbc", d2g)
        + np.einsum("pcbd->pdbc", d2g)
        - d2g
    )
    return 0.5 * (
        np.einsum("pad,dbc->pabc", dginv, s) + np.einsum("ad,pdbc->pabc", ginv, ds)
    )


def riemann_from_christoffels(
    g: np.ndarray, gamma: np.ndarray, dgamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Curvature of the Levi-Civita connection.

    Returns (rup, rlow) with R(d_i, d_j) d_k = rup[a, i, j, k] d_a and
    rlow[i, j, k, l] = g(R(d_i, d_j) d_k, d_l).
    """
    rup = (
        np.einsum("iajk->aijk", dgamma)
        - np.einsum("jaik->aijk", dgamma)
        + np.einsum("aim,mjk->aijk", gamma, gamma)
        - np.einsum("ajm,mik->aijk", gamma, gamma)
    )
    rlow = np.einsum("la,aijk->ijkl", g, rup)
    return rup, rlow


def project_curvature_symmetries(r: np.ndarray) -> np.ndarray:
    """Project a 4-tensor onto the algebraic curvature symmetries:
    antisymmetry in (0,1) and (2,3), symmetry under pair exchange.

    After projection, components with a repeated index inside either pair
    are exact floating-point zeros.  First Bianchi is NOT enforced, so it
    remains a meaningful residual check on projected tables.
    """
    r = 0.5 * (r - r.transpose(1, 0, 2, 3))
    r = 0.5 * (r - r.transpose(0, 1, 3, 2))
    r = 0.5 * (r + r.transpose(2, 3, 0, 1))
    return r
