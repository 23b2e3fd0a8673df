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

import functools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "Stencil",
    "CONNECTION",
    "NABLA_EXACT",
    "NABLA_FD",
    "ORACLE",
    "matrix_jets",
    "pointwise",
    "levi_civita",
    "riemann_from_christoffels",
    "project_curvature_symmetries",
    "frame_components",
]

_EPS = float(np.finfo(float).eps)


class Stencil(NamedTuple):
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

    @functools.lru_cache(maxsize=None)
    def units(self, dim: int, second: bool = True) -> np.ndarray:
        """Every offset the stencil evaluates, at unit steps, shape (m, dim),
        read-only: the centre (zeros), the level at h (``_unit_offsets``),
        then with ``richardson`` the level at h/2.  ``matrix_jets``
        evaluates x + steps(x) * units, rows in this order."""
        level = _unit_offsets(dim, second)
        levels = [np.zeros((1, dim)), level] + ([level / 2.0] if self.richardson else [])
        units = np.concatenate(levels)
        units.flags.writeable = False
        return units

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
# nabla R of CONNECTION curvature: h^4 against its noise / h.  That noise,
# about 1e-10 (eps / CONNECTION.base^2), puts the balance near 1e-2; on five
# finite-difference catalog charts 4e-3 gave the smallest nabla R error
# (5e-7 worst; 2e-3: 2e-6, 8e-3: 4e-6, plain 5e-4: 2e-4).
NABLA_FD = Stencil(4e-3, richardson=True)
# Oracle, second derivatives of the bundle metric G: below eps^(1/6), since
# G grows fast with |v| on exp+ and its h^4 truncation would reach abs tol.
ORACLE = Stencil(1e-3, richardson=True)


def pointwise(fun: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Batch adapter for a function of one point: the batched function
    evaluates it at each row of a stack of shape (..., dim)."""

    def batched(xs: np.ndarray) -> np.ndarray:
        if xs.ndim == 1:
            return np.asarray(fun(xs), dtype=float)
        rows = np.asarray([fun(x) for x in xs.reshape(-1, xs.shape[-1])], dtype=float)
        return rows.reshape(xs.shape[:-1] + rows.shape[1:])

    return batched


@functools.lru_cache(maxsize=None)
def _pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The axis pairs p < q of the mixed second differences, in
    ``np.triu_indices(dim, 1)`` order; read-only."""
    pairs = np.triu_indices(dim, 1)
    for axis in pairs:
        axis.flags.writeable = False
    return pairs


@functools.lru_cache(maxsize=None)
def _unit_offsets(dim: int, second: bool) -> np.ndarray:
    """The offsets of one level at unit steps, shape (k, dim), read-only:
    +-e_p for each p, then for p < q the four corners e_p + e_q, e_p - e_q,
    -e_p + e_q and -e_p - e_q.  Each zero carries the sign that these sums
    give it (-e_p and -e_p - e_q have -0.0 off their axes), so that steps
    times the pattern equals, bit for bit, the same sums of steps."""
    e = np.eye(dim)
    rows = [np.stack([e, -e], axis=-2)]
    if second:
        p, q = _pairs(dim)
        ep, eq = e[p], e[q]
        rows.append(np.stack([ep + eq, ep - eq, -ep + eq, -ep - eq], axis=-2))
    units = np.concatenate([r.reshape(-1, dim) for r in rows])
    units.flags.writeable = False
    return units


def _plain_jets(
    m: np.ndarray, h: np.ndarray, m0: np.ndarray, second: bool
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Second-order central first (and second) derivatives at each step
    level, level axis first, then the derivative axes.  ``m`` holds the
    values at the offsets ``_unit_offsets`` times each level's steps, level
    and stencil axes first; ``h`` holds those steps, shape (levels, dim,
    ...), broadcasting against a value."""
    dim = h.shape[1]
    mp, mm = m[:, 0 : 2 * dim : 2], m[:, 1 : 2 * dim : 2]
    dm = (mp - mm) / (2.0 * h)
    if not second:
        return dm, None
    d2m = np.empty(m.shape[:1] + (dim, dim) + m0.shape)
    idx = np.arange(dim)
    d2m[:, idx, idx] = (mp - 2.0 * m0 + mm) / h**2
    p, q = _pairs(dim)
    c = [m[:, 2 * dim + k :: 4] for k in range(4)]  # the four corners of each pair
    mixed = (c[0] - c[1] - c[2] + c[3]) / (4.0 * h[:, p] * h[:, q])
    d2m[:, p, q] = mixed
    d2m[:, q, p] = mixed
    return dm, d2m


def matrix_jets(
    fun: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    stencil: Stencil,
    second: bool = True,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(f, df, d2f) of a matrix-valued function by central differences on
    ``stencil``; d2f is None when ``second`` is false.

    x is a point of shape (dim,) or a stack of shape (..., dim); the
    derivative axes follow the stack axes, df[..., p, :] = d_p f.  ``fun``
    takes a stack of points, shape (..., m, dim), and returns the stack of
    their values: the stencils of all points, centres and both Richardson
    levels, are evaluated in one call, in the row order of
    ``stencil.units``.  Wrap a function of one point in ``pointwise``.

    Nothing here checks a domain: callers check x against the reach of the
    whole computation once, before differentiating.
    """
    x = np.asarray(x, dtype=float)
    lead = x.ndim - 1
    steps = stencil.steps(x)
    units = stencil.units(x.shape[-1], second)
    values = fun(x[..., None, :] + steps[..., None, :] * units)
    # Stencil and derivative axes first, so that the differences index them,
    # and contiguous, so that each difference reads whole blocks of values.
    values = np.ascontiguousarray(
        values.transpose((lead, *range(lead), *range(lead + 1, values.ndim))))
    m0 = values[0]
    h = steps.transpose((lead, *range(lead))).reshape(
        steps.shape[-1:] + x.shape[:-1] + (1,) * (m0.ndim - lead))
    # both levels in one pass: level axis first, the steps h then h / 2
    h = np.stack((h, h / 2.0)) if stencil.richardson else h[None]
    dm, d2m = _plain_jets(
        values[1:].reshape((len(h), (len(units) - 1) // len(h)) + m0.shape), h, m0, second)
    if stencil.richardson:
        dm = (4.0 * dm[1] - dm[0]) / 3.0
        d2m = None if d2m is None else (4.0 * d2m[1] - d2m[0]) / 3.0
    else:
        dm, d2m = dm[0], None if d2m is None else d2m[0]
    # the derivative axes back after the stack axes
    rest = range(lead + 1, m0.ndim + 1)
    dm = dm.transpose((*range(1, lead + 1), 0, *rest))
    if second:
        d2m = d2m.transpose((*range(2, lead + 2), 0, 1, *(r + 1 for r in rest)))
    return m0, dm, d2m


def levi_civita(
    g: np.ndarray, dg: np.ndarray, d2g: Optional[np.ndarray] = None
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(Gamma^a_bc, d_p Gamma^a_bc) from the metric and its partials, at one
    point or at each of a stack of points (leading axes):
    Gamma^a_bc = (1/2) g^ad (d_b g_dc + d_c g_bd - d_d g_bc), and its
    partials from the second partials d2g; None without d2g.

    Each contraction is one matrix product per point over the flattened
    free axes: g^ad s_d(bc) is (D, D) @ (D, D^2)."""
    lead, dim = g.shape[:-2], g.shape[-1]
    ginv = np.linalg.inv(g)
    s = (np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg).reshape(lead + (dim, dim * dim))
    gamma = 0.5 * (ginv @ s).reshape(lead + (dim,) * 3)
    if d2g is None:
        return gamma, None
    # d_p g^ad = -g^ae d_p g_ef g^fd, one (D, D) product pair per p
    dginv = -(ginv[..., None, :, :] @ dg @ ginv[..., None, :, :])
    ds = np.swapaxes(d2g, -3, -2) + np.swapaxes(d2g, -3, -1) - d2g
    dgamma = 0.5 * (
        (dginv.reshape(lead + (dim * dim, dim)) @ s)
        + (ginv[..., None, :, :] @ ds.reshape(lead + (dim, dim, dim * dim))).reshape(
            lead + (dim * dim, dim * dim))
    )
    return gamma, dgamma.reshape(lead + (dim,) * 4)


def riemann_from_christoffels(
    g: np.ndarray, gamma: np.ndarray, dgamma: np.ndarray
) -> np.ndarray:
    """Curvature of the Levi-Civita connection, lowered:
    rlow[i, j, k, l] = g(R(d_i, d_j) d_k, d_l), at one point or at each of
    a stack of points (leading axes).  The Gamma Gamma term and the
    lowering are one matrix product each per point."""
    lead, dim = g.shape[:-2], g.shape[-1]
    # Gamma^a_im Gamma^m_jk as (a i, m) @ (m, j k); the term with i and j
    # exchanged is its transposed view
    gg = (gamma.reshape(lead + (dim * dim, dim)) @ gamma.reshape(lead + (dim, dim * dim))).reshape(
        lead + (dim,) * 4)
    # R(d_i, d_j) d_k = r[a, i, j, k] d_a; d_i Gamma^a_jk - d_j Gamma^a_ik
    # are transposed views of dgamma
    k = dgamma.ndim - 4
    r = (np.swapaxes(dgamma, -4, -3) - dgamma.transpose((*range(k), k + 1, k + 2, k, k + 3))
         + gg - np.swapaxes(gg, -3, -2))
    # g_la r^a_ijk as (i j k, a) @ (a, l)
    rlow = np.swapaxes(r.reshape(lead + (dim, dim**3)), -1, -2) @ np.swapaxes(g, -1, -2)
    return rlow.reshape(lead + (dim,) * 4)


def project_curvature_symmetries(r: np.ndarray) -> np.ndarray:
    """Project 4-tensors (the last four axes) onto the algebraic curvature
    symmetries: antisymmetry in (0,1) and (2,3), symmetry under pair
    exchange.

    After projection, components with a repeated index inside either pair
    are exact floating-point zeros.  First Bianchi is NOT enforced, so it
    remains a meaningful residual check on projected tables.
    """
    r = 0.5 * (r - np.swapaxes(r, -4, -3))
    r = 0.5 * (r - np.swapaxes(r, -2, -1))
    r = 0.5 * (r + np.swapaxes(np.swapaxes(r, -4, -2), -3, -1))
    return r


def frame_components(u: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Components of a tensor in a frame: u applied on every axis,
    out[i, j, ...] = u[i, a] u[j, b] ... tensor[a, b, ...].

    u may be a stack of frames, shape (..., n, n), with a tensor of the
    same leading shape; the frame axes follow it.  One fixed contraction
    per axis: each step contracts the first frame axis with u, as one
    matrix product, and appends the frame index, so after all of them the
    axes are back in order.
    """
    lead = u.shape[:-2]
    n = u.shape[-1]
    ut = np.swapaxes(u, -1, -2)
    k = len(lead)
    first_last = (*range(k), *range(k + 1, tensor.ndim), k)  # first frame axis to the end
    for _ in range(tensor.ndim - k):
        rest = tensor.shape[k + 1 :]
        # the sizes are explicit: -1 cannot be inferred on an empty stack
        flat = tensor.transpose(first_last).reshape(lead + (math.prod(rest), n))
        tensor = (flat @ ut).reshape(lead + rest + (n,))
    return tensor
