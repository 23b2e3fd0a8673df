"""Chart-based Riemannian base manifolds.

A ChartManifold is a single coordinate box with a metric component
function x -> g_ab(x).  Catalog entries (flat space, round spheres,
hyperbolic balls, conformally flat polynomials) ship analytic Christoffel
symbols and their Jacobians, which keeps the curvature assembly exact up
to rounding; custom metrics fall back to Richardson-extrapolated central
differences on the stencils of the step table in ``numdiff``.

Curvature sign convention: R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z, lowered as rlow[i,j,k,l] = g(R(d_i,d_j)d_k, d_l).  With
this choice the sectional curvature of orthonormal (X, Y) is the frame
component R_1221, and the unit sphere calibrates to R_1221 = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateInputError,
    NonFiniteError,
    SingularMetricError,
    StencilOutOfDomainError,
    check_positive,
    is_finite_real,
    shown,
)
from .numdiff import (
    CONNECTION,
    NABLA_EXACT,
    NABLA_FD,
    ORACLE,
    Stencil,
    frame_components,
    levi_civita,
    matrix_jets,
    project_curvature_symmetries,
    riemann_from_christoffels,
)

__all__ = [
    "ChartManifold",
    "AdaptedFramePoint",
    "FrameCurvature",
    "BaseInvariants",
    "adapted_frame",
    "frame_curvature",
    "base_invariants",
    "euclidean",
    "sphere",
    "hyperbolic",
    "conformal_polynomial",
    "make_manifold",
    "CATALOG_IDS",
]

CATALOG_IDS = ("euclidean", "sphere", "hyperbolic", "torus-conformal")


def _check_spd(g: np.ndarray, x: np.ndarray, name: str = "x") -> None:
    """Cholesky test of g at x, or of each matrix of a stack at its row of
    x, after the test that g is finite; the error names the first point
    whose metric fails."""
    try:
        if not np.isfinite(g).all():
            raise np.linalg.LinAlgError("metric not finite")
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        dim = x.shape[-1]
        for gi, xi in zip(g.reshape(-1, dim, dim), x.reshape(-1, dim)):
            if not np.isfinite(gi).all():
                raise SingularMetricError(f"metric not finite at {name}={xi.tolist()}")
            try:
                np.linalg.cholesky(gi)
            except np.linalg.LinAlgError:
                raise SingularMetricError(
                    f"metric not positive definite at {name}={xi.tolist()}"
                )
        raise


class ChartManifold:
    """(M, g) on a coordinate box, with optional analytic connection data.

    Parameters
    ----------
    dim : chart dimension n >= 2
    metric_fn : x -> (n, n) SPD matrix of components g_ab(x)
    lo, hi : corners of the coordinate box
    christoffels_fn : x -> gamma[a, b, c] = Gamma^a_bc
    christoffel_jacobian_fn : x -> dgamma[p, a, b, c] = d_p Gamma^a_bc
    catalog_id, params : provenance for reports
    Each function takes a stack x (..., n) and returns one value per point;
    a function of one point goes through ``numdiff.pointwise``.

    A chart is analytic, with both connection functions, or metric-only,
    with neither; a metric-only chart's connection is differentiated from g
    on the stencils of ``numdiff``'s step table.  ``connection`` (g, Gamma,
    d Gamma) and ``curvature`` (R, nabla R) give the Levi-Civita data; a
    caller asks for the derivatives it reads.  The point methods accept a
    point or a stack of points (..., n) and return one value per point.
    Each checks its point once against the reach of everything it
    evaluates; the points inside a stencil are not checked again
    (``check=False`` marks those calls).
    """

    def __init__(
        self,
        dim: int,
        metric_fn: Callable[[np.ndarray], np.ndarray],
        lo: np.ndarray,
        hi: np.ndarray,
        christoffels_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        christoffel_jacobian_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        catalog_id: str = "custom",
        params: Optional[dict] = None,
    ):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        if (christoffels_fn is None) != (christoffel_jacobian_fn is None):
            raise ValueError(
                "give both christoffels_fn and christoffel_jacobian_fn, or neither"
            )
        self.dim = int(dim)
        self.metric_fn = metric_fn
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.christoffels_fn = christoffels_fn
        self.christoffel_jacobian_fn = christoffel_jacobian_fn
        self.catalog_id = catalog_id
        self.params = dict(params or {})

    def __repr__(self) -> str:
        return f"ChartManifold({self.catalog_id!r}, dim={self.dim})"

    def _eval(self, name: str, x: np.ndarray, rank: int) -> np.ndarray:
        """The chart function of that name at x of shape (..., n): a
        ValueError unless its value has shape x.shape[:-1] + (n,) * rank,
        or where a stack makes it fail as a function of one point does (an
        IndexError, TypeError or ValueError, chained).  A stack of no points
        calls no function."""
        shape = x.shape[:-1] + (self.dim,) * rank
        if x.size == 0:
            return np.empty(shape)
        try:
            value = np.asarray(getattr(self, name)(x), dtype=float)
        except (IndexError, TypeError, ValueError) as exc:
            if x.ndim == 1:
                raise
            raise ValueError(f"{name} failed at x of shape {x.shape} ({type(exc).__name__}: "
                             f"{exc}): wrap a function of one point in numdiff.pointwise") from exc
        if value.shape != shape:
            raise ValueError(f"{name} gave shape {value.shape} at x of shape {x.shape}, not "
                             f"{shape}: wrap a function of one point in numdiff.pointwise")
        return value

    # -- basic access --------------------------------------------------------

    def metric(self, x: np.ndarray) -> np.ndarray:
        """g at x (..., n).  Where the chart's metric overflows it is inf or
        nan, without a warning: the SPD check names such a point."""
        with np.errstate(over="ignore", invalid="ignore"):
            g = self._eval("metric_fn", np.asarray(x, dtype=float), 2)
            return 0.5 * (g + np.swapaxes(g, -1, -2))

    def outside(self, x: np.ndarray, reach: np.ndarray | float = 0.0) -> np.ndarray:
        """Per point of x (..., n): the box x +- reach (per axis) is not
        strictly inside the chart.  Written as "not inside", so that a NaN
        coordinate, which compares false, is outside."""
        x = np.asarray(x, dtype=float)
        return ~((x - reach > self.lo) & (x + reach < self.hi)).all(axis=-1)

    def check_interior(self, x: np.ndarray, reach: np.ndarray | float = 0.0) -> None:
        """Require the box x +- reach (per axis) strictly inside the chart,
        for a point or each point of a stack; the error names the first
        point that fails."""
        x = np.asarray(x, dtype=float)
        bad = self.outside(x, reach)
        if bad.any():
            i = int(np.argmax(bad))
            xi = x.reshape(-1, self.dim)[i]
            ri = np.broadcast_to(reach, x.shape).reshape(-1, self.dim)[i]
            raise StencilOutOfDomainError(
                f"point {xi.tolist()} is not inside the {self.catalog_id} chart "
                f"{self.lo.tolist()}..{self.hi.tolist()} by the finite-difference "
                f"reach {float(np.max(ri)):.3g}"
            )

    # -- reach: how far from x a computation evaluates the metric -------------

    def christoffel_reach(self, x: np.ndarray) -> np.ndarray:
        """Reach of the connection and the curvature at x: zero on an
        analytic chart, the metric's stencil on a metric-only one."""
        return np.zeros(self.dim) if self.christoffels_fn else CONNECTION.reach(x)

    def _nabla_stencil(self) -> Stencil:
        return NABLA_EXACT if self.christoffels_fn else NABLA_FD

    def nabla_reach(self, x: np.ndarray) -> np.ndarray:
        return self._nabla_stencil().reach(x, inner=self.christoffel_reach)

    def oracle_reach(self, x: np.ndarray) -> np.ndarray:
        """Reach of the oracle's stencil on the bundle metric, the
        Christoffel stencils at its points included."""
        return ORACLE.reach(x, inner=self.christoffel_reach)

    # -- connection and curvature --------------------------------------------

    def connection(
        self, x: np.ndarray, *, second: bool = True, check: bool = True
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(g_ab, Gamma^a_bc, d_p Gamma^a_bc) at x, after the SPD check of
        that g; d_p Gamma is None unless ``second``.  The metric is
        evaluated once at x on an analytic chart, and each chart function
        once; a metric-only chart differentiates g on one CONNECTION
        stencil."""
        x = np.asarray(x, dtype=float)
        if check:
            self.check_interior(x, self.christoffel_reach(x))
        if self.christoffels_fn is not None:
            g = self.metric(x)
            _check_spd(g, x)
            gamma = self._eval("christoffels_fn", x, 3)
            return g, gamma, self._eval("christoffel_jacobian_fn", x, 4) if second else None
        g, dg, d2g = matrix_jets(self.metric, x, CONNECTION, second=second)
        _check_spd(g, x)
        return (g, *levi_civita(g, dg, d2g))

    def curvature(
        self, x: np.ndarray, *, nabla: bool = False, check: bool = True
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Coordinate curvature rlow at x under the pinned convention, and
        with ``nabla`` its covariant derivative (nabla_p R)_abcd, the
        tensorial formula d_p R_abcd minus Gamma corrections on all four
        slots (else None).  R at x is then the centre value of the nabla R
        stencil."""
        x = np.asarray(x, dtype=float)
        if not nabla:
            return riemann_from_christoffels(*self.connection(x, check=check)), None
        if check:
            self.check_interior(x, self.nabla_reach(x))
        rlow, drlow, _ = matrix_jets(
            lambda ys: self.curvature(ys, check=False)[0], x, self._nabla_stencil(), second=False
        )
        _, gamma, _ = self.connection(x, second=False, check=False)
        return rlow, drlow - _slot_corrections(gamma, rlow)


def _slot_corrections(gamma: np.ndarray, rlow: np.ndarray) -> np.ndarray:
    """The Gamma corrections of nabla_p R_abcd on its four slots,
    Gamma^m_pa R_mbcd + Gamma^m_pb R_amcd + Gamma^m_pc R_abmd + Gamma^m_pd R_abcm,
    at each point of a stack (leading axes): per slot one matrix product of
    Gamma^m_p. with the axes of rlow after the slot, the axes before it
    batched, and p moved to the front by a transposed view."""
    n = gamma.shape[-1]
    lead = gamma.shape[:-3]
    k = len(lead)
    gt = np.swapaxes(gamma.reshape(lead + (n, n * n)), -1, -2)  # Gamma^m_ps as (p s, m)
    # each product has p where its slot was: p a b c d, a p b c d, a b p c d, a b c p d
    by_slot = [
        gt @ rlow.reshape(lead + (n, n**3)),
        gt[..., None, :, :] @ rlow.reshape(lead + (n, n, n * n)),
        gt[..., None, :, :] @ rlow.reshape(lead + (n * n, n, n)),
        rlow.reshape(lead + (n**3, n)) @ gamma.reshape(lead + (n, n * n)),
    ]
    t0, t1, t2, t3 = (
        t.reshape(lead + (n,) * 5).transpose(
            (*range(k), k + slot, *range(k, k + slot), *range(k + slot + 1, k + 5)))
        for slot, t in enumerate(by_slot)
    )
    return t0 + t1 + t2 + t3


# --------------------------------------------------------------------------
# Adapted frames
# --------------------------------------------------------------------------


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a float array (m, n) in first-seen order, found
    in one dict pass over their bits, so that a -0.0 stays apart from a
    +0.0 and each row is its own bits; and for each row the index of its
    own among them."""
    rows = np.ascontiguousarray(rows, dtype=float)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    rank: dict = {}
    inverse = np.array([rank.setdefault(key, len(rank)) for key in keys], dtype=np.intp)
    distinct = np.frombuffer(b"".join(rank), dtype=float).reshape(len(rank), rows.shape[1])
    return distinct.copy(), inverse


def _at_distinct(fun: Callable, x: np.ndarray):
    """fun(x) for a point or a stack of points (..., n), with fun evaluated
    in one call on the distinct points (``_distinct_rows``): everything at
    a base point depends on q alone, and a grid repeats each base point for
    every vector.  fun returns an array, or a tuple of arrays and Nones."""
    rows, inverse = _distinct_rows(x.reshape(-1, x.shape[-1]))

    def spread(values):
        if values is None:
            return None
        return values[inverse].reshape(x.shape[:-1] + values.shape[1:])

    values = fun(rows)
    return tuple(map(spread, values)) if isinstance(values, tuple) else spread(values)


@dataclass(frozen=True)
class AdaptedFramePoint:
    """A base point q, a g-orthonormal frame u (rows), a tangent vector v
    with t = |v|_g, and u[0] = v / t whenever t > 0 (normal form); g is the
    metric at q.

    Every field may carry leading stack axes, one frame per point: q, v
    (..., n), u, g (..., n, n) and t (...).  Indexing selects points."""

    q: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: np.ndarray  # a float for a single point
    g: np.ndarray

    @property
    def dim(self) -> int:
        return self.u.shape[-1]

    def __getitem__(self, idx) -> "AdaptedFramePoint":
        return AdaptedFramePoint(
            q=self.q[idx], u=self.u[idx], v=self.v[idx], t=self.t[idx], g=self.g[idx]
        )

    def named(self, k: tuple = ()) -> str:
        """Point k of the stack, or the single point, as its x and v."""
        return f"x={self.q[k].tolist()}, v={self.v[k].tolist()}"

    def require_finite(self, quantity: str, values: np.ndarray) -> None:
        """NonFiniteError naming quantity and the first point whose values
        (leading with the stack axes) are not all finite; ValueError if the
        values do not lead with the stack's shape."""
        lead = np.shape(self.t)
        if values.shape[: len(lead)] != lead:
            raise ValueError(
                f"{quantity}: values of shape {values.shape} do not lead with "
                f"the stack shape {lead}"
            )
        # the row size is explicit: -1 fails on an empty stack
        rows = np.isfinite(values).reshape(lead + (values.size // max(math.prod(lead), 1),))
        bad = ~rows.all(axis=-1)
        if bad.any():
            k = np.unravel_index(np.argmax(bad), bad.shape)
            raise NonFiniteError(f"{quantity} is not finite at {self.named(k)}")


def _g_norm(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sqrt(max(w g w, 0)) of columns w (..., n, 1), as (..., 1, 1), with
    w g w summed as the matrix products (w^T g) w, which for a single point
    sum in the order of ``w @ g @ w`` on vectors.  A norm that overflows is
    inf, without a warning: the family's validity check names its point."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.maximum((w.swapaxes(-1, -2) @ g) @ w, 0.0))


def _gram_schmidt(g: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """g-orthonormal rows from the seeds (..., m, n) in order, at each point
    of a stack.  A seed is skipped where its g-norm is zero or its remainder
    after the projections is at most 1e-10 of it; each point stops at n
    rows.  Vectors are columns, so each projection is one matrix product."""
    n = g.shape[-1]
    lead = g.shape[:-2]
    basis = np.zeros(lead + (n, n))  # found vectors as columns, zero until found
    gbasis = np.zeros(lead + (n, n))  # the same as rows b^T g
    count = np.zeros(lead + (1, 1), dtype=int)
    slots = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(seeds.shape[-2]):
            if count.min(initial=n) == n:
                break
            w = seeds[..., s, :, None]
            scale = _g_norm(g, w)
            for _ in range(2):  # re-orthogonalize for 1e-12 Gram accuracy
                for j in range(count.max(initial=0)):
                    w = w - (gbasis[..., j : j + 1, :] @ w) * basis[..., :, j : j + 1]
            nrm = _g_norm(g, w)
            keep = (count < n) & ~((scale == 0.0) | (nrm <= 1e-10 * scale))
            slot = keep & (slots == count)  # (..., 1, n): the column this seed fills
            b = w / nrm
            basis = np.where(slot, b, basis)
            gbasis = np.where(slot.swapaxes(-1, -2), b.swapaxes(-1, -2) @ g, gbasis)
            count = count + keep
    if count.min(initial=n) < n:
        raise DegenerateInputError("seed vectors do not span the tangent space")
    return basis.swapaxes(-1, -2)


def adapted_frame(M: ChartManifold, q: np.ndarray, v: np.ndarray) -> AdaptedFramePoint:
    """Orthonormal frame with u[0] aligned to v (Gram-Schmidt against the
    chart basis); for v = 0 the chart basis alone is orthonormalized, which
    keeps runs reproducible.

    q and v are a point and a vector, or stacks of them (..., n), one frame
    per row; the metric is evaluated once per distinct base point.  Errors
    name the first point that fails."""
    q, v = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(v, dtype=float))
    M.check_interior(q)
    g = _at_distinct(M.metric, q)
    _check_spd(g, q, "q")
    t = _g_norm(g, v[..., None])[..., 0]
    aligned = t > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = np.where(aligned, v / t, 0.0)  # a zero seed is skipped
    seeds = np.concatenate([radial[..., None, :], np.broadcast_to(np.eye(M.dim), g.shape)], -2)
    u = _gram_schmidt(g, seeds)
    u[..., 0, :] = np.where(aligned, radial, u[..., 0, :])  # exact alignment
    return AdaptedFramePoint(q=q, u=u, v=v, t=t[..., 0][()], g=g)


@dataclass(frozen=True)
class FrameCurvature:
    """Frame components R_ijkl = g(R(u_i,u_j)u_k, u_l) and optionally
    (nabla R)_p;ijkl = g((nabla_{u_p} R)(u_i,u_j)u_k, u_l).

    Tables are projected onto the algebraic curvature symmetries, so
    components with a repeated index inside an antisymmetric pair are
    exact zeros."""

    Rtable: np.ndarray
    dRtable: Optional[np.ndarray]


def frame_curvature(
    M: ChartManifold, fp: AdaptedFramePoint, include_nabla: bool = True
) -> FrameCurvature:
    """Base curvature in the frame of fp, one table per point of a stack;
    R and nabla R come from one pass over the distinct base points.  Where
    the chart's curvature overflows a value is inf or nan, without a
    warning: the closed forms name such a point."""
    with np.errstate(all="ignore"):
        rlow, nabla = _at_distinct(lambda q: M.curvature(q, nabla=include_nabla), fp.q)
        rt = project_curvature_symmetries(frame_components(fp.u, rlow))
        drt = None if nabla is None else project_curvature_symmetries(
            frame_components(fp.u, nabla))
    return FrameCurvature(Rtable=rt, dRtable=drt)


@dataclass(frozen=True)
class BaseInvariants:
    sectional: np.ndarray  # K[i, j] = R_ijji
    ricci: np.ndarray
    scalar: float  # an array for a stack of frames


def base_invariants(M: ChartManifold, fp: AdaptedFramePoint) -> BaseInvariants:
    rt = frame_curvature(M, fp, include_nabla=False).Rtable
    k = np.einsum("...ijji->...ij", rt)
    ricci = np.einsum("...illj->...ij", rt)
    return BaseInvariants(sectional=k, ricci=ricci, scalar=np.trace(ricci, axis1=-2, axis2=-1))


# --------------------------------------------------------------------------
# Catalog
# --------------------------------------------------------------------------


def _sq(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis."""
    return np.einsum("...i,...i->...", x, x)


def euclidean(dim: int) -> ChartManifold:
    """Flat R^n in cartesian coordinates, on the box [-10, 10]^n."""
    eye = np.eye(dim)
    return ChartManifold(
        dim,
        lambda x: np.zeros(x.shape[:-1] + (dim, dim)) + eye,
        lo=-10.0 * np.ones(dim),
        hi=10.0 * np.ones(dim),
        christoffels_fn=lambda x: np.zeros(x.shape[:-1] + (dim,) * 3),
        christoffel_jacobian_fn=lambda x: np.zeros(x.shape[:-1] + (dim,) * 4),
        catalog_id="euclidean",
        params={"dim": dim},
    )


def _conformal_chart(
    dim: int,
    f: Callable[[np.ndarray], np.ndarray],
    grad: Callable[[np.ndarray], np.ndarray],
    hess: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    catalog_id: str,
    params: dict,
) -> ChartManifold:
    """g = exp(2 f) * delta from f, grad f and hess f over x of shape (..., n)."""
    eye = np.eye(dim)

    def metric(x):
        return np.exp(2.0 * f(x))[..., None, None] * eye

    def gammas(x):
        # Gamma^a_bc = delta_ab f_c + delta_ac f_b - delta_bc f_a
        d = grad(x)
        return (
            eye[:, :, None] * d[..., None, None, :]
            + eye[:, None, :] * d[..., None, :, None]
            - eye * d[..., :, None, None]
        )

    def dgammas(x):
        # d_p Gamma^a_bc = delta_ab f_cp + delta_ac f_bp - delta_bc f_ap
        h = np.swapaxes(hess(x), -1, -2)  # h[..., p, c] = f_cp
        return (
            eye[:, :, None] * h[..., :, None, None, :]
            + eye[:, None, :] * h[..., :, None, :, None]
            - eye * h[..., :, :, None, None]
        )

    return ChartManifold(
        dim,
        metric,
        lo=lo,
        hi=hi,
        christoffels_fn=gammas,
        christoffel_jacobian_fn=dgammas,
        catalog_id=catalog_id,
        params=params,
    )


def sphere(dim: int, radius: float = 1.0, chart: Optional[str] = None) -> ChartManifold:
    """Round sphere of the given radius: polar chart (dim 2 only) or the
    stereographic ball chart (any dim; the default for dim >= 3)."""
    check_positive(radius, "sphere radius")
    radius = float(radius)
    if chart is None:
        chart = "polar" if dim == 2 else "stereographic"
    if chart == "polar":
        if dim != 2:
            raise ValueError("polar chart implemented for dim=2 only")
        r2 = radius * radius

        def metric(x):
            g = np.zeros(x.shape[:-1] + (2, 2))
            g[..., 0, 0] = r2
            s = np.sin(x[..., 0])
            g[..., 1, 1] = r2 * (s * s)
            return g

        def gammas(x):
            theta = x[..., 0]
            gamma = np.zeros(x.shape[:-1] + (2, 2, 2))
            gamma[..., 0, 1, 1] = -np.sin(theta) * np.cos(theta)
            cot = np.cos(theta) / np.sin(theta)
            gamma[..., 1, 0, 1] = cot
            gamma[..., 1, 1, 0] = cot
            return gamma

        def dgammas(x):
            theta = x[..., 0]
            dgamma = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
            dgamma[..., 0, 0, 1, 1] = -np.cos(2.0 * theta)
            s = np.sin(theta)
            dcot = -1.0 / (s * s)
            dgamma[..., 0, 1, 0, 1] = dcot
            dgamma[..., 0, 1, 1, 0] = dcot
            return dgamma

        return ChartManifold(
            2,
            metric,
            lo=np.array([0.1, -4.0]),
            hi=np.array([math.pi - 0.1, 4.0]),
            christoffels_fn=gammas,
            christoffel_jacobian_fn=dgammas,
            catalog_id="sphere",
            params={"dim": 2, "radius": radius, "chart": "polar"},
            )
    if chart != "stereographic":
        raise ValueError(f"unknown sphere chart {chart!r}")
    eye = np.eye(dim)

    def f(x):
        return math.log(2.0 * radius) - np.log1p(_sq(x))

    def grad(x):
        return -2.0 * x / (1.0 + _sq(x))[..., None]

    def hess(x):
        d = (1.0 + _sq(x))[..., None, None]
        return -2.0 * eye / d + 4.0 * (x[..., :, None] * x[..., None, :]) / d**2

    return _conformal_chart(
        dim,
        f,
        grad,
        hess,
        lo=-0.9 * np.ones(dim),
        hi=0.9 * np.ones(dim),
        catalog_id="sphere",
        params={"dim": dim, "radius": radius, "chart": "stereographic"},
    )


def hyperbolic(dim: int) -> ChartManifold:
    """Poincare ball, g = 4 delta / (1 - |x|^2)^2, constant curvature -1."""
    half = 0.78 / math.sqrt(dim)
    eye = np.eye(dim)

    def f(x):
        return math.log(2.0) - np.log1p(-_sq(x))

    def grad(x):
        return 2.0 * x / (1.0 - _sq(x))[..., None]

    def hess(x):
        d = (1.0 - _sq(x))[..., None, None]
        return 2.0 * eye / d + 4.0 * (x[..., :, None] * x[..., None, :]) / d**2

    return _conformal_chart(
        dim,
        f,
        grad,
        hess,
        lo=-half * np.ones(dim),
        hi=half * np.ones(dim),
        catalog_id="hyperbolic",
        params={"dim": dim},
    )


def conformal_polynomial(dim: int, coeffs) -> ChartManifold:
    """g = exp(2 f) * delta with f a polynomial, given as an array of
    [coefficient, e_1, ..., e_n] monomial rows.  Exercises nabla R != 0.

    A row that is not dim + 1 finite numbers (a boolean is not one), or
    whose exponents are not whole numbers >= 0 that fit a 64-bit integer, is
    a ValueError naming it."""
    c, e = [], []
    for row in coeffs:
        entries = list(row) if isinstance(row, (list, tuple, np.ndarray)) else []
        if len(entries) != dim + 1 or not all(map(is_finite_real, entries)):
            raise ValueError(
                f"manifold coeffs row {shown(row)} is not {dim + 1} finite numbers: "
                f"a coefficient and {dim} exponents"
            )
        # The derivative tables below clip exponents at 0, which is exact
        # only for whole exponents >= 0.
        if not all(float(k).is_integer() and k >= 0 for k in entries[1:]):
            raise ValueError(
                f"manifold coeffs row {shown(row)} has an exponent that is not a whole number >= 0"
            )
        if max(entries[1:], default=0) >= 2**63:
            raise ValueError(
                f"manifold coeffs row {shown(row)} has an exponent that does not fit a 64-bit integer"
            )
        c.append(float(entries[0]))
        e.append([int(k) for k in entries[1:]])
    c = np.array(c)
    e = np.array(e, dtype=int).reshape(-1, dim)
    # Exponent table of f, grad f and hess f: the a-th partial of the monomial
    # c x^e is (c e_a) x^(e - 1_a), and so on; a zero factor ends the term,
    # and its exponents are clipped at 0 so that x_a = 0 stays finite.
    eye = np.eye(dim, dtype=int)
    e1 = e[None, :, :] - eye[:, None, :]  # (a, term, i)
    c1 = c * e.T  # (a, term)
    e2 = e1[:, None] - eye[None, :, None, :]  # (a, b, term, i)
    c2 = c * (e.T[:, None] * (e.T[None, :] - eye[:, :, None]))  # (a, b, term)
    e1, e2 = np.maximum(e1, 0), np.maximum(e2, 0)

    def f(x):
        return (c * np.prod(x[..., None, :] ** e, axis=-1)).sum(axis=-1)

    def grad(x):
        return (c1 * np.prod(x[..., None, None, :] ** e1, axis=-1)).sum(axis=-1)

    def hess(x):
        return (c2 * np.prod(x[..., None, None, None, :] ** e2, axis=-1)).sum(axis=-1)

    return _conformal_chart(
        dim,
        f,
        grad,
        hess,
        lo=-1.5 * np.ones(dim),
        hi=1.5 * np.ones(dim),
        catalog_id="torus-conformal",
        params={"dim": dim, "coeffs": [list(map(float, row)) for row in coeffs]},
    )


def make_manifold(
    catalog_id: str,
    dim: int,
    radius: float = 1.0,
    chart: Optional[str] = None,
    coeffs=None,
) -> ChartManifold:
    """Catalog dispatcher used by the CLI and config files: catalog_id is
    one of CATALOG_IDS, exactly."""
    if catalog_id == "euclidean":
        return euclidean(dim)
    if catalog_id == "sphere":
        return sphere(dim, radius=radius, chart=chart)
    if catalog_id == "hyperbolic":
        return hyperbolic(dim)
    if catalog_id == "torus-conformal":
        if coeffs is None:
            raise ValueError("torus-conformal requires conformal coefficients")
        return conformal_polynomial(dim, coeffs)
    raise KeyError(f"unknown manifold {catalog_id!r}; choose from {CATALOG_IDS}")
