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
    SingularMetricError,
    StencilOutOfDomainError,
)
from .numdiff import (
    CONNECTION,
    NABLA_EXACT,
    NABLA_FD,
    christoffel_jacobian_from_jets,
    christoffels_from_jets,
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
    "rotate_completion",
    "euclidean",
    "sphere",
    "hyperbolic",
    "conformal_polynomial",
    "make_manifold",
    "CATALOG_IDS",
]

CATALOG_IDS = ("euclidean", "sphere", "hyperbolic", "torus-conformal")


def _check_spd(g: np.ndarray, where: str) -> None:
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularMetricError(f"metric not positive definite at {where}")


class ChartManifold:
    """(M, g) on a coordinate box, with optional analytic connection data.

    Parameters
    ----------
    dim : chart dimension n >= 2
    metric_fn : x -> (n, n) SPD matrix of components g_ab(x)
    lo, hi : corners of the coordinate box
    christoffels_fn : optional x -> gamma[a, b, c] = Gamma^a_bc
    christoffel_jacobian_fn : optional x -> dgamma[p, a, b, c] = d_p Gamma^a_bc
    catalog_id, params : provenance for reports

    Missing connection data is differentiated on the stencils of
    ``numdiff``'s step table.  Each public method checks its point once
    against the reach of everything it evaluates; the points inside a
    stencil are not checked again (``check=False`` marks those calls).
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

    # -- basic access --------------------------------------------------------

    def metric(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.metric_fn(np.asarray(x, dtype=float)), dtype=float)
        return 0.5 * (g + g.T)

    def check_interior(self, x: np.ndarray, reach: np.ndarray | float = 0.0) -> None:
        """Require the box x +- reach (per axis) strictly inside the chart."""
        x = np.asarray(x, dtype=float)
        if np.any(x - reach <= self.lo) or np.any(x + reach >= self.hi):
            raise StencilOutOfDomainError(
                f"point {x.tolist()} is not inside the {self.catalog_id} chart "
                f"{self.lo.tolist()}..{self.hi.tolist()} by the finite-difference "
                f"reach {float(np.max(reach)):.3g}"
            )

    # -- reach: how far from x a computation evaluates the metric -------------

    def christoffel_reach(self, x: np.ndarray) -> np.ndarray:
        return np.zeros(self.dim) if self.christoffels_fn else CONNECTION.reach(x)

    def christoffel_jacobian_reach(self, x: np.ndarray) -> np.ndarray:
        return np.zeros(self.dim) if self.christoffel_jacobian_fn else CONNECTION.reach(x)

    def riemann_reach(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(self.christoffel_reach(x), self.christoffel_jacobian_reach(x))

    # -- connection ----------------------------------------------------------

    def christoffels(self, x: np.ndarray, *, check: bool = True) -> np.ndarray:
        """Gamma^a_bc at x; analytic when the catalog provides it."""
        x = np.asarray(x, dtype=float)
        if check:
            self.check_interior(x, self.christoffel_reach(x))
        _check_spd(self.metric(x), f"x={x.tolist()}")
        if self.christoffels_fn is not None:
            return np.asarray(self.christoffels_fn(x), dtype=float)
        g, dg, _ = matrix_jets(self.metric, x, CONNECTION, second=False)
        return christoffels_from_jets(g, dg)

    def christoffel_jacobian(self, x: np.ndarray, *, check: bool = True) -> np.ndarray:
        """d_p Gamma^a_bc at x."""
        x = np.asarray(x, dtype=float)
        if check:
            self.check_interior(x, self.christoffel_jacobian_reach(x))
        if self.christoffel_jacobian_fn is not None:
            return np.asarray(self.christoffel_jacobian_fn(x), dtype=float)
        if self.christoffels_fn is not None:
            # FD of the analytic Christoffels.
            _, dgamma, _ = matrix_jets(
                lambda y: np.asarray(self.christoffels_fn(y), dtype=float),
                x, CONNECTION, second=False,
            )
            return dgamma
        g, dg, d2g = matrix_jets(self.metric, x, CONNECTION)
        return christoffel_jacobian_from_jets(g, dg, d2g)

    # -- curvature -----------------------------------------------------------

    def riemann(
        self, x: np.ndarray, *, check: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate curvature (rup, rlow) at x under the pinned convention."""
        x = np.asarray(x, dtype=float)
        if check:
            self.check_interior(x, self.riemann_reach(x))
        g = self.metric(x)
        _check_spd(g, f"x={x.tolist()}")
        gamma = self.christoffels(x, check=False)
        dgamma = self.christoffel_jacobian(x, check=False)
        return riemann_from_christoffels(g, gamma, dgamma)

    def riemann_lowered(self, x: np.ndarray) -> np.ndarray:
        return self.riemann(x)[1]

    def nabla_riemann(self, x: np.ndarray) -> np.ndarray:
        """Covariant derivative (nabla_p R)_abcd, the tensorial formula
        d_p R_abcd minus Gamma corrections on all four slots."""
        x = np.asarray(x, dtype=float)
        stencil = NABLA_EXACT if self.christoffel_jacobian_fn else NABLA_FD
        self.check_interior(x, stencil.reach(x, inner=self.riemann_reach))
        gamma = self.christoffels(x, check=False)
        rlow, drlow, _ = matrix_jets(
            lambda y: self.riemann(y, check=False)[1], x, stencil, second=False
        )
        corr = (
            np.einsum("mpa,mbcd->pabcd", gamma, rlow)
            + np.einsum("mpb,amcd->pabcd", gamma, rlow)
            + np.einsum("mpc,abmd->pabcd", gamma, rlow)
            + np.einsum("mpd,abcm->pabcd", gamma, rlow)
        )
        return drlow - corr


# --------------------------------------------------------------------------
# Adapted frames
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptedFramePoint:
    """A base point q, a g-orthonormal frame u (rows), a tangent vector v
    with t = |v|_g, and u[0] = v / t whenever t > 0 (normal form)."""

    q: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: float

    @property
    def dim(self) -> int:
        return self.u.shape[0]


def _gram_schmidt(g: np.ndarray, seeds: list[np.ndarray], n: int) -> np.ndarray:
    basis: list[np.ndarray] = []
    for w in seeds:
        w = np.array(w, dtype=float)
        scale = math.sqrt(max(float(w @ g @ w), 0.0))
        for _ in range(2):  # re-orthogonalize for 1e-12 Gram accuracy
            for b in basis:
                w = w - (b @ g @ w) * b
        nrm = math.sqrt(max(float(w @ g @ w), 0.0))
        if scale == 0.0 or nrm <= 1e-10 * scale:
            continue
        basis.append(w / nrm)
        if len(basis) == n:
            break
    if len(basis) != n:
        raise DegenerateInputError("seed vectors do not span the tangent space")
    return np.array(basis)


def adapted_frame(M: ChartManifold, q: np.ndarray, v: np.ndarray) -> AdaptedFramePoint:
    """Orthonormal frame with u[0] aligned to v (Gram-Schmidt against the
    chart basis); for v = 0 the chart basis alone is orthonormalized, which
    keeps runs reproducible."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    M.check_interior(q)
    g = M.metric(q)
    _check_spd(g, f"q={q.tolist()}")
    t = math.sqrt(max(float(v @ g @ v), 0.0))
    seeds = [np.eye(M.dim)[i] for i in range(M.dim)]
    if t > 0.0:
        seeds = [v / t] + seeds
    u = _gram_schmidt(g, seeds, M.dim)
    if t > 0.0:
        u[0] = v / t  # exact alignment by construction
    return AdaptedFramePoint(q=q, u=u, v=v, t=t)


def rotate_completion(
    fp: AdaptedFramePoint, rotation: np.ndarray
) -> AdaptedFramePoint:
    """Replace u[1:] by rotation @ u[1:] (rotation orthogonal, (n-1)x(n-1));
    used to check that scalar invariants ignore the completion choice."""
    u = fp.u.copy()
    u[1:] = np.asarray(rotation, dtype=float) @ u[1:]
    return AdaptedFramePoint(q=fp.q, u=u, v=fp.v, t=fp.t)


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
    rlow = M.riemann_lowered(fp.q)
    u = fp.u
    rt = np.einsum("ia,jb,kc,ld,abcd->ijkl", u, u, u, u, rlow, optimize=True)
    rt = project_curvature_symmetries(rt)
    drt = None
    if include_nabla:
        nabla = M.nabla_riemann(fp.q)
        drt = np.einsum(
            "pe,ia,jb,kc,ld,eabcd->pijkl", u, u, u, u, u, nabla, optimize=True
        )
        drt = np.stack([project_curvature_symmetries(drt[p]) for p in range(M.dim)])
    return FrameCurvature(Rtable=rt, dRtable=drt)


@dataclass(frozen=True)
class BaseInvariants:
    sectional: np.ndarray  # K[i, j] = R_ijji
    ricci: np.ndarray
    scalar: float


def base_invariants(M: ChartManifold, fp: AdaptedFramePoint) -> BaseInvariants:
    rt = frame_curvature(M, fp, include_nabla=False).Rtable
    k = np.einsum("ijji->ij", rt)
    ricci = np.einsum("illj->ij", rt)
    return BaseInvariants(sectional=k, ricci=ricci, scalar=float(np.trace(ricci)))


# --------------------------------------------------------------------------
# Catalog
# --------------------------------------------------------------------------


def euclidean(dim: int, half_width: float = 10.0) -> ChartManifold:
    """Flat R^n in cartesian coordinates."""
    eye = np.eye(dim)
    zero_gamma = np.zeros((dim, dim, dim))
    zero_dgamma = np.zeros((dim, dim, dim, dim))
    return ChartManifold(
        dim,
        lambda x: eye,
        lo=-half_width * np.ones(dim),
        hi=half_width * np.ones(dim),
        christoffels_fn=lambda x: zero_gamma,
        christoffel_jacobian_fn=lambda x: zero_dgamma,
        catalog_id="euclidean",
        params={"dim": dim},
    )


def _conformal_chart(
    dim: int,
    fgh: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
    catalog_id: str,
    params: dict,
) -> ChartManifold:
    """g = exp(2 f) * delta from a function returning (f, grad f, hess f)."""

    def metric(x):
        f, _, _ = fgh(x)
        return math.exp(2.0 * f) * np.eye(dim)

    def gammas(x):
        _, grad, _ = fgh(x)
        eye = np.eye(dim)
        return (
            np.einsum("ab,c->abc", eye, grad)
            + np.einsum("ac,b->abc", eye, grad)
            - np.einsum("bc,a->abc", eye, grad)
        )

    def dgammas(x):
        _, _, hess = fgh(x)
        eye = np.eye(dim)
        return (
            np.einsum("ab,cp->pabc", eye, hess)
            + np.einsum("ac,bp->pabc", eye, hess)
            - np.einsum("bc,ap->pabc", eye, hess)
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
    if chart is None:
        chart = "polar" if dim == 2 else "stereographic"
    if chart == "polar":
        if dim != 2:
            raise ValueError("polar chart implemented for dim=2 only")
        r2 = radius * radius

        def metric(x):
            theta = x[0]
            return np.diag([r2, r2 * math.sin(theta) ** 2])

        def gammas(x):
            theta = x[0]
            gamma = np.zeros((2, 2, 2))
            gamma[0, 1, 1] = -math.sin(theta) * math.cos(theta)
            cot = math.cos(theta) / math.sin(theta)
            gamma[1, 0, 1] = cot
            gamma[1, 1, 0] = cot
            return gamma

        def dgammas(x):
            theta = x[0]
            dgamma = np.zeros((2, 2, 2, 2))
            dgamma[0, 0, 1, 1] = -math.cos(2.0 * theta)
            dcot = -1.0 / math.sin(theta) ** 2
            dgamma[0, 1, 0, 1] = dcot
            dgamma[0, 1, 1, 0] = dcot
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

    def fgh(x):
        s = float(x @ x)
        f = math.log(2.0 * radius) - math.log1p(s)
        grad = -2.0 * x / (1.0 + s)
        hess = -2.0 * np.eye(dim) / (1.0 + s) + 4.0 * np.outer(x, x) / (1.0 + s) ** 2
        return f, grad, hess

    return _conformal_chart(
        dim,
        fgh,
        lo=-0.9 * np.ones(dim),
        hi=0.9 * np.ones(dim),
        catalog_id="sphere",
        params={"dim": dim, "radius": radius, "chart": "stereographic"},
    )


def hyperbolic(dim: int) -> ChartManifold:
    """Poincare ball, g = 4 delta / (1 - |x|^2)^2, constant curvature -1."""
    half = 0.78 / math.sqrt(dim)

    def fgh(x):
        s = float(x @ x)
        f = math.log(2.0) - math.log1p(-s)
        grad = 2.0 * x / (1.0 - s)
        hess = 2.0 * np.eye(dim) / (1.0 - s) + 4.0 * np.outer(x, x) / (1.0 - s) ** 2
        return f, grad, hess

    return _conformal_chart(
        dim,
        fgh,
        lo=-half * np.ones(dim),
        hi=half * np.ones(dim),
        catalog_id="hyperbolic",
        params={"dim": dim},
    )


def conformal_polynomial(dim: int, coeffs) -> ChartManifold:
    """g = exp(2 f) * delta with f a polynomial, given as an array of
    [coefficient, e_1, ..., e_n] monomial rows.  Exercises nabla R != 0."""
    terms = []
    for row in coeffs:
        c = float(row[0])
        exps = tuple(int(e) for e in row[1:])
        if len(exps) != dim:
            raise ValueError(
                f"monomial row {row!r} has {len(exps)} exponents, expected {dim}"
            )
        terms.append((c, exps))

    def fgh(x):
        f = 0.0
        grad = np.zeros(dim)
        hess = np.zeros((dim, dim))
        for c, exps in terms:
            powers = [x[i] ** exps[i] for i in range(dim)]
            mono = c * math.prod(powers)
            f += mono
            for a in range(dim):
                if exps[a] == 0:
                    continue
                da = c * exps[a] * x[a] ** (exps[a] - 1)
                da *= math.prod(powers[i] for i in range(dim) if i != a)
                grad[a] += da
                for b in range(a, dim):
                    if a == b:
                        if exps[a] >= 2:
                            h = c * exps[a] * (exps[a] - 1) * x[a] ** (exps[a] - 2)
                            h *= math.prod(powers[i] for i in range(dim) if i != a)
                            hess[a, a] += h
                    elif exps[b] > 0:
                        h = c * exps[a] * exps[b]
                        h *= x[a] ** (exps[a] - 1) * x[b] ** (exps[b] - 1)
                        h *= math.prod(
                            powers[i] for i in range(dim) if i != a and i != b
                        )
                        hess[a, b] += h
                        hess[b, a] += h
        return f, grad, hess

    return _conformal_chart(
        dim,
        fgh,
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
    """Catalog dispatcher used by the CLI and config files."""
    key = catalog_id.lower()
    if key == "euclidean":
        return euclidean(dim)
    if key == "sphere":
        return sphere(dim, radius=radius, chart=chart)
    if key == "hyperbolic":
        return hyperbolic(dim)
    if key in ("torus-conformal", "conformal"):
        if coeffs is None:
            raise ValueError("torus-conformal requires conformal coefficients")
        return conformal_polynomial(dim, coeffs)
    raise KeyError(f"unknown manifold {catalog_id!r}; choose from {CATALOG_IDS}")
