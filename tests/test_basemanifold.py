"""Tests for chart manifolds, frames, and base curvature."""

import math
import re

import numpy as np
import pytest

from tbcurv.basemanifold import (
    ChartManifold,
    adapted_frame,
    base_invariants,
    conformal_polynomial,
    euclidean,
    frame_curvature,
    hyperbolic,
    make_manifold,
    rotate_completion,
    sphere,
)
from tbcurv.errors import (
    SingularMetricError,
    StencilOutOfDomainError,
)


def fd_only(M):
    """Strip analytic connection data so the pure finite-difference path runs."""
    return ChartManifold(
        M.dim,
        M.metric_fn,
        lo=M.lo,
        hi=M.hi,
        catalog_id=M.catalog_id + "-fd",
        params=M.params,
    )


class TestChristoffels:
    def test_euclidean_zero(self):
        M = euclidean(3)
        assert np.allclose(M.christoffels(np.array([0.5, -1.0, 2.0])), 0.0)

    def test_sphere_polar_classical(self):
        # g = diag(1, sin^2 theta): Gamma^theta_phiphi = -sin cos,
        # Gamma^phi_thetaphi = cot theta
        M = sphere(2)
        theta = 0.8
        gamma = M.christoffels(np.array([theta, 0.3]))
        assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta))
        assert gamma[1, 0, 1] == pytest.approx(math.cos(theta) / math.sin(theta))
        # finite differences of g reproduce the classical values
        gamma_fd = fd_only(M).christoffels(np.array([theta, 0.3]))
        assert np.allclose(gamma_fd, gamma, atol=1e-9)

    def test_poincare_disk_origin(self):
        M = hyperbolic(2)
        assert np.allclose(M.christoffels(np.zeros(2)), 0.0, atol=1e-15)

    def test_singular_metric(self):
        M = ChartManifold(
            2,
            lambda x: np.diag([1.0, -1.0]),
            lo=-np.ones(2),
            hi=np.ones(2),
        )
        with pytest.raises(SingularMetricError):
            M.christoffels(np.zeros(2))

    def test_analytic_or_metric_only(self):
        M = sphere(2)
        for fns in ({"christoffels_fn": M.christoffels_fn},
                    {"christoffel_jacobian_fn": M.christoffel_jacobian_fn}):
            with pytest.raises(ValueError, match="or neither"):
                ChartManifold(2, M.metric_fn, M.lo, M.hi, vectorized=True, **fns)

    def test_nan_is_outside(self):
        M = sphere(2)
        x = np.array([[1.0, 0.3], [np.nan, 0.3], [1.0, np.nan]])
        assert M.outside(x).tolist() == [False, True, True]
        with pytest.raises(StencilOutOfDomainError, match="nan"):
            M.check_interior(x)

    def test_stencil_out_of_domain(self):
        M = sphere(2)
        with pytest.raises(StencilOutOfDomainError):
            M.christoffels(np.array([0.1, 0.0]))  # on the boundary


class TestRiemann:
    def test_euclidean_flat(self):
        M = euclidean(2)
        _, rlow = M.riemann(np.array([1.0, -2.0]))
        assert np.max(np.abs(rlow)) == 0.0

    @pytest.mark.parametrize("use_fd", [False, True])
    def test_unit_sphere_calibration(self, use_fd):
        # pinned convention: frame component R_1221 = +1 on the unit sphere
        M = fd_only(sphere(2)) if use_fd else sphere(2)
        q = np.array([0.9, 0.3])
        fp = adapted_frame(M, q, np.zeros(2))
        rt = frame_curvature(M, fp, include_nabla=False).Rtable
        tol = 1e-7 if use_fd else 1e-12
        assert rt[0, 1, 1, 0] == pytest.approx(1.0, abs=tol)

    def test_sphere_radius_scaling(self):
        M = sphere(2, radius=2.0)
        fp = adapted_frame(M, np.array([1.1, -0.4]), np.zeros(2))
        rt = frame_curvature(M, fp, include_nabla=False).Rtable
        assert rt[0, 1, 1, 0] == pytest.approx(0.25, abs=1e-12)

    def test_stereographic_sphere_matches_polar(self):
        M = sphere(3)
        fp = adapted_frame(M, np.array([0.2, -0.1, 0.3]), np.zeros(3))
        inv = base_invariants(M, fp)
        assert np.allclose(
            inv.sectional - (np.ones((3, 3)) - np.eye(3)), 0.0, atol=1e-12
        )

    def test_poincare_disk_curvature(self):
        M = hyperbolic(2)
        for q in (np.zeros(2), np.array([0.2, -0.3])):
            fp = adapted_frame(M, q, np.zeros(2))
            rt = frame_curvature(M, fp, include_nabla=False).Rtable
            assert rt[0, 1, 1, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_algebraic_symmetries_of_raw_tensor(self):
        # raw coordinate tensor from the FD path satisfies the symmetries
        # within the stencil tolerance
        M = fd_only(conformal_polynomial(2, [[0.1, 2, 1]]))
        rlow = M.riemann_lowered(np.array([0.4, -0.2]))
        scale = np.max(np.abs(rlow)) + 1.0
        assert np.max(np.abs(rlow + rlow.transpose(1, 0, 2, 3))) <= 1e-8 * scale
        assert np.max(np.abs(rlow + rlow.transpose(0, 1, 3, 2))) <= 1e-8 * scale
        assert np.max(np.abs(rlow - rlow.transpose(2, 3, 0, 1))) <= 1e-8 * scale
        bianchi = (
            rlow
            + np.einsum("jlim->ijlm", rlow)
            + np.einsum("lijm->ijlm", rlow)
        )
        assert np.max(np.abs(bianchi)) <= 1e-8 * scale

    def test_symmetries_across_whole_catalog(self):
        # every catalog entry, several points: residuals stay well under
        # 10x the stencil truncation (analytic entries are near exact)
        catalog = [
            (euclidean(3), [np.zeros(3), np.array([1.0, -2.0, 0.5])]),
            (sphere(2), [np.array([0.9, 0.3]), np.array([1.4, -0.7])]),
            (sphere(3), [np.array([0.2, -0.1, 0.3])]),
            (hyperbolic(2), [np.zeros(2), np.array([0.2, -0.3])]),
            (hyperbolic(3), [np.array([0.1, 0.2, -0.1])]),
            (
                conformal_polynomial(3, [[0.1, 1, 1, 0]]),
                [np.array([0.2, -0.3, 0.4])],
            ),
        ]
        for M, points in catalog:
            for x in points:
                rlow = M.riemann_lowered(x)
                scale = np.max(np.abs(rlow)) + 1.0
                tol = 1e-10 * scale
                assert np.max(np.abs(rlow + rlow.transpose(1, 0, 2, 3))) <= tol
                assert np.max(np.abs(rlow + rlow.transpose(0, 1, 3, 2))) <= tol
                assert np.max(np.abs(rlow - rlow.transpose(2, 3, 0, 1))) <= tol
                bianchi = (
                    rlow
                    + np.einsum("jlim->ijlm", rlow)
                    + np.einsum("lijm->ijlm", rlow)
                )
                assert np.max(np.abs(bianchi)) <= tol, M.catalog_id


# -- nabla R -----------------------------------------------------------------


def _geodesic_parallel_oracle(M, q, u, p, h=1e-3, nsteps=8):
    """Second, independent nabla-R oracle: transport the whole frame
    parallelly along the geodesic through q with initial speed u[p], and
    centrally differentiate the frame-contracted curvature in arclength."""

    def rhs(state):
        x = state[0]
        vel = state[1]
        frame = state[2:]
        gamma = M.christoffels(x)
        acc = -np.einsum("abc,b,c->a", gamma, vel, vel)
        dframe = -np.einsum("abc,b,ic->ia", gamma, vel, frame)
        return np.concatenate([[vel], [acc], dframe], axis=0)

    def flow(sign):
        state = np.concatenate([[q], [sign * u[p]], u], axis=0)
        ds = h / nsteps
        for _ in range(nsteps):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * ds * k1)
            k3 = rhs(state + 0.5 * ds * k2)
            k4 = rhs(state + ds * k3)
            state = state + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x = state[0]
        frame = state[2:]
        rlow = M.riemann_lowered(x)
        return np.einsum(
            "ia,jb,kc,ld,abcd->ijkl", frame, frame, frame, frame, rlow, optimize=True
        )

    return (flow(+1.0) - flow(-1.0)) / (2.0 * h)


class TestNablaRiemann:
    def test_constant_curvature_parallel(self):
        for M in (sphere(2), sphere(3), hyperbolic(2), euclidean(3)):
            x = 0.3 * np.ones(M.dim) / M.dim
            if M.catalog_id == "sphere" and M.dim == 2:
                x = np.array([0.9, 0.3])
            assert np.max(np.abs(M.nabla_riemann(x))) <= 1e-8

    def test_conformal_2d_nonharmonic(self):
        # f = 0.1 x1^2 x2 has a nonzero Laplacian, so the surface is curved
        # and its curvature gradient does not vanish
        M = conformal_polynomial(2, [[0.1, 2, 1]])
        q = np.array([0.4, -0.2])
        nabla = M.nabla_riemann(q)
        assert np.max(np.abs(nabla)) > 1e-4
        fp = adapted_frame(M, q, np.zeros(2))
        drt = frame_curvature(M, fp).dRtable
        for p in range(2):
            oracle = _geodesic_parallel_oracle(M, q, fp.u, p)
            assert np.allclose(drt[p], oracle, atol=2e-6)

    def test_conformal_3d_spec_factor(self):
        # the 3-dimensional f = 0.1 x1 x2 case used by the verification suite
        M = conformal_polynomial(3, [[0.1, 1, 1, 0]])
        q = np.array([0.2, -0.3, 0.4])
        fp = adapted_frame(M, q, np.zeros(3))
        drt = frame_curvature(M, fp).dRtable
        assert np.max(np.abs(drt)) > 1e-4
        for p in range(3):
            oracle = _geodesic_parallel_oracle(M, q, fp.u, p)
            assert np.allclose(drt[p], oracle, atol=2e-6)

    def test_second_bianchi(self):
        M = conformal_polynomial(2, [[0.1, 2, 1], [0.05, 0, 3]])
        nabla = M.nabla_riemann(np.array([0.3, 0.5]))
        # cyclic sum over (p, a, b) of (nabla_p R)_abcd vanishes
        cyc = (
            nabla
            + np.einsum("abpcd->pabcd", nabla)
            + np.einsum("bpacd->pabcd", nabla)
        )
        assert np.max(np.abs(cyc)) <= 1e-7 * (1.0 + np.max(np.abs(nabla)))


class TestAdaptedFrame:
    def test_euclidean_example(self):
        M = euclidean(2)
        fp = adapted_frame(M, np.zeros(2), np.array([2.0, 0.0]))
        assert fp.t == 2.0
        assert np.allclose(fp.u, np.eye(2), atol=1e-15)

    def test_gram_identity(self):
        rng = np.random.default_rng(11)
        cases = [
            (sphere(2), np.array([0.9, 0.3])),
            (hyperbolic(3), np.array([0.1, -0.2, 0.15])),
            (conformal_polynomial(2, [[0.1, 2, 1]]), np.array([0.4, -0.2])),
        ]
        for M, q in cases:
            g = M.metric(q)
            for _ in range(5):
                v = rng.normal(size=M.dim)
                fp = adapted_frame(M, q, v)
                assert np.max(np.abs(fp.u @ g @ fp.u.T - np.eye(M.dim))) <= 1e-12
                assert np.allclose(fp.u[0] * fp.t, v, atol=1e-12 * (1 + fp.t))

    def test_sphere_chart_vector_norm(self):
        # |(0, 1)|_g at theta = pi/4 is sin(pi/4)
        M = sphere(2)
        fp = adapted_frame(M, np.array([math.pi / 4.0, 0.2]), np.array([0.0, 1.0]))
        assert fp.t == pytest.approx(0.7071067811865476, abs=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_metric_that_is_not_finite_names_the_point(self):
        # exp(2 * 1000 * 1.4) overflows: the metric is inf on the diagonal and
        # nan off it, which the SPD check names, and evaluating it warns nothing
        M = conformal_polynomial(2, [[1000.0, 1, 0]])
        q = np.array([[0.2, 0.3], [1.4, 0.3], [0.2, 0.3]])
        assert not np.isfinite(M.metric(q[1])).all()
        with pytest.raises(SingularMetricError, match=re.escape("metric not finite at q=[1.4, 0.3]")):
            adapted_frame(M, q, np.zeros((3, 2)))
        assert adapted_frame(M, q[0], np.zeros(2)).t == 0.0

    def test_zero_vector_deterministic(self):
        M = sphere(2)
        q = np.array([0.9, 0.3])
        fp1 = adapted_frame(M, q, np.zeros(2))
        fp2 = adapted_frame(M, q, np.zeros(2))
        assert fp1.t == 0.0
        assert np.array_equal(fp1.u, fp2.u)


class TestInvariants:
    def test_euclidean_all_zero(self):
        M = euclidean(3)
        inv = base_invariants(M, adapted_frame(M, np.zeros(3), np.zeros(3)))
        assert np.max(np.abs(inv.sectional)) == 0.0
        assert np.max(np.abs(inv.ricci)) == 0.0
        assert inv.scalar == 0.0

    def test_unit_sphere_scalars(self):
        M2 = sphere(2)
        inv2 = base_invariants(M2, adapted_frame(M2, np.array([0.9, 0.3]), np.zeros(2)))
        assert inv2.scalar == pytest.approx(2.0, abs=1e-11)
        M3 = sphere(3)
        inv3 = base_invariants(
            M3, adapted_frame(M3, np.array([0.2, -0.1, 0.3]), np.zeros(3))
        )
        assert inv3.scalar == pytest.approx(6.0, abs=1e-11)

    def test_hyperbolic_scalar(self):
        M = hyperbolic(3)
        inv = base_invariants(M, adapted_frame(M, 0.1 * np.ones(3), np.zeros(3)))
        assert inv.scalar == pytest.approx(-6.0, abs=1e-11)

    def test_completion_rotation_invariance(self):
        # S, Ricc(u1, u1) and the K(u1, .) spectrum ignore the choice of
        # u2..un
        M = conformal_polynomial(3, [[0.1, 1, 1, 0], [0.04, 0, 2, 1]])
        q = np.array([0.2, -0.3, 0.4])
        v = np.array([0.5, 0.1, -0.3])
        fp = adapted_frame(M, q, v)
        inv = base_invariants(M, fp)
        # the K(u1, .) spectrum: eigenvalues of the form w -> R(u1, w, w, u1)
        rt = frame_curvature(M, fp, include_nabla=False).Rtable
        spec1 = np.linalg.eigvalsh(rt[0, 1:, 1:, 0])
        rng = np.random.default_rng(3)
        for _ in range(4):
            mat = rng.normal(size=(2, 2))
            rot, _ = np.linalg.qr(mat)
            fp2 = rotate_completion(fp, rot)
            g = M.metric(q)
            assert np.max(np.abs(fp2.u @ g @ fp2.u.T - np.eye(3))) <= 1e-12
            inv2 = base_invariants(M, fp2)
            assert inv2.scalar == pytest.approx(inv.scalar, abs=1e-8)
            assert inv2.ricci[0, 0] == pytest.approx(inv.ricci[0, 0], abs=1e-8)
            rt2 = frame_curvature(M, fp2, include_nabla=False).Rtable
            spec2 = np.linalg.eigvalsh(rt2[0, 1:, 1:, 0])
            assert np.allclose(spec1, spec2, atol=1e-8)


class TestCatalogDispatch:
    @pytest.mark.parametrize(
        "row,problem",
        [
            ([], "is not 3 finite numbers"),
            (1, "is not 3 finite numbers"),
            ([0.1, 1, 1, 1], "is not 3 finite numbers"),
            ([0.1, True, 1], "is not 3 finite numbers"),
            (["a", 1, 1], "is not 3 finite numbers"),
            ([float("nan"), 1, 1], "is not 3 finite numbers"),
            ([0.1, float("inf"), 1], "is not 3 finite numbers"),
            ([0.1, 1.5, 1], "has an exponent that is not a whole number >= 0"),
            ([0.1, -1, 0], "has an exponent that is not a whole number >= 0"),
            ([0.1, 1e300, 1], "has an exponent that does not fit a 64-bit integer"),
            ([0.1, 2**63, 1], "has an exponent that does not fit a 64-bit integer"),
        ],
    )
    def test_conformal_row_is_checked(self, row, problem):
        with pytest.raises(ValueError, match=re.escape(f"manifold coeffs row {row!r} {problem}")):
            conformal_polynomial(2, [[0.1, 1, 1], row])

    def test_conformal_largest_exponent_builds(self):
        M = conformal_polynomial(2, [[0.1, 2**63 - 1, 0]])
        assert np.array_equal(M.metric(np.array([0.5, 0.3])), np.eye(2))

    def test_conformal_whole_float_exponents(self):
        x = np.array([0.5, 0.3])
        M = conformal_polynomial(2, [[0.1, 2, 1]])
        M_float = conformal_polynomial(2, np.array([[0.1, 2.0, 1.0]]))
        assert np.array_equal(M.metric(x), M_float.metric(x))
        assert M.params == M_float.params

    def test_make_manifold(self):
        assert make_manifold("sphere", dim=2).catalog_id == "sphere"
        assert make_manifold("euclidean", dim=4).dim == 4
        assert (
            make_manifold("torus-conformal", dim=2, coeffs=[[0.1, 1, 1]]).catalog_id
            == "torus-conformal"
        )
        with pytest.raises(KeyError):
            make_manifold("klein-bottle", dim=2)
        with pytest.raises(ValueError):
            make_manifold("torus-conformal", dim=2)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf, "abc", True])
    def test_bad_sphere_radius_is_rejected(self, dim, radius):
        message = f"sphere radius must be a positive finite number, got {radius!r}"
        with pytest.raises(ValueError, match=message):
            make_manifold("sphere", dim=dim, radius=radius)


class TestStacks:
    """A stack of points of shape (..., n) gives the stack of one-point values."""

    CHARTS = [
        (euclidean(3), np.array([0.5, -1.0, 2.0])),
        (sphere(2), np.array([0.9, 0.3])),
        (sphere(3), np.array([0.2, -0.1, 0.3])),
        (hyperbolic(3), np.array([0.1, 0.2, -0.1])),
        (conformal_polynomial(3, [[0.1, 1, 1, 0], [0.04, 0, 2, 1]]), np.array([0.2, -0.3, 0.4])),
        (fd_only(hyperbolic(2)), np.array([0.2, -0.3])),
    ]

    @pytest.mark.parametrize("M, x", CHARTS, ids=lambda c: getattr(c, "catalog_id", ""))
    def test_rows_equal_single_point_calls(self, M, x):
        rng = np.random.default_rng(3)
        xs = x + 0.05 * rng.normal(size=(2, 3, M.dim))
        for method in (M.metric, M.christoffels, M.christoffel_jacobian):
            stacked = method(xs)
            assert stacked.shape[:2] == (2, 3)
            for idx in np.ndindex(2, 3):
                np.testing.assert_allclose(stacked[idx], method(xs[idx]), rtol=1e-14, atol=1e-14)

    def test_only_catalog_charts_are_vectorized(self):
        assert all(M.vectorized for M, _ in self.CHARTS[:-1])
        assert not self.CHARTS[-1][0].vectorized
