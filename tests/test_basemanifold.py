"""Tests for chart manifolds, frames, and base curvature."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tbcurv.basemanifold import (
    ChartManifold,
    _at_distinct,
    _distinct_rows,
    _slot_corrections,
    adapted_frame,
    base_invariants,
    conformal_polynomial,
    constant_curvature,
    euclidean,
    frame_curvature,
    hyperbolic,
    make_manifold,
    sphere,
)
from tbcurv.errors import (
    NonFiniteError,
    SingularMetricError,
    StencilOutOfDomainError,
)
from tbcurv.numdiff import (
    NABLA_EXACT,
    frame_components,
    matrix_jets,
    pointwise,
    project_curvature_symmetries,
)

from references import (
    exact_scalings,
    flat_connection,
    poincare_ball_connection,
    rotate_completion,
    sized_entry,
    stereographic_sphere_connection,
)


def fd_only(M, per_point=True):
    """Strip analytic connection data so the pure finite-difference path
    runs, with the metric evaluated point by point unless not per_point."""
    return ChartManifold(
        M.dim,
        pointwise(M.metric_fn) if per_point else M.metric_fn,
        lo=M.lo,
        hi=M.hi,
        catalog_id=M.catalog_id + ("-fd" if per_point else "-fd-stack"),
        params=M.params,
    )


def christoffels(M, x):
    """Gamma^a_bc at x."""
    return M.connection(x, second=False)[1]


def counted(fn, calls):
    """fn, recording the shape of each argument it is called with."""

    def wrapped(x):
        calls.append(np.shape(x))
        return fn(x)

    return wrapped


class TestChristoffels:
    def test_euclidean_zero(self):
        M = euclidean(3)
        assert np.allclose(christoffels(M, np.array([0.5, -1.0, 2.0])), 0.0)

    def test_sphere_polar_classical(self):
        # g = diag(1, sin^2 theta): Gamma^theta_phiphi = -sin cos,
        # Gamma^phi_thetaphi = cot theta
        M = sphere(2)
        theta = 0.8
        gamma = christoffels(M, np.array([theta, 0.3]))
        assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta))
        assert gamma[1, 0, 1] == pytest.approx(math.cos(theta) / math.sin(theta))
        # finite differences of g reproduce the classical values
        gamma_fd = christoffels(fd_only(M), np.array([theta, 0.3]))
        assert np.allclose(gamma_fd, gamma, atol=1e-9)

    def test_poincare_disk_origin(self):
        M = hyperbolic(2)
        assert np.allclose(christoffels(M, np.zeros(2)), 0.0, atol=1e-15)

    @pytest.mark.parametrize("second", [False, True])
    @pytest.mark.parametrize("diagonal", [[1.0, -1.0], [1.0, 0.0]])
    def test_singular_metric(self, diagonal, second):
        # checked before g is inverted, with or without d Gamma
        M = ChartManifold(
            2,
            pointwise(lambda x: np.diag(diagonal)),
            lo=-np.ones(2),
            hi=np.ones(2),
        )
        with pytest.raises(SingularMetricError, match=re.escape("at x=[0.0, 0.0]")):
            M.connection(np.zeros(2), second=second)

    def test_analytic_or_metric_only(self):
        M = sphere(2)
        for fns in ({"christoffels_fn": M.christoffels_fn},
                    {"christoffel_jacobian_fn": M.christoffel_jacobian_fn}):
            with pytest.raises(ValueError, match="or neither"):
                ChartManifold(2, M.metric_fn, M.lo, M.hi, **fns)

    def test_nan_is_outside(self):
        M = sphere(2)
        x = np.array([[1.0, 0.3], [np.nan, 0.3], [1.0, np.nan]])
        assert M.outside(x).tolist() == [False, True, True]
        with pytest.raises(StencilOutOfDomainError, match="nan"):
            M.check_interior(x)

    def test_stencil_out_of_domain(self):
        M = sphere(2)
        with pytest.raises(StencilOutOfDomainError):
            M.connection(np.array([0.1, 0.0]))  # on the boundary


class TestRiemann:
    def test_euclidean_flat(self):
        M = euclidean(2)
        rlow, _ = M.curvature(np.array([1.0, -2.0]))
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
        rlow, _ = M.curvature(np.array([0.4, -0.2]))
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
                rlow, _ = M.curvature(x)
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
        gamma = christoffels(M, x)
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
        rlow, _ = M.curvature(x)
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
            assert np.max(np.abs(M.curvature(x, nabla=True)[1])) <= 1e-8

    def test_conformal_2d_nonharmonic(self):
        # f = 0.1 x1^2 x2 has a nonzero Laplacian, so the surface is curved
        # and its curvature gradient does not vanish
        M = conformal_polynomial(2, [[0.1, 2, 1]])
        q = np.array([0.4, -0.2])
        _, nabla = M.curvature(q, nabla=True)
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
        _, nabla = M.curvature(np.array([0.3, 0.5]), nabla=True)
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

    def test_tiny_vectors_keep_u0_unit(self):
        # below |v|_g of about 1e-154, v g v is subnormal or 0: t used to keep
        # few bits there (u_0 g u_0 = 0.978 at s = 1e-162) or read 0
        M = hyperbolic(2)
        s = np.r_[1.0, 10.0 ** -np.arange(150, 301, 2)]
        fp = adapted_frame(M, np.array([0.1, 0.2]), s[:, None] * np.array([1.0, 0.3]))
        u0 = fp.u[:, 0]
        assert np.max(np.abs(np.einsum("ma,mab,mb->m", u0, fp.g, u0) - 1.0)) <= 1e-14
        assert np.all(fp.t > 0.0)

    @pytest.mark.parametrize("v", [(3e-321, 7e-321), (1e-320, 0.0), (5e-324, 5e-324)])
    def test_subnormal_vector_gives_an_orthonormal_frame(self, v):
        # t = |v|_g is subnormal and keeps few bits, so v / t was off the unit
        # sphere of g by up to 1.5e-2; u_0 is now 2^600 v over its own length
        fp = adapted_frame(hyperbolic(2), np.array([0.1, 0.2]), np.array(v))
        assert np.max(np.abs(fp.u @ fp.g @ fp.u.T - np.eye(2))) <= 4 * np.finfo(float).eps

    def test_large_vector_keeps_its_length(self):
        # v g v = 1e320 overflows: t used to be inf, and u_0 = (0, 0)
        fp = adapted_frame(euclidean(2), np.zeros(2), np.array([1e160, 0.0]))
        assert fp.t == 1e160
        assert fp.u.tobytes() == np.eye(2).tobytes()

    def test_vector_near_underflow_scales_exactly(self):
        # |2^-511 v|_g = 5.2e-154 is above 2^-511, but its term 0.35^2 2^-1022
        # of v g v is subnormal: summed unscaled, t read 5.217193307108023e-154
        M, v = euclidean(2), np.array([0.35, 3.48])
        t = adapted_frame(M, np.zeros(2), v).t
        assert adapted_frame(M, np.zeros(2), np.ldexp(v, -511)).t == math.ldexp(t, -511)

    # base points inside each chart; the polar sphere's theta is shifted by 1
    SCALED_CHARTS = [
        (sphere(3), 0.0),
        (sphere(2, chart="polar"), 1.0),
        (hyperbolic(2), 0.0),
        (euclidean(4), 0.0),
        (conformal_polynomial(2, [[0.5, 1, 1]]), 0.0),
    ]

    @seed(35)
    @settings(max_examples=75, deadline=None, database=None)
    @given(data=st.data())
    def test_scaled_vector_scales_t_and_keeps_the_frame(self, data):
        # |2^k v|_g = 2^k |v|_g bit for bit, over the whole range of a
        # double, so the frame of 2^k v is the frame of v
        M, shift = data.draw(st.sampled_from(self.SCALED_CHARTS))
        q = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=M.dim, max_size=M.dim)))
        q = q / 10.0 + shift * (np.arange(M.dim) == 0)
        v = np.array(data.draw(st.lists(sized_entry, min_size=M.dim, max_size=M.dim)
                               .filter(lambda v: any(v))))
        fp = adapted_frame(M, q, v)
        k = data.draw(st.integers(*exact_scalings([*v, fp.t])))
        scaled = adapted_frame(M, q, np.ldexp(v, k))
        assert scaled.t == math.ldexp(fp.t, k)
        assert scaled.u.tobytes() == fp.u.tobytes()

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
            # integers beyond the range of a double
            ([10**400, 1, 1], "is not 3 finite numbers"),
            ([0.1, 10**400, 1], "is not 3 finite numbers"),
        ],
    )
    def test_conformal_row_is_checked(self, row, problem):
        # an integer beyond a double is written as the command line reads it
        text = repr(row).replace(repr(10**400), "inf")
        with pytest.raises(ValueError, match=re.escape(f"manifold coeffs row {text} {problem}")):
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
        # only the exact catalog ids: no case folding, no alias
        for catalog_id in ("Sphere", "EUCLIDEAN", "conformal"):
            with pytest.raises(KeyError, match=f"unknown manifold '{catalog_id}'"):
                make_manifold(catalog_id, dim=2, coeffs=[[0.1, 1, 1]])
        with pytest.raises(ValueError):
            make_manifold("torus-conformal", dim=2)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf, "abc", "2", True, 10**400])
    def test_bad_sphere_radius_is_rejected(self, dim, radius):
        got = "inf" if radius == 10**400 else repr(radius)
        message = f"sphere radius must be a positive finite number, got {got}"
        with pytest.raises(ValueError, match=message):
            make_manifold("sphere", dim=dim, radius=radius)

    @pytest.mark.parametrize(
        "catalog_id,settings,unread",
        [
            ("hyperbolic", {"radius": 5.0, "chart": "polar", "coeffs": [[1, 1, 0]]},
             "radius, chart, coeffs"),
            ("euclidean", {"radius": 2.0}, "radius"),
            ("sphere", {"coeffs": [[1, 1, 0]]}, "coeffs"),
            ("torus-conformal", {"chart": "polar", "coeffs": [[1, 1, 0]]}, "chart"),
        ],
    )
    def test_a_setting_the_chart_does_not_read_is_named(self, catalog_id, settings, unread):
        # these settings used to be dropped without a word
        with pytest.raises(ValueError, match=f"^manifold {catalog_id} does not read {unread}$"):
            make_manifold(catalog_id, 2, **settings)

    @pytest.mark.parametrize("catalog_id", ["euclidean", "sphere", "hyperbolic"])
    def test_a_setting_of_none_is_not_given(self, catalog_id):
        M = make_manifold(catalog_id, 3, radius=None, chart=None, coeffs=None)
        assert M.catalog_id == catalog_id and M.dim == 3

    @pytest.mark.parametrize(
        "M,curvature",
        [
            (euclidean(3), 0.0),
            (sphere(2), 1.0),
            (sphere(2, 2.5), 0.16),
            (sphere(4, 0.5, "stereographic"), 4.0),
            (hyperbolic(5), -1.0),
            (conformal_polynomial(2, [[0.1, 1, 1]]), None),
            (fd_only(sphere(2)), None),
            (ChartManifold(2, lambda x: np.zeros(x.shape[:-1] + (2, 2)) + np.eye(2),
                           lo=-np.ones(2), hi=np.ones(2)), None),
        ],
        ids=["euclidean", "sphere", "sphere-2.5", "sphere-stereographic-0.5", "hyperbolic",
             "torus-conformal", "sphere-fd", "custom"],
    )
    def test_space_form_constant(self, M, curvature):
        assert constant_curvature(M) == curvature
        assert type(constant_curvature(M)) is type(curvature)


def _near_edge(half: float) -> float:
    """The largest multiple of 1/256 strictly below half: squares and sums
    of such coordinates are exact, so the order of a sum does not show."""
    return (math.ceil(half * 256) - 1) / 256


def _space_form_points(n: int, half: float) -> list:
    """The origin, points with -0.0 coordinates, and points within 1/256
    of the box edge, on an axis and at a corner."""
    edge = _near_edge(half)
    return [
        [0.0] * n,
        [-0.0] * n,
        [-0.0] + [(-1) ** k * 0.0625 * k for k in range(1, n)],
        [edge] + [-0.0] * (n - 1),
        [(-1) ** k * edge for k in range(n)],
    ]


SPACE_FORM_CHARTS = {
    **{f"euclidean-{n}": (lambda n=n: euclidean(n), flat_connection, 10.0)
       for n in range(2, 6)},
    **{f"sphere-{n}-r{radius}": (
        lambda n=n, radius=radius: sphere(n, radius, "stereographic"),
        functools.partial(stereographic_sphere_connection, radius=radius), 0.9)
       for n in range(2, 6) for radius in (1.0, 2.5)},
    **{f"hyperbolic-{n}": (lambda n=n: hyperbolic(n), poincare_ball_connection,
                           0.78 / math.sqrt(n))
       for n in range(2, 6)},
}


class TestSpaceFormBits:
    """Each space form's g, Gamma and d Gamma are the bits of its component
    formulas, at single points and in a stack."""

    @pytest.mark.parametrize("name", SPACE_FORM_CHARTS)
    def test_connection_is_the_closed_form_bit_for_bit(self, name):
        build, reference, half = SPACE_FORM_CHARTS[name]
        M = build()
        points = _space_form_points(M.dim, half)
        assert np.array_equal(M.hi, np.full(M.dim, half)) and np.array_equal(M.lo, -M.hi)
        expected = [reference(x) for x in points]
        for x, want in zip(points, expected):
            got = M.connection(np.array(x))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], x
        stacked = M.connection(np.array(points))
        for got, want in zip(stacked, zip(*expected)):
            assert got.tobytes() == np.array(want).tobytes()
        assert M.metric(np.array(points)).tobytes() == stacked[0].tobytes()


class TestStacks:
    """A stack of points of shape (..., n) gives the stack of one-point values."""

    CHARTS = [
        (euclidean(3), np.array([0.5, -1.0, 2.0])),
        (sphere(2), np.array([0.9, 0.3])),
        (sphere(3), np.array([0.2, -0.1, 0.3])),
        (hyperbolic(3), np.array([0.1, 0.2, -0.1])),
        (conformal_polynomial(3, [[0.1, 1, 1, 0], [0.04, 0, 2, 1]]), np.array([0.2, -0.3, 0.4])),
        (fd_only(hyperbolic(2)), np.array([0.2, -0.3])),
        (fd_only(hyperbolic(2), per_point=False), np.array([0.2, -0.3])),
    ]

    @pytest.mark.parametrize("M, x", CHARTS, ids=lambda c: getattr(c, "catalog_id", ""))
    def test_rows_equal_single_point_calls(self, M, x):
        rng = np.random.default_rng(3)
        xs = x + 0.05 * rng.normal(size=(2, 3, M.dim))

        def values(x):
            # g, Gamma, d Gamma, R and nabla R
            return M.connection(x) + M.curvature(x, nabla=True)

        stacked = values(xs)
        for idx in np.ndindex(2, 3):
            for a, b in zip(stacked, values(xs[idx])):
                assert a.shape[:2] == (2, 3)
                np.testing.assert_allclose(a[idx], b, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("M, x", CHARTS, ids=lambda c: getattr(c, "catalog_id", ""))
    def test_nabla_stencil_centre_is_the_curvature(self, M, x):
        # with nabla, R is the centre value of the nabla R stencil: the same
        # bits as R on its own
        xs = x + 0.05 * np.random.default_rng(4).normal(size=(3, M.dim))
        assert np.array_equal(M.curvature(xs, nabla=True)[0], M.curvature(xs)[0])


class TestChartFunctionShapes:
    """Each chart function takes a stack of points (..., n); a value of
    another shape than one per point is a ValueError naming the function
    and numdiff.pointwise, which adapts a function of one point."""

    RANKS = {"metric_fn": 2, "christoffels_fn": 3, "christoffel_jacobian_fn": 4}

    @staticmethod
    def replaced(M, name, fn):
        """M with its chart function of that name replaced by fn."""
        fns = {key: getattr(M, key) for key in TestChartFunctionShapes.RANKS}
        return ChartManifold(M.dim, lo=M.lo, hi=M.hi, **{**fns, name: fn})

    @pytest.mark.parametrize("name", list(RANKS))
    def test_a_function_of_one_point_fed_a_stack_is_named(self, name):
        # the value at the first point of the stack: right for one point only
        M = hyperbolic(2)
        first = getattr(M, name)
        x = np.array([[0.1, 0.2], [0.3, -0.1]])
        one = (2,) * self.RANKS[name]
        message = (f"{name} gave shape {one} at x of shape (2, 2), not {(2, *one)}: "
                   "wrap a function of one point in numdiff.pointwise")
        with pytest.raises(ValueError, match=re.escape(message)):
            self.replaced(M, name, lambda x: first(x.reshape(-1, 2)[0])).connection(x)
        wrapped = self.replaced(M, name, pointwise(first))
        for a, b in zip(wrapped.connection(x), M.connection(x)):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14)

    def test_a_value_of_the_wrong_rank_is_named(self):
        M = ChartManifold(2, lambda x: np.ones(x.shape), lo=-np.ones(2), hi=np.ones(2))
        with pytest.raises(ValueError, match=re.escape(
                "metric_fn gave shape (2,) at x of shape (2,), not (2, 2)")):
            M.metric(np.zeros(2))

    def test_a_per_point_metric_fed_a_stack_is_named(self):
        # on a stack of three points x[0] and x[1] are points, and np.diag
        # takes the diagonal of their 2 x 2 array
        def metric(x):
            return np.diag([1.0 + x[0] ** 2, np.exp(x[1])])

        x = np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.5]])
        v = np.full((3, 2), 0.2)
        M = ChartManifold(2, metric, lo=-np.ones(2), hi=np.ones(2))
        with pytest.raises(ValueError, match=re.escape(
                "metric_fn gave shape (2,) at x of shape (3, 2), not (3, 2, 2)")):
            adapted_frame(M, x, v)
        M = ChartManifold(2, pointwise(metric), lo=-np.ones(2), hi=np.ones(2))
        stacked = frame_curvature(M, adapted_frame(M, x, v)).Rtable
        for k in range(3):
            one = frame_curvature(M, adapted_frame(M, x[k], v[k])).Rtable
            np.testing.assert_array_equal(stacked[k], one)

    def test_a_per_point_metric_that_fails_on_a_stack_is_named(self):
        # a stack of one distinct base point: x[1] is out of bounds inside
        # the function, which the error chains
        M = ChartManifold(2, lambda x: np.diag([1 + x[0]**2, np.exp(x[1])]), -np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match=re.escape(
                "metric_fn failed at x of shape (1, 2) (IndexError: index 1 is out of bounds "
                "for axis 0 with size 1): wrap a function of one point in numdiff.pointwise")
        ) as info:
            adapted_frame(M, np.array([[0.1, 0.2], [0.1, 0.2]]), np.full((2, 2), 0.2))
        assert isinstance(info.value.__cause__, IndexError)
        assert M.metric(np.array([0.1, 0.2])).shape == (2, 2)  # one point is no stack

    @pytest.mark.parametrize("chart", ["catalog", "pointwise"])
    def test_an_empty_stack_calls_no_chart_function(self, chart):
        calls = []

        def metric(x):
            calls.append(x)
            return hyperbolic(2).metric_fn(x)

        fn = metric if chart == "catalog" else pointwise(lambda x: metric(x[None])[0])
        M = ChartManifold(2, fn, -0.5 * np.ones(2), 0.5 * np.ones(2))
        fp = adapted_frame(M, np.zeros((0, 2)), np.zeros((0, 2)))
        assert calls == []
        assert (fp.q.shape, fp.u.shape, fp.v.shape, fp.t.shape, fp.g.shape) == (
            (0, 2), (0, 2, 2), (0, 2), (0,), (0, 2, 2))


class TestDistinctRows:
    """Distinct base points are told apart by their bits, in first-seen order."""

    ROWS = np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, 2.0], [0.0, 1.0], [-0.0, 1.0],
                     [math.nan, 0.0], [0.5, 2.0], [math.nan, 0.0]])

    def test_first_seen_order_and_inverse(self):
        rows, inverse = _distinct_rows(self.ROWS)
        assert rows.tobytes() == self.ROWS[[0, 1, 2, 5]].tobytes()
        assert inverse.tolist() == [0, 1, 2, 0, 1, 3, 2, 3]
        assert rows[inverse].tobytes() == self.ROWS.tobytes()
        rows[0, 0] = 7.0  # a copy, which the caller may write
        assert self.ROWS[0, 0] == 0.0

    def test_empty_and_single(self):
        rows, inverse = _distinct_rows(np.zeros((0, 3)))
        assert rows.shape == (0, 3) and inverse.tolist() == []
        rows, inverse = _distinct_rows(np.array([[-0.0, 2.0]]))
        assert np.signbit(rows[0, 0]) and inverse.tolist() == [0]

    @pytest.mark.parametrize("fun", [
        lambda q: np.arctan2(q[..., :1], -1.0),  # +pi at +0.0, -pi at -0.0
        lambda q: np.copysign(1.0, q),
    ])
    def test_signed_zero_twins_get_their_single_point_values(self, fun):
        # the twins were one row of np.unique (0.0 == -0.0), so one of them
        # got the other's value; each now gets its own, bit for bit
        x = self.ROWS[:5].reshape(5, 1, 2)
        calls = []
        values = _at_distinct(lambda q: calls.append(len(q)) or fun(q), x)
        assert calls == [3]
        for idx in np.ndindex(5, 1):
            assert values[idx].tobytes() == fun(x[idx]).tobytes()
        assert values[1, 0, 0] == -values[0, 0, 0] != 0.0

    def test_signed_zero_twins_on_a_chart(self):
        # the polar sphere at theta = pi/2 +- 0.0 offsets and phi = +-0.0
        M = sphere(2)
        x = np.array([[1.0, 0.0], [1.0, -0.0], [1.0, 0.0]])
        rlow, nabla = _at_distinct(lambda q: M.curvature(q, nabla=True), x)
        for k in range(3):
            one = M.curvature(x[k : k + 1], nabla=True)
            assert rlow[k].tobytes() == one[0][0].tobytes()
            assert nabla[k].tobytes() == one[1][0].tobytes()


class TestNonFiniteCurvature:
    # g = e^(2 * 709 * x_1): the lowered curvature overflows at x_1 = 0.5
    M = conformal_polynomial(3, [[709, 1, 0, 0]])

    def test_frame_curvature_warns_nothing(self):
        # under the test configuration a RuntimeWarning would raise
        fp = adapted_frame(self.M, [0.5, 0.0, 0.0], [1e-155, 0.0, 0.0])
        frame = frame_curvature(self.M, fp)
        assert not np.isfinite(frame.Rtable).all()

    def test_require_finite_names_the_first_point(self):
        q = np.array([[0.1, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        v = np.array([[0.0, 1e-60, 0.0], [2e-155, 0.0, 0.0], [0.0, 0.0, 0.0]])
        fp = adapted_frame(self.M, q, v)
        fp[:1].require_finite("R", frame_curvature(self.M, fp[:1], include_nabla=False).Rtable)
        values = frame_curvature(self.M, fp, include_nabla=False).Rtable
        with pytest.raises(NonFiniteError, match=re.escape(
                "R is not finite at x=[0.5, 0.0, 0.0], v=[2e-155, 0.0, 0.0]")):
            fp.require_finite("R", values)
        with pytest.raises(NonFiniteError, match=re.escape(
                "R is not finite at x=[0.5, 0.0, 0.0], v=[0.0, 0.0, 0.0]")):
            fp[2].require_finite("R", values[2])

    def test_require_finite_rejects_values_of_another_stack(self):
        q = np.array([[0.1, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        fp = adapted_frame(self.M, q, np.zeros((3, 3)))
        one = frame_curvature(self.M, fp[:1], include_nabla=False).Rtable
        with pytest.raises(ValueError, match=re.escape(
                "R: values of shape (1, 3, 3, 3, 3) do not lead with the stack shape (3,)")):
            fp.require_finite("R", one)
        with pytest.raises(ValueError, match=re.escape("shape (3,) do not lead with the stack shape (1,)")):
            fp[:1].require_finite("R", np.zeros(3))


class TestEvaluations:
    """Each piece of Levi-Civita data at a point is computed once."""

    @staticmethod
    def counted_chart(M, analytic):
        """M with counted chart functions, or unless analytic its metric-only
        chart, evaluated point by point.  Returns the chart and the calls of
        each function."""
        calls = {"metric": [], "gamma": [], "dgamma": []}
        metric = counted(M.metric_fn, calls["metric"])
        if not analytic:
            return ChartManifold(M.dim, pointwise(metric), M.lo, M.hi), calls
        fns = (counted(M.christoffels_fn, calls["gamma"]),
               counted(M.christoffel_jacobian_fn, calls["dgamma"]))
        return ChartManifold(M.dim, metric, M.lo, M.hi, *fns), calls

    @pytest.mark.parametrize("second", [False, True])
    def test_analytic_connection_calls_each_function_once(self, second):
        M, calls = self.counted_chart(hyperbolic(3), analytic=True)
        M.connection(np.array([0.1, 0.2, -0.1]), second=second)
        assert calls == {"metric": [(3,)], "gamma": [(3,)], "dgamma": [(3,)] if second else []}

    def test_metric_only_curvature_is_one_stencil(self):
        n = 2
        M, calls = self.counted_chart(hyperbolic(n), analytic=False)
        M.curvature(np.array([0.2, -0.3]))
        # the centre and both Richardson levels of one CONNECTION stencil
        assert len(calls["metric"]) == 1 + 2 * (2 * n + 4 * math.comb(n, 2))  # 17
        assert set(calls["metric"]) == {(n,)}

    def test_frame_curvature_with_nabla_differentiates_gamma_once(self):
        n = 2
        M, calls = self.counted_chart(conformal_polynomial(n, [[0.1, 2, 1]]), analytic=True)
        q = np.array([[0.4, -0.2], [0.1, 0.3], [0.4, -0.2]])
        fp = adapted_frame(M, q, np.full((3, n), 0.2))
        for c in calls.values():
            c.clear()
        frame_curvature(M, fp, include_nabla=True)
        # the two distinct base points: d Gamma on the nabla R stencil, whose
        # centre gives R and the Gamma of the correction
        stencil = (2, 1 + 2 * n, n)
        assert calls == {"metric": [stencil], "gamma": [stencil], "dgamma": [stencil]}

    def test_nabla_r_at_a_negative_zero_coordinate_equals_the_one_with_gamma_at_x(self):
        # the nabla R stencil's centre row is x + 0.0, a +0.0 where x has a
        # -0.0; nabla R with Gamma from there has the bits of nabla R with
        # Gamma from a connection call at x itself
        M = hyperbolic(3)
        x = np.array([-0.0, 0.1, 0.2])
        fp = adapted_frame(M, x, np.array([0.3, -0.0, 0.1]))
        rlow, drlow, _ = matrix_jets(
            lambda ys: M.curvature(ys)[0], x, NABLA_EXACT, second=False)
        _, gamma, _ = M.connection(x, second=False)
        reference = project_curvature_symmetries(
            frame_components(fp.u, drlow - _slot_corrections(gamma, rlow)))
        bits = [np.ascontiguousarray(a).view(np.int64)
                for a in (frame_curvature(M, fp).dRtable, reference)]
        assert np.array_equal(*bits)
