"""Tests for the induced bundle metric, splits, and adapted frame vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbcurv.basemanifold import (
    ChartManifold,
    adapted_frame,
    conformal_polynomial,
    euclidean,
    hyperbolic,
    sphere,
)
from tbcurv.bundlemetric import adapted_frame_vectors, induced_metric
from tbcurv.errors import ValidityError
from tbcurv.metricfamily import PRESET_NAMES, preset
from tbcurv.numdiff import pointwise

from references import fiber_block, frame_gram


def fd_only(M):
    """The chart without its analytic connection data, evaluated point by point."""
    return ChartManifold(M.dim, pointwise(M.metric_fn), lo=M.lo, hi=M.hi, catalog_id="custom")


def _connection_split(M, x, v, A):
    """Split a 2n induced-coordinate vector A at the point (x, v), each of
    shape (n,), into (pi_* A, K A)."""
    n = M.dim
    A = np.asarray(A, dtype=float)
    hor = A[:n]
    _, gamma, _ = M.connection(x, second=False)
    ver = A[n:] + np.einsum("abc,b,c->a", gamma, v, hor)
    return hor, ver


def _signed_zero_metric(x):
    """diag(1, 2 + sign of x_0): 3 at x_0 = +0.0, 1 at x_0 = -0.0."""
    g = np.zeros(np.shape(x)[:-1] + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = 2.0 + np.copysign(1.0, x[..., 0])
    return g


class TestConnectionSplit:
    def test_euclidean_plain_split(self):
        M = euclidean(2)
        hor, ver = _connection_split(M, [0.1, 0.2], [1.0, -1.0], np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(hor, [1.0, 2.0])
        assert np.array_equal(ver, [3.0, 4.0])

    def test_vertical_basis_vectors(self):
        M = sphere(2)
        for a in range(2):
            A = np.zeros(4)
            A[2 + a] = 1.0
            hor, ver = _connection_split(M, [0.9, 0.3], [0.4, -0.2], A)
            assert np.array_equal(hor, np.zeros(2))
            expected = np.zeros(2)
            expected[a] = 1.0
            assert np.array_equal(ver, expected)

    def test_horizontal_lift_solves_vertical_equation(self):
        # A_v^a = -Gamma^a_bc v^b u^c makes K(A) = 0
        M = sphere(2)
        x = np.array([0.9, 0.3])
        v = np.array([0.4, -0.2])
        u = np.array([0.7, 0.5])
        _, gamma, _ = M.connection(x, second=False)
        assert np.max(np.abs(gamma)) > 0.01  # the point genuinely curves
        A = np.concatenate([u, -np.einsum("abc,b,c->a", gamma, v, u)])
        hor, ver = _connection_split(M, x, v, A)
        assert np.array_equal(hor, u)
        assert np.max(np.abs(ver)) <= 1e-15


class TestInducedMetric:
    def test_sasaki_euclidean_identity(self):
        M = euclidean(3)
        fam = preset("sasaki")
        rng = np.random.default_rng(5)
        for _ in range(4):
            G, _ = induced_metric(M, fam, rng.normal(size=3), rng.normal(size=3))
            assert np.allclose(G, np.eye(6), atol=1e-15)

    def test_zero_vector_block_diagonal(self):
        M = sphere(2)
        fam = preset("cheeger-gromoll")
        x = np.array([0.9, 0.3])
        G, _ = induced_metric(M, fam, x, np.zeros(2))
        g = M.metric(x)
        assert np.allclose(G[:2, :2], g, atol=1e-15)
        assert np.allclose(G[:2, 2:], 0.0, atol=1e-15)
        assert np.allclose(G[2:, 2:], fam.jets(0.0).alpha * g, atol=1e-15)

    def test_spd_at_random_points(self):
        M = hyperbolic(2)
        fam = preset("exp-")
        rng = np.random.default_rng(9)
        for _ in range(6):
            x, v = 0.2 * rng.normal(size=2), 0.4 * rng.normal(size=2)
            eig = np.linalg.eigvalsh(induced_metric(M, fam, x, v)[0])
            assert np.all(eig > 0)

    @pytest.mark.parametrize(
        "M, x",
        [
            (euclidean(3), [0.5, -1.0, 2.0]),
            (sphere(2), [0.9, 0.3]),
            (sphere(3), [0.2, -0.1, 0.3]),
            (hyperbolic(3), [0.1, 0.2, -0.1]),
            (conformal_polynomial(3, [[0.1, 1, 1, 0], [0.04, 0, 2, 1]]), [0.2, -0.3, 0.4]),
            (fd_only(hyperbolic(2)), [0.2, -0.3]),
        ],
        ids=lambda c: getattr(c, "catalog_id", ""),
    )
    def test_stack_rows_equal_single_points(self, M, x):
        fam = preset("cheeger-gromoll")
        rng = np.random.default_rng(4)
        xs = np.asarray(x) + 0.05 * rng.normal(size=(5, M.dim))
        vs = 0.5 * rng.normal(size=(5, M.dim))
        G, gamma = induced_metric(M, fam, xs, vs)
        assert G.shape == (5, 2 * M.dim, 2 * M.dim)
        assert gamma.shape == (5,) + (M.dim,) * 3
        for i in range(5):
            single, single_gamma = induced_metric(M, fam, xs[i], vs[i])
            np.testing.assert_allclose(G[i], single, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(gamma[i], single_gamma, rtol=1e-14, atol=1e-14)

    # Charts and the shift of their base points off the origin, whose
    # coordinates within 0.15 of it stay inside every chart.  The metric of
    # "signed-zero" tells x_0 = -0.0 from +0.0, so that twins merged by
    # value would get one another's G.
    CHARTS = {
        "euclidean3": (euclidean(3), 0.0),
        "sphere2": (sphere(2), np.array([1.5, 0.0])),  # polar: theta near pi/2
        "sphere3": (sphere(3), 0.0),
        "hyperbolic2": (hyperbolic(2), 0.0),
        "torus3": (conformal_polynomial(3, [[0.1, 1, 1, 0], [0.04, 0, 2, 1]]), 0.0),
        "fd-hyperbolic2": (fd_only(hyperbolic(2)), 0.0),
        "signed-zero": (ChartManifold(2, _signed_zero_metric, lo=-np.ones(2), hi=np.ones(2)),
                        0.0),
    }

    @pytest.mark.parametrize("chart", list(CHARTS))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_repeated_and_signed_zero_base_points_equal_single_points(self, chart, data):
        # the chart is evaluated once per distinct x, told apart by its bits:
        # each row of the stack gets its own point's G, bit for bit
        M, shift = self.CHARTS[chart]
        n = M.dim
        coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.15, 0.15))
        vec = st.lists(coord, min_size=n, max_size=n)
        base = np.array(data.draw(st.lists(vec, min_size=1, max_size=3))) + shift
        # the first base point's twin with the signs of its zeros flipped
        base = np.concatenate([base, np.where(base[:1] == 0.0, -base[:1], base[:1])])
        # every base point, some again, in any order
        pick = list(range(len(base))) + data.draw(
            st.lists(st.integers(0, len(base) - 1), max_size=3))
        x = base[data.draw(st.permutations(pick))]
        v = 4.0 * np.array(data.draw(st.lists(vec, min_size=len(x), max_size=len(x))))
        fam = preset(data.draw(st.sampled_from(PRESET_NAMES)))
        G, _ = induced_metric(M, fam, x, v)
        for k in range(len(x)):
            assert G[k].tobytes() == induced_metric(M, fam, x[k], v[k])[0].tobytes()

    def test_validity_horizon_enforced(self):
        M = euclidean(2)
        fam = preset("sasaki", t_max=4.0)
        with pytest.raises(ValidityError):
            induced_metric(M, fam, [0.0, 0.0], [3.0, 0.0])

    def test_riemannian_submersion_on_horizontal_lifts(self):
        # G(A, B) = g(pi_* A, pi_* B) for horizontal A, B
        M = sphere(2)
        fam = preset("exp+")
        x = np.array([0.9, 0.3])
        v = np.array([0.4, -0.2])
        g, gamma, _ = M.connection(x, second=False)
        G, _ = induced_metric(M, fam, x, v)
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.normal(size=2)
            b = rng.normal(size=2)
            lift = lambda u: np.concatenate(
                [u, -np.einsum("abc,b,c->a", gamma, v, u)]
            )
            assert lift(a) @ G @ lift(b) == pytest.approx(a @ g @ b, rel=1e-13)


class TestAdaptedFrameVectors:
    def test_split_exactness(self):
        M = sphere(2)
        fam = preset("sasaki")
        x = np.array([0.9, 0.3])
        v = np.array([0.4, -0.2])
        fp = adapted_frame(M, x, v)
        frame = adapted_frame_vectors(fp, M.connection(fp.q, second=False)[1])
        for i in range(2):
            hor, ver = _connection_split(M, x, v, frame[i])
            assert np.array_equal(hor, fp.u[i])
            assert np.max(np.abs(ver)) <= 1e-15
            hor, ver = _connection_split(M, x, v, frame[2 + i])
            assert np.array_equal(hor, np.zeros(2))
            assert np.array_equal(ver, fp.u[i])

    def test_horizontal_vertical_orthogonal(self):
        M = hyperbolic(2)
        fam = preset("cheeger-gromoll")
        fp = adapted_frame(M, np.array([0.2, -0.1]), np.array([0.5, 0.3]))
        gram = frame_gram(M, fam, fp)
        assert np.max(np.abs(gram[:2, 2:])) <= 1e-12

    @pytest.mark.parametrize("fam_name", ["sasaki", "cheeger-gromoll", "exp+", "exp-"])
    def test_gram_identity_matches_fiber_block(self, fam_name):
        # the frame Gram equals the fiber-block matrix at xi = (t, 0, ..., 0)
        fam = preset(fam_name)
        cases = [
            (sphere(2), np.array([0.9, 0.3]), np.array([0.4, -0.2])),
            (sphere(3), np.array([0.2, -0.1, 0.3]), np.array([0.5, 0.1, -0.3])),
            (hyperbolic(2), np.array([0.2, -0.1]), np.array([0.6, 0.4])),
        ]
        for M, x, v in cases:
            fp = adapted_frame(M, x, v)
            gram = frame_gram(M, fam, fp)
            n = M.dim
            xi = np.zeros(n)
            xi[0] = fp.t
            expected = np.zeros((2 * n, 2 * n))
            expected[:n, :n] = np.eye(n)
            expected[n:, n:] = fiber_block(fam, xi)
            assert np.max(np.abs(gram - expected)) <= 1e-10

    def test_gram_identity_numeric_christoffels(self):
        # same identity through the pure finite-difference connection
        analytic = sphere(2)
        from tbcurv.basemanifold import ChartManifold

        M = ChartManifold(
            2,
            analytic.metric_fn,
            lo=analytic.lo,
            hi=analytic.hi,
            catalog_id="sphere-fd",
        )
        fam = preset("exp-")
        fp = adapted_frame(M, np.array([0.9, 0.3]), np.array([0.4, -0.2]))
        gram = frame_gram(M, fam, fp)
        xi = np.array([fp.t, 0.0])
        expected = np.zeros((4, 4))
        expected[:2, :2] = np.eye(2)
        expected[2:, 2:] = fiber_block(fam, xi)
        assert np.max(np.abs(gram - expected)) <= 1e-6

    def test_radial_vertical_norm(self):
        # <e_{n+1}, e_{n+1}> = alpha(t^2) + t^2 beta(t^2), others alpha(t^2)
        M = sphere(2)
        fam = preset("exp+")
        fp = adapted_frame(M, np.array([0.9, 0.3]), np.array([0.4, -0.2]))
        gram = frame_gram(M, fam, fp)
        j = fam.jets(fp.t**2)
        assert gram[2, 2] == pytest.approx(j.alpha + fp.t**2 * j.beta, rel=1e-12)
        assert gram[3, 3] == pytest.approx(j.alpha, rel=1e-12)
