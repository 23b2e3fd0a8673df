"""Tests for the closed-form curvature engine on (TM, G)."""

import dataclasses
import math
import re

import numpy as np
import pytest

from tbcurv import closedform
from tbcurv.basemanifold import (
    FrameCurvature,
    adapted_frame,
    base_invariants,
    conformal_polynomial,
    euclidean,
    frame_curvature,
    hyperbolic,
    sphere,
)
from tbcurv.closedform import (
    _perm,
    component_class_masks,
    minus_exp_flat_threshold,
    scalar_exp_specials,
    tm_curvature,
    tm_ricci,
    tm_scalar,
    tm_sectional,
    tm_sectional_constcurv,
)
from tbcurv.errors import NonFiniteError
from tbcurv.metricfamily import NaturalMetricFamily, flatness_beta, preset

from references import gram_diagonal, rotate_completion


def _sphere_point(t=1.0):
    M = sphere(2)
    q = np.array([0.9, 0.3])
    g = M.metric(q)
    v = np.array([0.3, 0.7])
    if t > 0:
        v = v / math.sqrt(v @ g @ v) * t
    else:
        v = np.zeros(2)
    return M, adapted_frame(M, q, v)


CASES = [
    ("sphere2", lambda: _sphere_point(1.0)),
    (
        "hyperbolic2",
        lambda: (
            hyperbolic(2),
            adapted_frame(hyperbolic(2), np.array([0.2, -0.1]), np.array([0.5, 0.3])),
        ),
    ),
    (
        "conformal3",
        lambda: (
            conformal_polynomial(3, [[0.1, 1, 1, 0]]),
            adapted_frame(
                conformal_polynomial(3, [[0.1, 1, 1, 0]]),
                np.array([0.2, -0.3, 0.4]),
                np.array([0.5, -0.3, 0.8]),
            ),
        ),
    ),
]


class TestTable:
    def test_flat_sasaki_is_flat(self):
        M = euclidean(3)
        fp = adapted_frame(M, np.zeros(3), np.array([0.7, -0.2, 0.4]))
        table = tm_curvature(M, preset("sasaki"), fp)
        assert np.max(np.abs(table)) <= 1e-15

    def test_t_zero_reduces_to_base_curvature(self):
        M, fp = _sphere_point(0.0)
        table = tm_curvature(M, preset("cheeger-gromoll"), fp)
        assert np.allclose(table[:2, :2, :2, :2], frame_curvature(M, fp).Rtable, atol=1e-15)

    @pytest.mark.parametrize("name,case", CASES)
    @pytest.mark.parametrize("fam_name", ["sasaki", "cheeger-gromoll", "exp+", "exp-"])
    def test_assembled_symmetries(self, name, case, fam_name):
        M, fp = case()
        T = tm_curvature(M, preset(fam_name), fp)
        assert np.array_equal(T, -T.transpose(1, 0, 2, 3))
        assert np.array_equal(T, -T.transpose(0, 1, 3, 2))
        assert np.allclose(T, T.transpose(2, 3, 0, 1), atol=1e-12)

    def test_first_bianchi_of_assembled_table(self):
        M, fp = _sphere_point(1.0)
        T = tm_curvature(M, preset("exp-"), fp)
        bianchi = T + np.einsum("jkil->ijkl", T) + np.einsum("kijl->ijkl", T)
        assert np.max(np.abs(bianchi)) <= 1e-9 * (1.0 + np.max(np.abs(T)))

    def test_class_masks_partition(self):
        masks = component_class_masks(3)
        total = np.zeros((6, 6, 6, 6), dtype=int)
        for mask in masks.values():
            total += mask.astype(int)
        assert np.array_equal(total, np.ones_like(total))

    def test_flatness_construction(self):
        # flat base + (alpha, flatness beta) with phi > 0: flat bundle
        M = euclidean(2)
        fp = adapted_frame(M, np.array([0.3, -0.2]), np.array([0.8, 0.4]))
        for alpha in ("exp(t)", "1+t", "exp(0.2*t)+0.5"):
            fam = NaturalMetricFamily(alpha, flatness_beta(alpha), t_max=10.0)
            table = tm_curvature(M, fam, fp)
            assert np.max(np.abs(table)) <= 1e-9

    def test_normal_form_required(self):
        M = sphere(2)
        q = np.array([0.9, 0.3])
        fp = adapted_frame(M, q, np.array([0.4, -0.2]))
        # swap the frame rows: u_0 no longer parallel to v
        bad = dataclasses.replace(fp, u=fp.u[::-1].copy())
        with pytest.raises(ValueError):
            tm_curvature(M, preset("sasaki"), bad)


def _table_ricci_trace(table: np.ndarray, gram_diag: np.ndarray) -> np.ndarray:
    """Ricci of a full component table over the orthogonal adapted frame."""
    return np.einsum("accb,c->ab", table, 1.0 / gram_diag)


def _table_scalar_trace(table: np.ndarray, gram_diag: np.ndarray) -> float:
    ricci = _table_ricci_trace(table, gram_diag)
    return float(np.einsum("aa,a->", ricci, 1.0 / gram_diag))


class TestInternalConsistency:
    @pytest.mark.parametrize("name,case", CASES)
    @pytest.mark.parametrize("fam_name", ["sasaki", "cheeger-gromoll", "exp+", "exp-"])
    def test_scalar_equals_double_trace(self, name, case, fam_name):
        M, fp = case()
        fam = preset(fam_name)
        table = tm_curvature(M, fam, fp)
        gd = gram_diagonal(fam, fp.t, fp.dim)
        scalar = tm_scalar(M, fam, fp)
        assert scalar == pytest.approx(_table_scalar_trace(table, gd), abs=1e-9)

    def test_scalar_ignores_completion_choice(self):
        M = conformal_polynomial(3, [[0.1, 1, 1, 0]])
        q = np.array([0.2, -0.3, 0.4])
        v = np.array([0.5, -0.3, 0.8])
        fp = adapted_frame(M, q, v)
        fam = preset("exp-")
        reference = tm_scalar(M, fam, fp)
        rng = np.random.default_rng(6)
        for _ in range(3):
            rot, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            fp2 = rotate_completion(fp, rot)
            assert tm_scalar(M, fam, fp2) == pytest.approx(reference, abs=1e-10)

    @pytest.mark.parametrize("name,case", CASES)
    def test_ricci_equals_table_trace(self, name, case):
        M, fp = case()
        for fam_name in ("sasaki", "exp+"):
            fam = preset(fam_name)
            table = tm_curvature(M, fam, fp)
            ricci = tm_ricci(M, fam, fp)
            gd = gram_diagonal(fam, fp.t, fp.dim)
            assert np.allclose(ricci, _table_ricci_trace(table, gd), atol=1e-10)


class TestSectional:
    def test_t_zero_horizontal_equals_base(self):
        M, fp = _sphere_point(0.0)
        sec = tm_sectional(M, preset("exp-"), fp)
        base = base_invariants(M, fp).sectional
        assert np.allclose(sec.hh, base, atol=1e-12)

    def test_mixed_radial_plane_exactly_zero(self):
        for _, case in CASES:
            M, fp = case()
            sec = tm_sectional(M, preset("cheeger-gromoll"), fp)
            assert np.array_equal(sec.hv[:, 0], np.zeros(fp.dim))

    def test_mixed_planes_nonnegative(self):
        for _, case in CASES:
            M, fp = case()
            for fam_name in ("sasaki", "cheeger-gromoll", "exp+", "exp-"):
                sec = tm_sectional(M, preset(fam_name), fp)
                assert np.min(sec.hv) >= -1e-12

    def test_sphere_sasaki_aligned_plane(self):
        # K(u_1, u_2) = 1, |R(u_1, u_2) v|^2 = t^2 on the unit sphere:
        # Kbar(e_2, e_1) = 1 - 3/4 = 0.25 at t = 1
        M, fp = _sphere_point(1.0)
        sec = tm_sectional(M, preset("sasaki"), fp)
        assert sec.hh[1, 0] == pytest.approx(0.25, abs=1e-11)

    def test_vertical_planes_from_F_and_H(self):
        M, fp = _sphere_point(1.0)
        fam = preset("exp-")
        t_sq = fp.t**2
        sec = tm_sectional(M, fam, fp)
        j = fam.jets(t_sq)
        assert sec.vv[0, 1] == pytest.approx(j.H / (j.alpha * j.delta), rel=1e-13)

    def test_exp_metrics_not_constant_curvature(self):
        # flat base, t = 1: the sectional table of either exponential metric
        # takes at least two values more than 1e-6 apart
        M = euclidean(3)
        fp = adapted_frame(M, np.zeros(3), np.array([1.0, 0.0, 0.0]))
        for fam_name in ("exp+", "exp-"):
            sec = tm_sectional(M, preset(fam_name), fp)
            values = np.concatenate(
                [
                    sec.hh[~np.eye(3, dtype=bool)],
                    sec.vv[~np.eye(3, dtype=bool)],
                    sec.hv.ravel(),
                ]
            )
            assert values.max() - values.min() > 1e-6


class TestConstCurvShortcut:
    def test_zero_curvature_all_zero(self):
        cc = tm_sectional_constcurv(0.0, preset("sasaki"), 1.0, 3)
        assert np.max(np.abs(cc.hh)) == 0.0
        assert np.max(np.abs(cc.hv)) == 0.0

    def test_matches_general_on_sphere(self):
        M, fp = _sphere_point(1.0)
        for fam_name in ("sasaki", "exp+"):
            fam = preset(fam_name)
            sec = tm_sectional(M, fam, fp)
            cc = tm_sectional_constcurv(1.0, fam, fp.t, 2)
            assert np.allclose(cc.hh[0, 1], sec.hh[0, 1], atol=1e-10)
            assert np.allclose(cc.hv, sec.hv, atol=1e-10)
            assert np.allclose(cc.vv, sec.vv, atol=1e-12)

    def test_aligned_plane_discrepancy_flagged(self):
        # the linear shortcut variant is nonzero at i = j = 0, where the
        # general (quadratic) formula gives exactly zero
        cc = tm_sectional_constcurv(1.0, preset("sasaki"), 1.0, 2)
        assert cc.hv[0, 0] == 0.0
        assert cc.hv_shortcut[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert cc.shortcut_deviation == pytest.approx(0.5, abs=1e-15)


class TestRicci:
    def test_flat_sasaki_ricci_flat(self):
        M = euclidean(3)
        fp = adapted_frame(M, np.zeros(3), np.array([0.7, -0.2, 0.4]))
        assert np.max(np.abs(tm_ricci(M, preset("sasaki"), fp))) <= 1e-9

    def test_t_zero_reduces_to_base_ricci(self):
        M, fp = _sphere_point(0.0)
        ricci = tm_ricci(M, preset("cheeger-gromoll"), fp)
        base = base_invariants(M, fp).ricci
        assert np.allclose(ricci[:2, :2], base, atol=1e-12)

    def test_radial_vertical_component(self):
        M, fp = _sphere_point(1.0)
        fam = preset("exp+")
        ricci = tm_ricci(M, fam, fp)
        t_sq = fp.t**2
        n = 2
        j = fam.jets(t_sq)
        assert ricci[n, n] == pytest.approx((n - 1) * j.H / j.alpha, rel=1e-12)
        assert ricci[n, n + 1] == 0.0


class TestScalar:
    def test_flat_sasaki_zero(self):
        M = euclidean(2)
        fp = adapted_frame(M, np.zeros(2), np.array([1.0, 0.5]))
        assert tm_scalar(M, preset("sasaki"), fp) == 0.0

    def test_flat_exp_plus_at_origin(self):
        # n = 2, v = 0: general formula gives 2 H(0) / (alpha Delta) = -2
        M = euclidean(2)
        fp = adapted_frame(M, np.zeros(2), np.zeros(2))
        assert tm_scalar(M, preset("exp+"), fp) == pytest.approx(-2.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("which,fam_name", [("plus", "exp+"), ("minus", "exp-")])
    def test_specials_match_general_on_flat(self, n, which, fam_name):
        M = euclidean(n)
        fam = preset(fam_name)
        for v_sq in (0.0, 1.0, 4.0, 6.0):
            v = np.zeros(n)
            v[0] = math.sqrt(v_sq)
            fp = adapted_frame(M, np.zeros(n), v)
            general = tm_scalar(M, fam, fp)
            special = scalar_exp_specials(0.0, n, v_sq, which)
            assert general == pytest.approx(special, abs=1e-9)

    def test_specials_match_general_on_sphere(self):
        # two closed forms against each other on the unit sphere
        M, _ = _sphere_point()
        q = np.array([0.9, 0.3])
        g = M.metric(q)
        d = np.array([0.3, 0.7])
        for fam_name, which in (("exp+", "plus"), ("exp-", "minus")):
            fam = preset(fam_name)
            for t in (0.5, 1.0, 1.8):
                v = d / math.sqrt(d @ g @ d) * t
                fp = adapted_frame(M, q, v)
                general = tm_scalar(M, fam, fp)
                special = scalar_exp_specials(1.0, 2, t * t, which)
                assert general == pytest.approx(special, abs=1e-9)

    def test_plus_exp_negative_on_flat(self):
        for n in (2, 3, 4):
            for v_sq in (0.0, 0.5, 2.0, 10.0):
                assert scalar_exp_specials(0.0, n, v_sq, "plus") < 0.0

    def test_minus_exp_positive_on_flat_surface(self):
        for v_sq in (0.0, 1.0, 10.0):
            assert scalar_exp_specials(0.0, 2, v_sq, "minus") > 0.0

    def test_minus_exp_threshold(self):
        thr = minus_exp_flat_threshold(3)
        assert thr == pytest.approx(2.0 + math.sqrt(13.0), abs=1e-12)
        at_root = scalar_exp_specials(0.0, 3, thr, "minus")
        assert abs(at_root) <= 1e-9
        assert scalar_exp_specials(0.0, 3, thr - 1e-3, "minus") > 0.0
        assert scalar_exp_specials(0.0, 3, thr + 1e-3, "minus") < 0.0
        with pytest.raises(ValueError):
            minus_exp_flat_threshold(2)

    def test_bad_which(self):
        with pytest.raises(ValueError):
            scalar_exp_specials(0.0, 3, 1.0, "both")


@pytest.mark.parametrize(
    "src,dst",
    [("kilj", "ijkl"), ("kil", "ikl"), ("kij", "ijk"), ("jilk", "ijkl"), ("ijlk", "ijkl"),
     ("klij", "ijkl"), ("jikl", "ijkl"), ("klji", "ijkl")],
)
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_perm_is_the_einsum_view(src, dst, lead):
    # the transposes of _blocks and _assemble are the views einsum returns:
    # same memory, same strides, so what reads them gets the same bits
    a = np.random.default_rng(0).normal(size=lead + tuple(range(2, 2 + len(src))))
    expected = np.einsum(f"...{src}->...{dst}", a)
    got = _perm(a, src, dst)
    assert np.shares_memory(got, a)
    assert (got.shape, got.strides) == (expected.shape, expected.strides)
    assert np.array_equal(got, expected)


class TestNonFiniteValues:
    # a base curvature of 1e160 at the second point is finite, but its
    # square in the closed forms overflows: an error naming the quantity and
    # the point, and no RuntimeWarning (which the test configuration raises)
    @pytest.mark.parametrize("form, quantity", [
        (tm_curvature, "curvature"),
        (tm_sectional, "sectional curvature"),
        (tm_ricci, "ricci curvature"),
        (tm_scalar, "scalar curvature"),
    ])
    def test_overflow_names_the_quantity_and_the_point(self, monkeypatch, form, quantity):
        M = sphere(2)
        q = np.array([[0.9, 0.3], [1.0, 0.3], [1.1, 0.3]])
        v = np.array([[0.3, 0.7], [0.3, 0.7], [0.0, 0.5]])
        fp = adapted_frame(M, q, v)
        base = closedform.frame_curvature

        def huge(M, fp, include_nabla=True):
            frame = base(M, fp, include_nabla)
            scale = np.where(fp.q[:, 0] == 1.0, 1e160, 1.0)[:, None, None, None, None]
            nabla = None if frame.dRtable is None else frame.dRtable * scale[..., None]
            return FrameCurvature(Rtable=frame.Rtable * scale, dRtable=nabla)

        monkeypatch.setattr(closedform, "frame_curvature", huge)
        form(M, preset("sasaki"), fp[::2])
        with pytest.raises(NonFiniteError, match=re.escape(
                f"closed form: {quantity} of (TM, G) is not finite at x=[1.0, 0.3], v=[0.3, 0.7]")):
            form(M, preset("sasaki"), fp)
