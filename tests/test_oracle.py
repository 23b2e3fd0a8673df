"""Tests for the finite-difference curvature oracle and comparisons."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbcurv.basemanifold import (
    ChartManifold,
    adapted_frame,
    euclidean,
    rotate_completion,
    sphere,
)
from tbcurv.bundlemetric import BundlePoint
from tbcurv.closedform import component_class_masks, gram_diagonal, tm_curvature
from tbcurv.errors import ConditioningWarning, StencilOutOfDomainError
from tbcurv.metricfamily import PRESET_NAMES, NaturalMetricFamily, flatness_beta, preset
from tbcurv.numdiff import ORACLE, Stencil, matrix_jets
from tbcurv.oracle import calibrate_sign, compare, numeric_tm_curvature


def _sphere_case(t=1.0):
    M = sphere(2)
    q = np.array([0.9, 0.3])
    g = M.metric(q)
    v = np.array([0.3, 0.7])
    v = v / math.sqrt(v @ g @ v) * t
    return M, q, v


class TestNumericTable:
    def test_euclidean_sasaki_constant_metric(self):
        M = euclidean(2)
        res = numeric_tm_curvature(
            M, preset("sasaki"), BundlePoint.of([0.1, -0.2], [0.5, 0.3])
        )
        assert np.max(np.abs(res.table)) <= 1e-10

    def test_flat_plus_flatness_family(self):
        M = euclidean(2)
        fam = NaturalMetricFamily("exp(t)", flatness_beta("exp(t)"), t_max=10.0)
        res = numeric_tm_curvature(M, fam, BundlePoint.of([0.3, -0.2], [0.8, 0.4]))
        assert np.max(np.abs(res.table)) <= 1e-6

    def test_sphere_sasaki_matches_closed_form(self):
        M, q, v = _sphere_case(1.0)
        fam = preset("sasaki")
        fp = adapted_frame(M, q, v)
        closed = tm_curvature(M, fam, fp).table
        res = numeric_tm_curvature(M, fam, BundlePoint(q, v), fp=fp)
        assert np.max(np.abs(closed - res.table)) <= 1e-5

    def test_oracle_self_consistency(self):
        # antisymmetries, pair symmetry, first Bianchi of the raw table
        M, q, v = _sphere_case(1.2)
        res = numeric_tm_curvature(M, preset("cheeger-gromoll"), BundlePoint(q, v))
        T = res.table
        scale = np.max(np.abs(T)) + 1.0
        assert np.max(np.abs(T + T.transpose(1, 0, 2, 3))) <= 1e-6 * scale
        assert np.max(np.abs(T + T.transpose(0, 1, 3, 2))) <= 1e-6 * scale
        assert np.max(np.abs(T - T.transpose(2, 3, 0, 1))) <= 1e-6 * scale
        bianchi = T + np.einsum("jkil->ijkl", T) + np.einsum("kijl->ijkl", T)
        assert np.max(np.abs(bianchi)) <= 1e-6 * scale

    def test_vertical_block_shows_F_H_pattern(self):
        # flat base: vertical components are epsilon_ijkl times F or H
        M = euclidean(3)
        fam = preset("cheeger-gromoll")
        v = np.array([1.0, 0.0, 0.0])
        fp = adapted_frame(M, np.zeros(3), v)
        res = numeric_tm_curvature(M, fam, BundlePoint(np.zeros(3), v), fp=fp)
        f_val, h_val = fam.F(1.0), fam.H(1.0)
        vv = res.table[3:, 3:, 3:, 3:]
        assert vv[1, 2, 2, 1] == pytest.approx(f_val, abs=1e-6)
        assert vv[0, 1, 1, 0] == pytest.approx(h_val, abs=1e-6)
        assert abs(vv[1, 2, 1, 2] + f_val) <= 1e-6
        assert abs(vv[1, 2, 2, 0]) <= 1e-6  # epsilon pattern vanishes here

    def test_richardson_fourth_order_convergence(self):
        # halving h shrinks the Richardson error on an analytic matrix
        # function about 16x, first and second derivatives alike
        def fun(x):
            return np.array([[np.exp(x[0]) * np.sin(x[1]), x[0] ** 2 * x[1]],
                             [np.cos(x[0] * x[1]), np.exp(-x[1])]])

        x = np.array([0.4, -0.7])
        a, b = x
        dm = np.array([
            [[np.exp(a) * np.sin(b), 2 * a * b], [-b * np.sin(a * b), 0.0]],
            [[np.exp(a) * np.cos(b), a * a], [-a * np.sin(a * b), -np.exp(-b)]],
        ])
        d2m_01 = np.array([[np.exp(a) * np.cos(b), 2 * a],
                           [-np.sin(a * b) - a * b * np.cos(a * b), 0.0]])
        errs = []
        for h in (0.08, 0.04):
            _, d1, d2 = matrix_jets(fun, x, Stencil(h, richardson=True))
            errs.append((np.max(np.abs(d1 - dm)), np.max(np.abs(d2[0, 1] - d2m_01))))
        for coarse, fine in zip(*errs):
            assert 12.0 <= coarse / fine <= 20.0

    def test_frame_independence_of_invariants(self):
        M = sphere(3)
        fam = preset("exp-")
        q = np.array([0.2, -0.1, 0.3])
        g = M.metric(q)
        v = np.array([0.5, 0.1, -0.3])
        v = v / math.sqrt(v @ g @ v)
        fp = adapted_frame(M, q, v)
        gd = gram_diagonal(fam, fp.t, 3)

        def invariants(fp_used):
            res = numeric_tm_curvature(M, fam, BundlePoint(q, v), fp=fp_used)
            ricci = np.einsum("accb,c->ab", res.table, 1.0 / gd)
            scalar = float(np.einsum("aa,a->", ricci, 1.0 / gd))
            # eigenvalues of Ricci w.r.t. the orthonormalized frame
            ricci_on = ricci / np.sqrt(np.outer(gd, gd))
            return scalar, np.sort(np.linalg.eigvalsh(ricci_on))

        s1, eig1 = invariants(fp)
        rng = np.random.default_rng(4)
        rot, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        s2, eig2 = invariants(rotate_completion(fp, rot))
        assert s2 == pytest.approx(s1, abs=1e-6)
        assert np.allclose(eig1, eig2, atol=1e-6)

    def test_dimension_four(self):
        # nothing in the engine is specialized to n <= 3
        M = euclidean(4)
        fam = preset("cheeger-gromoll")
        d = np.array([1.0, 2.0, -1.0, 0.5])
        v = d / np.linalg.norm(d) * 1.1
        rep = compare(M, fam, [BundlePoint(np.zeros(4), v)])[0]
        assert rep.passed and rep.sign == 1

    def test_agrees_on_rotated_completion_frame(self):
        # closed form and oracle stay in lockstep for any normal-form frame,
        # not just the Gram-Schmidt completion
        M = sphere(3)
        fam = preset("cheeger-gromoll")
        q = np.array([0.2, -0.1, 0.3])
        g = M.metric(q)
        v = np.array([0.5, 0.1, -0.3])
        v = v / math.sqrt(v @ g @ v) * 1.2
        fp = adapted_frame(M, q, v)
        rng = np.random.default_rng(13)
        rot, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        fp2 = rotate_completion(fp, rot)
        closed = tm_curvature(M, fam, fp2).table
        orc = numeric_tm_curvature(M, fam, BundlePoint(q, v), fp=fp2)
        assert np.max(np.abs(closed - orc.table)) <= 1e-5

    def test_conditioning_warning(self):
        M = ChartManifold(
            2,
            lambda x: np.diag([1e-4, 1e5]),
            lo=-np.ones(2) * 10,
            hi=np.ones(2) * 10,
        )
        with pytest.warns(ConditioningWarning):
            numeric_tm_curvature(M, preset("sasaki"), BundlePoint.of([0, 0], [0, 0]))


class TestCalibration:
    def test_flat_underdetermined(self):
        zero = [np.zeros((4, 4, 4, 4))]
        cal = calibrate_sign(zero, zero, 2, abs_tol=1e-5)
        assert cal.underdetermined and cal.sign == 1

    def test_sphere_consistent_sign(self):
        M, q, v = _sphere_case(1.0)
        fam = preset("cheeger-gromoll")
        fp = adapted_frame(M, q, v)
        closed = tm_curvature(M, fam, fp).table
        orc = numeric_tm_curvature(M, fam, BundlePoint(q, v), fp=fp).table
        cal = calibrate_sign([closed], [orc], 2, abs_tol=1e-5)
        assert not cal.underdetermined
        assert cal.sign == 1
        assert cal.mixed_classes == ()

    def test_negated_mixed_block_flags_erratum(self):
        # fixture: flip the sign of the hvhv class only; calibration must
        # report the mixed-sign erratum instead of absorbing it
        M, q, v = _sphere_case(1.0)
        fam = preset("sasaki")
        fp = adapted_frame(M, q, v)
        closed = tm_curvature(M, fam, fp).table.copy()
        orc = numeric_tm_curvature(M, fam, BundlePoint(q, v), fp=fp).table
        masks = component_class_masks(2)
        closed[masks["hvhv"]] *= -1.0
        cal = calibrate_sign([closed], [orc], 2, abs_tol=1e-5)
        assert "hvhv" in cal.mixed_classes


class TestCompare:
    def test_three_passing_reports(self):
        M, q, _ = _sphere_case()
        g = M.metric(q)
        d = np.array([0.3, 0.7]) / math.sqrt(
            np.array([0.3, 0.7]) @ g @ np.array([0.3, 0.7])
        )
        points = [BundlePoint(q, d * t) for t in (0.0, 0.5, 1.5)]
        reports = compare(M, preset("sasaki"), points)
        assert len(reports) == 3
        assert all(r.status == "ok" and r.passed for r in reports)
        assert all(r.sign == 1 for r in reports)

    def test_invalid_point_isolated(self):
        M = euclidean(2)
        fam = preset("sasaki", t_max=4.0)
        points = [
            BundlePoint.of([0, 0], [1.0, 0.0]),
            BundlePoint.of([0, 0], [3.0, 0.0]),  # |v|^2 = 9 > t_max
        ]
        reports = compare(M, fam, points)
        assert reports[0].status == "ok" and reports[0].passed
        assert reports[1].status == "error"
        assert "ValidityError" in reports[1].error

    def test_report_json_roundtrip(self):
        import json

        M, q, v = _sphere_case(0.5)
        rep = compare(M, preset("sasaki"), [BundlePoint(q, v)])[0]
        text = json.dumps(rep.to_json_dict(), sort_keys=True)
        parsed = json.loads(text)
        assert parsed["passed"] is True
        assert parsed["sign"] == 1
        assert parsed["config"] == {"base_step": 1e-3, "tol_abs": 1e-5, "tol_rel": 1e-3}
        table = np.array(parsed["closed_table"]).reshape(parsed["table_shape"])
        assert np.allclose(table, rep.closed)


def fd_only(M):
    """The chart without its analytic connection data."""
    return ChartManifold(M.dim, M.metric_fn, lo=M.lo, hi=M.hi, params=M.params)


class TestCustomCharts:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_fd_sphere_passes_compare(self, name):
        # the custom-chart Christoffel symbols are differentiated twice more
        # by the oracle; their step keeps that within default tolerances
        M = fd_only(sphere(2))
        q = np.array([1.0, 0.3])
        g = M.metric(q)
        d = np.array([0.3, 0.7])
        d = d / math.sqrt(d @ g @ d)
        reports = compare(M, preset(name), [BundlePoint(q, t * d) for t in (0.5, 0.8, 1.2)])
        assert [r.passed for r in reports] == [True, True, True]


class TestChartBoundary:
    def test_oracle_names_the_input_point(self):
        # the oracle's stencil (1e-3) reaches past theta = 0.1 from 0.1005;
        # the error names that point, not a stencil point
        M = sphere(2)
        with pytest.raises(StencilOutOfDomainError, match=r"\[0\.1005, 0\.3\]"):
            numeric_tm_curvature(M, preset("sasaki"), BundlePoint.of([0.1005, 0.3], [0.0, 0.0]))
        report = compare(M, preset("sasaki"), [BundlePoint.of([0.1005, 0.3], [0.2, 0.1])])[0]
        assert report.status == "error"
        assert "StencilOutOfDomainError" in report.error and "[0.1005, 0.3]" in report.error

    @given(st.floats(min_value=0.0, max_value=0.999), st.sampled_from([0, 1]))
    @settings(max_examples=40, deadline=None)
    def test_within_one_reach_of_the_edge(self, frac, custom):
        # polar sphere, theta inside the chart but closer to its lower edge
        # than the oracle's reach (Christoffel stencils included)
        M = fd_only(sphere(2)) if custom else sphere(2)
        probe = np.array([M.lo[0], 0.3])
        reach = ORACLE.reach(probe, inner=M.christoffel_reach)[0]
        x = [float(M.lo[0] + frac * reach), 0.3]
        with pytest.raises(StencilOutOfDomainError) as info:
            numeric_tm_curvature(M, preset("sasaki"), BundlePoint.of(x, [0.1, 0.2]))
        assert repr(x[0]) in str(info.value)

    @pytest.mark.parametrize("custom", [False, True])
    def test_just_beyond_one_reach_runs(self, custom):
        M = fd_only(sphere(2)) if custom else sphere(2)
        x = np.array([M.lo[0], 0.3])
        x[0] += 1.01 * ORACLE.reach(x, inner=M.christoffel_reach)[0]
        res = numeric_tm_curvature(M, preset("sasaki"), BundlePoint(x, np.array([0.1, 0.2])))
        assert np.all(np.isfinite(res.table))
