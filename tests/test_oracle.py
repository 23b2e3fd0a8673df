"""Tests for the finite-difference curvature oracle and comparisons."""

import dataclasses
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbcurv.basemanifold import (
    ChartManifold,
    adapted_frame,
    euclidean,
    hyperbolic,
    rotate_completion,
    sphere,
)
from tbcurv.bundlemetric import BundlePoint
from tbcurv.closedform import (
    CLASS_NAMES,
    component_class_labels,
    component_class_masks,
    gram_diagonal,
    tm_curvature,
)
from tbcurv.errors import (
    ConditioningWarning,
    SingularMetricError,
    StencilOutOfDomainError,
    ValidityError,
)
from tbcurv.metricfamily import PRESET_NAMES, NaturalMetricFamily, flatness_beta, preset
from tbcurv import cli, oracle
from tbcurv.numdiff import ORACLE, Stencil, frame_components, matrix_jets, pointwise
from tbcurv.oracle import OracleConfig, calibrate_sign, compare, numeric_tm_curvature


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
            M, preset("sasaki"), adapted_frame(M, [0.1, -0.2], [0.5, 0.3])
        )
        assert np.max(np.abs(res.table)) <= 1e-10

    def test_flat_plus_flatness_family(self):
        M = euclidean(2)
        fam = NaturalMetricFamily("exp(t)", flatness_beta("exp(t)"), t_max=10.0)
        res = numeric_tm_curvature(M, fam, adapted_frame(M, [0.3, -0.2], [0.8, 0.4]))
        assert np.max(np.abs(res.table)) <= 1e-6

    def test_sphere_sasaki_matches_closed_form(self):
        M, q, v = _sphere_case(1.0)
        fam = preset("sasaki")
        fp = adapted_frame(M, q, v)
        closed = tm_curvature(M, fam, fp).table
        res = numeric_tm_curvature(M, fam, fp)
        assert np.max(np.abs(closed - res.table)) <= 1e-5

    def test_oracle_self_consistency(self):
        # antisymmetries, pair symmetry, first Bianchi of the raw table
        M, q, v = _sphere_case(1.2)
        res = numeric_tm_curvature(M, preset("cheeger-gromoll"), adapted_frame(M, q, v))
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
        res = numeric_tm_curvature(M, fam, fp)
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
            _, d1, d2 = matrix_jets(pointwise(fun), x, Stencil(h, richardson=True))
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
            res = numeric_tm_curvature(M, fam, fp_used)
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
        orc = numeric_tm_curvature(M, fam, fp2)
        assert np.max(np.abs(closed - orc.table)) <= 1e-5

    def test_conditioning_warning(self):
        M = ChartManifold(
            2,
            lambda x: np.diag([1e-4, 1e5]),
            lo=-np.ones(2) * 10,
            hi=np.ones(2) * 10,
        )
        with pytest.warns(ConditioningWarning):
            numeric_tm_curvature(M, preset("sasaki"), adapted_frame(M, [0, 0], [0, 0]))


@pytest.mark.parametrize(
    "rank,size",
    [(4, 2), (4, 5), (5, 3), (5, 5), (4, 6), (4, 10)],  # R and nabla R in n-frames, R of G in 2n-frames
)
def test_frame_components_equal_einsum(rank, size):
    rng = np.random.default_rng(rank * 100 + size)
    u = rng.normal(size=(size, size))
    tensor = rng.normal(size=(size,) * rank)
    letters = "abcde"[:rank]
    spec = ",".join(f"{c.upper()}{c}" for c in letters) + f",{letters}->{letters.upper()}"
    want = np.einsum(spec, *[u] * rank, tensor, optimize=True)  # the contraction it replaces
    np.testing.assert_allclose(frame_components(u, tensor), want, rtol=1e-12, atol=1e-12)


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
        orc = numeric_tm_curvature(M, fam, fp).table
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
        orc = numeric_tm_curvature(M, fam, fp).table
        masks = component_class_masks(2)
        closed[masks["hvhv"]] *= -1.0
        cal = calibrate_sign([closed], [orc], 2, abs_tol=1e-5)
        assert "hvhv" in cal.mixed_classes


# --------------------------------------------------------------------------
# The classes are one label array and calibration is one labelled
# reduction: both must give what the count-based masks and the class by
# table loop below give.
# --------------------------------------------------------------------------


def _reference_class_masks(n):
    two_n = 2 * n
    is_v = np.arange(two_n) >= n
    a = is_v[:, None, None, None]
    b = is_v[None, :, None, None]
    c = is_v[None, None, :, None]
    d = is_v[None, None, None, :]
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    count = a.astype(int) + b + c + d
    return {
        "hhhh": count == 0,
        "vvvv": count == 4,
        "hvvv": count == 3,
        "hhvh": count == 1,
        "vvhh": (count == 2) & ((a & b) | (c & d)),
        "hvhv": (count == 2) & ~((a & b) | (c & d)),
    }


def _reference_calibrate_sign(closed_tables, oracle_tables, n, abs_tol):
    """(sign, underdetermined, per_class, mixed_classes)."""
    floor = 100.0 * abs_tol
    masks = _reference_class_masks(n)
    per_class = {}
    total_dot = 0.0
    for name in CLASS_NAMES:
        mask = masks[name]
        dot = 0.0
        seen = False
        for closed, orc in zip(closed_tables, oracle_tables):
            c = closed[mask]
            o = orc[mask]
            keep = (np.abs(c) > floor) & (np.abs(o) > floor)
            if np.any(keep):
                seen = True
                dot += float(c[keep] @ o[keep])
        if not seen or dot == 0.0:
            per_class[name] = None
        else:
            per_class[name] = 1 if dot > 0 else -1
            total_dot += dot
    determined = [s for s in per_class.values() if s is not None]
    if not determined:
        return 1, True, per_class, ()
    sign = 1 if total_dot > 0 else -1
    mixed = tuple(name for name, s in per_class.items() if s is not None and s != sign)
    return sign, False, per_class, mixed


ABS_TOL = 1e-5  # floor 1e-3


def _calibration_tables(case, n, k, rng):
    """k closed and k oracle tables of the (2n)^4 shape for one case."""
    shape = (2 * n,) * 4
    masks = _reference_class_masks(n)
    closed = [rng.normal(size=shape) for _ in range(k)]
    orc = [c * rng.uniform(0.5, 1.5, size=shape) for c in closed]
    if case in ("negate one", "negate two"):
        names = rng.choice(CLASS_NAMES, size=1 if case == "negate one" else 2, replace=False)
        for c in closed:
            for name in names:
                c[masks[name]] *= -1.0
    elif case == "below floor":
        # one class is below the floor in every closed table, and the
        # others in part, in either table
        name = rng.choice(CLASS_NAMES)
        for c in closed:
            c[masks[name]] *= 1e-4
            small = rng.random(shape) < 0.7
            c[small] *= 1e-4
        for o in orc:
            small = rng.random(shape) < 0.3
            o[small] *= 1e-4
    elif case == "all zero":
        closed[0][...] = 0.0
        orc[-1][...] = 0.0
    elif case == "single kept":
        closed = [np.zeros(shape) for _ in range(k)]
        orc = [np.zeros(shape) for _ in range(k)]
        index = tuple(rng.integers(2 * n, size=4))
        closed[-1][index] = rng.choice([-1.0, 1.0]) * 0.5
        orc[-1][index] = rng.choice([-1.0, 1.0]) * 0.5
    elif case == "zero sum":
        closed = [np.zeros(shape) for _ in range(k)]
        orc = [np.zeros(shape) for _ in range(k)]
        first, second = np.argwhere(masks["vvhh"])[:2]
        closed[0][tuple(first)], orc[0][tuple(first)] = 2.0, 1.0
        closed[-1][tuple(second)], orc[-1][tuple(second)] = 2.0, -1.0
        closed[0][masks["hhhh"]] = orc[0][masks["hhhh"]] = -0.5
    elif case == "opposed classes":
        # two classes of opposite sign whose sums cancel: the total is 0
        closed = [np.zeros(shape) for _ in range(k)]
        orc = [np.zeros(shape) for _ in range(k)]
        closed[0][(0,) * 4], orc[0][(0,) * 4] = 2.0, 1.0
        closed[-1][(2 * n - 1,) * 4], orc[-1][(2 * n - 1,) * 4] = 2.0, -1.0
    return closed, orc


CALIBRATION_CASES = ("random", "negate one", "negate two", "below floor", "all zero",
                     "single kept", "zero sum", "opposed classes")


class TestLabelledCalibration:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_masks_equal_the_count_based_masks(self, n):
        masks = component_class_masks(n)
        reference = _reference_class_masks(n)
        assert list(masks) == list(CLASS_NAMES)
        for name in CLASS_NAMES:
            assert np.array_equal(masks[name], reference[name]), name

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_labels_are_cached_and_read_only(self, n):
        labels = component_class_labels(n)
        assert labels is component_class_labels(n)
        assert labels.shape == (2 * n,) * 4 and not labels.flags.writeable

    @pytest.mark.parametrize("case", CALIBRATION_CASES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_calibration_equals_the_class_by_table_loop(self, n, k, case):
        for seed in range(4):
            rng = np.random.default_rng([n, k, CALIBRATION_CASES.index(case), seed])
            closed, orc = _calibration_tables(case, n, k, rng)
            cal = calibrate_sign(closed, orc, n, ABS_TOL)
            sign, underdetermined, per_class, mixed = _reference_calibrate_sign(
                closed, orc, n, ABS_TOL
            )
            assert (cal.sign, cal.underdetermined, cal.mixed_classes) == (
                sign, underdetermined, mixed
            )
            assert list(cal.per_class.items()) == list(per_class.items())

    def test_cases_reach_each_outcome(self):
        # the cases above cover determined, undetermined and mixed classes,
        # both total signs, an underdetermined run and a zero class sum
        outcomes = set()
        for case in CALIBRATION_CASES:
            for n, k, seed in itertools.product([2, 3], [1, 3], range(4)):
                rng = np.random.default_rng([n, k, CALIBRATION_CASES.index(case), seed])
                cal = calibrate_sign(*_calibration_tables(case, n, k, rng), n, ABS_TOL)
                outcomes.add(("sign", cal.sign))
                outcomes.add(("underdetermined", cal.underdetermined))
                outcomes.add(("mixed", bool(cal.mixed_classes)))
                outcomes.update(("class sign", s) for s in cal.per_class.values())
        assert outcomes == {("sign", 1), ("sign", -1), ("underdetermined", True),
                            ("underdetermined", False), ("mixed", True), ("mixed", False),
                            ("class sign", 1), ("class sign", -1), ("class sign", None)}

    def test_zero_class_sum_is_undetermined(self):
        rng = np.random.default_rng(0)
        closed, orc = _calibration_tables("zero sum", 2, 2, rng)
        cal = calibrate_sign(closed, orc, 2, ABS_TOL)
        assert cal.per_class["vvhh"] is None
        assert (cal.sign, cal.underdetermined, cal.per_class["hhhh"]) == (1, False, 1)

    def test_zero_total_calibrates_to_minus_one(self):
        rng = np.random.default_rng(0)
        cal = calibrate_sign(*_calibration_tables("opposed classes", 2, 1, rng), 2, ABS_TOL)
        assert (cal.per_class["hhhh"], cal.per_class["vvvv"]) == (1, -1)
        assert (cal.sign, cal.underdetermined, cal.mixed_classes) == (-1, False, ("hhhh",))


class TestOracleConfig:
    # an infinite tolerance passes every component and a NaN one fails it
    # everywhere; a boolean is not a number
    def test_infinite_tol_abs_is_rejected(self):
        with pytest.raises(ValueError, match="tol_abs must be a positive finite number, got inf"):
            OracleConfig(tol_abs=math.inf)

    @pytest.mark.parametrize("key", ["tol_abs", "tol_rel"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1e-5, True, "1e-5", None])
    def test_tolerance_is_a_positive_finite_number(self, key, value):
        message = f"{key} must be a positive finite number, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            OracleConfig(**{key: value})

    def test_positive_numbers_are_kept(self):
        cfg = OracleConfig(tol_abs=1, tol_rel=np.float64(2e-3))
        assert (cfg.tol_abs, cfg.tol_rel) == (1, 2e-3)


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
        M, q, v = _sphere_case(0.5)
        rep = compare(M, preset("sasaki"), [BundlePoint(q, v)])[0]
        parsed = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
        assert parsed["passed"] is True
        assert parsed["sign"] == 1
        assert parsed["config"] == {"base_step": 1e-3, "tol_abs": 1e-5, "tol_rel": 1e-3}
        assert parsed["table_shape"] == [4, 4, 4, 4] and "deviations" not in parsed
        assert len(parsed["closed_table"]) == len(parsed["oracle_table"]) == 21
        table = full_table(parsed, "closed_table")
        assert np.max(np.abs(table - rep.closed)) <= 1e-14 * np.max(np.abs(rep.closed))
        assert re.fullmatch(r"pass   sphere\+sasaki t=0\.5 max_abs=\S+e-\d\d max_rel=\S+ sign=\+1",
                            rep.summary_line())

    def test_report_fields_explain_the_comparison(self):
        M, q, v = _sphere_case(1.2)
        rep = compare(M, preset("cheeger-gromoll"), [BundlePoint(q, v)])[0]
        doc = rep.to_json_dict()
        classes = doc["class_deviations"]
        assert list(classes) == ["hhhh", "vvvv", "hvvv", "vvhh", "hvhv", "hhvh"]
        assert max(c["max_abs_dev"] for c in classes.values()) == rep.max_abs_dev
        assert max(c["max_rel_dev"] for c in classes.values()) == rep.max_rel_dev
        worst = doc["worst_component"]
        assert component_class_masks(2)[worst["class"]][tuple(worst["index"])]
        dev = np.abs(rep.closed - rep.oracle)
        bound = 1e-5 + 1e-3 * np.maximum(np.abs(rep.closed), np.abs(rep.oracle))
        assert worst["dev_over_tol"] == np.max(dev / bound) < 1.0
        # the residual sees the oracle's rounding, far below the tolerance
        assert 0.0 < doc["oracle_symmetry_residual"] <= 1e-6
        assert doc["notes"] == []

    def test_hyperbolic_five_tables_rebuild_from_the_report(self):
        # 1035 of the 10000 components; the closed table meets its own
        # symmetries only to rounding (7.9e-31 absolute here), the raw
        # oracle table within a few times its symmetry residual
        M = hyperbolic(5)
        q = np.array([0.1, 0.2, -0.1, 0.05, 0.1])
        v = np.array([0.3, 0.1, 0.2, -0.1, 0.2])
        rep = compare(M, preset("exp+"), [BundlePoint(q, v)])[0]
        doc = json.loads(json.dumps(rep.to_json_dict()))
        assert len(doc["closed_table"]) == len(doc["oracle_table"]) == 1035
        closed = full_table(doc, "closed_table")
        assert np.max(np.abs(closed - rep.closed)) <= 1e-14 * np.max(np.abs(rep.closed))
        orc = full_table(doc, "oracle_table")
        assert np.max(np.abs(orc - rep.oracle)) <= 3.0 * doc["oracle_symmetry_residual"]

    @pytest.mark.parametrize("task_args", [
        ["--point", "0.2,-0.1,0.3", "--v", "0.5,0.1,-0.3"],
        ["--grid", '{"base_points": [[0.2, -0.1, 0.3], [0.1, 0.1, 0.0]], "v_norms": [0.4, 1.1]}'],
    ])
    def test_negated_closed_form_fails(self, monkeypatch, capsys, tmp_path, task_args):
        # one route with the opposite curvature sign: the sign calibrates to
        # -1 and no longer absorbs it
        closed_form = oracle.tm_curvature

        def negated(M, fam, fp):
            table = closed_form(M, fam, fp)
            return dataclasses.replace(table, table=-table.table)

        monkeypatch.setattr(oracle, "tm_curvature", negated)
        out = tmp_path / "r.json"
        args = ["verify", "--manifold", "sphere", "--dim", "3", "--family", "cheeger-gromoll",
                *task_args, "--out", str(out)]
        assert cli.main(args) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("FAIL ") and " sign=-1 " in line for line in lines)
        for report in json.loads(out.read_text())["reports"]:
            assert report["passed"] is False and report["sign"] == -1
            assert report["mixed_sign_classes"] == []
            assert "sign calibrates to -1" in " ".join(report["notes"])

    def test_flipped_class_is_reported_mixed(self, monkeypatch):
        # the hvhv-flip fixture of TestCalibration, through compare
        closed_form = oracle.tm_curvature
        mask = component_class_masks(2)["hvhv"]

        def flipped(M, fam, fp):
            res = closed_form(M, fam, fp)
            table = res.table.copy()
            table[..., mask] *= -1.0
            return dataclasses.replace(res, table=table)

        monkeypatch.setattr(oracle, "tm_curvature", flipped)
        M, q, v = _sphere_case(1.0)
        rep = compare(M, preset("sasaki"), [BundlePoint(q, v)])[0]
        assert not rep.passed and rep.sign == 1
        assert rep.mixed_sign_classes == ("hvhv",)
        assert rep.worst_component["class"] == "hvhv"
        assert rep.class_deviations["hvhv"]["max_abs_dev"] > 0.1
        assert rep.class_deviations["hhhh"]["max_abs_dev"] < 1e-5
        line = rep.summary_line()
        assert line.startswith("FAIL ") and " worst=hvhv[" in line and line.endswith(" mixed=hvhv")

    def test_ill_conditioned_metric_is_a_report_note(self):
        M = ChartManifold(2, lambda x: np.diag([1e-4, 1e5]), lo=-np.ones(2) * 10,
                          hi=np.ones(2) * 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            rep = compare(M, preset("sasaki"), [BundlePoint.of([0, 0], [0, 0])])[0]
        assert rep.status == "ok" and rep.cond > 1e8
        assert rep.notes == [f"bundle metric condition number {rep.cond:.3g} exceeds 1e8"]


def full_table(report, key):
    """The (2n)^4 table of a report's closed_table or oracle_table, by the
    expansion rule R_abcd = -R_bacd = -R_abdc = R_cdab (as in README)."""
    m = report["table_shape"][0]
    pairs = list(itertools.combinations(range(m), 2))  # a < b, row-major
    table = np.zeros((m,) * 4)
    values = iter(report[key])
    for p, (a, b) in enumerate(pairs):
        for c, d in pairs[p:]:
            r = next(values)
            table[a, b, c, d] = table[b, a, d, c] = table[c, d, a, b] = table[d, c, b, a] = r
            table[b, a, c, d] = table[a, b, d, c] = table[d, c, a, b] = table[c, d, b, a] = -r
    assert next(values, None) is None
    return table


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


    def test_fd_hyperbolic_exp_plus_large_v(self):
        # nabla R of finite-difference curvature on the Richardson NABLA_FD
        # stencil; on a plain 5e-4 stencil this point failed at 1.9x tolerance
        M = fd_only(hyperbolic(2))
        q = np.array([0.2, -0.3])
        g = M.metric(q)
        d = np.ones(2) / math.sqrt(np.ones(2) @ g @ np.ones(2))
        report = compare(M, preset("exp+"), [BundlePoint(q, 1.5 * d)])[0]
        assert report.status == "ok" and report.passed, report.summary_line()


class TestStencilEvaluation:
    """The oracle evaluates its whole stencil, centre and both Richardson
    levels, in one induced_metric call."""

    @staticmethod
    def counted(M, vectorized):
        calls = []

        def metric_fn(x):
            calls.append(np.shape(x))
            return M.metric_fn(x)

        fns = (M.christoffels_fn, M.christoffel_jacobian_fn) if vectorized else (None, None)
        return ChartManifold(M.dim, metric_fn, M.lo, M.hi, *fns, vectorized=vectorized), calls

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_vectorized_metric_call_on_catalog_charts(self, n):
        M, calls = self.counted(hyperbolic(n), vectorized=True)
        x = np.full(n, 0.1)
        fp = adapted_frame(M, x, np.full(n, 0.2))
        calls.clear()
        numeric_tm_curvature(M, preset("exp+"), fp)
        dim = 2 * n
        stencil_points = 2 * (2 * dim + 2 * dim * (dim - 1)) + 1  # 65 at n = 2, 145 at n = 3
        # the stack, and the base point of the frame vectors
        assert sorted(calls) == [(n,), (stencil_points, n)]

    def test_one_metric_evaluation_per_stencil_point_on_custom_charts(self):
        n = 2
        M, calls = self.counted(hyperbolic(n), vectorized=False)
        x = np.array([0.2, -0.3])
        fp = adapted_frame(M, x, np.array([0.3, 0.1]))
        calls.clear()
        numeric_tm_curvature(M, preset("exp+"), fp)
        # each stencil point and the frame's base point: g there, once, and
        # at the 4n other points of its Richardson Christoffel stencil
        assert len(calls) == (65 + 1) * (4 * n + 1)
        assert set(calls) == {(n,)}

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_spd_failure_names_the_stencil_point(self, vectorized):
        # g = diag(1, 1 - 2 x_0): positive definite at x_0 = 0.4995, not at
        # the stencil point x_0 + h, h = 1e-3
        def metric_fn(x):
            g = np.zeros(np.shape(x)[:-1] + (2, 2))
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = 1.0 - 2.0 * x[..., 0]
            return g

        M = ChartManifold(2, metric_fn, lo=-np.ones(2), hi=np.ones(2), vectorized=vectorized)
        x = np.array([0.4995, 0.0])
        bad = [float(x[0] + ORACLE.steps(x)[0]), 0.0]
        with pytest.raises(SingularMetricError, match=re.escape(f"x={bad}")):
            numeric_tm_curvature(M, preset("sasaki"), adapted_frame(M, x, np.zeros(2)))

    def test_validity_error_names_the_stencil_t(self):
        # valid at |v|^2 = 0.9999, but the stencil steps v_0 past t_max = 1
        fam = preset("sasaki", t_max=1.0)
        v = np.array([math.sqrt(0.9999), 0.0])
        t_bad = (v[0] + ORACLE.steps(v)[0]) ** 2
        with pytest.raises(ValidityError, match=f"t={t_bad:g} outside"):
            M = euclidean(2)
            numeric_tm_curvature(M, fam, adapted_frame(M, np.zeros(2), v))


class TestChartBoundary:
    def test_oracle_names_the_input_point(self):
        # the oracle's stencil (1e-3) reaches past theta = 0.1 from 0.1005;
        # the error names that point, not a stencil point
        M = sphere(2)
        with pytest.raises(StencilOutOfDomainError, match=r"\[0\.1005, 0\.3\]"):
            numeric_tm_curvature(M, preset("sasaki"), adapted_frame(M, [0.1005, 0.3], [0.0, 0.0]))
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
            numeric_tm_curvature(M, preset("sasaki"), adapted_frame(M, x, [0.1, 0.2]))
        assert repr(x[0]) in str(info.value)

    @pytest.mark.parametrize("custom", [False, True])
    def test_just_beyond_one_reach_runs(self, custom):
        M = fd_only(sphere(2)) if custom else sphere(2)
        x = np.array([M.lo[0], 0.3])
        x[0] += 1.01 * ORACLE.reach(x, inner=M.christoffel_reach)[0]
        res = numeric_tm_curvature(M, preset("sasaki"), adapted_frame(M, x, np.array([0.1, 0.2])))
        assert np.all(np.isfinite(res.table))
