"""Tests for the finite-difference curvature oracle and comparisons."""

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
    conformal_polynomial,
    euclidean,
    hyperbolic,
    sphere,
)
from tbcurv.bundlemetric import adapted_frame_vectors, induced_metric
from tbcurv.closedform import (
    CLASS_NAMES,
    component_class_labels,
    component_class_masks,
    tm_curvature,
)
from tbcurv.errors import (
    NonFiniteError,
    SingularMetricError,
    StencilOutOfDomainError,
    ValidityError,
)
from tbcurv.metricfamily import PRESET_NAMES, NaturalMetricFamily, flatness_beta, preset
from tbcurv import cli, oracle
from tbcurv.numdiff import (
    ORACLE,
    Stencil,
    frame_components,
    levi_civita,
    matrix_jets,
    pointwise,
    riemann_from_christoffels,
)
from tbcurv.oracle import CurvatureReport, OracleConfig, compare, numeric_tm_curvature

from references import gram_diagonal, rotate_completion


NEGATED_NOTE = "the closed form is the negated oracle, within tolerance, in classes: "


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
        closed = tm_curvature(M, fam, fp)
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
        j = fam.jets(1.0)
        f_val, h_val = j.F, j.H
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
        rep = compare(M, fam, [np.zeros(4)], [v])[0]
        assert rep.passed

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
        closed = tm_curvature(M, fam, fp2)
        orc = numeric_tm_curvature(M, fam, fp2)
        assert np.max(np.abs(closed - orc.table)) <= 1e-5

    def test_conditioning_warning(self):
        # the condition number is the result's cond, not a warning
        M = ChartManifold(
            2,
            pointwise(lambda x: np.diag([1e-4, 1e5])),
            lo=-np.ones(2) * 10,
            hi=np.ones(2) * 10,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = numeric_tm_curvature(M, preset("sasaki"), adapted_frame(M, [0, 0], [0, 0]))
        assert res.cond > 1e8


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


# --------------------------------------------------------------------------
# The classes are one label array: it must give what the count-based masks
# below give.
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


class TestClassLabels:
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


# --------------------------------------------------------------------------
# A report's comparison is one labelled reduction over its tables: it must
# give what a class-by-class loop over the count-based masks gives.
# --------------------------------------------------------------------------


def _reference_finalize(closed, orc, n, abs_tol, rel_tol):
    """(passed, max_abs_dev, max_rel_dev, class_deviations, worst_component,
    negated_classes), one class at a time."""
    masks = _reference_class_masks(n)
    class_deviations = {}
    negated = []
    passed = True
    worst_over = -1.0
    worst_index = None
    worst_class = None
    for name in CLASS_NAMES:
        mask = masks[name]
        c, o = closed[mask], orc[mask]
        dev = np.abs(c - o)
        scale = np.maximum(np.abs(c), np.abs(o))
        bound = abs_tol + rel_tol * scale
        kept = scale > abs_tol
        rel = np.zeros_like(dev)
        rel[kept] = dev[kept] / scale[kept]
        class_deviations[name] = {"max_abs_dev": float(dev.max()),
                                  "max_rel_dev": float(rel.max())}
        if np.any(dev > bound):
            passed = False
            if np.all(np.abs(c + o) <= bound):
                negated.append(name)
        # the first component, in row-major order, of the largest dev / bound
        over = dev / bound
        first = np.argwhere(mask)[np.flatnonzero(over == over.max())[0]]
        if over.max() > worst_over or (
            over.max() == worst_over and tuple(first) < tuple(worst_index)
        ):
            worst_over, worst_index, worst_class = float(over.max()), first, name
    worst = {"index": [int(i) for i in worst_index], "class": worst_class,
             "dev_over_tol": worst_over}
    max_abs = max(d["max_abs_dev"] for d in class_deviations.values())
    max_rel = max(d["max_rel_dev"] for d in class_deviations.values())
    return passed, max_abs, max_rel, class_deviations, worst, tuple(negated)


FINALIZE_CONFIGS = (OracleConfig(), OracleConfig(tol_abs=1e-9, tol_rel=1e-7),
                    OracleConfig(tol_abs=1e-2, tol_rel=0.5))
FINALIZE_CASES = ("agree", "noise", "negate one", "negate two", "negate and perturb",
                  "below floor", "all zero", "single off")


def _finalize_tables(case, n, cfg, rng):
    """A closed and an oracle table of the (2n)^4 shape for one case."""
    shape = (2 * n,) * 4
    masks = _reference_class_masks(n)
    closed = rng.normal(size=shape)
    # within every bound: |dev| <= (tol_abs + tol_rel |closed|) / 2
    orc = (closed * (1.0 + 0.5 * cfg.tol_rel * rng.uniform(-1, 1, size=shape))
           + 0.5 * cfg.tol_abs * rng.uniform(-1, 1, size=shape))
    names = rng.choice(CLASS_NAMES, size=2, replace=False)
    if case == "noise":
        orc = closed * rng.uniform(0.5, 1.5, size=shape)
    elif case in ("negate one", "negate and perturb"):
        closed[masks[names[0]]] *= -1.0
    elif case == "negate two":
        for name in names:
            closed[masks[name]] *= -1.0
    if case == "negate and perturb":
        # one component of a second class outside its bound, not negated
        index = tuple(rng.choice(np.argwhere(masks[names[1]])))
        orc[index] += 10.0 * (cfg.tol_abs + cfg.tol_rel * abs(closed[index])) + 1.0
    elif case == "below floor":
        # a negated class below tol_abs, and components of the others
        # whose scale is below it
        closed[masks[names[0]]] *= -0.1 * cfg.tol_abs
        orc[masks[names[0]]] *= 0.1 * cfg.tol_abs
        small = rng.random(shape) < 0.3
        closed[small] *= 0.1 * cfg.tol_abs
        orc[small] *= 0.1 * cfg.tol_abs
    elif case == "all zero":
        closed[...] = orc[...] = 0.0
    elif case == "single off":
        closed[...] = orc[...] = 0.0
        index = tuple(rng.integers(2 * n, size=4))
        closed[index] = 1.0
        orc[index] = rng.choice([-1.0, 0.5])
    return closed, orc


def _finalized(closed, orc, cfg):
    report = CurvatureReport(manifold_id="test", manifold_params={}, family_name="test",
                             x=[], v=[], t=0.0, config=cfg.to_dict(), closed=closed,
                             oracle=orc, cond=1.0)
    report.finalize(cfg.tol_abs, cfg.tol_rel)
    return report


class TestLabelledFinalize:
    @pytest.mark.parametrize("cfg", FINALIZE_CONFIGS, ids=["default", "tight", "loose"])
    @pytest.mark.parametrize("case", FINALIZE_CASES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_finalize_equals_the_class_by_class_loop(self, n, case, cfg):
        for seed in range(4):
            rng = np.random.default_rng(
                [n, FINALIZE_CASES.index(case), FINALIZE_CONFIGS.index(cfg), seed]
            )
            closed, orc = _finalize_tables(case, n, cfg, rng)
            report = _finalized(closed, orc, cfg)
            passed, max_abs, max_rel, class_deviations, worst, negated = _reference_finalize(
                closed, orc, n, cfg.tol_abs, cfg.tol_rel
            )
            assert (report.passed, report.max_abs_dev, report.max_rel_dev) == (
                passed, max_abs, max_rel
            )
            assert list(report.class_deviations.items()) == list(class_deviations.items())
            assert report.worst_component == worst
            assert report.negated_classes == negated
            assert report.notes == ([NEGATED_NOTE + ", ".join(negated)] if negated else [])

    def test_cases_reach_each_outcome(self):
        # the cases above cover a pass and a fail, none, one and two negated
        # classes, a fail with no class negated, and a zero worst component
        outcomes = set()
        for case, cfg in itertools.product(FINALIZE_CASES, FINALIZE_CONFIGS):
            for n, seed in itertools.product([2, 3], range(4)):
                rng = np.random.default_rng(
                    [n, FINALIZE_CASES.index(case), FINALIZE_CONFIGS.index(cfg), seed]
                )
                report = _finalized(*_finalize_tables(case, n, cfg, rng), cfg)
                outcomes.add(("passed", report.passed))
                outcomes.add(("negated", len(report.negated_classes)))
                outcomes.add(("fail, none negated",
                              not report.passed and not report.negated_classes))
                outcomes.add(("zero worst", report.worst_component["dev_over_tol"] == 0.0))
        assert outcomes == {("passed", True), ("passed", False), ("negated", 0),
                            ("negated", 1), ("negated", 2), ("fail, none negated", True),
                            ("fail, none negated", False), ("zero worst", True),
                            ("zero worst", False)}

    def test_negated_class_below_tol_abs_passes(self):
        # a class of opposite sign whose components are all below tol_abs is
        # within its bound: the report passes and names no class
        cfg = OracleConfig()
        rng = np.random.default_rng(0)
        closed, orc = _finalize_tables("below floor", 2, cfg, rng)
        report = _finalized(closed, orc, cfg)
        assert report.passed and report.negated_classes == () and report.notes == []


class TestOracleConfig:
    # an infinite tolerance passes every component and a NaN one fails it
    # everywhere; a boolean is not a number; a tol_rel of 1 or more would
    # pass a sign flip of any size
    def test_infinite_tol_abs_is_rejected(self):
        with pytest.raises(ValueError, match="tol_abs must be a positive finite number, got inf"):
            OracleConfig(tol_abs=math.inf)

    @pytest.mark.parametrize("value,key", [
        *itertools.product([math.inf, -math.inf, math.nan, 0.0, -1e-5, True, "1e-5", None,
                            10**400],
                           ["tol_abs", "tol_rel"]),
        (1.0, "tol_rel"), (2.5, "tol_rel"),
    ])
    def test_tolerance_is_a_positive_finite_number(self, key, value):
        below_one = isinstance(value, float) and 1.0 <= value < math.inf
        rule = "must be below 1" if below_one else "must be a positive finite number"
        got = "inf" if value == 10**400 else repr(value)  # as the command line reads it
        message = f"{key} {rule}, got {got}"
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
        ts = (0.0, 0.5, 1.5)
        reports = compare(M, preset("sasaki"), [q] * len(ts), [d * t for t in ts])
        assert len(reports) == 3
        assert all(r.status == "ok" and r.passed for r in reports)

    def test_invalid_point_isolated(self):
        M = euclidean(2)
        fam = preset("sasaki", t_max=4.0)
        # the second |v|^2 = 9 > t_max
        reports = compare(M, fam, [[0, 0], [0, 0]], [[1.0, 0.0], [3.0, 0.0]])
        assert reports[0].status == "ok" and reports[0].passed
        assert reports[1].status == "error"
        assert "ValidityError" in reports[1].error

    def test_report_json_roundtrip(self):
        M, q, v = _sphere_case(0.5)
        rep = compare(M, preset("sasaki"), [q], [v])[0]
        parsed = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
        assert parsed["passed"] is True
        assert parsed["config"] == {"base_step": 1e-3, "tol_abs": 1e-5, "tol_rel": 1e-3}
        assert parsed["table_shape"] == [4, 4, 4, 4] and "deviations" not in parsed
        assert len(parsed["closed_table"]) == len(parsed["oracle_table"]) == 21
        table = full_table(parsed, "closed_table")
        assert np.max(np.abs(table - rep.closed)) <= 1e-14 * np.max(np.abs(rep.closed))
        assert re.fullmatch(r"pass   sphere\+sasaki t=0\.5 max_abs=\S+e-\d\d max_rel=\S+",
                            rep.summary_line())

    def test_report_fields_explain_the_comparison(self):
        M, q, v = _sphere_case(1.2)
        rep = compare(M, preset("cheeger-gromoll"), [q], [v])[0]
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
        rep = compare(M, preset("exp+"), [q], [v])[0]
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
        # one route with the opposite curvature sign fails at every point,
        # and each line names the classes the oracle's negative would pass
        closed_form = oracle.tm_curvature

        def negated(M, fam, fp):
            return -closed_form(M, fam, fp)

        monkeypatch.setattr(oracle, "tm_curvature", negated)
        out = tmp_path / "r.json"
        args = ["verify", "--manifold", "sphere", "--dim", "3", "--family", "cheeger-gromoll",
                *task_args, "--out", str(out)]
        assert cli.main(args) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("FAIL ") for line in lines)
        assert all(line.endswith(" negated=hhhh,vvvv,vvhh,hvhv") for line in lines)
        for report in json.loads(out.read_text())["reports"]:
            assert report["passed"] is False
            assert report["notes"] == [NEGATED_NOTE + "hhhh, vvvv, vvhh, hvhv"]

    @staticmethod
    def flip_class(monkeypatch, name):
        """Let compare see the closed form with the sign of one class of
        n = 2 flipped."""
        closed_form = oracle.tm_curvature
        mask = component_class_masks(2)[name]

        def flipped(M, fam, fp):
            table = closed_form(M, fam, fp)
            table[..., mask] *= -1.0
            return table

        monkeypatch.setattr(oracle, "tm_curvature", flipped)

    def test_flipped_class_is_reported_negated(self, monkeypatch):
        self.flip_class(monkeypatch, "hvhv")
        M, q, v = _sphere_case(1.0)
        rep = compare(M, preset("sasaki"), [q], [v])[0]
        assert not rep.passed
        assert rep.negated_classes == ("hvhv",) and rep.notes == [NEGATED_NOTE + "hvhv"]
        assert rep.worst_component["class"] == "hvhv"
        assert rep.class_deviations["hvhv"]["max_abs_dev"] > 0.1
        assert rep.class_deviations["hhhh"]["max_abs_dev"] < 1e-5
        line = rep.summary_line()
        assert line.startswith("FAIL ") and " worst=hvhv[" in line and line.endswith(" negated=hvhv")

    def test_a_failing_point_leaves_its_neighbour_alone(self, monkeypatch):
        # hhvh flipped: at v = 0 that class vanishes, so B is within every
        # bound; A fails in hhvh alone.  A sign pooled over the call failed B
        # and named hhhh, vvhh and hvhv for both.
        self.flip_class(monkeypatch, "hhvh")
        M, fam = conformal_polynomial(2, [[0.3, 1, 0], [0.2, 1, 2]]), preset("sasaki")
        x, va, vb = [0.2, 0.3], [0.8, 0.5], [0.0, 0.0]
        rep_a, rep_b = compare(M, fam, [x, x], [va, vb])
        assert rep_b.passed and rep_b.notes == []
        assert rep_b.to_json_dict() == compare(M, fam, [x], [vb])[0].to_json_dict()
        assert not rep_a.passed and rep_a.negated_classes == ("hhvh",)
        assert rep_a.summary_line().endswith(" negated=hhvh")

    def test_ill_conditioned_metric_is_a_report_note(self):
        M = ChartManifold(2, pointwise(lambda x: np.diag([1e-4, 1e5])), lo=-np.ones(2) * 10,
                          hi=np.ones(2) * 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = compare(M, preset("sasaki"), [[0, 0]], [[0, 0]])[0]
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
        ts = (0.5, 0.8, 1.2)
        reports = compare(M, preset(name), [q] * len(ts), [t * d for t in ts])
        assert [r.passed for r in reports] == [True, True, True]


    def test_fd_hyperbolic_exp_plus_large_v(self):
        # nabla R of finite-difference curvature on the Richardson NABLA_FD
        # stencil; on a plain 5e-4 stencil this point failed at 1.9x tolerance
        M = fd_only(hyperbolic(2))
        q = np.array([0.2, -0.3])
        g = M.metric(q)
        d = np.ones(2) / math.sqrt(np.ones(2) @ g @ np.ones(2))
        report = compare(M, preset("exp+"), [q], [1.5 * d])[0]
        assert report.status == "ok" and report.passed, report.summary_line()


# Distinct x parts of the oracle's stencil at a base point with no -0.0
# coordinate: the 1 + 4n^2 offsets of the n-dimensional stencil,
# since x_p + (+-0.0) has the bits of x_p.
BASE_ROWS = {2: 17, 3: 37}


class TestStencilEvaluation:
    """The oracle evaluates the chart once per distinct base point of its
    stencil, all of them in one call, and G on the whole stencil (centre
    and both Richardson levels) in one evaluation."""

    @staticmethod
    def counted(M, analytic):
        """M with a counted metric function, or unless analytic its
        metric-only chart, evaluated point by point."""
        calls = []

        def metric_fn(x):
            calls.append(np.array(x))
            return M.metric_fn(x)

        if not analytic:
            return ChartManifold(M.dim, pointwise(metric_fn), M.lo, M.hi), calls
        fns = (M.christoffels_fn, M.christoffel_jacobian_fn)
        return ChartManifold(M.dim, metric_fn, M.lo, M.hi, *fns), calls

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_vectorized_metric_call_on_catalog_charts(self, n):
        M, calls = self.counted(hyperbolic(n), analytic=True)
        x = np.full(n, 0.1)
        fp = adapted_frame(M, x, np.full(n, 0.2))
        calls.clear()
        numeric_tm_curvature(M, preset("exp+"), fp)
        # the distinct base points of the stencil (17 at n = 2, 37 at n = 3,
        # of 65 and 145 stencil points), and the base point of the frame vectors
        assert sorted(np.shape(c) for c in calls) == [(n,), (BASE_ROWS[n], n)]

    def test_one_metric_evaluation_per_stencil_point_on_custom_charts(self):
        n = 2
        M, calls = self.counted(hyperbolic(n), analytic=False)
        x = np.array([0.2, -0.3])
        fp = adapted_frame(M, x, np.array([0.3, 0.1]))
        calls.clear()
        numeric_tm_curvature(M, preset("exp+"), fp)
        # each distinct base point of the stencil and the frame's base point:
        # g there, once, and at the 4n other points of its Richardson
        # Christoffel stencil
        assert len(calls) == (BASE_ROWS[n] + 1) * (4 * n + 1)
        assert {np.shape(c) for c in calls} == {(n,)}

    def test_a_grid_of_one_base_point_calls_the_chart_once(self):
        # 1 base point x 2 directions x 2 norms: the four stencils share
        # their x parts, so the chart sees one call with the rows of a
        # single point's stencil, then the frame vectors' base points
        n = 2
        M, calls = self.counted(hyperbolic(n), analytic=True)
        x = np.array([0.2, -0.3])
        d = np.array([[1.0, 0.0], [0.3, -0.5]])
        v = (d[:, None, :] * np.array([0.5, 1.2])[:, None]).reshape(-1, n)
        fp = adapted_frame(M, np.broadcast_to(x, v.shape), v)
        rows = []
        for point in (fp[0], fp):
            calls.clear()
            numeric_tm_curvature(M, preset("exp+"), point)
            assert len(calls) == 2 and np.array_equal(_bits(calls[1]), _bits(point.q))
            rows.append(calls[0])
        assert rows[1].shape == (BASE_ROWS[n], n)
        assert np.array_equal(_bits(rows[1]), _bits(rows[0]))

    @pytest.mark.parametrize("per_point", [False, True])
    def test_spd_failure_names_the_stencil_point(self, per_point):
        # g = diag(1, 1 - 2 x_0): positive definite at x_0 = 0.4995, not at
        # the stencil point x_0 + h, h = 1e-3
        def metric_fn(x):
            g = np.zeros(np.shape(x)[:-1] + (2, 2))
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = 1.0 - 2.0 * x[..., 0]
            return g

        metric = pointwise(metric_fn) if per_point else metric_fn
        M = ChartManifold(2, metric, lo=-np.ones(2), hi=np.ones(2))
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


def _old_offsets(steps, second):
    """The stencil offsets of one level as sums of steps, the construction
    that ``Stencil.units`` scales: +-h_p e_p, then the corners."""
    dim = steps.shape[-1]
    e = steps[..., None, :] * np.eye(dim)
    rows = [np.stack([e, -e], axis=-2)]
    if second:
        p, q = np.triu_indices(dim, 1)
        ep, eq = e[..., p, :], e[..., q, :]
        rows.append(np.stack([ep + eq, ep - eq, -ep + eq, -ep - eq], axis=-2))
    return np.concatenate([r.reshape(steps.shape[:-1] + (-1, dim)) for r in rows], axis=-2)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _stencil_points(x, stencil, second=True):
    """The points ``matrix_jets`` hands to its function."""
    seen = []

    def record(z):
        seen.append(z)
        return np.zeros(z.shape[:-1] + (1, 1))

    matrix_jets(record, x, stencil, second=second)
    return seen[0]


def _plain_oracle(M, fam, fp):
    """The oracle's table with G from ``induced_metric`` at every stencil
    point, the chart evaluated there too."""
    n = M.dim
    z0 = np.concatenate([fp.q, fp.v], axis=-1)
    g0, dg, d2g = matrix_jets(
        lambda z: induced_metric(M, fam, z[..., :n], z[..., n:], check=False),
        z0, ORACLE,
    )
    rlow = riemann_from_christoffels(g0, *levi_civita(g0, dg, d2g))
    return frame_components(adapted_frame_vectors(M, fp), rlow)


class TestStencilTables:
    """The per-dimension tables of the stencils are built once, read-only,
    and give the points of the sums they replace, bit for bit."""

    @pytest.mark.parametrize("stencil", [ORACLE, Stencil(2e-3, richardson=False)])
    @pytest.mark.parametrize("second", [True, False])
    @pytest.mark.parametrize("dim", [2, 3, 6, 10])
    def test_units_give_the_old_stencil_points(self, dim, second, stencil):
        rng = np.random.default_rng(dim)
        x = rng.normal(scale=3.0, size=(2, dim))
        x[0, 0], x[1, -1] = -0.0, 0.0
        steps = stencil.steps(x)
        offsets = [np.zeros(x.shape[:-1] + (1, dim)), _old_offsets(steps, second)]
        if stencil.richardson:
            offsets.append(_old_offsets(steps / 2.0, second))
        old = x[..., None, :] + np.concatenate(offsets, axis=-2)
        units = stencil.units(dim, second)
        assert not units.flags.writeable
        assert units is stencil.units(dim, second)
        scaled = steps[..., None, :] * units
        assert np.array_equal(_bits(scaled), _bits(np.concatenate(offsets, axis=-2)))
        assert np.array_equal(_bits(_stencil_points(x, stencil, second)), _bits(old))

    @pytest.mark.parametrize("chart", ["sphere2", "sphere3", "hyperbolic5", "torus3",
                                       "euclidean4", "pointwise2"])
    def test_oracle_equals_induced_metric_on_the_full_stencil(self, chart):
        M, x = {
            "sphere2": (sphere(2), [0.9, -0.0]),
            "sphere3": (sphere(3), [0.1, -0.0, 0.2]),
            "hyperbolic5": (hyperbolic(5), [0.1, 0.05, -0.0, 0.02, 0.1]),
            "torus3": (conformal_polynomial(3, [[0.1, 1, 1, 0], [0.04, 0, 2, 1]]),
                       [0.2, -0.0, 0.3]),
            "euclidean4": (euclidean(4), [1.0, 2.0, -0.0, 0.0]),
            "pointwise2": (ChartManifold(2, pointwise(lambda x: np.diag([1.0 + x[0] ** 2,
                                                                          np.exp(x[1])])),
                                         lo=-np.ones(2), hi=np.ones(2)), [0.1, -0.0]),
        }[chart]
        q = np.array([x, np.multiply(x, 0.5)])
        v = np.full(q.shape, 0.3)
        v[1, 0] = -0.0
        for name in ("sasaki", "exp+", "cheeger-gromoll"):
            fam = preset(name)
            fp = adapted_frame(M, q, v)
            for point in (fp, fp[0]):
                table = numeric_tm_curvature(M, fam, point).table
                assert np.array_equal(_bits(table), _bits(_plain_oracle(M, fam, point)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_class_maxima_equal_the_masked_maxima(self, n):
        rng = np.random.default_rng(100 + n)
        masks = _reference_class_masks(n)
        for case in range(6):
            closed = rng.normal(size=(2 * n,) * 4) * 10.0 ** rng.integers(-8, 3)
            orc = closed + rng.normal(size=closed.shape) * 10.0 ** rng.integers(-12, 0)
            if case >= 3:
                closed[rng.random(closed.shape) < 0.3] = 0.0
                orc[rng.random(closed.shape) < 0.3] = -0.0
            if case == 5:
                orc[tuple(rng.integers(2 * n, size=4))] = np.nan
            cfg = OracleConfig()
            with np.errstate(invalid="ignore"):
                report = _finalized(closed, orc, cfg)
                dev = np.abs(closed - orc)
                scale = np.maximum(np.abs(closed), np.abs(orc))
                rel = np.divide(dev, scale, out=np.zeros_like(dev), where=scale > cfg.tol_abs)
            expected = {name: {"max_abs_dev": float(np.max(dev[masks[name]])),
                               "max_rel_dev": float(np.max(rel[masks[name]]))}
                        for name in CLASS_NAMES}
            assert list(report.class_deviations) == list(CLASS_NAMES)
            for name in CLASS_NAMES:
                for key in ("max_abs_dev", "max_rel_dev"):
                    assert (np.float64(report.class_deviations[name][key]).tobytes()
                            == np.float64(expected[name][key]).tobytes())


class TestChartBoundary:
    def test_oracle_names_the_input_point(self):
        # the oracle's stencil (1e-3) reaches past theta = 0.1 from 0.1005;
        # the error names that point, not a stencil point
        M = sphere(2)
        with pytest.raises(StencilOutOfDomainError, match=r"\[0\.1005, 0\.3\]"):
            numeric_tm_curvature(M, preset("sasaki"), adapted_frame(M, [0.1005, 0.3], [0.0, 0.0]))
        report = compare(M, preset("sasaki"), [[0.1005, 0.3]], [[0.2, 0.1]])[0]
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


def test_oracle_table_that_overflows_names_the_point(monkeypatch):
    # the second point's table is made infinite: an error naming it, and no
    # RuntimeWarning for inf * 0 (which the test configuration raises)
    M = sphere(2)
    fp = adapted_frame(M, [[0.9, 0.3], [1.0, 0.3]], [[0.3, 0.1], [0.2, -0.1]])
    contract = oracle.frame_components
    monkeypatch.setattr(oracle, "frame_components", lambda u, rlow: contract(u, rlow) * np.array(
        [1.0, math.inf])[:, None, None, None, None])
    with pytest.raises(NonFiniteError, match=re.escape(
            "oracle: curvature of (TM, G) is not finite at x=[1.0, 0.3], v=[0.2, -0.1]")):
        numeric_tm_curvature(M, preset("sasaki"), fp)
