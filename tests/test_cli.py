"""Integration tests for the command-line front end."""

import argparse
import contextlib
import copy
import csv
import io
import json
import math
import re
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from tbcurv import closedform, oracle
from tbcurv.basemanifold import (
    conformal_polynomial, constant_curvature, make_manifold, sphere, vector_norm,
)
from tbcurv.cli import (
    _NOTE,
    _SETTINGS,
    _TABLES,
    TASKS,
    _build_parser,
    _coords,
    _csv_chunks,
    _json_chunks,
    _merge_flags,
    _parse_vector,
    _resolve_family,
    _resolve_points,
    _texts,
    main,
)
from tbcurv.errors import ConfigError, StencilOutOfDomainError, TbcurvError
from tbcurv.metricfamily import PRESET_NAMES, NaturalMetricFamily
from tbcurv.oracle import CurvatureReport, OracleConfig, compare
from tbcurv.scalarfun import ScalarFunction

from references import exact_scalings, sized_entry


def run(args):
    return main(args)


class TestFamilyCheck:
    def test_sasaki(self, capsys):
        assert run(["family-check", "--family", "sasaki"]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "max |F| = 0.000e+00" in out
        assert "max |H| = 0.000e+00" in out

    def test_cheeger_gromoll_reports_F0(self, capsys):
        assert run(["family-check", "--family", "cheeger-gromoll"]) == 0
        out = capsys.readouterr().out
        assert "3.00000000e+00" in out  # F(0) = 3

    def test_flatness_beta_of_decaying_alpha_invalid(self, capsys):
        code = run(["family-check", "--alpha", "exp(-t)", "--beta-flatness"])
        assert code == 2
        out = capsys.readouterr().out
        assert "INVALID" in out and "t=1" in out

    def test_power_to_one_is_the_family_of_its_base(self, capsys):
        # t^1 at t = 0 formed 0 * inf: "INVALID: alpha_d2 is not finite at t=0"
        assert run(["family-check", "--alpha", "1+t^1", "--beta", "0"]) == 0
        power = capsys.readouterr().out
        assert run(["family-check", "--alpha", "1+t", "--beta", "0"]) == 0
        base = capsys.readouterr().out
        assert "custom(alpha=1+t^1, beta=0): valid;" in power
        assert power.splitlines()[1:] == base.splitlines()[1:]

    def test_unknown_preset_is_config_error(self, capsys):
        assert run(["family-check", "--family", "bogus"]) == 2


    def test_flat_family_with_large_values(self, capsys):
        # beta and alpha*(alpha + t*beta) reach ~1e8 at t = 25; the F == 0
        # consequences compare them relative to the reference value
        code = run(["family-check", "--alpha", "exp(0.3*t)", "--beta-flatness"])
        out = capsys.readouterr().out
        assert "FAILED" not in out
        assert code == 0

    # 0 times the overflowing node keeps every value finite up to the node's
    # overflow; exp(t^3) and (t+1)^400 alone have a derivative that
    # overflows first, and are invalid (test_family_that_is_zero_or_not_finite)
    @pytest.mark.parametrize(
        "alpha,node",
        [("1+0*exp(700+t)", "exp"), ("1+0*(1e153*t)^2", "power"), ("ln(t-1)", "ln")],
    )
    def test_undefined_or_overflowing_family_is_an_error(self, capsys, alpha, node):
        assert run(["family-check", "--alpha", alpha, "--beta", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{node} at t=" in err
        assert "np.float64" not in err

    def test_family_undefined_beyond_its_first_violation_is_invalid(self, capsys):
        # ln(2 - t) turns negative past t = 1 and is undefined from t = 2 on:
        # the scan stops at the violation and never reaches the undefined part
        assert run(["family-check", "--alpha", "ln(2-t)", "--beta", "0"]) == 2
        assert "INVALID: alpha <= 0 near t=1.0" in capsys.readouterr().out

    # family-check validates on validate()'s 4096-point grid, which no flag
    # sets; a 401-digit size used to end in a traceback from np.linspace
    @pytest.mark.parametrize("samples", ["5", "1" + "0" * 400], ids=["5", "401-digits"])
    def test_samples_is_not_a_flag(self, capsys, samples):
        with pytest.raises(SystemExit) as info:
            run(["family-check", "--family", "sasaki", "--samples", samples])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: --samples {samples}\n" in captured.err
        assert "Traceback" not in captured.err

    def test_subnormal_t_max_keeps_the_flatness_grid_inside_it(self, capsys):
        # linspace(0, t_max, 2048) rounds 22 nodes above a t_max of 1e-320,
        # which the family then refused as outside its range (exit 1)
        assert run(["family-check", "--family", "sasaki", "--t-max", "1e-320"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "max |F| = 0.000e+00, max |H| = 0.000e+00 on [0, 9.99989e-321]" in captured.out


class TestFamilyCheckSharedWalk:
    # family-check reads max |F|, max |H| and the flat-fiber deviations from
    # the jets record on the 2048-point grid (FamilyJets.flatness), which one
    # walk gives together with the F and H table; each equals, bit for bit,
    # the defining formula on the jets of alpha and beta, evaluated here with
    # plain numpy in the same order of operations
    FAMILIES = [
        *({"preset": name, "t_max": t_max} for name in PRESET_NAMES for t_max in (25.0, 3.0)),
        *({"alpha": alpha.format(c=c), "beta_flatness": True}
          for alpha in ("1/(1+{c}*t)", "sqrt(1+{c}*t)", "(1+{c}*t)^2", "exp({c}*t)")
          for c in (0.2, 0.314159)),
    ]

    @staticmethod
    def reference(fam, t):
        a, b = fam.alpha.jet(t), fam.beta.jet(t)
        alpha, d1, d2 = a.value, a.d1, a.d2
        delta = alpha + t * b.value
        phi = alpha + t * d1
        F = (alpha * b.value - t * d1**2 - 2 * alpha * d1) / delta
        dlog = (d1 * delta + alpha * (d1 + b.value + t * b.d1)) / (alpha * delta)
        H = phi * dlog - 2 * (2 * d1 + t * d2)
        flat_beta = (t * d1**2 + 2 * alpha * d1) / alpha
        beta_dev = np.abs(b.value - flat_beta) / np.maximum(1.0, np.abs(flat_beta))
        # |alpha*Delta - phi^2| / max(1, phi^2), each factor scaled by max(1, |phi|)
        s = np.maximum(1.0, np.abs(phi))
        product_dev = np.abs((alpha / s) * (delta / s) - (phi / s) ** 2)
        return tuple(map(float, (np.max(np.abs(F)), np.max(np.abs(H)),
                                 np.max(beta_dev), np.max(product_dev))))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: json.dumps(f))
    def test_flatness_equals_the_numpy_reference(self, capsys, family):
        fam = _resolve_family({"family": family})
        t = np.linspace(0.0, fam.t_max, 2048)
        max_f, max_h, beta_dev, prod_dev = got = fam.jets(t).flatness(t)
        want = self.reference(fam, t)
        assert got == (want if max_f <= 1e-10 else (*want[:2], None, None))
        # the record of a longer walk, cut to the grid, gives the same numbers
        assert fam.jets(np.concatenate(([0.5, 1.0], t)))[2:].flatness(t) == got

        flags = [f"--{key.replace('_', '-')}" + ("" if value is True else f"={value}")
                 for key, value in family.items()]
        code = run(["family-check", *[f.replace("--preset", "--family") for f in flags]])
        out = capsys.readouterr().out
        t_hi = fam.t_max
        assert f"max |F| = {max_f:.3e}, max |H| = {max_h:.3e} on [0, {t_hi:g}]" in out
        assert ("F == 0 consequence" in out) == (max_f <= 1e-10)
        if max_f <= 1e-10:
            assert beta_dev <= 1e-8 and prod_dev <= 1e-8
        assert code == 0 and "FAILED" not in out

    def test_one_alpha_walk_per_grid(self, capsys):
        # validation, then the F and H table with the maxima and the
        # deviations: beta is read from alpha's jet, so each walks alpha once
        with mock.patch.object(ScalarFunction, "jet", autospec=True,
                               side_effect=ScalarFunction.jet) as jet:
            assert run(["family-check", "--alpha=1/(1+0.3*t)", "--beta-flatness"]) == 0
        assert "F == 0 consequence" in capsys.readouterr().out
        calls = jet.call_args_list
        assert [np.size(call.args[1]) for call in calls] == [4096, 2052]
        assert len({id(call.args[0]) for call in calls}) == 1


class TestVerify:
    GRID = '{"base_points": [[0.9, 0.3]], "v_norms": [0.0, 1.0]}'

    def test_sphere_sasaki_grid(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(
            [
                "verify",
                "--manifold",
                "sphere",
                "--dim",
                "2",
                "--family",
                "sasaki",
                "--grid",
                self.GRID,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["reports"]) == 2
        assert all(r["passed"] for r in doc["reports"])

    def test_flatness_construction_near_zero_tables(self, tmp_path):
        out = tmp_path / "flat.json"
        code = run(
            [
                "verify",
                "--manifold",
                "euclidean",
                "--dim",
                "2",
                "--alpha",
                "exp(t)",
                "--beta-flatness",
                "--t-max",
                "10",
                "--point",
                "0.3,-0.2",
                "--v",
                "0.8,0.4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        table = doc["reports"][0]["closed_table"]
        assert max(abs(x) for x in table) <= 1e-9

    def test_conformal_part_f_exercised(self, tmp_path):
        out = tmp_path / "conf.json"
        code = run(
            [
                "verify",
                "--manifold",
                "torus-conformal",
                "--dim",
                "3",
                "--coeffs",
                "[[0.1, 1, 1, 0]]",
                "--family",
                "exp+",
                "--point",
                "0.2,-0.3,0.4",
                "--v",
                "0.5,-0.3,0.8",
                "--out",
                str(out),
            ]
        )
        assert code == 0

    def test_failing_point_sets_exit_code(self, tmp_path):
        code = run(
            [
                "verify",
                "--manifold",
                "euclidean",
                "--dim",
                "2",
                "--family",
                "sasaki",
                "--t-max",
                "4",
                "--point",
                "0,0",
                "--v",
                "3.0,0",  # |v|^2 = 9 > t_max
            ]
        )
        assert code == 1

    def test_byte_identical_reports(self, tmp_path):
        paths = []
        for run_idx in (0, 1):
            out = tmp_path / f"rep{run_idx}.json"
            code = run(
                [
                    "verify",
                    "--manifold",
                    "sphere",
                    "--dim",
                    "2",
                    "--family",
                    "cheeger-gromoll",
                    "--grid",
                    self.GRID,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


    def test_removed_oracle_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"oracle": {"step_strategy": "fixed", "tol_abs": 1e-5}}))
        args = ["verify", "--config", str(path), "--manifold", "sphere", "--dim", "2",
                "--family", "sasaki", "--point", "1.0,0.3", "--v", "0,0"]
        assert run(args) == 2
        assert "'step_strategy'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--workers", "1"), ("--strategy", "richardson"), ("--steps", "1e-3")]
    )
    def test_removed_flags_rejected(self, flag, value):
        with pytest.raises(SystemExit) as info:
            run(["verify", "--manifold", "sphere", "--dim", "2", flag, value])
        assert info.value.code == 2

class TestScan:
    def test_minus_exp_sign_change_bracketed(self, tmp_path):
        # flat R^3, exp-: the scalar changes sign at |v|^2 = 2 + sqrt(13)
        out = tmp_path / "scan.csv"
        norms = [0.0, 0.8, 1.6, 2.3, 2.4, 3.0]
        grid = json.dumps({"base_points": [[0, 0, 0]], "v_norms": norms})
        code = run(
            [
                "scan",
                "--manifold",
                "euclidean",
                "--dim",
                "3",
                "--family",
                "exp-",
                "--grid",
                grid,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        i_scalar = header.index("scalar_general")
        i_special = header.index("scalar_special")
        values = [float(line.split(",")[i_scalar]) for line in lines[2:]]
        signs = [v > 0 for v in values]
        flips = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
        assert len(flips) == 1
        threshold = 2.0 + 13.0**0.5
        lo, hi = norms[flips[0] - 1] ** 2, norms[flips[0]] ** 2
        assert lo < threshold < hi
        # general and specialized forms agree row by row
        for line in lines[2:]:
            parts = line.split(",")
            assert float(parts[i_scalar]) == pytest.approx(
                float(parts[i_special]), rel=1e-9, abs=1e-9
            )

    def test_csv_byte_stable(self, tmp_path):
        grid = json.dumps({"base_points": [[0, 0, 0]], "v_norms": [0.0, 1.0, 2.0]})
        args = [
            "scan",
            "--manifold",
            "euclidean",
            "--dim",
            "3",
            "--family",
            "cheeger-gromoll",
            "--grid",
            grid,
        ]
        outputs = []
        for idx in (0, 1):
            out = tmp_path / f"scan{idx}.csv"
            assert run(args + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_plus_exp_all_negative_on_flat_surface(self, tmp_path):
        out = tmp_path / "scan2.csv"
        grid = json.dumps({"base_points": [[0, 0]], "v_norms": [0.0, 0.5, 1.0, 2.0]})
        code = run(
            [
                "scan",
                "--manifold",
                "euclidean",
                "--dim",
                "2",
                "--family",
                "exp+",
                "--grid",
                grid,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        i_scalar = lines[1].split(",").index("scalar_general")
        assert all(float(line.split(",")[i_scalar]) < 0 for line in lines[2:])

    def test_sphere_exp_plus_matches_specialized(self, tmp_path):
        out = tmp_path / "scan3.csv"
        grid = json.dumps({"base_points": [[0.9, 0.3]], "v_norms": [0.5, 1.0, 1.8]})
        code = run(
            [
                "scan",
                "--manifold",
                "sphere",
                "--dim",
                "2",
                "--family",
                "exp+",
                "--grid",
                grid,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        i_scalar = header.index("scalar_general")
        i_special = header.index("scalar_special")
        for line in lines[2:]:
            parts = line.split(",")
            assert float(parts[i_scalar]) == pytest.approx(
                float(parts[i_special]), abs=1e-9
            )


    def test_error_row_reports_metric_norm(self, capsys):
        # |v|_g = 2 sin(1) on the polar sphere; t = |v|^2 exceeds t_max = 1
        code = run(["scan", "--manifold", "sphere", "--dim", "2", "--family", "sasaki",
                    "--t-max", "1", "--point", "1.0,0.3", "--v", "0,2"])
        assert code == 1
        header, cells = csv.reader(capsys.readouterr().out.splitlines()[1:])
        row = dict(zip(header, cells))
        assert row["status"].startswith("ValidityError")
        assert float(row["v_norm"]) == pytest.approx(2.0 * math.sin(1.0), rel=1e-12)

    def test_error_row_outside_the_chart_evaluates_no_metric(self, capsys):
        # the Poincare metric at |x| > 1 takes log1p of a negative number, a
        # RuntimeWarning (an error under the test settings); the error row's
        # v_norm is nan without evaluating it
        code = run(["scan", "--manifold", "hyperbolic", "--dim", "2", "--family", "exp+",
                    "--point", "1.5,0", "--v", "1,0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        header, cells = csv.reader(captured.out.splitlines()[1:])
        row = dict(zip(header, cells))
        assert row["status"].startswith("StencilOutOfDomainError")
        assert row["v_norm"] == "nan"

    def test_grid_point_outside_chart_is_config_error(self, capsys):
        grid = json.dumps({"base_points": [[0.9, 0.5]], "v_norms": [0.5]})
        code = run(["scan", "--manifold", "hyperbolic", "--dim", "2", "--family", "sasaki",
                    "--grid", grid])
        assert code == 2
        assert "[0.9, 0.5]" in capsys.readouterr().err

class TestTables:
    def test_scalar_csv(self, tmp_path):
        out = tmp_path / "scalar.csv"
        code = run(
            [
                "scalar",
                "--manifold",
                "euclidean",
                "--dim",
                "2",
                "--family",
                "exp+",
                "--point",
                "0,0",
                "--v",
                "0,0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[-1] == "scalar"
        assert float(lines[2].split(",")[-1]) == pytest.approx(-2.0, abs=1e-12)

    def test_sectional_json(self, tmp_path):
        out = tmp_path / "sec.json"
        code = run(
            [
                "sectional",
                "--manifold",
                "sphere",
                "--dim",
                "2",
                "--family",
                "sasaki",
                "--grid",
                '{"base_points": [[0.9, 0.3]], "v_norms": [1.0], '
                '"v_directions": [[0.3, 0.7]]}',
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        rows = {(r["i"], r["j"]): r for r in doc["sectional"]}
        assert rows[(1, 0)]["K_hh"] == pytest.approx(0.25, abs=1e-10)
        assert rows[(0, 0)]["K_hv"] == 0.0

    def test_curvature_and_ricci_run(self, tmp_path):
        for task in ("curvature", "ricci"):
            out = tmp_path / f"{task}.csv"
            code = run(
                [
                    task,
                    "--manifold",
                    "sphere",
                    "--dim",
                    "2",
                    "--family",
                    "exp-",
                    "--point",
                    "0.9,0.3",
                    "--v",
                    "0.2,0.1",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            assert out.exists()

    # (1.0, 0.3) with v = (0, 0.5) is a good point; v = (0, 20) has
    # |v|_g = 20 sin(1) and t = |v|^2 far beyond t_max = 25.
    GOOD = ["--point", "1.0,0.3", "--v", "0,0.5"]
    BAD = ["--point", "1.0,0.3", "--v", "0,20"]
    SPHERE = ["--manifold", "sphere", "--dim", "2", "--family", "exp+"]

    @pytest.mark.parametrize("task,good_rows", [("scalar", 1), ("sectional", 4)])
    @pytest.mark.parametrize("bad_first", [False, True])
    def test_csv_with_good_and_error_rows(self, capsys, task, good_rows, bad_first):
        points = self.BAD + self.GOOD if bad_first else self.GOOD + self.BAD
        assert run([task, *self.SPHERE, *points]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        header, *lines = captured.out.splitlines()[1:]
        cols = header.split(",")
        assert cols[:3] == ["x", "v", "t"] and "error" in cols
        good = [line for line in lines if "ValidityError" not in line]
        bad = [line for line in lines if "ValidityError" in line]
        assert len(good) == good_rows and len(bad) == 1
        for line in good:
            row = dict(zip(cols, line.split(",")))
            assert len(line.split(",")) == len(cols) and row["error"] == ""
            assert float(row["t"]) == pytest.approx(0.5 * math.sin(1.0), rel=1e-12)
        assert bad[0].startswith("1.0;0.3,0.0;20.0,16.82941969615793,")

    def test_error_row_t_is_the_scan_metric_norm(self, capsys):
        assert run(["scalar", *self.SPHERE, *self.BAD]) == 1
        table = capsys.readouterr().out.splitlines()
        assert run(["scan", *self.SPHERE, *self.BAD]) == 1
        scan = capsys.readouterr().out.splitlines()
        t = dict(zip(table[1].split(","), table[2].split(",")))["t"]
        v_norm = dict(zip(scan[1].split(","), scan[2].split(",")))["v_norm"]
        assert t == v_norm == "16.82941969615793"
        assert float(t) == pytest.approx(20.0 * math.sin(1.0), rel=1e-15)

    @pytest.mark.parametrize(
        "task,calls",
        [("curvature", 1), ("sectional", 1), ("ricci", 1), ("scalar", 1), ("scan", 2),
         ("verify", 2)],
    )
    def test_family_evaluations_per_point(self, monkeypatch, capsys, task, calls):
        # A table command evaluates the family once for all its points, scan
        # once more for its F and H columns; verify once for the closed form
        # and once for the oracle stencils of all its points.
        seen = []
        jets = NaturalMetricFamily.jets
        monkeypatch.setattr(
            NaturalMetricFamily, "jets", lambda fam, t: seen.append(t) or jets(fam, t)
        )
        points = self.GOOD + ["--point", "0.9,0.3", "--v", "0.2,0.1"]
        assert run([task, *self.SPHERE, *points]) == 0
        assert len(seen) == calls
        if task != "verify":
            assert all(np.shape(t) == (2,) for t in seen)
        else:
            # the closed form takes one t per point, the oracle the t of
            # every stencil point of each point
            closed, stencils = map(np.shape, seen)
            assert closed == (2,)
            assert len(stencils) == 2 and stencils[0] == 2 and stencils[1] > 1


    # exp+ at |v|_g = 20 sin(1): the ValidityError message holds a comma
    @pytest.mark.parametrize("task", ["scan", "scalar"])
    def test_error_cell_with_comma_is_quoted(self, capsys, task):
        assert run([task, *self.SPHERE, *self.BAD, *self.GOOD]) == 1
        lines = capsys.readouterr().out.splitlines()[1:]
        header, bad, good = list(csv.reader(lines))
        assert len(bad) == len(header) == len(good)
        message = "ValidityError: t=283.229 outside validated range [0, 25] for family 'exp+'"
        assert bad[header.index("status" if task == "scan" else "error")] == message
        assert f',"{message}"' in lines[1]
        assert '"' not in lines[2]

    def test_quoting_doubles_quotes_and_keeps_other_cells(self):
        from tbcurv.cli import _csv_cell

        cells = ["1.5", "a;b", 'say "hi", then\nstop', "x\ry", ""]
        line = ",".join(map(_csv_cell, cells))
        assert line == '1.5,a;b,"say ""hi"", then\nstop","x\ry",'
        assert next(csv.reader([line])) == cells

    @pytest.mark.parametrize("n_norms", [1, 8])
    def test_metric_evaluations_per_base_point(self, monkeypatch, capsys, n_norms):
        # the metric is evaluated at each distinct base point, not at each
        # bundle point: rows evaluated do not grow with the number of |v|
        from tbcurv.basemanifold import ChartManifold

        rows = []
        metric = ChartManifold.metric
        monkeypatch.setattr(
            ChartManifold,
            "metric",
            lambda M, x: rows.append(np.asarray(x).size // M.dim) or metric(M, x),
        )
        grid = json.dumps({"base_points": [[0.1, 0.2, -0.1]],
                           "v_norms": [0.1 * (k + 1) for k in range(n_norms)]})
        assert run(["scalar", "--manifold", "hyperbolic", "--dim", "3", "--family", "exp+",
                    "--grid", grid]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + n_norms
        # grid direction scaling, the adapted frame and the curvature, once each
        assert rows == [1, 1, 1]


class TestConfigFile:
    def test_config_document_with_flag_override(self, tmp_path, capsys):
        cfg = {
            "manifold": {"id": "euclidean", "dim": 2},
            "family": {"preset": "exp+"},
            "points": [{"x": [0, 0], "v": [0, 0]}],
            "output": {"format": "csv"},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert run(["scalar", "--config", str(path)]) == 0
        first = capsys.readouterr().out
        assert repr(-2.0) in first
        # flag overrides the configured family
        assert run(["scalar", "--config", str(path), "--family", "sasaki"]) == 0
        second = capsys.readouterr().out
        assert repr(0.0) in second

    def test_missing_manifold_is_config_error(self):
        assert run(["scalar", "--family", "sasaki", "--point", "0,0", "--v", "0,0"]) == 2

    def test_bad_config_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["verify", "--config", str(path)]) == 2

    def test_mismatched_point_flags(self):
        assert (
            run(
                [
                    "scalar",
                    "--manifold",
                    "euclidean",
                    "--dim",
                    "2",
                    "--family",
                    "sasaki",
                    "--point",
                    "0,0",
                ]
            )
            == 2
        )


class TestNonFinitePoints:
    # A NaN compares false, so a NaN coordinate used to count as inside the
    # chart; a NaN or inf in x or v is a config error that names the point.
    @pytest.mark.parametrize(
        "task", ["curvature", "sectional", "ricci", "scalar", "verify", "scan"]
    )
    @pytest.mark.parametrize(
        "x,v", [("nan,0", "1,0"), ("0,inf", "1,0"), ("0,0", "nan,0"), ("0,0", "0,-inf")]
    )
    def test_config_error_names_the_point(self, capsys, task, x, v):
        args = [task, "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
                "--point", "0.1,0.2", "--v", "0.3,0", "--point", x, "--v", v]
        assert run(args) == 2
        captured = capsys.readouterr()
        x, v = ([float(c) for c in text.split(",")] for text in (x, v))
        assert captured.out == ""
        assert captured.err == f"config error: point x={x} v={v} is not finite\n"


def test_grid_vectors_equal_the_scalar_formula_bit_for_bit():
    # each (base point, direction) row of v is one broadcast of s / |d|_g
    # times d, the IEEE operations of (float(s) / nrm) * d; points before
    # the grid keep their place
    M = make_manifold("sphere", 3)
    grid = {"base_points": [[0.1, -0.2, 0.3], [0.0, -0.0, 0.2]],
            "v_norms": [0, 0.3, 1.7, 2, 1e-300, 7],
            "v_directions": [[1, 2, -3], [-0.0, 1, 0.5]]}
    x_got, v_got = _resolve_points({"points": [{"x": [0.1, 0.1, 0.1], "v": [0, -0.0, 1]}],
                                    "grid": grid}, M)
    expected = [(np.array([0.1, 0.1, 0.1]), np.array([0.0, -0.0, 1.0]))]
    for xs in grid["base_points"]:
        x = np.asarray(xs, dtype=float)
        g = M.metric(x)
        for d in np.asarray(grid["v_directions"], dtype=float):
            nrm = float(np.sqrt(d @ g @ d))
            expected += [(x, (float(s) / nrm) * d) for s in grid["v_norms"]]
    assert x_got.shape == v_got.shape == (25, 3) and len(expected) == 25
    assert x_got.tobytes() == np.array([x for x, _ in expected]).tobytes()
    assert v_got.tobytes() == np.array([v for _, v in expected]).tobytes()


def _reference_points(cfg, M):
    """The configured points as (x, v) pairs, built one base point and one
    direction at a time, and checked in that order: the per-point loop that
    the stacked ``_resolve_points`` replaced."""
    points = [(np.asarray(entry["x"], dtype=float), np.asarray(entry["v"], dtype=float))
              for entry in cfg.get("points", [])]
    grid = cfg.get("grid")
    if grid:
        v_norms = np.asarray(grid.get("v_norms", [0.0]), dtype=float)
        directions = np.asarray(grid.get("v_directions", np.eye(M.dim)[:1]), dtype=float)
        for xs in grid["base_points"]:
            x = np.asarray(xs, dtype=float)
            try:
                M.check_interior(x)
            except StencilOutOfDomainError as exc:
                raise ConfigError(f"grid base point: {exc}")
            g = M.metric(x)
            if not np.isfinite(g).all():
                raise ConfigError(f"grid base point: metric not finite at x={x.tolist()}")
            if not np.all(np.linalg.eigvalsh(g) > 0.0):
                raise ConfigError(
                    f"grid base point: metric not positive definite at x={x.tolist()}")
            for d in directions:
                nrm = float(np.sqrt(d @ g @ d))
                if nrm == 0.0:
                    raise ConfigError("grid direction has zero length")
                points += [(x, v) for v in (v_norms / nrm)[:, None] * d]
    if not points:
        raise ConfigError("no points configured (--point/--v or config points/grid)")
    for x, v in points:
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise ConfigError(f"point x={x.tolist()} v={v.tolist()} is not finite")
    return points


# charts whose boxes hold the drawn coordinates, -0.3 to 0.3 (theta shifted
# by 1 on the polar sphere); on the torus the metric exp(2000 x_1) overflows
# past x_1 = 0.355
POINT_CHARTS = {
    "sphere-3": lambda: make_manifold("sphere", 3),
    "sphere-polar": lambda: make_manifold("sphere", 2, chart="polar"),
    "hyperbolic-2": lambda: make_manifold("hyperbolic", 2),
    "euclidean-4": lambda: make_manifold("euclidean", 4),
    "torus-2": lambda: make_manifold("torus-conformal", 2, coeffs=[[1000, 1, 0]]),
}
coordinate = st.integers(-3, 3).map(lambda k: k / 10) | st.just(-0.0)
direction_entry = st.integers(-20, 20).map(lambda k: k / 10) | st.just(-0.0)
v_norm = st.sampled_from([0.0, -0.0, 0.5, 1.7, 2.0, 1e-300]) | st.floats(0.0, 5.0)


@st.composite
def point_configs(draw, fault=None):
    """A config of explicit points and a grid on a drawn chart: -0.0
    coordinates, zero norms, several directions, defaults left out; with a
    fault, that one fault at a drawn place."""
    name = "torus-2" if fault == "metric" else draw(st.sampled_from(sorted(POINT_CHARTS)))
    M = POINT_CHARTS[name]()
    n = M.dim
    shift = 1.0 if name == "sphere-polar" else 0.0  # theta in (0.1, 3.04)

    def vectors(entry, min_size=0, max_size=3):
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=min_size, max_size=max_size))

    def place(items, item):
        items.insert(draw(st.integers(0, len(items))), item)

    base_points = [[c + shift * (k == 0) for k, c in enumerate(x)]
                   for x in vectors(coordinate, 1, 3)]
    points = [{"x": [c + shift * (k == 0) for k, c in enumerate(x)], "v": v}
              for x, v in zip(vectors(coordinate), vectors(direction_entry))]
    grid = {"base_points": base_points}
    directions = [d for d in vectors(direction_entry, 1, 4) if any(d)]
    if directions or fault == "direction":
        grid["v_directions"] = directions
    if draw(st.booleans()):
        grid["v_norms"] = draw(st.lists(v_norm, max_size=4))
    if fault == "outside":
        place(base_points, [float(M.hi[0]) + 0.25] + [0.0] * (n - 1))
    elif fault == "metric":
        place(base_points, [1.4, draw(coordinate)])
    elif fault == "direction":
        place(directions, [-0.0] * n)
    elif fault == "point":  # one or two such points: the first is named
        for _ in range(draw(st.integers(1, 2))):
            bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            x, v = [0.1 + shift] + [0.0] * (n - 1), [0.2] * n
            (x if draw(st.booleans()) else v)[draw(st.integers(0, n - 1))] = bad
            place(points, {"x": x, "v": v})
    return M, {"points": points, "grid": grid}


class TestStackedPoints:
    # the stacked _resolve_points gives the points of the per-point loop, in
    # its order and with its bits, and names a single fault in its words
    @given(case=point_configs())
    @settings(max_examples=200, deadline=None)
    def test_same_bits_in_the_same_order(self, case):
        M, cfg = case
        try:
            expected = _reference_points(cfg, M)
        except ConfigError as exc:  # an empty grid and no explicit points
            with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
                _resolve_points(cfg, M)
            return
        x, v = _resolve_points(cfg, M)
        assert x.shape == v.shape == (len(expected), M.dim)
        assert x.tobytes() == np.array([p[0] for p in expected]).tobytes()
        assert v.tobytes() == np.array([p[1] for p in expected]).tobytes()

    @pytest.mark.parametrize("fault", ["outside", "metric", "direction", "point"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_single_fault_has_the_same_message(self, fault, data):
        M, cfg = data.draw(point_configs(fault))
        with pytest.raises(ConfigError) as expected:
            _reference_points(cfg, M)
        with pytest.raises(ConfigError) as got:
            _resolve_points(cfg, M)
        assert str(got.value) == str(expected.value)

    def test_two_faults_name_the_first_check_that_fails(self):
        # the per-point loop named the first faulty base point; the stacked
        # checks name the first fault of the first check that fails
        M = POINT_CHARTS["torus-2"]()
        cfg = {"grid": {"base_points": [[1.4, 0.0], [1.6, 0.0]]}}
        with pytest.raises(ConfigError, match="metric not finite at x=\\[1.4, 0.0\\]"):
            _reference_points(cfg, M)
        with pytest.raises(ConfigError, match="point \\[1.6, 0.0\\] is not inside"):
            _resolve_points(cfg, M)


class TestGridLengths:
    # |d|_g of a grid direction is basemanifold.vector_norm, exact at any
    # size, and the grid's metrics pass its SPD check
    GRID_ARGS = ["scalar", "--manifold", "euclidean", "--dim", "2", "--family", "sasaki"]

    # each used to be wrong: a config error "grid direction has zero length",
    # t = 1.0000055664551362, and v = (0, 0) with t = 0.0
    @pytest.mark.parametrize("direction", [[1e-170, 0], [3e-160, 0], [1e200, 0]])
    def test_direction_of_any_size_gives_the_unit_vector(self, capsys, direction):
        grid = {"base_points": [[0.1, 0.2]], "v_norms": [1], "v_directions": [direction]}
        assert run([*self.GRID_ARGS, "--grid", json.dumps(grid)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        header, row = captured.out.splitlines()[1:]
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["v"], cells["t"]) == ("1.0;0.0", "1.0")

    def test_base_point_whose_metric_vanishes_is_a_config_error(self, capsys):
        # exp(-2800) is 0: this used to read "grid direction has zero length"
        args = ["scalar", "--manifold", "torus-conformal", "--dim", "2",
                "--coeffs", "[[-1000, 1, 0]]", "--family", "sasaki",
                "--grid", json.dumps({"base_points": [[1.4, 0.3]]})]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: grid base point: metric not positive definite at x=[1.4, 0.3]\n")

    @seed(35)
    @settings(max_examples=75, deadline=None, database=None)
    @given(data=st.data())
    def test_scaled_directions_give_the_same_vectors(self, data):
        # |2^k d|_g = 2^k |d|_g bit for bit, so (s / |d|_g) d is unchanged
        name = data.draw(st.sampled_from(sorted(POINT_CHARTS)))
        M = POINT_CHARTS[name]()
        n = M.dim
        x = [c + (name == "sphere-polar") * (k == 0)
             for k, c in enumerate(data.draw(st.lists(coordinate, min_size=n, max_size=n)))]
        d = np.array(data.draw(st.lists(sized_entry, min_size=n, max_size=n)
                               .filter(lambda d: any(d))))
        v_norms = data.draw(st.lists(st.just(0.0) | st.floats(0.5, 4.0), min_size=1, max_size=3))
        length = float(vector_norm(M.metric(np.array(x)), d))
        k = data.draw(st.integers(*exact_scalings([*d, length], [s / length for s in v_norms])))
        cfg = {"grid": {"base_points": [x], "v_norms": v_norms, "v_directions": [d.tolist()]}}
        _, v = _resolve_points(cfg, M)
        cfg["grid"]["v_directions"] = [np.ldexp(d, k).tolist()]
        _, v_scaled = _resolve_points(cfg, M)
        assert v_scaled.tobytes() == v.tobytes()


class TestErrorPointT:
    # verify's ERROR line and report give a failed point the t of its
    # table error row: nan outside the chart (verify used to say 0), 3.0
    # beyond t_max, 0.0 where the metric is zero and not positive definite,
    # nan where it overflows (verify used to say 0)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "args,t,error",
        [
            (["--manifold", "hyperbolic", "--dim", "2", "--point", "1.5,0", "--v", "1,0"],
             "nan", "StencilOutOfDomainError"),
            (["--manifold", "euclidean", "--dim", "2", "--t-max", "4", "--point", "0,0",
              "--v", "3,0"], "3.0", "ValidityError"),
            (["--manifold", "torus-conformal", "--dim", "2", "--coeffs", "[[-1000, 1, 0]]",
              "--point", "1.4,0.3", "--v", "1,0"], "0.0",
             "SingularMetricError: metric not positive definite"),
            (["--manifold", "torus-conformal", "--dim", "2", "--coeffs", "[[1000, 1, 0]]",
              "--point", "1.4,0.3", "--v", "1,0"], "nan",
             "SingularMetricError: metric not finite"),
        ],
        ids=["outside", "validity", "zero-metric", "overflowing-metric"],
    )
    def test_verify_t_equals_the_table_t(self, tmp_path, capsys, args, t, error):
        good = ["--point", "0.1,0.2", "--v", "0.2,0.1"]
        args = [*args, *good, "--family", "sasaki"]
        assert run(["scalar", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        _, header, row, _ = captured.out.splitlines()
        cells = dict(zip(header.split(","), row.split(",", 3)))
        assert cells["t"] == t and cells["error"].lstrip('"').startswith(error)
        out = tmp_path / "r.json"
        assert run(["verify", *args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[0].startswith(
            f"ERROR  {args[1]}+sasaki at t={float(t):.4g}: {error}")
        report = json.loads(out.read_text())["reports"][0]
        assert repr(report["point"]["t"]) == t


class TestNonFiniteGrid:
    # inf times a zero direction component used to print a RuntimeWarning
    # before the config error; the grid's numbers are checked first
    @pytest.mark.parametrize("task", ["verify", "scan"])
    @pytest.mark.parametrize(
        "grid,message",
        [
            ({"v_norms": [0.5, math.inf]}, "v_norms holds inf"),
            ({"v_norms": [math.nan]}, "v_norms holds nan"),
            ({"v_norms": [0.5], "v_directions": [[math.inf, 0.0]]}, "v_directions holds inf"),
        ],
    )
    def test_config_error_names_the_value(self, capsys, recwarn, task, grid, message):
        grid = {"base_points": [[0.1, 0.2]], **grid}
        args = [task, "--manifold", "hyperbolic", "--dim", "2", "--family", "exp+",
                "--grid", json.dumps(grid)]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: grid {message}, which is not a finite number\n"
        assert not recwarn.list


class TestOverflowingInput:
    # numbers beyond the range of a double used to print RuntimeWarnings
    # before their error, or to crash with a traceback (exit 1)
    def test_grid_vector_that_overflows_is_a_config_error(self, capsys, recwarn):
        # s / |d|_g = 1e200 / 1e-150 overflows; the finiteness check names the point
        grid = {"base_points": [[0.1, 0.2]], "v_norms": [1e200], "v_directions": [[1e-150, 0]]}
        args = ["scalar", "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
                "--grid", json.dumps(grid)]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: point x=[0.1, 0.2] v=[inf, nan] is not finite\n"
        assert not recwarn.list

    def test_vector_whose_norm_overflows_is_a_validity_error_row(self, capsys, recwarn):
        # |v|_g is finite, and it is the t cell; t^2 = |v|^2_g overflows
        args = ["scalar", "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
                "--point", "0.1,0.2", "--v", "1e200,1e200"]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[2:] == [
            "0.1;0.2,1e+200;1e+200,1.414213562373095e+200,"
            "\"ValidityError: t=inf outside validated range "
            "[0, 25] for family 'sasaki'\""
        ]
        assert not recwarn.list

    # a JSON integer beyond the range of a double reads as infinite, as 1e400 does
    @pytest.mark.parametrize("task", ["scalar", "verify"])
    @pytest.mark.parametrize("where", ["grid", "points"])
    def test_integer_too_large_for_a_double_is_a_config_error(self, tmp_path, capsys, task,
                                                              where):
        x = [10 ** 400, 0.2]
        message, doc = {
            "grid": ("grid base_points holds inf, which is not a finite number",
                     {"grid": {"base_points": [x]}}),
            "points": ("point x=[inf, 0.2] v=[0.0, 0.0] is not finite",
                       {"points": [{"x": x, "v": [0, 0]}]}),
        }[where]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        args = [task, "--config", str(path), "--manifold", "euclidean", "--dim", "2",
                "--family", "sasaki"]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    # each used to crash with a traceback (exit 1): OverflowError where the
    # integer met a float, or ValueError past int's 4300-digit limit
    SPHERE = ["--manifold", "sphere", "--dim", "2", "--family", "sasaki",
              "--point", "0.9,0.3", "--v", "0.1,0"]
    CONFORMAL = ["scalar", "--manifold", "torus-conformal", "--dim", "2", "--family", "sasaki",
                 "--point", "0.5,0.3", "--v", "0.1,0"]
    EUCLIDEAN = ["scalar", "--manifold", "euclidean", "--dim", "2", "--family", "sasaki"]
    COEFFS_ROW = "is not 3 finite numbers: a coefficient and 2 exponents"

    @pytest.mark.parametrize(
        "args,doc,message",
        [
            (["verify", *SPHERE], '{"oracle": {"tol_abs": <401>}}',
             "tol_abs must be a positive finite number, got inf"),
            (["verify", *SPHERE], '{"oracle": {"tol_rel": -<401>}}',
             "tol_rel must be a positive finite number, got -inf"),
            (["scalar", *SPHERE], '{"manifold": {"radius": <401>}}',
             "sphere radius must be a positive finite number, got inf"),
            (["family-check"], '{"family": {"preset": "sasaki", "t_max": <401>}}',
             "t_max must be a positive finite number, got inf"),
            (CONFORMAL, '{"manifold": {"coeffs": [[<401>, 1, 0]]}}',
             f"manifold coeffs row [inf, 1, 0] {COEFFS_ROW}"),
            (CONFORMAL, '{"manifold": {"coeffs": [[0.1, <401>, 0]]}}',
             f"manifold coeffs row [0.1, inf, 0] {COEFFS_ROW}"),
            ([*CONFORMAL, "--coeffs", "[[<401>, 1, 0]]"], None,
             f"manifold coeffs row [inf, 1, 0] {COEFFS_ROW}"),
            ([*CONFORMAL, "--coeffs", "[[0.1, 1, <401>]]"], None,
             f"manifold coeffs row [0.1, 1, inf] {COEFFS_ROW}"),
            (EUCLIDEAN, '{"grid": {"base_points": [[0.1, <5001>]]}}',
             "grid base_points holds inf, which is not a finite number"),
            ([*EUCLIDEAN, "--grid", '{"base_points": [[0.1, 0.2]], "v_norms": [-<5001>]}'], None,
             "grid v_norms holds -inf, which is not a finite number"),
        ],
    )
    def test_integer_beyond_a_double_reads_as_infinite(self, tmp_path, capsys, args, doc,
                                                       message):
        def digits(text):
            return text.replace("<401>", "1" + "0" * 400).replace("<5001>", "1" + "0" * 5000)

        args = list(map(digits, args))
        if doc is not None:
            path = tmp_path / "run.json"
            path.write_text(digits(doc))
            args += ["--config", str(path)]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    # through the library such an integer is written as the command line
    # reads it; its repr raised ValueError past int's 4300-digit limit
    @pytest.mark.parametrize("make,message", [
        (lambda: OracleConfig(tol_abs=10**5000),
         "tol_abs must be a positive finite number, got inf"),
        (lambda: sphere(2, 10**5000), "sphere radius must be a positive finite number, got inf"),
        (lambda: NaturalMetricFamily("1", "0", t_max=10**5000),
         "t_max must be a positive finite number, got inf"),
        (lambda: conformal_polynomial(2, [[10**5000, 1, 0]]),
         f"manifold coeffs row [inf, 1, 0] {COEFFS_ROW}"),
        (lambda: conformal_polynomial(2, [(0.1, -10**5000, 0)]),
         f"manifold coeffs row (0.1, -inf, 0) {COEFFS_ROW}"),
    ], ids=["tol_abs", "radius", "t_max", "coeffs", "coeffs-tuple"])
    def test_library_writes_an_integer_beyond_a_double_as_infinite(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    # a constant alpha or beta used to be named by printing it, which
    # crashed on an infinite one (OverflowError, exit 1) and made a NaN one
    # a config error; it is an INVALID family, as the same text is
    @pytest.mark.parametrize("value", ["1e400", "Infinity", "NaN", "<401>"])
    @pytest.mark.parametrize("key", ["alpha", "beta"])
    def test_non_finite_constant_family_is_invalid(self, tmp_path, capsys, recwarn, key,
                                                   value):
        family = {"alpha": 1, "beta": 0, key: "<value>"}
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"family": family}).replace(
            '"<value>"', value.replace("<401>", "1" + "0" * 400)))
        assert run(["family-check", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"INVALID: {key} is not finite at t=0 on [0, 25]" in captured.out
        assert not recwarn.list
        assert run(["family-check", "--alpha", "1", "--beta", "0", f"--{key}", "1e400"]) == 2
        assert f"INVALID: {key} is not finite at t=0 on [0, 25]" in capsys.readouterr().out


class TestRepeatedCalls:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_point_lists_do_not_leak_between_calls(self, tmp_path):
        # --point/--v append to lists; each call starts from empty ones
        base = ["scalar", "--manifold", "hyperbolic", "--dim", "2", "--family", "sasaki",
                "--format", "json"]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        args_first = ["--point", "0.1,0.2", "--v", "0.3,0", "--point", "0,0", "--v", "0,0"]
        assert run(base + args_first + ["--out", str(first)]) == 0
        assert run(base + ["--point", "0.2,-0.1", "--v", "0,0.4", "--out", str(second)]) == 0
        rows = json.loads(second.read_text())["scalar"]
        assert [(r["x"], r["v"]) for r in rows] == [("0.2;-0.1", "0.0;0.4")]
        again = tmp_path / "again.json"
        assert run(base + args_first + ["--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()
        assert [r["x"] for r in json.loads(first.read_text())["scalar"]] == ["0.1;0.2", "0.0;0.0"]


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


class TestMalformedGrid:
    # a grid list of the wrong type or shape used to crash with a traceback
    # (exit 1) before any point ran; it is a config error naming the entry
    @pytest.mark.parametrize("task", ["verify", "scan"])
    @pytest.mark.parametrize(
        "grid,message",
        [
            ({"v_norms": 3}, "grid v_norms 3 is not a list of numbers"),
            ({"v_norms": ["a"]}, 'grid v_norms ["a"] is not a list of numbers'),
            ({"v_norms": [[1, 2]]}, "grid v_norms [[1, 2]] is not a list of numbers"),
            ({"v_directions": [[1, 0, 0]]},
             "grid v_directions entry [1, 0, 0] is not a list of 2 numbers (manifold dim 2)"),
        ],
    )
    def test_config_error_names_the_entry(self, capsys, task, grid, message):
        grid = {"base_points": [[0.1, 0.2]], **grid}
        args = [task, "--manifold", "hyperbolic", "--dim", "2", "--family", "exp+",
                "--grid", json.dumps(grid)]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


class TestConfigPoints:
    # a malformed points entry of a config file used to crash with a
    # traceback (exit 1); it is a config error naming the entry
    @pytest.mark.parametrize("task", ["scalar", "verify"])
    @pytest.mark.parametrize(
        "points,message",
        [
            ([{"x": [0, 0]}], 'point {"x": [0, 0]} needs x and v'),
            ([[0, 0]], "point [0, 0] needs x and v"),
            ([{"x": ["a", 0], "v": [0, 0]}],
             'point x entry ["a", 0] is not a list of 2 numbers (manifold dim 2)'),
            ([{"x": [0, 0], "v": [0, 0, 1]}],
             "point v entry [0, 0, 1] is not a list of 2 numbers (manifold dim 2)"),
            (3, "points 3 is not a list of points"),
        ],
    )
    def test_config_error_names_the_entry(self, tmp_path, capsys, task, points, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"points": points}))
        args = [task, "--config", str(path), "--manifold", "euclidean", "--dim", "2",
                "--family", "sasaki"]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


class TestListsOfNumbers:
    # numpy read a boolean as 0 or 1 and a numeric string as its number:
    # base point [true, 0.2] ran at x = (1.0, 0.2) with exit 0
    ROW = "is not a list of 2 numbers (manifold dim 2)"

    @pytest.mark.parametrize("task", ["scalar", "verify"])
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"grid": {"base_points": [[True, 0.2]]}},
             f"grid base_points entry [true, 0.2] {ROW}"),
            ({"grid": {"base_points": [["0.1", "0.2"]]}},
             f'grid base_points entry ["0.1", "0.2"] {ROW}'),
            ({"grid": {"base_points": [[0.1, 0.2]], "v_norms": [True]}},
             "grid v_norms [true] is not a list of numbers"),
            ({"grid": {"base_points": [[0.1, 0.2]], "v_norms": ["0.5"]}},
             'grid v_norms ["0.5"] is not a list of numbers'),
            ({"grid": {"base_points": [[0.1, 0.2]], "v_directions": [[1, False]]}},
             f"grid v_directions entry [1, false] {ROW}"),
            ({"points": [{"x": [True, 0.2], "v": [0, 0]}]}, f"point x entry [true, 0.2] {ROW}"),
            ({"points": [{"x": [0.1, 0.2], "v": ["0", 0]}]}, f'point v entry ["0", 0] {ROW}'),
        ],
    )
    def test_a_boolean_or_a_string_is_not_a_number(self, tmp_path, capsys, task, doc,
                                                    message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        args = [task, "--config", str(path), "--manifold", "euclidean", "--dim", "2",
                "--family", "sasaki"]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


class TestConfigTypes:
    # a config value of the wrong JSON type used to crash with a traceback
    # (exit 1) wherever it was read; it is a config error naming the key
    @pytest.mark.parametrize("task", ["scalar", "verify"])
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"output": "x"}, 'output "x" is not a JSON object'),
            ({"oracle": 3}, "oracle 3 is not a JSON object"),
            ({"family": ["sasaki"]}, 'family ["sasaki"] is not a JSON object'),
            ({"grid": [[0, 0]]}, "grid [[0, 0]] is not a JSON object"),
            ({"manifold": {"id": "euclidean", "dim": [2]}}, "manifold dim [2] is not an integer"),
            ({"manifold": {"id": "euclidean", "dim": 2.0}}, "manifold dim 2.0 is not an integer"),
            ({"output": {"path": 7}}, "output path 7 is not a string"),
            ({"manifold": {"id": ["euclidean"], "dim": 2}}, 'manifold id ["euclidean"] is not a string'),
            ({"manifold": {"id": "torus-conformal", "dim": 2, "coeffs": "x"}},
             'manifold coeffs "x" is not a list of [c, e1, ..., en] rows'),
            ({"manifold": {"id": "euclidean", "dim": -1}}, "manifold dim -1 is not at least 2"),
        ],
    )
    def test_config_error_names_the_key(self, tmp_path, capsys, task, doc, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"manifold": {"id": "euclidean", "dim": 2}, **doc}))
        args = [task, "--config", str(path), "--family", "sasaki", "--point", "0,0",
                "--v", "0.1,0"]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--manifold", "torus-conformal", "--dim", "2", "--coeffs", '"x"'],
             'manifold coeffs "x" is not a list of [c, e1, ..., en] rows'),
            (["--manifold", "euclidean", "--dim=-1"], "manifold dim -1 is not at least 2"),
            (["--manifold", "sphere", "--dim", "1"], "manifold dim 1 is not at least 2"),
            (["--manifold", "euclidean", "--dim", "2", "--format", "xml"],
             "unknown output format 'xml'"),
        ],
    )
    def test_flag_error_names_the_key(self, capsys, flags, message):
        # --dim=-1 used to reach numpy ("negative dimensions are not
        # allowed"), and coeffs "x" float() ("could not convert string")
        assert run(["scalar", *flags, "--family", "sasaki", "--point", "0.1,0.3",
                    "--v", "0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_grid_flag_that_is_not_an_object(self, capsys):
        args = ["scan", "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
                "--grid", "[[0, 0]]"]
        assert run(args) == 2
        assert capsys.readouterr().err == "config error: grid [[0, 0]] is not a JSON object\n"

    @pytest.mark.parametrize("task", ["scalar", "verify", "scan"])
    def test_v_without_point(self, capsys, task):
        # --v without --point used to be dropped silently, and the grid ran
        args = [task, "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
                "--grid", '{"base_points": [[0, 0]]}', "--v", "1,0"]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: --point and --v must be given the same number of times\n"
        )


class TestCoeffsRows:
    # a coeffs row used to be read unchecked: [[]] and [1, 2] crashed, a
    # fractional or boolean exponent was truncated or read as 1, and a
    # negative one gave a wrong table with exit 0
    @pytest.mark.parametrize(
        "coeffs,message",
        [
            ([[]], "manifold coeffs row [] is not 3 finite numbers: "
                   "a coefficient and 2 exponents"),
            ([1, 2], "manifold coeffs row 1 is not 3 finite numbers: "
                     "a coefficient and 2 exponents"),
            ([[0.1, 1.5, 1]], "manifold coeffs row [0.1, 1.5, 1] has an exponent that is "
                              "not a whole number >= 0"),
            ([[0.1, True, 1]], "manifold coeffs row [0.1, True, 1] is not 3 finite numbers: "
                               "a coefficient and 2 exponents"),
            ([["a", 1, 1]], "manifold coeffs row ['a', 1, 1] is not 3 finite numbers: "
                            "a coefficient and 2 exponents"),
            ([[0.1, -1, 0]], "manifold coeffs row [0.1, -1, 0] has an exponent that is "
                             "not a whole number >= 0"),
            ([[math.nan, 1, 1]], "manifold coeffs row [nan, 1, 1] is not 3 finite numbers: "
                                 "a coefficient and 2 exponents"),
            ([[0.1, 1e300, 1]], "manifold coeffs row [0.1, 1e+300, 1] has an exponent that "
                                "does not fit a 64-bit integer"),
        ],
    )
    def test_bad_row_is_a_config_error(self, tmp_path, capsys, coeffs, message):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(
            {"manifold": {"id": "torus-conformal", "dim": 2, "coeffs": coeffs}}))
        assert run(["scalar", "--config", str(path), "--family", "sasaki",
                    "--point", "0.5,0.3", "--v", "0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_bad_row_flag(self, capsys):
        args = ["verify", "--manifold", "torus-conformal", "--dim", "2", "--coeffs",
                "[[0.1, 1, 1], [0.2, 1, 0, 1]]", "--family", "sasaki",
                "--point", "0.5,0.3", "--v", "0.1,0"]
        assert run(args) == 2
        assert capsys.readouterr().err == (
            "config error: manifold coeffs row [0.2, 1, 0, 1] is not 3 finite numbers: "
            "a coefficient and 2 exponents\n"
        )

class TestFamilyKeyTypes:
    # alpha [1] and beta {"a": 1} used to crash with a TypeError, beta_flatness
    # "no" built the flat family and alpha true the constant 1
    @pytest.mark.parametrize(
        "family,message",
        [
            ({"alpha": [1], "beta": "0"},
             "family alpha [1] is not an expression string or a number"),
            ({"alpha": "1", "beta": {"a": 1}},
             'family beta {"a": 1} is not an expression string or a number'),
            ({"alpha": "1", "beta_flatness": "no"},
             'family beta_flatness "no" is not true or false'),
            ({"alpha": True, "beta": "0"},
             "family alpha true is not an expression string or a number"),
        ],
    )
    @pytest.mark.parametrize("task", ["family-check", "scalar"])
    def test_wrong_type_is_a_config_error(self, tmp_path, capsys, task, family, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"family": family}))
        args = [task, "--config", str(path)]
        if task != "family-check":
            args += ["--manifold", "euclidean", "--dim", "2", "--point", "0,0", "--v", "0,0"]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "family,name",
        [
            ({"alpha": 1, "beta": 0.5}, "custom(alpha=1, beta=0.5)"),
            ({"alpha": "exp(t)", "beta_flatness": True, "t_max": 3},
             "custom(alpha=exp(t), beta=flatness)"),
            ({"alpha": "exp(t)", "beta": "0", "beta_flatness": False},
             "custom(alpha=exp(t), beta=0)"),
        ],
    )
    def test_right_types_run(self, tmp_path, capsys, family, name):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"family": family}))
        assert run(["family-check", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"family {name}: valid;")


OVERFLOW = ["--alpha=1+1e308*t", "--beta=1e308*t"]
OVERFLOW_NAME = "custom(alpha=1+1e308*t, beta=1e308*t)"
EUCLIDEAN_POINT = ["--manifold", "euclidean", "--dim", "2", "--point", "0.1,0.1", "--v", "1.1,0"]
TABLE_HEAD = "# {} of (TM, G); family functions take t = |v|^2_g (squared norm) as argument\n"


@pytest.mark.parametrize(
    "args,code,out",
    [
        # flatness_jet divides by alpha = 0 at t = 20
        (["family-check", "--alpha", "1-0.05*t", "--beta-flatness"], 2,
         "family custom(alpha=1-0.05*t, beta=flatness): INVALID: delta <= 0 near t=10; "
         "phi <= 0 near t=10 on [0, 25] (4096 samples)\n"),
        # 1e308*t overflows, and F = -2*alpha*alpha' is -inf from t = 0 on
        (["family-check", *OVERFLOW], 2,
         f"family {OVERFLOW_NAME}: INVALID: F is not finite at t=0 on [0, 25] (4096 samples)\n"),
        # alpha' overflows before alpha does: the scan stops at F
        (["family-check", "--alpha", "exp(t^3)", "--beta", "0"], 2,
         "family custom(alpha=exp(t^3), beta=0): INVALID: F is not finite at t=7.04518 "
         "on [0, 25] (4096 samples)\n"),
        (["family-check", "--alpha", "(t+1)^400", "--beta", "0"], 2,
         "family custom(alpha=(t+1)^400, beta=0): INVALID: F is not finite at t=1.39805 "
         "on [0, 25] (4096 samples)\n"),
        # a flat family whose alpha*Delta and phi^2 overflow: compared scaled
        (["family-check", "--alpha=1e160", "--beta=0"], 0,
         "family custom(alpha=1e160, beta=0): valid; phi > 0 on [0, 25] (4096 samples)\n"
         "      t        F(t)            H(t)\n"
         + "".join(f"{t:9.4f}   0.00000000e+00   0.00000000e+00\n" for t in (0, 6.25, 12.5, 25))
         + "max |F| = 0.000e+00, max |H| = 0.000e+00 on [0, 25]\n"
         + "".join(f"  F == 0 consequence: {label}: ok\n" for label in (
             "beta equals the flatness combination",
             "alpha*(alpha+t*beta) == (alpha+t*alpha')^2",
             "alpha + t*alpha' > 0",
             "H vanishes",
         ))
         + "  H == 0 (with phi > 0) consequence: F vanishes: ok\n"),
        # Delta = alpha + t*beta overflows at t = 1.21
        (["scalar", *EUCLIDEAN_POINT, *OVERFLOW], 1,
         TABLE_HEAD.format("scalar") + "x,v,t,error\n"
         f'0.1;0.1,1.1;0.0,1.1,"ValidityError: family \'{OVERFLOW_NAME}\' invalid at t=1.21: '
         'delta is not finite"\n'),
        # alpha*beta in F overflows at t = 0.25: one row, not a table of NaN
        (["curvature", "--manifold", "sphere", "--dim", "2", "--point", "0.9,0.3", "--v", "0.5,0",
          *OVERFLOW], 1,
         TABLE_HEAD.format("curvature") + "x,v,t,error\n"
         f'0.9;0.3,0.5;0.0,0.5,"ValidityError: family \'{OVERFLOW_NAME}\' invalid at t=0.25: '
         'F is not finite"\n'),
        (["verify", *EUCLIDEAN_POINT, *OVERFLOW], 1,
         f"ERROR  euclidean+{OVERFLOW_NAME} at t=1.1: ValidityError: family '{OVERFLOW_NAME}' "
         "invalid at t=1.21: delta is not finite\n"),
    ],
)
def test_family_that_is_zero_or_not_finite_warns_nothing(capsys, args, code, out):
    # under the test configuration a RuntimeWarning would raise
    assert run(args) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ""


def _conformal(c):
    """A conformal metric g = e^(2 c x_1) on a 3-dimensional chart, Sasaki family."""
    return ["--manifold", "torus-conformal", "--dim", "3", "--coeffs", f"[[{c}, 1, 0, 0]]",
            "--family", "sasaki"]


NONFINITE_GRID = ["--grid", '{"base_points": [[0.5, 0, 0]], "v_norms": [0.5], '
                            '"v_directions": [[1, 0, 0]]}']
# at c = 709 the lowered curvature overflows where g = e^709
NONFINITE_ERROR = ("NonFiniteError: closed form: base curvature R is not finite at "
                   "x=[0.5, 0.0, 0.0], v=[5.515389266913585e-155, 0.0, 0.0]")


class TestNonFiniteValues:
    # a point whose base curvature overflowed used to print nan values (exit
    # 0, and RuntimeWarnings on stderr); it is an error row naming the point
    # and the quantity, exit 1, with nothing on stderr
    @pytest.mark.parametrize("task", _TABLES)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_tasks_write_an_error_row(self, capsys, task, fmt):
        code = run([task, *_conformal(709), *NONFINITE_GRID, "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        if fmt == "json":
            rows = json.loads(captured.out)[task]
        else:
            rows = list(csv.DictReader(io.StringIO(captured.out.split("\n", 1)[1])))
        assert len(rows) == 1
        assert rows[0]["status" if task == "scan" else "error"] == NONFINITE_ERROR

    def test_the_other_points_keep_their_rows(self, capsys):
        grid = '{"base_points": [[0.1, 0, 0], [0.5, 0, 0]], "v_norms": [0.5]}'
        assert run(["ricci", *_conformal(709), "--grid", grid]) == 1
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out.split("\n", 1)[1])))
        assert len(rows) == 36 + 1 and rows[-1]["error"] == NONFINITE_ERROR
        assert all(r["error"] == "" and math.isfinite(float(r["value"])) for r in rows[:-1])

    def test_verify_names_the_route(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["verify", *_conformal(709), *NONFINITE_GRID, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == f"ERROR  torus-conformal+sasaki at t=0.5: {NONFINITE_ERROR}\n"
        report, = json.loads(out.read_text())["reports"]
        assert (report["status"], report["error"]) == ("error", NONFINITE_ERROR)

    def test_oracle_stencil_failure_names_the_point(self, capsys):
        # at c = 600 the closed form is finite, but the oracle's stencil
        # steps v by 1e-3, so its t reaches 1e-6 * e^600
        assert run(["verify", *_conformal(600), *NONFINITE_GRID]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "ERROR  torus-conformal+sasaki at t=0.5: ValidityError: oracle: stencil of "
            "x=[0.5, 0.0, 0.0], v=[2.574100111206007e-131, 0.0, 0.0]: t=3.77302e+254 "
            "outside validated range [0, 25] for family 'sasaki'\n")


class TestVerifyReportLines:
    # the report is json's own output: a head line with the config, one
    # json.dumps line per report in point order, and "]}"
    VS = ["0.3,0.1", "6,0"]  # at x = (0.9, 0.3); the second |v|^2 = 36 > t_max

    def _doc(self, vs, family):
        M = make_manifold("sphere", dim=2)
        fam = _resolve_family({"family": {"preset": family}})
        oracle_cfg = OracleConfig()
        reports = compare(M, fam, [[0.9, 0.3]] * len(vs), vs, oracle_cfg)
        return {
            "config": {
                "manifold": {"id": M.catalog_id, "params": M.params},
                "family": fam.name,
                "oracle": oracle_cfg.to_dict(),
            },
            "reports": [r.to_json_dict() for r in reports],
        }

    def _run(self, tmp_path, family, vs):
        out = tmp_path / "r.json"
        args = ["verify", "--manifold", "sphere", "--dim", "2", "--family", family,
                "--out", str(out)]
        for v in vs:
            args += ["--point", "0.9,0.3", "--v", v]
        code = run(args)
        return code, out.read_text()

    def _assert_lines(self, text, doc):
        lines = text.split("\n")
        assert lines[0] == ('{"config": ' + json.dumps(doc["config"], sort_keys=True)
                            + ', "reports": [')
        assert lines[-2:] == ["]}", ""]
        reports = lines[1:-2]
        assert [line.endswith(",") for line in reports] == [True] * (len(reports) - 1) + [False]
        assert [line.removesuffix(",") for line in reports] == [
            json.dumps(r, sort_keys=True) for r in doc["reports"]]
        assert json.dumps(json.loads(text), sort_keys=True) == json.dumps(doc, sort_keys=True)

    def test_ok_and_error_reports(self, tmp_path):
        doc = self._doc([[0.3, 0.1], [6.0, 0.0]], "exp+")
        assert [r["status"] for r in doc["reports"]] == ["ok", "error"]
        assert doc["reports"][1]["closed_table"] is None
        code, text = self._run(tmp_path, "exp+", self.VS)
        assert code == 1
        self._assert_lines(text, doc)
        assert json.loads(text) == doc

    def test_non_finite_and_empty_tables(self, tmp_path):
        doc = self._doc([[0.3, 0.1]], "sasaki")
        report = doc["reports"][0]
        doc["reports"] = [
            {**report, "closed_table": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300],
             "oracle_table": []},
            {**report, "closed_table": [], "oracle_table": [math.nan]},
            {**report, "closed_table": None, "oracle_table": None},
        ]
        with mock.patch.object(CurvatureReport, "to_json_dict", side_effect=doc["reports"]):
            code, text = self._run(tmp_path, "sasaki", [self.VS[0]] * 3)
        assert code == 0
        self._assert_lines(text, doc)
        assert "NaN, Infinity, -Infinity, -0.0, 5e-324, 1e+300]" in text


class TestUnwritableOutput:
    # a path that cannot be written is a config error, found when the file
    # is opened, before any point is computed: on_points (of the tables and
    # of compare) is never called, and nothing is written to stdout
    TASKS = {
        task: [task, "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
               "--point", "0.1,0.2", "--v", "0.3,0"]
        for task in ("scalar", "scan", "verify")
    }

    @pytest.mark.parametrize("task", sorted(TASKS))
    @pytest.mark.parametrize("where, reason", [("missing/r.out", "No such file or directory"),
                                               ("", "Is a directory")])
    def test_config_error(self, tmp_path, capsys, task, where, reason):
        path = str(tmp_path / where)
        tables = mock.Mock(wraps=closedform.on_points)
        reports = mock.Mock(wraps=oracle.on_points)
        with mock.patch.object(closedform, "on_points", tables), \
                mock.patch.object(oracle, "on_points", reports):
            assert run([*self.TASKS[task], "--out", path]) == 2
        assert tables.call_count == reports.call_count == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: cannot write output {path}: {reason}\n"


class TestPositiveSettings:
    # t_max and the sphere radius must be positive finite numbers: a bad
    # t_max used to crash or validate the family on [0, -1], a bad radius
    # to crash or give SingularMetricError rows
    @pytest.mark.parametrize("value", ["-1", "nan", "0"])
    def test_t_max_flag(self, capsys, value):
        assert run(["family-check", "--family", "sasaki", "--t-max", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: t_max must be a positive finite number, got {float(value)!r}\n"
        )

    @pytest.mark.parametrize("family", [{"preset": "sasaki"}, {"alpha": "1", "beta": "0"}])
    def test_t_max_in_config(self, tmp_path, capsys, family):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"family": {**family, "t_max": "abc"}}))
        assert run(["family-check", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: t_max must be a positive finite number, got 'abc'\n"
        )

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("value", ["-1", "nan", "0"])
    def test_radius_flag(self, capsys, dim, value):
        args = ["scalar", "--manifold", "sphere", "--dim", str(dim), "--radius", value,
                "--family", "sasaki", "--point", ",".join(["0.9"] + ["0.3"] * (dim - 1)),
                "--v", ",".join(["0.1"] + ["0"] * (dim - 1))]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: sphere radius must be a positive finite number, got {float(value)!r}\n"
        )

    # float(True) is 1.0: t_max true validated the family on [0, 1], and
    # radius true ran the unit sphere; float("2") is 2.0, so a numeric
    # string ran too, where a string tolerance was rejected
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"family": {"preset": "sasaki", "t_max": True}},
             "t_max must be a positive finite number, got True"),
            ({"manifold": {"id": "sphere", "dim": 2, "radius": True}},
             "sphere radius must be a positive finite number, got True"),
            ({"family": {"preset": "sasaki", "t_max": "5"}},
             "t_max must be a positive finite number, got '5'"),
            ({"manifold": {"id": "sphere", "dim": 2, "radius": "2"}},
             "sphere radius must be a positive finite number, got '2'"),
        ],
    )
    def test_boolean_in_config(self, tmp_path, capsys, doc, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"manifold": {"id": "sphere", "dim": 2},
                                    "family": {"preset": "sasaki"}, **doc}))
        assert run(["scalar", "--config", str(path), "--point", "0.9,0.3", "--v", "0.1,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


    # family-check reads neither entry, and used to exit 0
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"oracle": {"tol_abs": -1}}, "tol_abs must be a positive finite number, got -1"),
            ({"oracle": {"tol_rel": 1}}, "tol_rel must be below 1, got 1"),
            ({"manifold": {"radius": 0}}, "sphere radius must be a positive finite number, got 0"),
        ],
    )
    def test_checked_whatever_the_task(self, tmp_path, capsys, doc, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert run(["family-check", "--family", "sasaki", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_two_faults_name_the_first_in_table_order(self, tmp_path, capsys):
        # the radius used to be checked when the sphere was built, after the table
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"manifold": {"radius": -1}, "output": {"format": "xml"}}))
        args = ["scalar", "--config", str(path), "--manifold", "sphere", "--dim", "2",
                "--family", "sasaki", "--point", "0.9,0.3", "--v", "0.1,0"]
        assert run(args) == 2
        assert capsys.readouterr().err == (
            "config error: sphere radius must be a positive finite number, got -1\n")


def _tolerance_error(key, value) -> str:
    """The config error of a bad tolerance: one that is not a positive
    finite number, else a tol_rel that is not below 1."""
    below_one = isinstance(value, float) and 1.0 <= value < math.inf
    rule = "must be below 1" if below_one else "must be a positive finite number"
    return f"config error: {key} {rule}, got {value!r}\n"


class TestTolerances:
    # an infinite tolerance turned this failing comparison into a pass, a
    # NaN one printed "at nanx tol", tol_abs true ran as 1.0, and a tol_rel
    # of 1 or more would pass a sign flip of any size
    VERIFY = ["verify", "--manifold", "sphere", "--dim", "2", "--family", "exp+",
              "--point", "0.9,0.3", "--v", "2.6,0"]

    def test_the_point_fails_at_the_default_tolerances(self, capsys):
        assert run(self.VERIFY) == 1
        assert capsys.readouterr().out.endswith("at 19.1x tol\n")

    @pytest.mark.parametrize(
        "flag,value", [("--tol-abs", "inf"), ("--tol-rel", "nan"), ("--tol-rel", "inf"),
                       ("--tol-abs", "0"), ("--tol-rel", "-1e-3"), ("--tol-rel", "1.0"),
                       ("--tol-rel", "2.5")]
    )
    def test_flag(self, capsys, flag, value):
        assert run([*self.VERIFY, f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == _tolerance_error(flag[2:].replace("-", "_"), float(value))

    @pytest.mark.parametrize(
        "key,value", [("tol_abs", math.inf), ("tol_rel", math.inf), ("tol_rel", math.nan),
                      ("tol_abs", True), ("tol_rel", "1e-3"), ("tol_rel", 1.0), ("tol_rel", 2.5)]
    )
    def test_config_value(self, tmp_path, capsys, recwarn, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"oracle": {key: value}}))
        assert run([*self.VERIFY, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == _tolerance_error(key, value)
        assert not recwarn.list


BOTH_KINDS = "family takes a preset or a custom pair, not both: "


class TestUserErrors:
    # each of these errors was pinned by no test
    SPHERE = ["scalar", "--manifold", "sphere", "--family", "sasaki"]
    POINT = ["--dim", "2", "--family", "sasaki", "--point", "0.9,0.3", "--v", "0.1,0"]
    UNKNOWN_MANIFOLD = ("unknown manifold '{}'; choose from "
                        "('euclidean', 'sphere', 'hyperbolic', 'torus-conformal')")

    @pytest.mark.parametrize(
        "args,config,message",
        [
            (["scalar", "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
              "--grid", '{"v_norms": [1]}'], None, "grid needs base_points"),
            (["family-check"], b"[1]", "config must be a JSON object"),
            (["family-check"], b"\xff{}",
             "cannot read config {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
             "invalid start byte"),
            (["family-check"], None, "no family configured (--family or --alpha/--beta)"),
            (["family-check", "--beta", "0"], None, "custom family needs alpha"),
            (["family-check", "--alpha", "1"], None, "custom family needs beta or beta_flatness"),
            ([*SPHERE, "--dim", "3", "--chart", "polar", "--point", "0.1,0.2,0.3",
              "--v", "0,0,0"], None, "polar chart implemented for dim=2 only"),
            ([*SPHERE, "--dim", "2", "--chart", "bogus", "--point", "0.9,0.3", "--v", "0,0"],
             None, "unknown sphere chart 'bogus'"),
            (["family-check", "--alpha", "1.2.3", "--beta", "0"], None,
             "bad family expression: bad numeric literal '1.2.3' (offset 0)"),
            (["family-check", "--alpha", "t$", "--beta", "0"], None,
             "bad family expression: unexpected character '$' (offset 1)"),
            (["family-check", "--alpha", "exp(t", "--beta", "0"], None,
             "bad family expression: expected ')' (offset 5)"),
            # a catalog id or preset is accepted only as written, whatever the task
            (["scalar", "--manifold", "SPHERE", *POINT], None, UNKNOWN_MANIFOLD.format("SPHERE")),
            (["scalar", "--manifold", "conformal", "--coeffs", "[[0.1, 1, 1]]", *POINT], None,
             UNKNOWN_MANIFOLD.format("conformal")),
            (["scalar", "--manifold", "bogus", *POINT], None, UNKNOWN_MANIFOLD.format("bogus")),
            (["family-check", "--family", "sasaki"], b'{"manifold": {"id": "bogus", "dim": 2}}',
             UNKNOWN_MANIFOLD.format("bogus")),
            (["family-check", "--family", "SASAKI"], None,
             "unknown preset 'SASAKI'; choose from ('sasaki', 'cheeger-gromoll', 'exp+', 'exp-')"),
            # settings the chart does not read, a negative norm and beta beside
            # beta_flatness true used to be dropped or applied without a word
            (["scalar", "--manifold", "hyperbolic", "--dim", "2", "--radius", "5", "--chart",
              "polar", "--coeffs", "[[1,1,0]]", "--family", "sasaki", "--point", "0.1,0.2",
              "--v", "0.3,0"], None, "manifold hyperbolic does not read radius, chart, coeffs"),
            (["scalar", "--manifold", "euclidean", "--radius", "2", *POINT], None,
             "manifold euclidean does not read radius"),
            (["scalar", *POINT], b'{"manifold": {"id": "sphere", "coeffs": [[1, 1, 0]]}}',
             "manifold sphere does not read coeffs"),
            (["scalar", "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
              "--grid", '{"base_points": [[0.1, 0.2]], "v_norms": [-1, 1]}'], None,
             "grid v_norms holds -1, which is below 0"),
            (["scalar", "--manifold", "euclidean", "--dim", "2", "--family", "sasaki"],
             b'{"grid": {"base_points": [[0.1, 0.2]], "v_norms": [0.5, -1e-300]}}',
             "grid v_norms holds -1e-300, which is below 0"),
            (["family-check", "--alpha", "1+t", "--beta", "5", "--beta-flatness"], None,
             "custom family takes beta or beta_flatness true, not both"),
            (["family-check", "--beta-flatness"], b'{"family": {"alpha": "1+t", "beta": 0}}',
             "custom family takes beta or beta_flatness true, not both"),
            # a preset beside a custom key ran one of them without a word
            (["family-check"], b'{"family": {"preset": "sasaki", "alpha": "1+t", "beta": 5}}',
             f"{BOTH_KINDS}preset, alpha, beta"),
            (["family-check", "--family", "exp+", "--alpha", "t", "--beta", "1"], None,
             f"{BOTH_KINDS}preset, alpha, beta"),
            (["family-check", "--family", "exp-", "--beta", "1"], None,
             f"{BOTH_KINDS}preset, beta"),
        ],
    )
    def test_config_error(self, tmp_path, capsys, args, config, message):
        path = tmp_path / "run.json"
        if config is not None:
            path.write_bytes(config)
            args = [*args, "--config", str(path)]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message.format(path=path)}\n"

    def test_family_flag_keeps_the_documents_t_max(self, tmp_path, capsys):
        # --family used to replace the whole family entry, t_max included
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"family": {"t_max": 30}}))
        assert run(["family-check", "--config", str(path), "--family", "exp+"]) == 0
        assert capsys.readouterr().out.startswith(
            "family exp+: valid; phi > 0 on [0, 30] (4096 samples)\n")


class TestUnknownKeys:
    # only the oracle section rejected a key it does not have: a misspelt
    # radius ran the unit sphere with exit 0.  Every task checks the whole
    # document.
    @pytest.mark.parametrize("task", ["family-check", "scalar", "verify"])
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"manifold": {"id": "sphere", "dim": 2, "radus": 2}},
             "unknown manifold key 'radus'; choose from ('id', 'dim', 'radius', 'chart', "
             "'coeffs')"),
            ({"family": {"preset": "sasaki", "tmax": 3}},
             "unknown family key 'tmax'; choose from ('preset', 'alpha', 'beta', "
             "'beta_flatness', 't_max')"),
            ({"grid": {"base_points": [[0.9, 0.3]], "v_norm": [1]}},
             "unknown grid key 'v_norm'; choose from ('base_points', 'v_norms', 'v_directions')"),
            ({"output": {"fmt": "json"}},
             "unknown output key 'fmt'; choose from ('path', 'format')"),
            ({"oracle": {"base_step": 1e-3}},
             "unknown oracle key 'base_step'; choose from ('tol_abs', 'tol_rel')"),
            ({"manifolds": {"id": "sphere"}},
             "unknown config section 'manifolds'; choose from ('manifold', 'family', 'points', "
             "'grid', 'output', 'oracle')"),
        ],
    )
    def test_config_error_names_it(self, tmp_path, capsys, task, doc, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"family": {"preset": "sasaki"}, **doc}))
        args = [task, "--config", str(path)]
        if task != "family-check":
            args += ["--manifold", "sphere", "--dim", "2", "--point", "0.9,0.3", "--v", "0,0"]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


class TestConfigDocument:
    def test_null_stands_for_a_missing_entry(self, tmp_path, capsys):
        doc = {"manifold": {"id": "sphere", "dim": 2}, "family": {"preset": "exp+"},
               "points": [{"x": [0.9, 0.3], "v": [0.3, 0.1]}]}
        # a null setting the chart does not read (coeffs) is not given either
        nulls = {"manifold": {**doc["manifold"], "radius": None, "chart": None, "coeffs": None},
                 "family": {**doc["family"], "t_max": None, "alpha": None},
                 "points": doc["points"], "grid": None, "output": {"format": None},
                 "oracle": {"tol_abs": None, "tol_rel": None}}
        outputs = []
        for task in ("scalar", "verify"):
            for d in (doc, nulls):
                path = tmp_path / "run.json"
                path.write_text(json.dumps(d))
                assert run([task, "--config", str(path)]) == 0
                outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[2] == outputs[3]
        assert outputs[0].err == outputs[2].err == ""

    def test_a_negative_zero_norm_is_not_below_0(self, capsys):
        grid = '{"base_points": [[0.1, 0.2]], "v_norms": [-0.0, 1]}'
        assert run(["scalar", "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
                    "--grid", grid]) == 0
        assert capsys.readouterr().err == ""

    # a flag leaves a section of the wrong JSON type for the check to name
    @pytest.mark.parametrize(
        "doc,flags,message",
        [
            ({"output": "x"}, ["--out", "y.csv", "--point", "0,0", "--v", "0,0"],
             'output "x" is not a JSON object'),
            ({"grid": [[0, 0]]}, ["--grid", '{"base_points": [[0, 0]]}'],
             "grid [[0, 0]] is not a JSON object"),
            ({"points": 3}, ["--point", "0,0", "--v", "0,0"], "points 3 is not a list of points"),
        ],
    )
    def test_flag_does_not_hide_a_section_of_the_wrong_type(self, tmp_path, capsys, doc,
                                                            flags, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        args = ["scalar", "--config", str(path), "--manifold", "euclidean", "--dim", "2",
                "--family", "sasaki", *flags]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"
        assert not (tmp_path / "y.csv").exists()

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"manifold": {"dim": 1}}, "manifold dim 1 is not at least 2"),
            ({"points": [{"x": [0, "a"], "v": [0, 0]}]},
             'point x [0, "a"] is not a list of numbers'),
            ({"output": {"format": "xml"}}, "unknown output format 'xml'"),
        ],
    )
    def test_family_check_checks_every_entry(self, tmp_path, capsys, doc, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert run(["family-check", "--config", str(path), "--family", "sasaki"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestNonFiniteMetric:
    # exp(2 * 1000 * x1) overflows past x1 = 0.355: such a point used to
    # print RuntimeWarnings, then crash the command with "frame point is not
    # in normal form" (exit 1), losing every row
    ARGS = ["--manifold", "torus-conformal", "--dim", "2", "--coeffs", "[[1000, 1, 0]]",
            "--family", "sasaki"]
    GOOD = ["--point", "0.2,0.3", "--v", "0,0"]
    BAD = ["--point", "1.4,0.3", "--v", "0,0"]
    ERROR = "SingularMetricError: metric not finite at q=[1.4, 0.3]"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("task", _TABLES)
    def test_error_row_and_the_good_row(self, capsys, task):
        assert run([task, *self.ARGS, *self.GOOD, *self.BAD, "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = json.loads(captured.out)[task]
        cell = "status" if task == "scan" else "error"
        assert [r[cell] for r in rows if r.get(cell, "ok") != "ok"] == [self.ERROR]
        assert run([task, *self.ARGS, *self.GOOD, "--format", "json"]) == 0
        good = json.loads(capsys.readouterr().out)[task]
        assert [r for r in rows if r.get(cell, "ok") == "ok"] == good

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_verify_line(self, capsys):
        assert run(["verify", *self.ARGS, *self.GOOD, *self.BAD]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        first, second = captured.out.splitlines()
        assert second.endswith(self.ERROR)
        run(["verify", *self.ARGS, *self.GOOD])
        assert capsys.readouterr().out == first + "\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_both_points_overflow(self, capsys):
        # at x1 = 0.5 the metric is already exp(1000)
        args = ["scalar", *self.ARGS, "--point", "0.5,0.3", "--v", "0,0", *self.BAD]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("SingularMetricError: metric not finite") == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("task", _TABLES)
    def test_grid_base_point_is_a_config_error(self, capsys, task):
        # a grid base point outside the chart is a config error, and so is
        # one whose metric is not finite (it used to read as a NaN vector)
        grid = json.dumps({"base_points": [[0.2, 0.3], [1.4, 0.3]], "v_norms": [0]})
        assert run([task, *self.ARGS, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: grid base point: metric not finite at x=[1.4, 0.3]\n"


class TestFlatnessOfABadAlpha:
    # --beta-flatness derives beta from alpha: a bad alpha is the same
    # config error as with an explicit beta, not an exit 1
    @pytest.mark.parametrize(
        "alpha,message",
        [("exp(", "expected a value (offset 4)"), ("foo(t)", "unknown identifier 'foo' (offset 0)"),
         ("1+t^1e400", "exponent must be finite (offset 4)")],
    )
    @pytest.mark.parametrize("beta", [["--beta-flatness"], ["--beta", "0"]])
    def test_bad_alpha_is_a_config_error(self, capsys, alpha, message, beta):
        assert run(["family-check", "--alpha", alpha, *beta]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: bad family expression: {message}\n"


def _readme_settings_table() -> dict:
    """The rows of the config key table in README's Command line section,
    by key: each row's cells, split at the pipes that are not escaped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            rows[cells[0].strip("`")] = cells
    return rows


class TestSettingsTable:
    READ_BY = {"every task": TASKS, "tables, `verify`": TASKS[1:], "tables": _TABLES,
               "`verify`": ("verify",)}

    def test_readme_lists_exactly_the_config_keys(self):
        code = {".".join(filter(None, row.entry)): row for row in _SETTINGS if row.entry}
        readme = _readme_settings_table()
        assert list(readme) == list(code)
        for key, (_, flag, read_by, what) in readme.items():
            row = code[key]
            assert flag == (f"`{row.flag}`" if row.flag else
                            {"points": "`--point`, `--v`"}.get(key, "none"))
            assert self.READ_BY[read_by] == row.tasks
            assert what

    def test_every_flag_that_sets_an_entry_is_in_the_readme(self):
        readme = _readme_settings_table()
        flags = {row.flag for row in _SETTINGS if row.flag and row.entry}
        assert flags <= {cells[1].strip("`") for cells in readme.values()}


class TestNegativeCoordinates:
    # argparse reads "-1,0.3" after a space as an option, so a value that
    # starts with "-" is joined to its flag with "="
    def test_joined_values_run(self, capsys):
        args = ["verify", "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
                "--point=-1,0.3", "--v=-0.2,0.2"]
        assert run(args) == 0
        assert capsys.readouterr().out.startswith("pass ")

    def test_help_says_so(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["verify", "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "as in --point=-1,0.3" in text and "as in --v=-0.2,0.2" in text


# --------------------------------------------------------------------------
# The row-dict table writer that the column-wise writer replaced, kept as the
# reference for its bytes: one dict per row, the CSV header as the union of
# the rows' keys in first-seen order, a CSV line re-joined with quoted cells
# where it holds a comma, quote or line break, and JSON through json.dumps.
# --------------------------------------------------------------------------


def _ref_csv_cell(text):
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _ref_emit(fmt, rows, header_note, payload_key):
    if fmt == "json":
        return _dumps({payload_key: rows, "note": header_note}) + "\n"
    if not rows:
        return f"# {header_note}\n"
    cols = list(dict.fromkeys(chain.from_iterable(dict.fromkeys(map(tuple, rows)))))
    lines = [f"# {header_note}", ",".join(cols)]
    commas = len(cols) - 1
    for row in rows:
        cells = [str(row.get(c, "")) for c in cols]
        line = ",".join(cells)
        if line.count(",") != commas or '"' in line or "\n" in line or "\r" in line:
            line = ",".join(map(_ref_csv_cell, cells))
        lines.append(line)
    return "\n".join(lines) + "\n"


def _ref_coords(values):
    return ";".join(repr(float(c)) for c in values)


# the index names of each table, one per axis of its value columns
REF_INDEX = {"curvature": "abcd", "sectional": "ij", "ricci": "ab", "scalar": ""}


def _ref_table_rows(x, v, t, names, columns):
    """The rows of one point: x, v, t, the index, then the values."""
    keys = ("x", "v", "t", *names, *columns)
    index = list(np.ndindex(np.shape(next(iter(columns.values())))))
    cells = [np.ravel(col).tolist() for col in columns.values()]
    return [dict(zip(keys, (x, v, t) + i + c)) for i, c in zip(index, zip(*cells))]


def _ref_v_norm(M, x, v):
    """|v|_g of an error row, point by point: nan for a base point outside
    the chart, where the metric is not evaluated, or where the metric gives
    no real norm."""
    if M.outside(x):
        return math.nan
    with np.errstate(invalid="ignore", over="ignore"):
        squared = float(v @ M.metric(x) @ v)
    return math.sqrt(squared) if squared >= 0.0 else math.nan


def _reference_output(task, fmt, M, fam_name, xs, vs, results):
    """The bytes the row-dict writer gives for the results of on_points at
    the points (xs, vs); an error row's t is ``_ref_v_norm``."""
    error_cell = lambda exc: f"{type(exc).__name__}: {exc}"
    rows = []
    if task != "scan":
        for x, v, (t, result) in zip(xs, vs, results):
            x_cell, v_cell = _ref_coords(x), _ref_coords(v)
            if isinstance(result, TbcurvError):
                rows.append({"x": x_cell, "v": v_cell, "t": _ref_v_norm(M, x, v),
                             "error": error_cell(result)})
            else:
                rows.extend(_ref_table_rows(x_cell, v_cell, t, REF_INDEX[task], result))
        return _ref_emit(fmt, rows, f"{task} of (TM, G); {_NOTE}", task)
    special = {"exp+": "plus", "exp-": "minus"}.get(fam_name)
    k0 = constant_curvature(M)
    nan = float("nan")
    for x, v, (t, result) in zip(xs, vs, results):
        s_special, status = nan, "ok"
        if isinstance(result, TbcurvError):
            t, status, result = _ref_v_norm(M, x, v), error_cell(result), (nan, nan, nan)
        elif special is not None and k0 is not None:
            s_special = closedform.scalar_exp_specials(k0, M.dim, t * t, special)
        s_general, f_val, h_val = result
        rows.append({"x": _ref_coords(x), "v_norm": t, "scalar_general": s_general,
                     "scalar_special": float(s_special), "F": f_val, "H": h_val,
                     "status": status})
    return _ref_emit(fmt, rows, f"scalar curvature scan; {_NOTE}", "scan")


def _assert_same_text(text, reference):
    """text == reference, reporting the first line that differs (pytest's own
    diff of two long tables takes minutes)."""
    if text != reference:
        lines = zip(text.splitlines(True), reference.splitlines(True))
        k, (got, want) = next(((k, pair) for k, pair in enumerate(lines) if len(set(pair)) > 1),
                              (None, (text[-80:], reference[-80:])))
        pytest.fail(f"line {k} differs: {got!r} != {want!r}")


def _run_captured(args):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(args)
    return code, stdout.getvalue()


TABLE_TASKS = ("curvature", "sectional", "ricci", "scalar", "scan")

# value columns of each task on a 2-dimensional base, by name and shape
TABLE_SHAPES = {
    "curvature": {"value": (4, 4, 4, 4)},
    "sectional": {"K_hh": (2, 2), "K_vv": (2, 2), "K_hv": (2, 2)},
    "ricci": {"value": (4, 4)},
    "scalar": {"scalar": ()},
    "scan": {"scalar_general, F, H": (3,)},
}

any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-5]
)
ERROR_TEXTS = ["a, b", 'say "hi"', "line\nbreak", "cr\rhere", "|v|²_g ∇R",
               'all, "of"\r\n them ∞']
error_text = st.text() | st.sampled_from(ERROR_TEXTS)
ARRANGEMENTS = {
    "first": [True, False, False],
    "middle": [False, True, False],
    "last": [False, False, True],
    "all": [True, True],
    "none": [False, False],
}


@st.composite
def point_outcomes(draw, task):
    """Per point, its error text or its t and value columns, with the
    failing points in one of the arrangements or in any other order."""
    fails = draw(st.sampled_from(list(ARRANGEMENTS.values()))
                 | st.lists(st.booleans(), min_size=1, max_size=4))
    outcomes = []
    for failed in fails:
        if failed:
            outcomes.append(draw(error_text))
            continue
        columns = {name: draw(st.lists(any_float, min_size=1, max_size=6))
                   for name in TABLE_SHAPES[task]}
        outcomes.append((draw(any_float), columns))
    return outcomes


def _assert_writer_matches_reference(task, fmt, outcomes):
    """Run the command on made-up results of on_points, so values and t take
    NaN and +-inf and error texts any character, and compare its bytes with
    the row-dict writer's.  A good point's columns are tiled to their shape;
    a failed point's t is that of its error row."""
    M = make_manifold("euclidean", dim=2)
    xs = [np.array([0.1 * k, -0.2]) for k in range(len(outcomes))]
    vs = [np.array([0.3, 0.1 * k]) for k in range(len(outcomes))]
    results = []
    for x, v, outcome in zip(xs, vs, outcomes):
        if isinstance(outcome, str):
            results.append((_ref_v_norm(M, x, v), TbcurvError(outcome)))
            continue
        t, columns = outcome
        columns = {name: np.resize(np.array(values), TABLE_SHAPES[task][name])
                   for name, values in columns.items()}
        # scan's on_points gives a point its scalar, F and H as floats
        if task == "scan":
            columns = tuple(columns["scalar_general, F, H"].tolist())
        results.append((t, columns))
    args = [task, "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
            "--format", fmt]
    for x, v in zip(xs, vs):
        args += ["--point=" + ",".join(map(repr, x.tolist())),
                 "--v=" + ",".join(map(repr, v.tolist()))]
    with mock.patch.object(closedform, "on_points", lambda *_: results):
        code, text = _run_captured(args)
    _assert_same_text(text, _reference_output(task, fmt, M, "sasaki", xs, vs, results))
    assert code == int(any(isinstance(outcome, str) for outcome in outcomes))


class TestColumnWriter:
    @given(task=st.sampled_from(TABLE_TASKS), fmt=st.sampled_from(["csv", "json"]),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_the_row_dict_writer(self, task, fmt, data):
        _assert_writer_matches_reference(task, fmt, data.draw(point_outcomes(task)))

    # each special error text, with non-finite values and t, in each arrangement
    @pytest.mark.parametrize("task", TABLE_TASKS)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("arrangement", ARRANGEMENTS)
    def test_special_cells_equal_the_row_dict_writer(self, task, fmt, arrangement):
        values = [math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-5]
        for text in ERROR_TEXTS:
            outcomes = [
                text if failed
                else (values[k], {name: values[k:] + values[:k] for name in TABLE_SHAPES[task]})
                for k, failed in enumerate(ARRANGEMENTS[arrangement])
            ]
            _assert_writer_matches_reference(task, fmt, outcomes)

    # a good point, t beyond t_max (a ValidityError whose message holds a
    # comma), and a point outside the chart, in every order that matters
    GOOD = ["--point", "1.0,0.3", "--v", "0,0.5"]
    GOOD2 = ["--point", "0.9,0.3", "--v", "0.2,0.1"]
    BAD = ["--point", "1.0,0.3", "--v", "0,20"]
    OUTSIDE = ["--point", "0.0,0.3", "--v", "1,1"]

    @pytest.mark.parametrize("task", TABLE_TASKS)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "order", ["bad-first", "bad-middle", "bad-last", "all-bad", "all-good"]
    )
    def test_commands_equal_the_row_dict_writer(self, tmp_path, task, fmt, order):
        # exp+ on the sphere: scan also writes its specialized scalar
        points = {
            "bad-first": self.BAD + self.GOOD + self.GOOD2,
            "bad-middle": self.GOOD + self.OUTSIDE + self.GOOD2,
            "bad-last": self.GOOD + self.GOOD2 + self.BAD,
            "all-bad": self.OUTSIDE + self.BAD,
            "all-good": self.GOOD + self.GOOD2,
        }[order]
        args = [task, "--manifold", "sphere", "--dim", "2", "--family", "exp+", *points,
                "--format", fmt]
        seen = []
        on_points = closedform.on_points

        def spy(M, fam, x, v, fun):
            seen.append((x, v, on_points(M, fam, x, v, fun)))
            return seen[-1][2]

        with mock.patch.object(closedform, "on_points", spy):
            code, text = _run_captured(args)
        out = tmp_path / "table.out"
        assert _run_captured(args + ["--out", str(out)]) == (code, "")
        _assert_same_text(out.read_bytes().decode("utf-8"), text)
        assert b"\r" not in out.read_bytes()  # text mode wrote no other line ends
        (x, v, results), = seen
        M = make_manifold("sphere", dim=2)
        _assert_same_text(text, _reference_output(task, fmt, M, "exp+", x, v, results))
        assert code == int(order != "all-good")


# --------------------------------------------------------------------------
# The text layer on hand-made point blocks.  Each column is formatted once per
# table and each block takes its slice of the texts; the reference is the
# row-dict writer above, which formats each row on its own (JSON through
# json.dumps(..., sort_keys=True, indent=2)), and in JSON each block's rows
# are also those the block gets written as a table alone.
# --------------------------------------------------------------------------


def _block_rows(blocks, index):
    """The rows of the blocks as dicts, for the row-dict writer."""
    rows = []
    for head, values in blocks:
        if not values:
            rows.append(dict(head))
            continue
        cells = {key: np.ravel(col).tolist() if isinstance(col, np.ndarray) else list(col)
                 for key, col in values.items()}
        shape = np.shape(next(iter(values.values())))
        count = len(next(iter(cells.values())))
        idx = list(np.ndindex(shape)) if index else [()] * count
        for r in range(count):
            rows.append({**head, **dict(zip(index, idx[r])),
                         **{key: col[r] for key, col in cells.items()}})
    return rows


def _table_block(k, shape=(2, 2), names=("value",), values=None):
    base = np.arange(math.prod(shape), dtype=float).reshape(shape) * 0.1 + k
    if values is not None:
        base = np.resize(np.array(values, dtype=float), shape)
    return ({"x": f"{0.1 * k!r};-0.0", "v": "0.0;1.0", "t": 0.5 * k},
            {name: np.asarray(base * (j + 1)) for j, name in enumerate(names)})


def _error_block(k, text='ValidityError: t=36, outside "[0, 25]"'):
    return {"x": f"{0.1 * k!r};-0.0", "v": "0.0;1.0", "t": math.nan, "error": text}, None


TEXT_CASES = {
    "an error block between good blocks":
        ("ab", [_table_block(1), _error_block(2), _table_block(3), _error_block(4, "x\ny")]),
    "single-row blocks": ("", [_table_block(k, shape=(), names=("scalar",)) for k in range(4)]),
    "single-row blocks with an index": ("ab", [_table_block(1, shape=(1, 1)), _error_block(2),
                                               _table_block(3, shape=(1, 1))]),
    "NaN and infinities in one block only": (
        "ij", [_table_block(1, names=("K_hh", "K_vv")),
               _table_block(2, names=("K_hh", "K_vv"),
                            values=[math.nan, math.inf, -math.inf, -0.0]),
               _table_block(3, names=("K_hh", "K_vv"))]),
    "scan's list columns": ("", [({}, {
        "x": ["0.1;-0.0", "-0.0;0.2", "0.3;0.4"],
        "v_norm": np.array([0.5, math.nan, 0.0]),
        "scalar_general": np.array([1.5, math.nan, -math.inf]),
        "status": ["ok", 'ValidityError: a, "b"\r\nc', "ok"],
    })]),
    "coordinates with signed zeros": ("", [
        ({"x": x, "v": v, "t": 0.25}, {"scalar": np.array(-0.0)})
        for x, v in zip(_coords([[0.0, 0.3], [-0.0, 0.3], [0.0, -0.0], [-0.0, 0.3]]),
                        _coords([[-0.0, 0.5], [0.0, 0.5], [-0.0, 0.5], [-0.0, 0.5]]))
    ]),
}


def _bits_of(*floats):
    return np.array(floats).view(np.uint64).tolist()


# Bit patterns of floats that formatting by value would merge or mistake:
# both zeros, both infinities, the least subnormal, and NaNs of either sign
# and of other payloads.
_SPECIALS = _bits_of(0.0, -0.0, math.inf, -math.inf, 5e-324) + [
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8000000000123]
# a value's bits: a special one, a plain value to repeat, or any float
_bits = st.one_of(st.sampled_from(_SPECIALS + _bits_of(1.0, -2.5, 0.1)),
                  st.floats().map(lambda x: _bits_of(x)[0]))


class TestTextLayer:
    @given(blocks=st.lists(st.lists(_bits, max_size=40), min_size=1, max_size=4),
           json_floats=st.booleans())
    @example(blocks=[[]], json_floats=True)
    @example(blocks=[_SPECIALS * 5, [], _SPECIALS[::-1] * 2, _SPECIALS[3:4]], json_floats=True)
    @example(blocks=[_SPECIALS * 5, [], _SPECIALS[::-1] * 2, _SPECIALS[3:4]], json_floats=False)
    @settings(max_examples=200, deadline=None)
    def test_float_column_texts_equal_each_repr(self, blocks, json_floats):
        # the column's blocks in C order, the first one as a 2-row array
        cols = [np.array(bits, dtype=np.uint64).view(float) for bits in blocks]
        if len(cols[0]) % 2 == 0:
            cols[0] = cols[0].reshape(2, len(cols[0]) // 2)
        values = [x for col in cols for x in col.ravel().tolist()]
        assert _texts(cols, str, json_floats) == [
            json.dumps(x) if json_floats else repr(x) for x in values]

    @pytest.mark.parametrize("case", TEXT_CASES)
    def test_csv_equals_row_by_row_formatting(self, case):
        index, blocks = TEXT_CASES[case]
        text = "".join(_csv_chunks(blocks, "a note", tuple(index)))
        _assert_same_text(text, _ref_emit("csv", _block_rows(blocks, index), "a note", "t"))
        if all(block[1] for block in blocks):  # one header: each block's rows alone
            alone = ["".join(_csv_chunks([block], "a note", tuple(index))).split("\n", 2)[2]
                     for block in blocks]
            assert text.split("\n", 2)[2] == "".join(alone)

    @pytest.mark.parametrize("case", TEXT_CASES)
    def test_json_equals_json_dumps_and_each_block_alone(self, case):
        index, blocks = TEXT_CASES[case]

        def rows_text(blocks):
            text = "".join(_json_chunks(blocks, "a note", "rows", tuple(index)))
            return text, text[text.index("[\n") + 2 : text.rindex("\n  ]")]

        text, rows = rows_text(blocks)
        assert text == json.dumps({"rows": _block_rows(blocks, index), "note": "a note"},
                                  sort_keys=True, indent=2) + "\n"
        assert rows == ",\n".join(rows_text([block])[1] for block in blocks)

    def test_coordinates_keep_signed_zeros(self):
        assert _coords([[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]) == [
            "0.0;-0.0", "-0.0;0.0", "0.0;-0.0", "-0.0;-0.0"]

    @pytest.mark.parametrize("task", TABLE_TASKS)
    def test_grid_of_signed_zero_twins_equals_single_points(self, task):
        # the twins are distinct base points: each row is its point's alone
        base = [task, "--manifold", "sphere", "--dim", "2", "--family", "exp+"]
        grid = {"base_points": [[1.0, -0.0], [1.0, 0.0], [1.0, -0.0]], "v_norms": [0.5, 0.0],
                "v_directions": [[0.0, -1.0]]}
        code, text = _run_captured(base + ["--grid", json.dumps(grid)])
        assert code == 0
        points = [(x, norm) for x in grid["base_points"] for norm in grid["v_norms"]]
        alone = []
        for x, norm in points:
            v = [0.0 * norm, -1.0 * norm / math.sin(1.0)]  # |d|_g = sin(theta) for d = -e_phi
            args = base + ["--point=" + ",".join(map(repr, x)), "--v=" + ",".join(map(repr, v))]
            alone.append(_run_captured(args)[1].split("\n", 2)[2])
        _assert_same_text(text.split("\n", 2)[2], "".join(alone))
        assert text.split("\n")[2].startswith("1.0;-0.0,")


# --------------------------------------------------------------------------
# The flag table: each task takes the flags it reads and no other, and the
# overlay equals the per-flag one it replaced, kept below as the reference.
# --------------------------------------------------------------------------

_FAMILY_FLAGS = {"--family", "--alpha", "--beta", "--beta-flatness", "--t-max"}
_POINT_FLAGS = {"--manifold", "--dim", "--radius", "--chart", "--coeffs", "--point", "--v",
                "--grid", "--out"}
ACCEPTED_FLAGS = {
    "family-check": {"--config", *_FAMILY_FLAGS},
    **{task: {"--config", *_FAMILY_FLAGS, *_POINT_FLAGS, "--format"} for task in TABLE_TASKS},
    "verify": {"--config", *_FAMILY_FLAGS, *_POINT_FLAGS, "--tol-abs", "--tol-rel"},
}
ALL_FLAGS = sorted(set().union(*ACCEPTED_FLAGS.values()))
REMOVED_PAIRS = [(task, flag) for task in TASKS for flag in ALL_FLAGS
                 if flag not in ACCEPTED_FLAGS[task]]


def _task_flags(task):
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {s for action in sub.choices[task]._actions for s in action.option_strings} - {
        "-h", "--help"}


class TestFlagTable:
    @pytest.mark.parametrize("task", TASKS)
    def test_each_task_takes_the_flags_it_reads(self, task):
        assert _task_flags(task) == ACCEPTED_FLAGS[task]

    def test_pair_count(self):
        assert len(ALL_FLAGS) == 18
        assert sum(map(len, ACCEPTED_FLAGS.values())) == 103
        assert len(REMOVED_PAIRS) == 23

    @pytest.mark.parametrize("task,flag", REMOVED_PAIRS)
    def test_flag_the_task_does_not_read_is_rejected(self, capsys, task, flag):
        value = {"--format": "csv", "--out": "x", "--tol-abs": "1e-5"}.get(flag, "1")
        with pytest.raises(SystemExit) as info:
            run([task, "--family", "sasaki", flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def _ref_merge_flags(cfg, args):
    """Overlay CLI flags on the config document."""
    cfg = dict(cfg)
    man = dict(cfg.get("manifold") or {})
    if args.manifold is not None:
        man["id"] = args.manifold
    if args.dim is not None:
        man["dim"] = args.dim
    if args.radius is not None:
        man["radius"] = args.radius
    if args.chart is not None:
        man["chart"] = args.chart
    if args.coeffs is not None:
        try:
            man["coeffs"] = json.loads(args.coeffs)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--coeffs must be a JSON array: {exc}")
    if man:
        cfg["manifold"] = man

    # a family flag drops the document's keys of the other kind, a preset or
    # a custom pair, and keeps its t_max; flags of both kinds all stay
    fam = dict(cfg.get("family") or {})
    if args.family is not None:
        for key in ("alpha", "beta", "beta_flatness"):
            fam.pop(key, None)
    if args.alpha is not None or args.beta is not None or args.beta_flatness:
        fam.pop("preset", None)
    if args.family is not None:
        fam["preset"] = args.family
    if args.alpha is not None:
        fam["alpha"] = args.alpha
    if args.beta is not None:
        fam["beta"] = args.beta
    if args.beta_flatness:
        fam["beta_flatness"] = True
    if args.t_max is not None:
        fam["t_max"] = args.t_max
    if fam:
        cfg["family"] = fam

    if args.point or args.v:
        points = []
        vs = args.v or []
        if len(vs) != len(args.point or []):
            raise ConfigError("--point and --v must be given the same number of times")
        for xtext, vtext in zip(args.point, vs):
            points.append({"x": _parse_vector(xtext), "v": _parse_vector(vtext)})
        cfg["points"] = points
    if args.grid is not None:
        try:
            cfg["grid"] = json.loads(args.grid)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--grid must be JSON: {exc}")

    out = dict(cfg.get("output") or {})
    if args.out is not None:
        out["path"] = args.out
    if args.format is not None:
        out["format"] = args.format
    if out:
        cfg["output"] = out

    orc = dict(cfg.get("oracle") or {})
    if args.tol_abs is not None:
        orc["tol_abs"] = args.tol_abs
    if args.tol_rel is not None:
        orc["tol_rel"] = args.tol_rel
    if orc:
        cfg["oracle"] = orc
    return cfg


# the namespace the reference reads: every flag of every task, unset
REF_ARGS = {**{flag[2:].replace("-", "_"): None for flag in ALL_FLAGS},
            "beta_flatness": False}

MERGE_CONFIGS = {
    "none": {},
    "preset": {"manifold": {"id": "sphere", "dim": 2, "radius": 2.0, "chart": "polar"},
               "family": {"preset": "exp+", "t_max": 4.0},
               "points": [{"x": [0.9, 0.3], "v": [0.1, 0.0]}],
               "output": {"path": "a.json", "format": "json"}, "oracle": {"tol_abs": 1e-6}},
    "custom": {"manifold": {"id": "torus-conformal", "dim": 2, "coeffs": [[0.1, 1, 1]]},
               "family": {"alpha": "exp(t)", "beta": "0", "t_max": 9.0},
               "grid": {"base_points": [[0.1, 0.2]], "v_norms": [0.5]}},
    "flat": {"family": {"alpha": "exp(0.3*t)", "beta_flatness": True},
             "oracle": {"tol_rel": 1e-2}},
    "t_max": {"family": {"t_max": 30}},
    "both kinds": {"family": {"preset": "sasaki", "alpha": "1+t", "beta": 5, "t_max": 30}},
    "empty sections": {"manifold": None, "family": {}, "output": {}, "oracle": None,
                       "points": []},
}
MERGE_FLAGS = {
    "none": [],
    "preset": ["--family", "sasaki"],
    "preset, t_max": ["--family", "sasaki", "--t-max", "7"],
    "t_max": ["--t-max", "7"],
    "alpha": ["--alpha", "exp(-t)"],
    "flatness": ["--alpha", "exp(t)", "--beta-flatness", "--t-max", "3"],
    "preset, beta": ["--family", "exp-", "--beta", "1"],
    "preset, alpha": ["--family", "sasaki", "--alpha", "t"],
    "points": ["--point", "0.1,0.2", "--v", "0.3,0", "--point=-1,0", "--v=0,-1"],
    "point without v": ["--point", "0.1,0.2"],
    "v without point": ["--v", "0,0"],
    "bad vector": ["--point", "0.1,a", "--v", "0,0"],
    "grid": ["--grid", '{"base_points": [[0.1, 0.2]], "v_norms": [0, 1]}'],
    "bad grid": ["--grid", "{bad"],
    "manifold": ["--manifold", "torus-conformal", "--dim", "3", "--radius", "2",
                 "--chart", "polar", "--coeffs", "[[0.1, 1, 1, 0]]"],
    "bad coeffs": ["--coeffs", "[oops"],
    "output": ["--out", "x.csv", "--format", "json"],
    "oracle": ["--out", "r.json", "--tol-abs", "1e-6", "--tol-rel", "1e-2"],
}


def _merged(merge, cfg, args):
    """The merged document, or the config error's message."""
    try:
        return merge(cfg, args)
    except ConfigError as exc:
        return f"config error: {exc}"


@pytest.mark.parametrize("cfg", MERGE_CONFIGS.values(), ids=MERGE_CONFIGS)
@pytest.mark.parametrize("flags", MERGE_FLAGS.values(), ids=MERGE_FLAGS)
def test_overlay_equals_the_per_flag_reference(cfg, flags):
    given = {arg.split("=")[0] for arg in flags if arg.startswith("--")}
    tasks = [task for task in TASKS if given <= ACCEPTED_FLAGS[task]]
    assert tasks
    for task in tasks:
        args = _build_parser().parse_args([task, *flags])
        before = copy.deepcopy(cfg)
        ref_args = argparse.Namespace(**{**REF_ARGS, **vars(args)})
        assert _merged(_merge_flags, cfg, args) == _merged(_ref_merge_flags, cfg, ref_args)
        assert cfg == before
