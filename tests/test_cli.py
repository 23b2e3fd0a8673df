"""Integration tests for the command-line front end."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbcurv.cli import _build_parser, _json_text, main
from tbcurv.metricfamily import NaturalMetricFamily


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

    def test_unknown_preset_is_config_error(self, capsys):
        assert run(["family-check", "--family", "bogus"]) == 2


    def test_flat_family_with_large_values(self, capsys):
        # beta and alpha*(alpha + t*beta) reach ~1e8 at t = 25; the F == 0
        # consequences compare them relative to the reference value
        code = run(["family-check", "--alpha", "exp(0.3*t)", "--beta-flatness"])
        out = capsys.readouterr().out
        assert "FAILED" not in out
        assert code == 0

    @pytest.mark.parametrize(
        "alpha,node", [("exp(t^3)", "exp"), ("(t+1)^400", "power"), ("ln(t-1)", "ln")]
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

    @pytest.mark.parametrize("samples", ["1", "0", "-5"])
    def test_bad_samples_is_config_error(self, capsys, samples):
        assert run(["family-check", "--family", "sasaki", f"--samples={samples}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"got {samples}" in err


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
        assert all(r["sign"] == 1 for r in doc["reports"])

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


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324])
    | st.text()
)
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.integers(), max_size=8)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


class TestJsonText:
    @given(json_docs)
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps(self, doc):
        assert _json_text(doc) == _dumps(doc)

    def test_equals_json_dumps_on_cli_documents(self, tmp_path, capsys):
        # a verify report and a JSON table, with nan error fields and a
        # non-ASCII family name among them
        report = tmp_path / "report.json"
        assert run(["verify", "--manifold", "sphere", "--dim", "2", "--family", "exp+",
                    "--point", "0.9,0.3", "--v", "0.4,-0.2",
                    "--point", "0.1005,0.3", "--v", "0.1,0.1", "--out", str(report)]) == 1
        doc = json.loads(report.read_text())
        assert _json_text(doc) + "\n" == report.read_text() == _dumps(doc) + "\n"
        assert doc["reports"][1]["status"] == "error"
        table = tmp_path / "table.json"
        assert run(["scan", "--manifold", "sphere", "--dim", "2", "--family", "sasaki",
                    "--point", "0.9,0.3", "--v", "0.4,-0.2", "--point", "0.1,0.3", "--v", "0,1",
                    "--format", "json", "--out", str(table)]) == 1
        doc = json.loads(table.read_text())
        assert math.isnan(doc["scan"][1]["scalar_general"])
        assert _json_text(doc) + "\n" == table.read_text() == _dumps(doc) + "\n"
        doc["note"] = "t = |v|²_g, ∇R"
        assert _json_text(doc) == _dumps(doc)

    def test_rejects_unknown_types_and_non_string_keys(self):
        with pytest.raises(TypeError):
            _json_text({"x": object()})
        with pytest.raises(TypeError, match="keys must be strings"):
            _json_text({1: [2.0]})
