"""Integration tests for the command-line front end."""

import json
import math

import pytest

from tbcurv.cli import main


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
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
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
