"""Job lists: deterministic per seed, different across seeds, inside the charts."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from tbcurv import make_manifold

# Far wider than any finite-difference stencil the program uses (the oracle
# steps 1e-3 * max(1, |z|), nabla R steps 5e-4).
CHART_MARGIN = 0.05


def _grid(job):
    return json.loads(job.argv[job.argv.index("--grid") + 1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_different_inputs(workload):
    a, b = workloads.build(workload, 1), workloads.build(workload, 2)
    assert [j.name for j in a] == [j.name for j in b]  # same structure
    assert sum(ja.argv != jb.argv for ja, jb in zip(a, b)) >= len(a) // 2


@pytest.mark.parametrize("workload", ["verify", "tables"])
def test_points_differ_across_seeds(workload):
    points = [
        [_grid(j)["base_points"] for j in workloads.build(workload, seed)]
        for seed in (3, 4)
    ]
    assert points[0] != points[1]


@pytest.mark.parametrize("seed", [0, 1, 2, 99])
@pytest.mark.parametrize("workload", ["verify", "tables"])
def test_points_inside_chart_margin(workload, seed):
    for job in workloads.build(workload, seed):
        manifold, dim = job.meta["manifold"]
        coeffs = workloads.TORUS_COEFFS if manifold == "torus-conformal" else None
        M = make_manifold(manifold, dim, coeffs=coeffs)
        grid = _grid(job)
        for x in grid["base_points"]:
            x = np.asarray(x)
            assert x.shape == (dim,)
            assert np.all(x - CHART_MARGIN > M.lo) and np.all(x + CHART_MARGIN < M.hi), job.name
            M.check_interior(x)
        assert all(0.0 <= s for s in grid["v_norms"])
        limit = workloads.VERIFY_MAX_V if workload == "verify" else workloads.TABLE_MAX_V
        assert max(grid["v_norms"]) <= limit


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_jobs_use_program_defaults(workload):
    for job in workloads.build(workload, 5):
        for flag in ("--workers", "--strategy", "--steps", "--tol-abs", "--tol-rel", "--samples"):
            assert flag not in job.argv


def test_items_match_grids():
    for job in workloads.build("verify", 5) + workloads.build("tables", 5):
        grid = _grid(job)
        assert job.items == (
            len(grid["base_points"]) * len(grid["v_norms"]) * len(grid["v_directions"])
        )


def test_families_expected_verdicts():
    codes = [j.expect_code for j in workloads.build("families", 5)]
    assert codes.count(2) == len(workloads.INVALID_PAIRS)
    assert codes.count(0) == len(codes) - codes.count(2)


def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    traced = run.layer_metrics(tracing.Tracer(), 1, 0, 0.0, 1.0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: unit for name, (_, unit, _) in traced.items()
    }


@pytest.mark.parametrize(
    "jobs_per_pass, expected", [(13, 75.0), (44, 90.0), (50, 95.0), (2, 50.0)]
)
def test_tail_percentile_keeps_ten_jobs_beyond(jobs_per_pass, expected):
    p = run.tail_percentile(jobs_per_pass)
    assert p == expected
    if p > 50.0:
        assert run.MIN_PASSES * jobs_per_pass * (100.0 - p) / 100.0 >= run.TAIL_MIN_BEYOND
