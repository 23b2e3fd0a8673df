"""run.py: refuses to run without the sources; quantiles; host-speed normalization."""

import shutil
import subprocess
import sys

import pytest

import run


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no tbcurv sources" in proc.stderr


def test_hd_quantile_estimates_percentiles():
    import numpy as np

    x = np.random.default_rng(3).normal(size=4001)
    for p in (50.0, 75.0, 90.0, 95.0):
        assert abs(run.hd_quantile(x, p) - np.percentile(x, p)) < 0.05
    assert run.hd_quantile([7.5] * 40, 75.0) == pytest.approx(7.5)


def test_hd_quantile_moves_smoothly_across_a_gap():
    # 10 fast and 11 slow jobs: the order-statistic median sits on the
    # first slow job; swapping one job across the gap would move it by
    # the whole gap, the Harrell-Davis median by a fraction of it.
    fast, slow = [10.0] * 10, [20.0] * 11
    before = run.hd_quantile(fast + slow, 50.0)
    after = run.hd_quantile(fast + [10.0] + slow[1:], 50.0)
    assert 10.0 < after < before < 20.0
    assert before - after < 5.0


def test_normalize_divides_by_the_local_host_factor():
    import hostspeed

    ref = hostspeed.REFERENCE_S
    durations = [1.0] * 30
    kernels = [ref] * 15 + [2 * ref] * 15  # the host halves its speed midway
    out = hostspeed.normalize(durations, kernels)
    assert out[:10] == pytest.approx([1.0] * 10)
    assert out[-10:] == pytest.approx([0.5] * 10)
    assert hostspeed.normalize([3.0], [ref]) == pytest.approx([3.0])


def test_setup_pairs_time_tbcurv_and_the_reference_in_either_order():
    import json

    import workloads

    spec = json.dumps(workloads.setup_spec(workloads.build("families", 3)))
    for reference_first in (False, True):
        setup, ref = run.measure_setup_pair(spec, reference_first)
        assert 0.0 < setup < 60.0 and 0.0 < ref < 60.0


def test_host_factor_averages_the_modes_and_drops_outliers():
    import hostspeed

    ref = hostspeed.REFERENCE_S
    times = [ref] * 4 + [2 * ref] * 4 + [100 * ref, 0.01 * ref]
    assert hostspeed.host_factor(times) == pytest.approx(1.5)
