"""Smoke test: the demo scripts and README's code blocks run against the
current API."""

import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from tbcurv import adapted_frame, cli, preset, tm_curvature

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("demo_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip() and "FAIL" not in out


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # the blocks run in order in one namespace; the report that the
    # full_table block reads is written just before it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 4
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        if "def full_table" in block:
            argv = ["verify", "--manifold", "sphere", "--dim", "2", "--family", "sasaki",
                    "--point", "0.9,0.3", "--v", "0.4,-0.2", "--out", "report.json"]
            assert cli.main(argv) == 0
        exec(compile(block, str(README), "exec"), namespace)
    capsys.readouterr()
    # the quick start's table is tm_curvature at the verified point
    closed, table = namespace["closed"], namespace["table"]
    M, q, v = namespace["M"], namespace["q"], namespace["v"]
    assert np.array_equal(table, tm_curvature(M, preset("sasaki"), adapted_frame(M, q, v)))
    assert closed.shape == table.shape == (4, 4, 4, 4)
    assert np.max(np.abs(closed - table)) <= 1e-14 * np.max(np.abs(closed))
