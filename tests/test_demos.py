"""Smoke test: the demo scripts run against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("demo_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip() and "FAIL" not in out
