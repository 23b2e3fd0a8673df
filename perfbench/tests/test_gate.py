"""The output gate accepts real outputs and rejects corrupted ones."""

import io
import json
from contextlib import redirect_stdout

import pytest

import gate
import run
import workloads
from tbcurv import cli


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _job(workload, name_prefix):
    return next(j for j in workloads.build(workload, 3) if j.name.startswith(name_prefix))


@pytest.fixture(scope="module")
def verify_case(tmp_path_factory):
    job = _job("verify", "verify/sphere-2/sasaki")
    out = tmp_path_factory.mktemp("verify") / "report.json"
    code, _ = _cli(job.argv + ("--out", str(out)))
    return job, code, out.read_bytes()


def test_verify_report_passes(verify_case):
    job, code, report = verify_case
    assert job.items == 2
    assert gate.check_job(job, code, "", report) == (0, [])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.update(passed=False),
        lambda r: r.update(status="error", error="ValidityError: x"),
        lambda r: r.update(mixed_sign_classes=["hvhv"]),
    ],
)
def test_verify_gate_rejects_corrupted_report(verify_case, corrupt):
    job, code, report = verify_case
    doc = json.loads(report)
    corrupt(doc["reports"][1])
    failed, problems = gate.check_job(job, code, "", json.dumps(doc).encode())
    assert failed == 1 and "report 1" in problems[0]


def test_verify_gate_rejects_missing_report_and_bad_exit(verify_case):
    job, code, report = verify_case
    doc = json.loads(report)
    doc["reports"].pop()
    assert gate.check_job(job, code, "", json.dumps(doc).encode())[0] == job.items
    assert gate.check_job(job, 1, "", report)[0] == job.items
    assert gate.check_job(job, code, "", b"")[0] == job.items


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_special_match_and_corruption(fmt):
    job = _job("tables", "scan/hyperbolic-5/exp+/") if fmt == "json" else _job(
        "tables", "scan/euclidean-3/exp-/"
    )
    assert job.meta["format"] == fmt and job.meta["exp_special"]
    code, out = _cli(job.argv)
    assert gate.check_job(job, code, out, b"") == (0, [])

    rows = list(gate.iter_rows(out, fmt, "scan"))
    special = float(rows[3]["scalar_special"])
    bad = repr(special * (1.0 + 1e-7))
    if fmt == "json":
        doc = json.loads(out)
        doc["scan"][3]["scalar_special"] = float(bad)
        corrupted = json.dumps(doc)
    else:
        corrupted = out.replace(repr(special), bad, 1)
    failed, problems = gate.check_job(job, code, corrupted, b"")
    assert failed == 1 and problems[0].startswith("row 3")


def test_table_gate_rejects_dropped_and_error_rows():
    job = _job("tables", "sectional/sphere-2/")
    code, out = _cli(job.argv)
    assert gate.check_job(job, code, out, b"") == (0, [])
    lines = out.splitlines(keepends=True)
    assert gate.check_job(job, code, "".join(lines[:-1]), b"")[0] == job.items
    if job.meta["format"] == "json":
        doc = json.loads(out)
        doc["sectional"][0]["error"] = "StencilOutOfDomainError: x"
        assert gate.check_job(job, code, json.dumps(doc), b"")[0] == job.items


def test_family_gate_checks_verdict():
    jobs = workloads.build("families", 3)
    invalid = next(j for j in jobs if j.expect_code == 2)
    code, _ = _cli(invalid.argv)
    assert code == 2 and gate.check_job(invalid, code, "", b"") == (0, [])
    assert gate.check_job(invalid, 0, "", b"")[0] == 1


class _DriftingCli:
    """A CLI stand-in whose output changes on every call."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        print(f"family ok, call {self.calls}")
        return 0


def test_runner_flags_output_that_changes_between_passes(tmp_path):
    job = workloads.build("families", 3)[0]
    runner = run.Runner(cli=_DriftingCli(), jobs=[job], work_dir=tmp_path)
    runner.run_pass()
    assert runner.failed == 0
    runner.run_pass()
    assert runner.failed == 1 and runner.attempted == 2
    assert "differ from the first pass" in runner.problems[0]


def test_runner_counts_a_crash_as_failed(tmp_path):
    class Crashing:
        def main(self, argv):
            raise RuntimeError("boom")

    job = workloads.build("verify", 3)[0]
    runner = run.Runner(cli=Crashing(), jobs=[job], work_dir=tmp_path)
    runner.run_pass()
    assert runner.failed == job.items and "boom" in runner.problems[0]
