"""Output gate: decides, item by item, whether a job's output is correct.

Each check returns ``(failed_items, problems)``.  A failed item is never
dropped or re-drawn; the runner counts it in ``failed`` and the run exits
non-zero.  The checks read only what the CLI printed or wrote, never the
program's internals.
"""

from __future__ import annotations

import csv
import json
import math

# scan rows for exp+- over a space form carry the general scalar curvature
# and the specialized closed form; both must agree to this relative error.
SCAN_SPECIAL_RTOL = 1e-9


def check_verify(job, report_bytes: bytes) -> tuple[int, list[str]]:
    """Every report is ok, passed, and has no mixed-sign classes; one
    report per bundle point."""
    try:
        reports = json.loads(report_bytes)["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        return job.items, [f"unreadable verify report: {exc}"]
    problems = []
    failed = 0
    if len(reports) != job.items:
        problems.append(f"{len(reports)} reports for {job.items} points")
        failed = job.items
    for i, rep in enumerate(reports):
        bad = []
        if rep.get("status") != "ok":
            bad.append(f"status {rep.get('status')!r} ({rep.get('error')})")
        if rep.get("passed") is not True:
            bad.append(f"not passed (max_abs_dev {rep.get('max_abs_dev')})")
        if rep.get("mixed_sign_classes"):
            bad.append(f"mixed sign classes {rep.get('mixed_sign_classes')}")
        if bad:
            problems.append(f"report {i}: " + "; ".join(bad))
            failed += 1
    return min(failed, job.items), problems


def _lines(text: str):
    """The lines of ``text`` one at a time, without a list of them."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        yield text[start:end]
        start = end + 1


def iter_rows(text: str, fmt: str, task: str):
    """Rows of a table command's stdout, one at a time, as dicts of
    strings (csv) or of JSON values (json).  CSV rows are parsed as they
    are read, so the gate's memory stays below the program's."""
    if fmt == "json":
        return iter(json.loads(text)[task])
    return csv.DictReader(line for line in _lines(text) if not line.startswith("#"))


def _rel_dev(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _scan_row_problem(row, exp_special: bool):
    """Why a scan row is wrong, or None: its status is not ok, or (for
    exp+- over a space form) the general scalar curvature misses the
    specialized closed form."""
    if row["status"] != "ok":
        return f"status {row['status']}"
    if not exp_special:
        return None
    general = float(row["scalar_general"])
    special = float(row["scalar_special"])
    dev = _rel_dev(general, special) if math.isfinite(special) else math.inf
    if dev <= SCAN_SPECIAL_RTOL:
        return None
    return f"scalar_general {general!r} vs scalar_special {special!r} (rel {dev:.3g})"


def check_table(job, stdout: str) -> tuple[int, list[str]]:
    """The table has one row set per point and no error rows; a scan
    table also passes ``_scan_row_problem`` row by row."""
    meta = job.meta
    failed, problems = 0, []
    n_rows = n_errors = 0
    first_error = None
    try:
        for i, row in enumerate(iter_rows(stdout, meta["format"], meta["task"])):
            n_rows += 1
            if row.get("error"):
                n_errors += 1
                first_error = first_error or row["error"]
                continue
            bad = _scan_row_problem(row, meta["exp_special"]) if job.check == "scan" else None
            if bad:
                problems.append(f"row {i}: {bad}")
                failed += 1
    except (ValueError, KeyError, TypeError) as exc:
        return job.items, [f"unreadable {meta['format']} table: {exc}"]
    if n_rows != meta["rows"]:
        return job.items, [f"{n_rows} rows, expected {meta['rows']}"]
    if n_errors:
        return job.items, [f"{n_errors} error rows, first: {first_error}"]
    return min(failed, job.items), problems


def check_job(job, code, stdout: str, out_bytes: bytes) -> tuple[int, list[str]]:
    """Exit code first, then the output gate the job names."""
    if code != job.expect_code:
        return job.items, [f"exit code {code!r}, expected {job.expect_code}"]
    if job.check == "verify":
        return check_verify(job, out_bytes)
    if job.check in ("scan", "table"):
        return check_table(job, stdout)
    if job.check == "family":
        return 0, []  # the exit code is the verdict
    raise ValueError(f"unknown check {job.check!r}")
