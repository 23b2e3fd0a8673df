"""Byte census: does a change move any output of the benchmark's jobs?

    python3 tools/census.py --other ../parent --workload verify tables families --seed 1 2 3

Runs every perfbench job of the given workloads and seeds in process, as
``perfbench/run.py`` does, once on this checkout's ``src/`` and once on the
other checkout's (for example ``git worktree add ../parent HEAD~1``).  The
job lists come from this checkout's ``perfbench/workloads.py`` for both,
so both sides run the same command lines.  A verify job writes its report
to a file that is unlinked before the job.  Each side runs in its own
interpreter, so the two ``tbcurv`` packages never meet.

Prints, per workload, how many jobs differ in stdout, in stderr, in report
bytes and in exit code, and names the first differing jobs, each with the
first line of its stdout and of its report that differs (this checkout's
line, then the other's).  Of the reports whose bytes differ, it also counts
those that differ in layout only: the same JSON document once both are
parsed.  Exit code 0 when every job matches, 1 when any byte differs.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("stdout", "stderr", "report", "exit code")
REPORT = FIELDS.index("report")
SHOWN = 10
LINE_CHARS = 200  # of a differing line shown


def collect(checkout: Path, workloads: list, seeds: list) -> dict:
    """Per job, "<workload>/<seed>/<index> <name>", its stdout, stderr and
    report text and its exit code, run on checkout's src/."""
    sys.path[:0] = [str(checkout / "src"), str(ROOT / "perfbench")]
    import tbcurv.cli
    import workloads as perfbench_workloads

    if Path(tbcurv.__file__).resolve().parent != (checkout / "src" / "tbcurv").resolve():
        raise SystemExit(f"tbcurv resolved to {tbcurv.__file__}, not to {checkout}/src")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for workload in workloads:
            for seed in seeds:
                for i, job in enumerate(perfbench_workloads.build(workload, seed)):
                    argv = list(job.argv)
                    if job.check == "verify":
                        report.unlink(missing_ok=True)
                        argv += ["--out", str(report)]
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with redirect_stdout(stdout), redirect_stderr(stderr):
                        try:
                            code = tbcurv.cli.main(argv)
                        except SystemExit as exc:
                            code = exc.code
                        except Exception:
                            code = "crash: " + traceback.format_exc(limit=1).strip()
                    wrote = job.check == "verify" and report.exists()
                    written = report.read_text(encoding="utf-8") if wrote else ""
                    out[f"{workload}/{seed}/{i} {job.name}"] = [
                        stdout.getvalue(), stderr.getvalue(), written, code,
                    ]
    return out


def first_differing_line(here: str, there: str) -> str:
    """Where two texts first differ, as "line <k>: <here> != <there>", each
    line with its line break, a missing line shown as None."""
    a, b = here.splitlines(keepends=True), there.splitlines(keepends=True)
    k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    shown = [repr(lines[k][:LINE_CHARS]) if k < len(lines) else "None" for lines in (a, b)]
    return f"line {k + 1}: {shown[0]} != {shown[1]}"


def same_document(here: str, there: str) -> bool:
    """Whether two report texts are one JSON document in different layouts:
    equal once each is parsed and dumped with sorted keys (so that a NaN
    matches a NaN)."""
    try:
        return json.dumps(json.loads(here), sort_keys=True) == json.dumps(
            json.loads(there), sort_keys=True)
    except ValueError:  # a side wrote no report, or not JSON
        return False


def run_side(checkout: Path, workloads: list, seeds: list) -> dict:
    """collect() on checkout, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect", str(checkout),
           "--workload", *workloads, "--seed", *map(str, seeds)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"census of {checkout} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--other", type=Path, help="the checkout to compare with")
    parser.add_argument("--workload", nargs="+", default=["verify", "tables", "families"])
    parser.add_argument("--seed", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:
        json.dump(collect(args.collect.resolve(), args.workload, args.seed), sys.stdout)
        return 0
    if args.other is None:
        parser.error("--other is required")
    other = args.other.resolve()
    if not (other / "src" / "tbcurv").is_dir():
        parser.error(f"no src/tbcurv in {other}")
    here = run_side(ROOT, args.workload, args.seed)
    there = run_side(other, args.workload, args.seed)
    differing = 0
    for workload in args.workload:
        keys = [key for key in here if key.startswith(workload + "/")]
        counts = [0] * len(FIELDS)
        layout_only = 0
        names = []
        for key in keys:
            moved = [a != b for a, b in zip(here[key], there[key])]
            counts = [c + m for c, m in zip(counts, moved)]
            if any(moved):
                names.append(key)
            if moved[REPORT] and same_document(here[key][REPORT], there[key][REPORT]):
                layout_only += 1
        differing += len(names)
        cells = [f"{field} {count}" for field, count in zip(FIELDS, counts)]
        cells[REPORT] += f" ({layout_only} layout only)"
        print(f"{workload}: {len(keys)} jobs, {len(names)} differ ({', '.join(cells)})")
        for key in names[:SHOWN]:
            print(f"  differs: {key}")
            for field in ("stdout", "report"):
                k = FIELDS.index(field)
                if here[key][k] != there[key][k]:
                    print(f"    {field} {first_differing_line(here[key][k], there[key][k])}")
        if len(names) > SHOWN:
            print(f"  ... {len(names) - SHOWN} more")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
