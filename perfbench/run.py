"""tbcurv benchmark: one command, three workloads, end-to-end and per-layer
metrics, with an output gate on every job.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Load model: a closed loop with a single client in this process.  Each job
is one in-process ``tbcurv.cli.main(argv)`` call; the next starts when the
previous one returns.  The seed decides the job list (see workloads.py);
a run repeats that list in passes.  The first pass warms caches and lazy
imports and is not timed; its output bytes are the reference every later
pass must reproduce.

``--trace 0`` times at least MIN_PASSES passes, and more until
``--seconds`` have gone by, and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes over the same list
until ``--seconds`` have gone by, and reports the per-layer metrics (see
tracing.py) and the tracing overhead.  Job times are reported at reference
host speed (see hostspeed.py); the raw wall times are in the notes and in
the record file.

Every job's output goes through the gate in gate.py.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Exit code
0 when every item passed, 1 when any failed (failures are never dropped or
re-drawn), 2 when the benchmark cannot run at all (no result line).
tbcurv is imported from this checkout's ``src/``, never from an installed
copy.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up time is probed in pairs of fresh interpreters (tbcurv, reference
# import): SETUP_PAIRS_FIRST pairs before the warm-up pass, then
# SETUP_PAIRS_PER_PASS after each of the first MIN_PASSES timed passes, so
# that the pairs sample the host over the run and their number does not
# depend on the program's speed.
SETUP_PAIRS_FIRST = 4
SETUP_PAIRS_PER_PASS = 3
# Timed passes per end-to-end run, at least; more while --seconds last.
MIN_PASSES = 4
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (statistic, field) pairs reported from the traced run, on top of the
# four per-layer totals.  Units are per item of the traced passes.
NAMED_LAYER_METRICS = (
    ("scalarfun.jet", "calls"),
    ("scalarfun.jet", "ms"),
    ("scalarfun.parse", "ms"),
    ("metricfamily.validate", "ms"),
    ("metricfamily.max_abs", "ms"),
    ("metricfamily.F_H", "calls"),
    ("metricfamily.F_H", "ms"),
    ("metricfamily.check_point", "calls"),
    ("basemanifold.adapted_frame", "ms"),
    ("basemanifold.frame_curvature_nabla", "ms"),
    ("basemanifold.frame_curvature_plain", "ms"),
    ("basemanifold.christoffels", "calls_per_point"),
    ("basemanifold.christoffels", "ms"),
    ("bundlemetric.induced_metric", "calls_per_point"),
    ("bundlemetric.induced_metric", "ms"),
    ("numdiff.matrix_jets", "self_ms"),
    ("numdiff.levi_civita", "ms"),
    ("closedform.tm_curvature", "ms"),
    ("closedform.tm_scalar", "ms"),
    ("closedform.tm_ricci", "ms"),
    ("closedform.tm_sectional", "ms"),
    ("oracle.numeric_tm_curvature", "self_ms"),
    ("oracle.calibrate_sign", "ms"),
    ("oracle.compare", "ms"),
    ("oracle.to_json_dict", "ms"),
    ("cli.main", "self_ms"),
)
FIELD_UNITS = {
    "ms": "ms/item",
    "self_ms": "ms/item",
    "calls": "calls/item",
    "calls_per_point": "calls/item",
    "errors": "1/item",
}


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------


def import_checkout_tbcurv():
    """Import tbcurv from ROOT/src and refuse any other copy."""
    init = SRC / "tbcurv" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no tbcurv sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tbcurv
    import tbcurv.cli

    resolved = Path(tbcurv.__file__).resolve()
    if resolved.parent != (SRC / "tbcurv").resolve():
        raise SetupError(f"tbcurv resolved to {resolved}, not to {SRC}")
    return tbcurv


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=20, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    """Fingerprint of the measured tree, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tbcurv").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(tbcurv) -> dict:
    return {
        "tbcurv_path": str(Path(tbcurv.__file__).resolve().parent),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _probe(args: list) -> dict:
    cmd = [sys.executable, "-E", "-s", str(HERE / "setup_probe.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SetupError("set-up probe did not finish in 120 s")
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(spec: str) -> float:
    """Seconds for import + construction in one fresh interpreter."""
    probe = _probe([str(ROOT), spec])
    if Path(probe["tbcurv"]).resolve().parent != (SRC / "tbcurv").resolve():
        raise SetupError(f"set-up probe imported {probe['tbcurv']}")
    return float(probe["setup_s"])


def measure_setup_pair(spec: str, reference_first: bool) -> tuple:
    """(tbcurv set-up seconds, reference import seconds) from two fresh
    interpreters started back to back, in the given order."""
    if reference_first:
        ref = _probe(["--reference"])["setup_s"]
        return measure_setup(spec), ref
    setup = measure_setup(spec)
    return setup, _probe(["--reference"])["setup_s"]


# --------------------------------------------------------------------------
# Running jobs
# --------------------------------------------------------------------------


@dataclass
class PassResult:
    durations: list = field(default_factory=list)  # seconds per job
    kernel_s: list = field(default_factory=list)  # host-speed kernel after each job
    items: int = 0
    output_bytes: int = 0


def normalized_passes(passes: list) -> list:
    """Each pass's job times at reference host speed.  One normalize call
    over all passes in the order they ran, so the host-speed window runs on
    across pass boundaries."""
    flat = hostspeed.normalize(
        [d for p in passes for d in p.durations], [k for p in passes for k in p.kernel_s]
    )
    out, start = [], 0
    for p in passes:
        out.append(flat[start:start + len(p.durations)])
        start += len(p.durations)
    return out


@dataclass
class Runner:
    """Runs job lists in passes and gates every output."""

    cli: object
    jobs: list
    work_dir: Path
    reference: dict = field(default_factory=dict)  # job index -> output digest
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i
            elapsed, code, stdout, out_bytes, crash = self._run_job(i, job)
            result.durations.append(elapsed)
            result.kernel_s.append(hostspeed.kernel_seconds())
            result.items += job.items
            result.output_bytes += len(stdout.encode()) + len(out_bytes)
            self._gate(i, job, code, stdout, out_bytes, crash)
        return result

    def _run_job(self, i, job):
        argv = list(job.argv)
        out_path = self.work_dir / f"job-{i}.json"
        if job.check == "verify":
            out_path.unlink(missing_ok=True)
            argv += ["--out", str(out_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        crash = None
        start = perf_counter()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
            except Exception:  # a crash fails the job's items; the run goes on
                code, crash = None, traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        out_bytes = out_path.read_bytes() if job.check == "verify" and out_path.exists() else b""
        return elapsed, code, stdout.getvalue(), out_bytes, crash

    def _gate(self, i, job, code, stdout, out_bytes, crash):
        if crash is not None:
            failed, problems = job.items, [f"crashed: {crash.strip()}"]
        else:
            failed, problems = gate.check_job(job, code, stdout, out_bytes)
        digest = hashlib.sha256(stdout.encode() + b"\0" + out_bytes).hexdigest()
        if self.reference.setdefault(i, digest) != digest:
            failed = job.items
            problems.append("output bytes differ from the first pass")
        self.attempted += job.items
        self.failed += failed
        self.problems += [f"{job.name}: {p}" for p in problems]


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND jobs beyond
    it in MIN_PASSES passes.  It depends on the job list only, so a faster
    program, which fits more passes into a run, reports the same percentile."""
    n = MIN_PASSES * jobs_per_pass
    return max(
        (p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND),
        default=50.0,
    )


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a Beta-weighted mean
    of all order statistics.  Job times cluster by job type with gaps in
    between, and a plain order statistic jumps across a gap when noise
    reorders two jobs; the weighted mean moves smoothly."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    t = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def layer_metrics(tracer, items: int, output_bytes: int, overhead: float,
                  host_factor: float) -> dict:
    """Per-layer metrics of the traced passes, as name -> (value, unit, base);
    times are divided by ``host_factor``, the traced passes' raw job time
    over their normalized job time."""
    out = {}

    def stat_value(st, fld):
        if fld in ("ms", "self_ms"):
            ms = (st.busy_s if fld == "ms" else st.self_s) * 1e3 / host_factor
            return ms / items, f"{ms:.3f} ms / {items} items"
        count = st.errors if fld == "errors" else st.calls
        return count / items, f"exact: {count} / {items} items"

    for stat, fld in NAMED_LAYER_METRICS:
        value, base = stat_value(tracer.stats[stat], fld)
        out[f"{stat}.{fld}"] = (value, FIELD_UNITS[fld], base)
    calls = tracer.stats["basemanifold.christoffels"].calls
    distinct = tracer.christoffel_distinct
    out["basemanifold.christoffels.distinct_x_frac"] = (
        distinct / calls if calls else 0.0,
        "frac",
        f"exact: {distinct} distinct x / {calls} calls",
    )
    out["cli.output_bytes"] = (
        output_bytes / items, "B/item", f"exact: {output_bytes} B / {items} items"
    )
    for name, st in tracer.layers.items():
        for fld in ("ms", "self_ms", "calls", "errors"):
            value, base = stat_value(st, fld)
            out[f"{name}.{fld}"] = (value, FIELD_UNITS[fld], base)
    out["trace.overhead_frac"] = (overhead, "frac", "(traced - untraced) / untraced job time")
    return out


# --------------------------------------------------------------------------
# Modes
# --------------------------------------------------------------------------


def run_end_to_end(runner: Runner, seconds: float, setup_spec: str):
    """End-to-end metrics, job times at reference host speed (hostspeed.py);
    the notes give the raw wall times too."""
    pairs = []

    def probe_setup(count):
        for _ in range(count):
            pairs.append(measure_setup_pair(setup_spec, reference_first=len(pairs) % 2 == 1))

    probe_setup(SETUP_PAIRS_FIRST)
    runner.run_pass()  # warm-up and reference bytes
    passes = []
    begin = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - begin < seconds:
        passes.append(runner.run_pass())
        if len(passes) <= MIN_PASSES:
            probe_setup(SETUP_PAIRS_PER_PASS)
    # Read before any statistics below allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job_ms = [[d * 1e3 for d in times] for times in normalized_passes(passes)]
    durations_ms = [d for times in job_ms for d in times]
    busy_s = sum(durations_ms) / 1e3
    raw_s = sum(sum(p.durations) for p in passes)
    items = sum(p.items for p in passes)
    # Each job's typical time is its median over the passes, which drops
    # passes that a slow spell of the host hit; p50 is taken over the list.
    job_p50_ms = hd_quantile([statistics.median(times) for times in zip(*job_ms)], 50.0)
    tail_p = tail_percentile(len(runner.jobs))
    metrics = {
        "items_per_s": items / busy_s,
        "job_ms_p50": job_p50_ms,
        "job_ms_tail": hd_quantile(durations_ms, tail_p),
        "setup_s": hostspeed.REFERENCE_IMPORT_S * statistics.median(s / r for s, r in pairs),
        "peak_rss_mb": peak_rss_mb,
    }
    factors = ", ".join(f"{hostspeed.host_factor(p.kernel_s):.3f}" for p in passes)
    notes = {
        "items_per_s": f"{items} items in {len(passes)} passes; "
                       f"raw {items / raw_s:.4g}/s, pass host factors {factors}",
        "job_ms_p50": f"Harrell-Davis median over {len(runner.jobs)} jobs of each "
                      f"job's median over {len(passes)} passes",
        "job_ms_tail": f"Harrell-Davis p{tail_p:g} of {len(durations_ms)} jobs",
        "setup_s": f"median over {len(pairs)} probe pairs of set-up / reference import "
                   f"time; raw set-up median {statistics.median(s for s, _ in pairs):.4f} s, "
                   f"reference median {statistics.median(r for _, r in pairs):.4f} s",
        "peak_rss_mb": "ru_maxrss of the measuring process after the timed passes",
    }
    raw_ms = [[d * 1e3 for d in p.durations] for p in passes]
    kernel_ms = [[k * 1e3 for k in p.kernel_s] for p in passes]
    return metrics, notes, {"job_ms_raw": raw_ms, "kernel_ms": kernel_ms, "setup_pairs_s": pairs}


def run_traced(runner: Runner, seconds: float):
    """Per-layer metrics from traced passes, times at reference host speed."""
    runner.run_pass()  # warm-up and reference bytes
    tracer = tracing.Tracer()
    passes = []  # untraced, traced, untraced, traced, ...
    begin = perf_counter()
    while not passes or perf_counter() - begin < seconds:
        passes.append(runner.run_pass())
        tracer.start_pass(record_spans=len(passes) == 1)
        tracer.install()
        try:
            passes.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
    normalized = [sum(times) for times in normalized_passes(passes)]
    untraced_s, traced_s = sum(normalized[0::2]), sum(normalized[1::2])
    traced = passes[1::2]
    rows = layer_metrics(
        tracer,
        items=sum(p.items for p in traced),
        output_bytes=sum(p.output_bytes for p in traced),
        overhead=(traced_s - untraced_s) / untraced_s,
        host_factor=sum(sum(p.durations) for p in traced) / traced_s,
    )
    return tracer, rows, len(traced)


def _print_table(rows: dict) -> None:
    for name, (value, unit, note) in rows.items():
        print(f"  {name:44s} {value:>16.6g} {unit:11s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        tbcurv = import_checkout_tbcurv()
        env = environment(tbcurv)
        jobs = workloads.build(args.workload, args.seed)
        setup_spec = json.dumps(workloads.setup_spec(jobs))
        measure_setup(setup_spec)  # fail here, before any timing, if it cannot run
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(exist_ok=True)
    runner = Runner(cli=tbcurv.cli, jobs=jobs, work_dir=work_dir)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(jobs)} jobs, "
          f"{sum(j.items for j in jobs)} items per pass")
    print("env " + json.dumps(env, sort_keys=True))
    raw = None
    try:
        if args.trace:
            tracer, rows, passes = run_traced(runner, args.seconds)
            spans = tracer.write_spans(OUT_DIR / f"{stem}-spans.json", [j.name for j in jobs])
            print(f"per-layer metrics, {passes} traced passes "
                  f"({spans} spans of the first written to {OUT_DIR.name}/{stem}-spans.json):")
            if tracer.missing:
                print("  not traced (name not found): " + ", ".join(tracer.missing))
        else:
            metrics, notes, raw = run_end_to_end(runner, args.seconds, setup_spec)
            rows = {
                name: (metrics[name], END_TO_END_UNITS[name], notes[name])
                for name in END_TO_END_UNITS
            }
            print("end-to-end metrics:")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    _print_table(rows)
    fail_frac = runner.failed / runner.attempted
    print(f"  fail_frac {fail_frac:.6g} ({runner.failed} failed / {runner.attempted} "
          "attempted items, all passes)")
    for problem in runner.problems[:20]:
        print(f"  FAILED {problem}")
    if len(runner.problems) > 20:
        print(f"  ... {len(runner.problems) - 20} more failures")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in rows.items()},
    }
    record = dict(result, env=env, workload=args.workload, seed=args.seed,
                  notes={name: note for name, (_, _, note) in rows.items()},
                  problems=runner.problems, raw=raw)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
