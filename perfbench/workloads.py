"""Seeded job lists for the three benchmark workloads.

A job is one ``tbcurv`` command line, exactly as a user would type it after
``tbcurv``.  The program sees only these argv lists; the seed decides the
numbers in them (base points, directions, |v| values, family parameters)
and nothing else.  Which manifolds, dimensions, families, tasks and formats
appear, and how many points each job carries, is fixed structure, so every
seed puts the same amount of work in a pass and run-to-run spread measures
the machine, not the draw.

No job passes ``--workers``, ``--strategy`` or ``--steps``: every job runs
with the program's defaults (serial oracle, Richardson steps, default
tolerances), and keeps running if those flags are removed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("verify", "tables", "families")

PRESETS = ("sasaki", "cheeger-gromoll", "exp+", "exp-")

# (catalog id, dim): sphere uses the polar chart at n = 2 and the
# stereographic ball above; torus-conformal is the one entry with nabla R != 0.
MANIFOLDS = (
    ("sphere", 2),
    ("sphere", 3),
    ("sphere", 4),
    ("sphere", 5),
    ("hyperbolic", 2),
    ("hyperbolic", 3),
    ("hyperbolic", 4),
    ("hyperbolic", 5),
    ("euclidean", 3),
    ("euclidean", 4),
    ("torus-conformal", 3),
)
SPACE_FORMS = ("sphere", "hyperbolic", "euclidean")
TORUS_COEFFS = [[0.1, 1, 1, 0], [0.04, 0, 2, 1]]

TABLE_TASKS = ("scan", "scalar", "sectional", "ricci", "curvature")
# Full (2n)^4 curvature tables grow to tens of megabytes per grid at n = 5;
# the curvature task runs on the small dimensions with a one-line grid.
CURVATURE_MAX_DIM = 3

# Largest |v|_g of a verify point: the regime the acceptance gate covers.
VERIFY_MAX_V = 1.5
# |v|_g of table grids runs over [0, TABLE_MAX_V), inside every family's
# validity horizon (t = |v|^2 <= 25).
TABLE_MAX_V = 2.4
TABLE_V_COUNT = 8


@dataclass(frozen=True)
class Job:
    """One CLI call and what its output must satisfy.

    ``items`` counts bundle points (verify, tables) or families
    (family-check).  ``expect_code`` is the exit code the call must return.
    ``check`` names the output gate in ``gate.py``; ``meta`` carries what
    the gate and the set-up probe need to know about the call.
    """

    name: str
    argv: tuple
    items: int
    expect_code: int
    check: str
    meta: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Chart geometry
# --------------------------------------------------------------------------


def safe_box(manifold: str, dim: int) -> tuple[list[float], list[float]]:
    """Coordinate box the generator draws base points from.

    Each box sits well inside the catalog chart (about half its extent), so
    every finite-difference stencil of the oracle and of nabla R stays in
    the chart by a wide margin.
    """
    if manifold == "sphere" and dim == 2:
        return [0.6, -3.0], [math.pi - 0.6, 3.0]  # polar chart (theta, phi)
    if manifold == "sphere":
        return [-0.45] * dim, [0.45] * dim  # stereographic ball, chart +-0.9
    if manifold == "hyperbolic":
        half = 0.5 * 0.78 / math.sqrt(dim)  # Poincare ball, chart +-0.78/sqrt(n)
        return [-half] * dim, [half] * dim
    if manifold == "euclidean":
        return [-3.0] * dim, [3.0] * dim
    if manifold == "torus-conformal":
        return [-0.75] * dim, [0.75] * dim  # chart +-1.5
    raise ValueError(f"no safe box for {manifold} dim {dim}")


def manifold_args(manifold: str, dim: int) -> list[str]:
    args = ["--manifold", manifold, "--dim", str(dim)]
    if manifold == "torus-conformal":
        args += ["--coeffs", json.dumps(TORUS_COEFFS)]
    return args


def _r(x: float) -> float:
    return round(x, 6)


def _point(rng: random.Random, manifold: str, dim: int) -> list[float]:
    lo, hi = safe_box(manifold, dim)
    return [_r(rng.uniform(a, b)) for a, b in zip(lo, hi)]


def _direction(rng: random.Random, dim: int) -> list[float]:
    """A random nonzero chart direction; the CLI scales it to |v|_g."""
    while True:
        d = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        nrm = math.sqrt(sum(c * c for c in d))
        if nrm > 0.1:
            return [_r(c / nrm) for c in d]


def _grid(base_points, v_norms, directions) -> str:
    return json.dumps(
        {"base_points": base_points, "v_norms": v_norms, "v_directions": directions}
    )


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def verify_jobs(seed: int) -> list[Job]:
    """Every catalog manifold crossed with every preset; each job carries
    one or two base points (fixed by position) with one seeded direction
    and one seeded |v|_g in [0.1, VERIFY_MAX_V]."""
    rng = random.Random(f"verify:{seed}")
    jobs = []
    for mi, (manifold, dim) in enumerate(MANIFOLDS):
        for fi, fam in enumerate(PRESETS):
            k = 2 if (mi + fi) % 2 == 0 else 1
            points = [_point(rng, manifold, dim) for _ in range(k)]
            v_norm = _r(rng.uniform(0.1, VERIFY_MAX_V))
            direction = _direction(rng, dim)
            argv = (
                ["verify"]
                + manifold_args(manifold, dim)
                + ["--family", fam, "--grid", _grid(points, [v_norm], [direction])]
            )
            jobs.append(
                Job(
                    name=f"verify/{manifold}-{dim}/{fam}",
                    argv=tuple(argv),
                    items=k,
                    expect_code=0,
                    check="verify",
                    meta={"manifold": [manifold, dim], "family": {"preset": fam}},
                )
            )
    return jobs


def _table_family(rng: random.Random, index: int) -> tuple[str, list[str], dict]:
    """The four presets and one seeded flatness family, by position."""
    if index < len(PRESETS):
        name = PRESETS[index]
        return name, ["--family", name], {"preset": name}
    alpha = f"exp({_r(rng.uniform(0.1, 0.3))}*t)"
    return "flat", [f"--alpha={alpha}", "--beta-flatness"], {"alpha": alpha, "beta_flatness": True}


def table_rows_per_point(task: str, dim: int) -> int:
    return {
        "scan": 1,
        "scalar": 1,
        "sectional": dim * dim,
        "ricci": (2 * dim) ** 2,
        "curvature": (2 * dim) ** 4,
    }[task]


def tables_jobs(seed: int) -> list[Job]:
    """Each table task on each catalog manifold (curvature only up to
    CURVATURE_MAX_DIM).  Family and output format rotate with the position,
    so every task meets every family and both formats across the list."""
    rng = random.Random(f"tables:{seed}")
    jobs = []
    for mi, (manifold, dim) in enumerate(MANIFOLDS):
        for ti, task in enumerate(TABLE_TASKS):
            if task == "curvature" and dim > CURVATURE_MAX_DIM:
                continue
            fam_name, fam_args, fam_meta = _table_family(rng, (mi + ti) % 5)
            fmt = "json" if (mi + ti) % 2 else "csv"
            n_base, n_dir = (1, 1) if task == "curvature" else (2, 2)
            points = [_point(rng, manifold, dim) for _ in range(n_base)]
            directions = [_direction(rng, dim) for _ in range(n_dir)]
            step = TABLE_MAX_V / TABLE_V_COUNT
            v_norms = [_r(step * (i + rng.random())) for i in range(TABLE_V_COUNT)]
            items = n_base * n_dir * TABLE_V_COUNT
            argv = (
                [task]
                + manifold_args(manifold, dim)
                + fam_args
                + ["--grid", _grid(points, v_norms, directions), "--format", fmt]
            )
            jobs.append(
                Job(
                    name=f"{task}/{manifold}-{dim}/{fam_name}/{fmt}",
                    argv=tuple(argv),
                    items=items,
                    expect_code=0,
                    check="scan" if task == "scan" else "table",
                    meta={
                        "manifold": [manifold, dim],
                        "family": fam_meta,
                        "task": task,
                        "format": fmt,
                        "rows": items * table_rows_per_point(task, dim),
                        "exp_special": fam_name in ("exp+", "exp-")
                        and manifold in SPACE_FORMS,
                    },
                )
            )
    return jobs


# Flat-fiber alphas: beta comes from the flatness formula, and the F == 0
# consequences that family-check verifies must all hold (exit 0).
FLATNESS_ALPHAS = ("1/(1+{c}*t)", "sqrt(1+{c}*t)", "(1+{c}*t)^2")
# Valid (alpha, beta) pairs: alpha > 0 and alpha + t*beta > 0 for all t >= 0
# whenever a, b > 0, and F, H do not vanish (exit 0).
VALID_PAIRS = (
    ("1/(1+{a}*t)", "{b}/(1+t)"),
    ("exp(-{a}*t)", "{b}*exp(-t)"),
    ("1+{a}*t", "{b}"),
    ("(1+t)^-{a}", "{b}*t/(1+t)"),
)
# Invalid pairs: alpha + t*beta = 1 - t/c reaches 0 at t = c < t_max = 25,
# and alpha = 1 - t/c does the same (exit 2).
INVALID_PAIRS = (("1", "-1/{c}"), ("1-t/{c}", "0"))


def families_jobs(seed: int) -> list[Job]:
    """The four presets, one seeded flatness family per template, one
    seeded valid pair per template and one seeded invalid pair per
    template, all at the default 4096 validation samples."""
    rng = random.Random(f"families:{seed}")
    specs = []
    for name in PRESETS:
        specs.append((name, ["--family", name], {"preset": name}, 0))
    for tmpl in FLATNESS_ALPHAS:
        alpha = tmpl.format(c=_r(rng.uniform(0.2, 0.4)))
        specs.append(
            ("flat", [f"--alpha={alpha}", "--beta-flatness"],
             {"alpha": alpha, "beta_flatness": True}, 0)
        )
    for a_tmpl, b_tmpl in VALID_PAIRS:
        alpha = a_tmpl.format(a=_r(rng.uniform(0.3, 0.6)))
        beta = b_tmpl.format(b=_r(rng.uniform(0.5, 1.5)))
        specs.append(
            ("valid", [f"--alpha={alpha}", f"--beta={beta}"], {"alpha": alpha, "beta": beta}, 0)
        )
    for a_tmpl, b_tmpl in INVALID_PAIRS:
        c = _r(rng.uniform(6.0, 9.0))
        alpha, beta = a_tmpl.format(c=c), b_tmpl.format(c=c)
        specs.append(
            ("invalid", [f"--alpha={alpha}", f"--beta={beta}"], {"alpha": alpha, "beta": beta}, 2)
        )
    return [
        Job(
            name=f"family-check/{kind}/{i}",
            argv=tuple(["family-check"] + args),
            items=1,
            expect_code=code,
            check="family",
            meta={"family": meta},
        )
        for i, (kind, args, meta, code) in enumerate(specs)
    ]


_BUILDERS = {"verify": verify_jobs, "tables": tables_jobs, "families": families_jobs}


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one workload for one seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](seed)


def setup_spec(jobs: list[Job]) -> dict:
    """What the set-up probe builds: the distinct manifolds and families of
    a job list, in first-use order."""
    manifolds, families = [], []
    for job in jobs:
        if "manifold" in job.meta:
            manifold, dim = job.meta["manifold"]
            entry = [manifold, dim, TORUS_COEFFS if manifold == "torus-conformal" else None]
            if entry not in manifolds:
                manifolds.append(entry)
        if job.meta["family"] not in families:
            families.append(job.meta["family"])
    return {"manifolds": manifolds, "families": families}
