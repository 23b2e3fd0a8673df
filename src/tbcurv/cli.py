"""Batch front end: family checks, curvature tables, oracle verification,
and scalar-curvature scans, driven by flags or a single JSON config.

Config files are one self-contained JSON document; every flag is an
override.  Outputs are byte-stable across runs with identical config:
iteration order is deterministic and floats are serialized with their
shortest round-trip decimal representation.

Exit codes: 0 success, 1 verification or property failure, 2 bad
configuration or invalid family.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from . import closedform
from .basemanifold import ChartManifold, make_manifold
from .bundlemetric import BundlePoint, squared_norm
from .errors import ConfigError, StencilOutOfDomainError, TbcurvError
from .metricfamily import NaturalMetricFamily, PRESET_NAMES, flatness_beta, preset
from .oracle import OracleConfig, compare

TASKS = ("family-check", "curvature", "sectional", "ricci", "scalar", "verify", "scan")


# --------------------------------------------------------------------------
# Config resolution
# --------------------------------------------------------------------------


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _merge_flags(cfg: dict, args: argparse.Namespace) -> dict:
    """Overlay CLI flags on the config document."""
    cfg = dict(cfg)
    man = dict(cfg.get("manifold") or {})
    if args.manifold is not None:
        man["id"] = args.manifold
    if args.dim is not None:
        man["dim"] = args.dim
    if args.radius is not None:
        man["radius"] = args.radius
    if args.chart is not None:
        man["chart"] = args.chart
    if args.coeffs is not None:
        try:
            man["coeffs"] = json.loads(args.coeffs)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--coeffs must be a JSON array: {exc}")
    if man:
        cfg["manifold"] = man

    fam = dict(cfg.get("family") or {})
    if args.family is not None:
        fam = {"preset": args.family}
    if args.alpha is not None:
        fam.pop("preset", None)
        fam["alpha"] = args.alpha
    if args.beta is not None:
        fam.pop("preset", None)
        fam["beta"] = args.beta
    if args.beta_flatness:
        fam.pop("preset", None)
        fam["beta_flatness"] = True
    if args.t_max is not None:
        fam["t_max"] = args.t_max
    if fam:
        cfg["family"] = fam

    if args.point:
        points = []
        vs = args.v or []
        if len(vs) != len(args.point):
            raise ConfigError("--point and --v must be given the same number of times")
        for xtext, vtext in zip(args.point, vs):
            points.append({"x": _parse_vector(xtext), "v": _parse_vector(vtext)})
        cfg["points"] = points
    if args.grid is not None:
        try:
            cfg["grid"] = json.loads(args.grid)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--grid must be JSON: {exc}")

    out = dict(cfg.get("output") or {})
    if args.out is not None:
        out["path"] = args.out
    if args.format is not None:
        out["format"] = args.format
    if out:
        cfg["output"] = out

    orc = dict(cfg.get("oracle") or {})
    if args.tol_abs is not None:
        orc["tol_abs"] = args.tol_abs
    if args.tol_rel is not None:
        orc["tol_rel"] = args.tol_rel
    if orc:
        cfg["oracle"] = orc
    return cfg


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad vector {text!r}: {exc}")


def _resolve_manifold(cfg: dict) -> ChartManifold:
    man = cfg.get("manifold")
    if not man or "id" not in man:
        raise ConfigError("no manifold configured (--manifold or config.manifold.id)")
    dim = man.get("dim")
    if dim is None:
        raise ConfigError("manifold dim missing (--dim)")
    try:
        return make_manifold(
            man["id"],
            dim=int(dim),
            radius=float(man.get("radius", 1.0)),
            chart=man.get("chart"),
            coeffs=man.get("coeffs"),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc))


def _resolve_family(cfg: dict) -> NaturalMetricFamily:
    fam = cfg.get("family")
    if not fam:
        raise ConfigError("no family configured (--family or --alpha/--beta)")
    t_max = float(fam.get("t_max", 25.0))
    if "preset" in fam:
        name = fam["preset"]
        if name not in PRESET_NAMES:
            raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
        return preset(name, t_max=t_max)
    alpha = fam.get("alpha")
    if alpha is None:
        raise ConfigError("custom family needs alpha")
    if fam.get("beta_flatness"):
        beta = flatness_beta(alpha)
        name = f"custom(alpha={alpha}, beta=flatness)"
    else:
        beta = fam.get("beta")
        if beta is None:
            raise ConfigError("custom family needs beta or beta_flatness")
        name = f"custom(alpha={alpha}, beta={beta})"
    try:
        return NaturalMetricFamily(alpha, beta, name=name, t_max=t_max)
    except TbcurvError as exc:
        raise ConfigError(f"bad family expression: {exc}")


def _finite(values, key: str) -> np.ndarray:
    """A grid entry as floats, checked before any arithmetic: a value that
    is not a finite number is a config error naming it."""
    arr = np.asarray(values, dtype=float)
    for value in arr.ravel():
        if not math.isfinite(value):
            raise ConfigError(f"grid {key} holds {float(value)!r}, which is not a finite number")
    return arr


def _resolve_points(cfg: dict, M: ChartManifold) -> list[BundlePoint]:
    points: list[BundlePoint] = []
    for entry in cfg.get("points") or []:
        x = np.asarray(entry["x"], dtype=float)
        v = np.asarray(entry["v"], dtype=float)
        if x.shape != (M.dim,) or v.shape != (M.dim,):
            raise ConfigError(
                f"point {entry} has wrong dimension (manifold dim {M.dim})"
            )
        points.append(BundlePoint(x, v))
    grid = cfg.get("grid")
    if grid:
        base_points = grid.get("base_points")
        if not base_points:
            raise ConfigError("grid needs base_points")
        v_norms = _finite(grid.get("v_norms", [0.0]), "v_norms")
        directions = grid.get("v_directions")
        if directions is None:
            d = np.zeros(M.dim)
            d[0] = 1.0
            directions = [d.tolist()]
        for xs in base_points:
            x = np.asarray(xs, dtype=float)
            if x.shape != (M.dim,):
                raise ConfigError(
                    f"grid base point {xs} has wrong dimension (manifold dim {M.dim})"
                )
            try:
                M.check_interior(x)
            except StencilOutOfDomainError as exc:
                raise ConfigError(f"grid base point: {exc}")
            g = M.metric(x)
            for d in directions:
                d = _finite(d, "v_directions")
                nrm = float(np.sqrt(d @ g @ d))
                if nrm == 0.0:
                    raise ConfigError("grid direction has zero length")
                for s in v_norms:
                    points.append(BundlePoint(x, (float(s) / nrm) * d))
    for p in points:
        if not (np.isfinite(p.x).all() and np.isfinite(p.v).all()):
            raise ConfigError(f"point x={p.x.tolist()} v={p.v.tolist()} is not finite")
    if not points:
        raise ConfigError("no points configured (--point/--v or config points/grid)")
    return points


def _resolve_oracle(cfg: dict) -> OracleConfig:
    orc = cfg.get("oracle") or {}
    unknown = sorted(set(orc) - {"tol_abs", "tol_rel"})
    if unknown:
        raise ConfigError(f"unsupported oracle settings {unknown}: only tol_abs "
                          "and tol_rel are settable, the steps are fixed")
    try:
        return OracleConfig(**orc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad oracle tolerance: {exc}")


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------


def _json_text(obj, pad: str = "\n") -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``; keys of a
    dict holding a container must be strings.  json indents in pure Python,
    so a container holding no container, such as a table of floats or a
    table row, is written in one piece: a list of finite numbers as one join
    of their reprs, anything else by json's C encoder with the line break
    and indent as its item separator."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    sep = "," + inner
    is_dict = isinstance(obj, dict)
    types = set(map(type, obj.values() if is_dict else obj))
    if not is_dict and types <= {float, int}:
        body = sep.join(map(repr, obj))
        if "n" not in body:  # else nan or inf, which json writes as NaN, Infinity
            return "[" + inner + body + pad + "]"
    if not any(issubclass(t, (dict, list, tuple)) for t in types):
        text = json.dumps(obj, sort_keys=True, separators=(sep, ": "))
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if is_dict:
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, not {type(key).__name__}")
        body = sep.join(
            json.dumps(key) + ": " + _json_text(value, inner)
            for key, value in sorted(obj.items())
        )
        return "{" + inner + body + pad + "}"
    return "[" + inner + sep.join(_json_text(item, inner) for item in obj) + pad + "]"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit(cfg: dict, rows: list[dict], header_note: str, payload_key: str) -> None:
    """Write rows as CSV (default) or JSON, deterministically."""
    out = cfg.get("output") or {}
    fmt = out.get("format", "csv")
    path = out.get("path")
    if fmt == "json":
        doc = {payload_key: rows, "note": header_note}
        _write_text(path, _json_text(doc) + "\n")
        return
    if fmt != "csv":
        raise ConfigError(f"unknown output format {fmt!r}")
    if not rows:
        _write_text(path, f"# {header_note}\n")
        return
    # The header is the union of the rows' keys in first-seen order (error
    # rows carry other columns than good ones); a missing cell is empty.
    # Cells are str() of Python floats, ints and strings: for a float that is
    # its shortest round-trip decimal.  Only free text (an error message) can
    # hold a comma, a quote or a line break; such a cell is quoted, RFC 4180
    # style, and no other cell changes.
    cols = list(dict.fromkeys(chain.from_iterable(dict.fromkeys(map(tuple, rows)))))
    lines = [f"# {header_note}", ",".join(cols)]
    commas = len(cols) - 1
    for row in rows:
        cells = [str(row.get(c, "")) for c in cols]
        line = ",".join(cells)
        if line.count(",") != commas or '"' in line or "\n" in line or "\r" in line:
            line = ",".join(map(_csv_cell, cells))
        lines.append(line)
    _write_text(path, "\n".join(lines) + "\n")


def _csv_cell(text: str) -> str:
    """A CSV cell: quoted, its quotes doubled, if it holds a comma, a quote
    or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


_NOTE = "family functions take t = |v|^2_g (squared norm) as argument"


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_family_check(cfg: dict, samples: int = 4096) -> int:
    if samples < 2:
        raise ConfigError(f"--samples must be at least 2, got {samples}")
    fam = _resolve_family(cfg)
    validation = fam.validate(samples=samples)
    print(f"family {fam.name}: {validation.summary()}")
    if not validation.valid:
        return 2
    t_hi = fam.t_max
    ts = np.array([0.0, 0.25 * t_hi, 0.5 * t_hi, t_hi])
    jets = fam.jets(ts)
    print("      t        F(t)            H(t)")
    for t, f, h in zip(ts, jets.F, jets.H):
        print(f"{t:9.4f}  {f: .8e}  {h: .8e}")
    max_f = fam.max_abs_F(t_hi)
    max_h = fam.max_abs_H(t_hi)
    print(f"max |F| = {max_f:.3e}, max |H| = {max_h:.3e} on [0, {t_hi:g}]")

    failures = 0
    f_zero = max_f <= 1e-10
    h_zero = max_h <= 1e-8
    if f_zero:
        # F == 0 forces the flatness beta, alpha*Delta = phi^2, phi > 0, H == 0.
        # Deviations relative to the reference value (absolute below 1), so
        # the 1e-8 bound stays above one ulp where the family grows large.
        grid = np.linspace(0.0, t_hi, 512)

        def rel_dev(value: np.ndarray, ref: np.ndarray) -> float:
            return float(np.max(np.abs(value - ref) / np.maximum(1.0, np.abs(ref))))

        beta_dev = rel_dev(fam.beta_at(grid), flatness_beta(fam.alpha).value(grid))
        prod_dev = rel_dev(fam.alpha_at(grid) * fam.delta_at(grid), fam.phi_at(grid) ** 2)
        checks = [
            ("beta equals the flatness combination", beta_dev <= 1e-8),
            ("alpha*(alpha+t*beta) == (alpha+t*alpha')^2", prod_dev <= 1e-8),
            ("alpha + t*alpha' > 0", validation.phi_positive),
            ("H vanishes", h_zero),
        ]
        for label, ok in checks:
            print(f"  F == 0 consequence: {label}: {'ok' if ok else 'FAILED'}")
            failures += 0 if ok else 1
    if h_zero and validation.phi_positive:
        print(f"  H == 0 (with phi > 0) consequence: F vanishes: "
              f"{'ok' if f_zero else 'FAILED'}")
        failures += 0 if f_zero else 1
    return 1 if failures else 0


def _coords(values) -> str:
    """A point or vector as one CSV cell: its coordinates joined by ';'."""
    return ";".join(repr(float(c)) for c in values)


def _v_norm(M: ChartManifold, p: BundlePoint) -> float:
    """|v|_g for an error row; nan where the metric gives no real norm."""
    try:
        return math.sqrt(squared_norm(M, p.x, p.v))
    except (ArithmeticError, ValueError):
        return float("nan")


def _table_columns(M: ChartManifold, fam: NaturalMetricFamily, fp, task: str):
    """Index names and value columns (arrays of one shape, a leading point
    axis first when fp is a stack) of one task's table at fp; the scalar
    table has no index."""
    if task == "curvature":
        return "abcd", {"value": closedform.tm_curvature(M, fam, fp).table}
    if task == "sectional":
        sec = closedform.tm_sectional(M, fam, fp)
        return "ij", {"K_hh": sec.hh, "K_vv": sec.vv, "K_hv": sec.hv}
    if task == "ricci":
        return "ab", {"value": closedform.tm_ricci(M, fam, fp)}
    return "", {"scalar": np.asarray(closedform.tm_scalar(M, fam, fp))}


def _table_rows(M: ChartManifold, fam: NaturalMetricFamily, fp, task: str) -> list:
    """Per point of the stack fp, its table rows: x, v, t, the index, then
    the values."""
    names, columns = _table_columns(M, fam, fp, task)
    keys = ("x", "v", "t", *names, *columns)
    index = list(np.ndindex(next(iter(columns.values())).shape[1:]))
    cells = [col.reshape(len(fp.t), -1).tolist() for col in columns.values()]
    heads = zip(map(_coords, fp.q), map(_coords, fp.v), fp.t.tolist())
    return [
        [dict(zip(keys, head + i + c)) for i, c in zip(index, zip(*point))]
        for head, point in zip(heads, zip(*cells))
    ]


def _error_cell(exc: TbcurvError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _exit_code(results: list) -> int:
    """1 if a point of ``closedform.on_points`` failed, else 0."""
    return int(any(isinstance(result, TbcurvError) for _, result in results))


def cmd_tables(cfg: dict, task: str) -> int:
    """curvature | sectional | ricci | scalar closed-form tables."""
    M = _resolve_manifold(cfg)
    fam = _resolve_family(cfg)
    points = _resolve_points(cfg, M)
    results = closedform.on_points(M, fam, points, lambda fp: _table_rows(M, fam, fp, task))
    rows: list[dict] = []
    for p, (_, result) in zip(points, results):
        if isinstance(result, TbcurvError):
            result = [{"x": _coords(p.x), "v": _coords(p.v), "t": _v_norm(M, p),
                       "error": _error_cell(result)}]
        rows.extend(result)
    _emit(cfg, rows, f"{task} of (TM, G); {_NOTE}", task)
    return _exit_code(results)


def cmd_verify(cfg: dict) -> int:
    M = _resolve_manifold(cfg)
    fam = _resolve_family(cfg)
    points = _resolve_points(cfg, M)
    oracle_cfg = _resolve_oracle(cfg)
    reports = compare(M, fam, points, oracle_cfg)
    for r in reports:
        print(r.summary_line())
    out = cfg.get("output") or {}
    doc = {
        "config": {
            "manifold": {"id": M.catalog_id, "params": M.params},
            "family": fam.name,
            "oracle": oracle_cfg.to_dict(),
        },
        "reports": [r.to_json_dict() for r in reports],
    }
    if out.get("path"):
        _write_text(out["path"], _json_text(doc) + "\n")
    ok = all(r.status == "ok" and r.passed for r in reports)
    return 0 if ok else 1


def _constant_curvature_of(M: ChartManifold) -> Optional[float]:
    """Sectional curvature constant of catalog space forms, else None."""
    if M.catalog_id == "euclidean":
        return 0.0
    if M.catalog_id == "sphere":
        radius = float(M.params.get("radius", 1.0))
        return 1.0 / (radius * radius)
    if M.catalog_id == "hyperbolic":
        return -1.0
    return None


def cmd_scan(cfg: dict) -> int:
    M = _resolve_manifold(cfg)
    fam = _resolve_family(cfg)
    points = _resolve_points(cfg, M)

    def scalar_f_h(fp):
        jets = fam.jets(fp.t * fp.t)
        s_general = closedform.tm_scalar(M, fam, fp)
        return list(zip(s_general.tolist(), jets.F.tolist(), jets.H.tolist()))

    results = closedform.on_points(M, fam, points, scalar_f_h)
    special = {"exp+": "plus", "exp-": "minus"}.get(fam.name)
    k0 = _constant_curvature_of(M)
    nan = float("nan")
    rows: list[dict] = []
    for p, (t, result) in zip(points, results):
        s_special, status = nan, "ok"
        if isinstance(result, TbcurvError):
            t, status, result = _v_norm(M, p), _error_cell(result), (nan, nan, nan)
        elif special is not None and k0 is not None:
            s_special = closedform.scalar_exp_specials(k0, M.dim, t * t, special).value
        s_general, f_val, h_val = result
        rows.append(
            {
                "x": _coords(p.x),
                "v_norm": t,
                "scalar_general": s_general,
                "scalar_special": float(s_special),
                "F": f_val,
                "H": h_val,
                "status": status,
            }
        )
    _emit(cfg, rows, f"scalar curvature scan; {_NOTE}", "scan")
    return _exit_code(results)


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tbcurv",
        description="Tangent-bundle curvature tables and oracle verification.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--manifold", help="catalog id (euclidean, sphere, hyperbolic, torus-conformal)")
        p.add_argument("--dim", type=int)
        p.add_argument("--radius", type=float)
        p.add_argument("--chart", help="sphere chart: polar | stereographic")
        p.add_argument("--coeffs", help="conformal monomials as JSON [[c, e1, ..., en], ...]")
        p.add_argument("--family", help=f"preset: {', '.join(PRESET_NAMES)}")
        p.add_argument("--alpha", help="alpha(t) expression for a custom family")
        p.add_argument("--beta", help="beta(t) expression for a custom family")
        p.add_argument(
            "--beta-flatness",
            action="store_true",
            help="derive beta from alpha by the flatness formula",
        )
        p.add_argument("--t-max", type=float, help="validity horizon for t = |v|^2")
        p.add_argument(
            "--point", action="append", help="base point 'x1,x2,...' (repeatable)"
        )
        p.add_argument(
            "--v", action="append", help="fiber vector 'v1,v2,...' (repeatable)"
        )
        p.add_argument(
            "--grid",
            help='JSON {"base_points": [[...]], "v_norms": [...], "v_directions": [[...]]}',
        )
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--tol-abs", type=float)
        p.add_argument("--tol-rel", type=float)
        p.add_argument("--samples", type=int, default=4096,
                       help="family-check validation grid size")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_flags(_load_config(args.config), args)
        task = args.task
        if task == "family-check":
            return cmd_family_check(cfg, samples=args.samples)
        if task in ("curvature", "sectional", "ricci", "scalar"):
            return cmd_tables(cfg, task)
        if task == "verify":
            return cmd_verify(cfg)
        if task == "scan":
            return cmd_scan(cfg)
        raise ConfigError(f"unknown task {task!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TbcurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
