"""Batch front end: family checks, curvature tables, oracle verification,
and scalar-curvature scans, driven by flags or a single JSON config.

Config files are one self-contained JSON document; every flag is an
override.  Outputs are byte-stable across runs with identical config:
iteration order is deterministic and floats are serialized with their
shortest round-trip decimal representation.

Tables (curvature, sectional, ricci, scalar, scan) are written by one
column-wise writer, ``_emit``, in CSV or JSON, one point block at a time:
each value column is formatted once per table, one repr per value, and the
index cells once per table; a point's shared cells (x, v, t) are formatted
once, and its block of rows is one join of texts.

Exit codes: 0 success, 1 verification or property failure, 2 bad
configuration or invalid family.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, NamedTuple, Optional, TextIO

import numpy as np

from . import closedform
from .basemanifold import (
    CATALOG_IDS, ChartManifold, _check_spd, _distinct_rows, constant_curvature, make_manifold,
    vector_norm,
)
from .errors import (
    ConfigError, SingularMetricError, StencilOutOfDomainError, TbcurvError, check_positive,
    error_text,
)
from .metricfamily import F_ZERO, NaturalMetricFamily, PRESET_NAMES, flatness_beta, preset
from .oracle import OracleConfig, compare
from .scalarfun import as_scalar_function

TASKS = ("family-check", "curvature", "sectional", "ricci", "scalar", "verify", "scan")
_ON_POINTS = TASKS[1:]
_TABLES = ("curvature", "sectional", "ricci", "scalar", "scan")


class _Setting(NamedTuple):
    """A flag, the config entry (section, key) it sets, the tasks that read
    it, its argparse settings and ``check(value, name, dim)``, which raises a
    config error naming the entry if its JSON value is wrong (dim is the
    manifold's, or None).  A key of None is the whole section.  A flag of
    None marks an entry only a document sets, an entry of None a flag read
    elsewhere: --config names the document, and --point and --v pair into
    points.  ``needed`` is the error for a missing entry the task reads;
    ``json``, what a JSON flag's text must be; ``kind``, which kind of its
    section's entry a key belongs to, where a section holds one of several
    kinds (a key of no kind belongs to every one)."""

    flag: Optional[str]
    entry: Optional[tuple]
    tasks: tuple
    settings: dict
    check: Optional[Callable] = None
    needed: str = ""
    json: str = ""
    kind: str = ""


def _is(kind, what: str, test: Optional[Callable] = None, failed: str = "") -> Callable:
    """The check of the value's JSON kind (a boolean is not a number), then of test."""
    def check(value, name: str, dim: Optional[int]) -> None:
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ConfigError(f"{name} {json.dumps(value)} is not {what}")
        if test is not None and not test(value):
            raise ConfigError(failed.format(value))
    return check


def _numbers(values, key: str, dim: Optional[int] = None, finite: bool = False) -> None:
    """Check a config list before any arithmetic: it is a list of JSON
    numbers, ints or floats (a boolean or a string is not one), dim of them
    for a point or a direction, with finite all finite."""
    if not (isinstance(values, list) and all(type(k) in (int, float) for k in values)
            and dim in (None, len(values))):
        if dim is None:
            raise ConfigError(f"{key} {json.dumps(values)} is not a list of numbers")
        raise ConfigError(f"{key} entry {json.dumps(values)} is not a list of "
                          f"{dim} numbers (manifold dim {dim})")
    for value in values if finite else ():
        if not math.isfinite(value):
            raise ConfigError(f"{key} holds {float(value)!r}, which is not a finite number")


def _positive(what: str, below: float = math.inf) -> Callable:
    """The check of a positive finite number below ``below`` by the
    library's rule, named as the library names it (``what``)."""
    def check(value, name: str, dim: Optional[int]) -> None:
        _built(check_positive, value, what, below)
    return check


def _points(value, name: str, dim: Optional[int]) -> None:
    _is(list, "a list of points")(value, name, dim)
    for entry in value:
        if not (isinstance(entry, dict) and "x" in entry and "v" in entry):
            raise ConfigError(f"point {json.dumps(entry)} needs x and v")
        for key in "xv":
            _numbers(entry[key], f"point {key}", dim)


def _grid(value, name: str, dim: Optional[int]) -> None:
    if value and not value.get("base_points"):
        raise ConfigError("grid needs base_points")


def _norms(values, name: str, dim: Optional[int]) -> None:
    """Values of |v|_g: finite numbers, none below 0 (-0.0 is 0)."""
    _numbers(values, name, finite=True)
    for value in values:
        if value < 0:
            raise ConfigError(f"{name} holds {value!r}, which is below 0")


def _vectors(values, name: str, dim: Optional[int]) -> None:
    """Base points or directions: a list of dim finite numbers each."""
    _is(list, "a list of lists")(values, name, dim)
    for entry in values:
        _numbers(entry, name, dim, finite=True)


def _family(value: dict, name: str, dim: Optional[int]) -> None:
    """A family entry is of one kind: a preset, or a custom pair of alpha
    with beta or beta_flatness true."""
    rows = _ENTRIES["family"]
    keys = [key for key in rows if key in value and rows[key].kind]
    if len({rows[key].kind for key in keys}) > 1:
        raise ConfigError(f"family takes a preset or a custom pair, not both: {', '.join(keys)}")
    if "preset" in value:
        return
    if "alpha" not in value:
        raise ConfigError("custom family needs alpha")
    flat = value.get("beta_flatness")
    if "beta" not in value and not flat:
        raise ConfigError("custom family needs beta or beta_flatness")
    if "beta" in value and flat:
        raise ConfigError("custom family takes beta or beta_flatness true, not both")


_EXPRESSION = _is((str, int, float), "an expression string or a number")

_SETTINGS = (
    _Setting("--config", None, TASKS, {"help": "JSON config file; flags override it"}),
    _Setting("--manifold", ("manifold", "id"), _ON_POINTS,
             {"help": f"catalog id: {', '.join(CATALOG_IDS)}"},
             _is(str, "a string", CATALOG_IDS.__contains__,
                 f"unknown manifold {{!r}}; choose from {CATALOG_IDS}"),
             "no manifold configured (--manifold or config.manifold.id)"),
    _Setting("--dim", ("manifold", "dim"), _ON_POINTS, {"type": int},
             _is(int, "an integer", lambda dim: dim >= 2, "manifold dim {} is not at least 2"),
             "manifold dim missing (--dim)"),
    _Setting("--radius", ("manifold", "radius"), _ON_POINTS, {"type": float},
             _positive("sphere radius")),
    _Setting("--chart", ("manifold", "chart"), _ON_POINTS,
             {"help": "sphere chart: polar | stereographic"}),
    _Setting("--coeffs", ("manifold", "coeffs"), _ON_POINTS,
             {"help": "conformal monomials as JSON [[c, e1, ..., en], ...]"},
             _is(list, "a list of [c, e1, ..., en] rows"), json="a JSON array"),
    _Setting("--family", ("family", "preset"), TASKS,
             {"help": f"preset: {', '.join(PRESET_NAMES)}"},
             _is(str, "a string", PRESET_NAMES.__contains__,
                 f"unknown preset {{!r}}; choose from {PRESET_NAMES}"), kind="preset"),
    _Setting("--alpha", ("family", "alpha"), TASKS,
             {"help": "alpha(t) expression for a custom family"}, _EXPRESSION, kind="custom"),
    _Setting("--beta", ("family", "beta"), TASKS,
             {"help": "beta(t) expression for a custom family"}, _EXPRESSION, kind="custom"),
    _Setting("--beta-flatness", ("family", "beta_flatness"), TASKS,
             {"action": "store_true", "default": None,
              "help": "derive beta from alpha by the flatness formula"},
             _is(bool, "true or false"), kind="custom"),
    _Setting("--t-max", ("family", "t_max"), TASKS,
             {"type": float, "help": "validity horizon for t = |v|^2"}),
    _Setting(None, ("family", None), TASKS, {}, _family,
             "no family configured (--family or --alpha/--beta)"),
    _Setting(None, ("points", None), _ON_POINTS, {}, _points),
    _Setting("--point", None, _ON_POINTS,
             {"action": "append",
              "help": "base point 'x1,x2,...' (repeatable); a value that starts with '-' "
                      "must be joined with '=', as in --point=-1,0.3"}),
    _Setting("--v", None, _ON_POINTS,
             {"action": "append",
              "help": "fiber vector 'v1,v2,...' (repeatable); a value that starts with '-' "
                      "must be joined with '=', as in --v=-0.2,0.2"}),
    _Setting("--grid", ("grid", None), _ON_POINTS,
             {"help": 'JSON {"base_points": [[...]], "v_norms": [...], "v_directions": [[...]]}'},
             _grid, json="JSON"),
    _Setting(None, ("grid", "base_points"), _ON_POINTS, {}, _vectors),
    _Setting(None, ("grid", "v_norms"), _ON_POINTS, {}, _norms),
    _Setting(None, ("grid", "v_directions"), _ON_POINTS, {}, _vectors),
    _Setting("--out", ("output", "path"), _ON_POINTS, {"help": "output file (default stdout)"},
             _is(str, "a string")),  # an integer path would name a file descriptor
    _Setting("--format", ("output", "format"), _TABLES, {"help": "csv (default) | json"},
             _is(str, "a string", ("csv", "json").__contains__, "unknown output format {!r}")),
    _Setting("--tol-abs", ("oracle", "tol_abs"), ("verify",), {"type": float},
             _positive("tol_abs")),
    _Setting("--tol-rel", ("oracle", "tol_rel"), ("verify",), {"type": float},
             _positive("tol_rel", below=1.0)),
)

# The rows by config section and key; the manifold comes first, for its dim.
_ENTRIES: dict = {}
for _row in (row for row in _SETTINGS if row.entry):
    _ENTRIES.setdefault(_row.entry[0], {})[_row.entry[1]] = _row


# --------------------------------------------------------------------------
# Config resolution
# --------------------------------------------------------------------------


def _json_int(text: str):
    """A JSON integer as an exact int, or as +-inf where it is beyond the
    range of a double, as json reads 1e400."""
    value = float(text)
    return int(text) if math.isfinite(value) else value


# JSON text as Python values, its numbers read as doubles (RFC 8259 section 6)
_json = functools.partial(json.loads, parse_int=_json_int)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = _json(handle.read())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _merge_flags(cfg: dict, args: argparse.Namespace) -> dict:
    """Overlay the task's flags on the config document: each flag given sets
    its entry, in table order, but not in a section of the wrong JSON type,
    which ``_check_config`` names.  A flag of one kind first drops the
    document's keys of the other kinds from its section; --point and --v
    pair into points."""
    cfg = dict(cfg)
    given = [(row, getattr(args, row.flag[2:].replace("-", "_"), None))
             for row in _SETTINGS if row.flag and row.entry]
    given = [(row, value) for row, value in given if value is not None]
    for row, _ in given:
        section = row.entry[0]
        entry, rows = cfg.get(section), _ENTRIES[section]
        if row.kind and isinstance(entry, dict):
            cfg[section] = {key: item for key, item in entry.items()
                            if key not in rows or rows[key].kind in ("", row.kind)}
    for row, value in given:
        if row.json:
            try:
                value = _json(value)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{row.flag} must be {row.json}: {exc}")
        section, key = row.entry
        entry = cfg.get(section)
        if entry is not None and not isinstance(entry, dict):
            continue
        if key is not None:
            value = {**(entry or {}), key: value}
        cfg[section] = value
    # code, not table rows: points is a list section, and _check_config
    # reads any section whose rows carry keys as a JSON object
    xs, vs = getattr(args, "point", None) or [], getattr(args, "v", None) or []
    if (xs or vs) and isinstance(cfg.get("points") or [], list):
        if len(vs) != len(xs):
            raise ConfigError("--point and --v must be given the same number of times")
        cfg["points"] = [
            {"x": _parse_vector(xtext), "v": _parse_vector(vtext)}
            for xtext, vtext in zip(xs, vs)
        ]
    return cfg


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad vector {text!r}: {exc}")


def _check_config(cfg: dict, task: str) -> dict:
    """The merged document, checked in one walk of the table before any
    resolver reads it, less its null (missing) keys and its null or empty
    (missing) sections.  Each entry is checked whatever the task; a section
    or key the table does not list, or a missing entry the task needs, is a
    config error."""
    _check_known("config section", cfg, _ENTRIES)
    checked: dict = {}
    for section, rows in _ENTRIES.items():
        value = cfg.get(section)
        if value is not None and rows.keys() != {None}:
            _is(dict, "a JSON object")(value, section, None)
            _check_known(f"{section} key", value, rows)
            value = {key: item for key, item in value.items() if item is not None} or None
        for key, row in rows.items():
            item = value if key is None else (value or {}).get(key)
            if item is None and row.needed and task in row.tasks:
                raise ConfigError(row.needed)
            if item is not None and row.check:
                name = section if key is None else f"{section} {key}"
                row.check(item, name, checked.get("manifold", {}).get("dim"))
        if value is not None:
            checked[section] = value
    return checked


def _check_known(what: str, doc: dict, known: dict) -> None:
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown {what} {key!r}; choose from {tuple(filter(None, known))}")


def _built(make: Callable, *args, **kwargs):
    """make(*args, **kwargs); a ValueError naming a value is a config error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _resolve_manifold(cfg: dict) -> ChartManifold:
    settings = dict(cfg["manifold"])
    return _built(make_manifold, settings.pop("id"), **settings)


def _resolve_family(cfg: dict) -> NaturalMetricFamily:
    """The family of the checked document's family entry (``_family``)."""
    fam = cfg["family"]
    if "preset" in fam:
        make = functools.partial(preset, fam["preset"])
    else:
        alpha, beta, flat = fam["alpha"], fam.get("beta"), fam.get("beta_flatness")
        name = f"custom(alpha={alpha}, beta={'flatness' if flat else beta})"

        def make(**t_max):
            alpha_fn = as_scalar_function(alpha)
            beta_fn = flatness_beta(alpha_fn) if flat else beta
            return NaturalMetricFamily(alpha_fn, beta_fn, name=name, **t_max)

    try:
        return make(**({"t_max": fam["t_max"]} if "t_max" in fam else {}))
    except ValueError as exc:
        raise ConfigError(str(exc))
    except TbcurvError as exc:
        raise ConfigError(f"bad family expression: {exc}")


def _resolve_points(cfg: dict, M: ChartManifold) -> tuple[np.ndarray, np.ndarray]:
    """The configured points as base points x and vectors v, each (m, n):
    the explicit points first, then the grid's, base point by direction by
    norm, with v = (s / |d|_g) d for each norm s and direction d.  The grid
    is checked as a whole, each check over all its base points or
    directions: the chart, the metric (finite and positive definite), the
    directions' lengths; then every point must be finite."""
    n = M.dim
    entries = cfg.get("points", [])
    xs = [np.array([entry["x"] for entry in entries], dtype=float).reshape(-1, n)]
    vs = [np.array([entry["v"] for entry in entries], dtype=float).reshape(-1, n)]
    grid = cfg.get("grid")
    if grid:
        base = np.asarray(grid["base_points"], dtype=float)
        v_norms = np.asarray(grid.get("v_norms", [0.0]), dtype=float)
        directions = np.asarray(grid.get("v_directions", np.eye(n)[:1]), dtype=float)
        directions = directions.reshape(-1, n)
        try:
            M.check_interior(base)
            g = M.metric(base)
            _check_spd(g, base)
        except (StencilOutOfDomainError, SingularMetricError) as exc:
            raise ConfigError(f"grid base point: {exc}")
        nrm = vector_norm(g[:, None], directions)  # per base point and direction
        if (nrm == 0.0).any():
            raise ConfigError("grid direction has zero length")
        # where a vector overflows, the finiteness check below names its point
        with np.errstate(over="ignore", invalid="ignore"):
            vectors = (v_norms / nrm[..., None])[..., None] * directions[:, None, :]
        xs.append(np.broadcast_to(base[:, None, None, :], vectors.shape).reshape(-1, n))
        vs.append(vectors.reshape(-1, n))
    x, v = np.concatenate(xs), np.concatenate(vs)
    if not x.size:
        raise ConfigError("no points configured (--point/--v or config points/grid)")
    finite = np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1)
    if not finite.all():
        k = np.argmin(finite)
        raise ConfigError(f"point x={x[k].tolist()} v={v[k].tolist()} is not finite")
    return x, v


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------


@contextlib.contextmanager
def _write_text(path: Optional[str]) -> Iterator[TextIO]:
    """The stream a command writes its text to: stdout, or the file at path,
    opened before the command computes anything, so that it fails first; an
    error of the file, opening or writing, is a config error."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc.strerror}")


def _emit(out: TextIO, cfg: dict, blocks: list, note: str, payload_key: str,
          index: str = "") -> None:
    """Write a table to out, as CSV (default) or JSON, a point block at a time.

    ``blocks`` holds ``(head, values)`` per block of rows, which is one
    point of a table task, or the whole of a scan: head maps column names
    to the cells every row of the block shares (strings and floats), and
    values is None for a block of one row, or maps column names to the
    block's value columns, one cell per row: a list of strings, or a float
    array whose cells in C order are the rows.  Every block with values
    has the same value columns.  In a table with an ``index`` (one letter
    per axis), every value array has the index's shape, and each row also
    carries its index cells.  Each column is formatted once per table: a
    value column over all its blocks (``_column_texts``), the index cells
    from one template; each block then takes its slice of the texts, its
    head cells are formatted once, and its rows are one join
    (``_block_text``)."""
    index = tuple(index)
    if cfg.get("output", {}).get("format") == "json":
        out.writelines(_json_chunks(blocks, note, payload_key, index))
    else:
        out.writelines(_csv_chunks(blocks, note, index))


def _csv_chunks(blocks: list, note: str, index: tuple) -> Iterator[str]:
    """The CSV text of a table, a point block at a time.

    The header is the union of the rows' columns in first-seen order (error
    rows carry other columns than good ones); a missing cell is empty.
    Floats are written as their shortest round-trip repr.  Only free text
    (an error message) can hold a comma, a quote or a line break; such a
    cell is quoted, RFC 4180 style, and no other cell changes."""
    keys = [(*head, *index, *values) if values else tuple(head) for head, values in blocks]
    cols = list(dict.fromkeys(chain.from_iterable(dict.fromkeys(keys))))
    yield f"# {note}\n" + ",".join(cols) + "\n"
    texts = _column_texts(blocks, _csv_cell)
    index_cells = _index_cells(blocks, ",".join(["%d"] * len(index)))
    start = 0
    for head, values in blocks:
        cells = {key: _csv_cell(str(cell)) for key, cell in head.items()}
        skip = ()
        if values:
            stop = start + _row_count(values)
            cells.update((key, texts[key][start:stop]) for key in values)
            start = stop
            if index:  # the index columns as one text per row
                cells[index[0]], skip = index_cells, index[1:]
        pieces = [p for col in cols if col not in skip for p in (",", cells.get(col, ""))]
        yield _block_text(pieces[1:], "\n") + "\n"


_CSV_SPECIAL = re.compile('[,"\r\n]').search


def _csv_cell(text: str) -> str:
    """A CSV cell: quoted, its quotes doubled, if it holds a comma, a quote
    or a line break."""
    if _CSV_SPECIAL(text):
        return '"' + text.replace('"', '""') + '"'
    return text


# Between the cells of a JSON table row, and between its rows.
_JSON_CELL_SEP = ",\n      "
_JSON_ROW_SEP = "\n    },\n    {\n      "


def _json_chunks(blocks: list, note: str, payload_key: str, index: tuple) -> Iterator[str]:
    """The text of ``json.dumps({payload_key: rows, "note": note},
    sort_keys=True, indent=2) + "\\n"`` for the table's rows, a point block
    at a time.  A row's keys are sorted; the index names sort next to each
    other, so their cells are one text per row."""
    note_item = _json_key("note") + encode_basestring_ascii(note)
    yield "{\n  " + (note_item + ",\n  " if "note" < payload_key else "")
    yield _json_key(payload_key) + "[\n    "
    texts = _column_texts(blocks, encode_basestring_ascii, json_floats=True)
    index_cells = _index_cells(blocks, _JSON_CELL_SEP.join(f'"{name}": %d' for name in index))
    start = 0
    for k, (head, values) in enumerate(blocks):
        # each cell as its pieces: the key text, then the value's text or texts
        cells = {key: (_json_key(key) + _json_value(cell),) for key, cell in head.items()}
        skip = ()
        if values:
            stop = start + _row_count(values)
            cells.update((key, (_json_key(key), texts[key][start:stop])) for key in values)
            start = stop
            if index:
                cells[index[0]], skip = (index_cells,), index[1:]
        pieces = [p for key in sorted(cells) if key not in skip
                  for p in (_JSON_CELL_SEP, *cells[key])]
        rows = _block_text(pieces[1:], _JSON_ROW_SEP)
        yield ("{\n      " if k == 0 else ",\n    {\n      ") + rows + "\n    }"
    yield "\n  ]" + ("" if "note" < payload_key else ",\n  " + note_item) + "\n}\n"


@functools.cache
def _json_key(key: str) -> str:
    """The text of a JSON object key and its separator, as json.dumps writes them."""
    return encode_basestring_ascii(key) + ": "


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(cell) -> str:
    """``json.dumps(cell)`` of a head cell, a string or a float."""
    if isinstance(cell, str):
        return encode_basestring_ascii(cell)
    text = float.__repr__(cell)
    return _JSON_NONFINITE.get(text, text)


def _column_texts(blocks: list, quote: Callable, json_floats: bool = False) -> dict:
    """Each value column of a table as texts over all its blocks, in block
    order: one ``_texts`` per column, so a block takes its rows as a slice."""
    parts: dict = {}
    for _, values in blocks:
        for key, col in (values or {}).items():
            parts.setdefault(key, []).append(col)
    return {key: _texts(cols, quote, json_floats) for key, cols in parts.items()}


def _texts(cols: list, quote: Callable, json_floats: bool = False) -> list:
    """The cells of the parts of a column as texts, in order: lists of
    strings through quote, or float arrays (any shape, C order) as the repr
    of each value, or with json_floats as NaN or Infinity where it is not
    finite.  The arrays format each distinct value once, told apart by its
    bits so that -0.0 keeps its sign, and spread the texts back by one take."""
    if not isinstance(cols[0], np.ndarray):
        return list(map(quote, chain.from_iterable(cols)))
    values = np.concatenate([col.ravel() for col in cols])
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(float)
    texts = list(map(repr, distinct.tolist()))
    if json_floats and not np.isfinite(distinct).all():
        texts = [_JSON_NONFINITE.get(text, text) for text in texts]
    return np.array(texts, dtype=object)[inverse].tolist()


def _row_count(values: dict) -> int:
    """The number of rows of a block: the cells of any of its value columns."""
    col = next(iter(values.values()))
    return col.size if isinstance(col, np.ndarray) else len(col)


def _index_cells(blocks: list, template: str) -> tuple:
    """The index cells of a table's rows, the same in every block with
    values: ``template % index`` per row, over the shape of its value
    arrays in C order (empty without an index or such a block)."""
    shape = next((np.shape(next(iter(v.values()))) for _, v in blocks if v), ())
    if not template or not shape:
        return ()
    return _index_texts(template, shape)


@functools.lru_cache(maxsize=None)
def _index_texts(template: str, shape: tuple) -> tuple:
    """``template % index`` for each index of shape in C order, built once
    per template and shape; a tuple, so that no table changes it."""
    return tuple(template % i for i in product(*map(range, shape)))


def _block_text(pieces: list, row_sep: str) -> str:
    """The rows of one point block, joined by row_sep.  A row is its pieces
    in order, each a text every row shares or a list (or tuple) of per-row
    texts.  The block is one join: neighbouring shared texts are merged, and
    each piece fills its every k-th slot of one list by slice assignment."""
    merged = [row_sep]  # every row starts with row_sep; the first one is cut
    for piece in pieces:
        if isinstance(piece, str) and isinstance(merged[-1], str):
            merged[-1] += piece
        else:
            merged.append(piece)
    lists = [piece for piece in merged if not isinstance(piece, str)]
    rows = len(lists[0]) if lists else 1
    flat = [""] * (rows * len(merged))
    for j, piece in enumerate(merged):
        flat[j :: len(merged)] = [piece] * rows if isinstance(piece, str) else piece
    return "".join(flat)[len(row_sep) :]


_NOTE = "family functions take t = |v|^2_g (squared norm) as argument"


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_family_check(cfg: dict) -> int:
    fam = _resolve_family(cfg)
    validation = fam.validate()
    print(f"family {fam.name}: {validation.summary()}")
    if not validation.valid:
        return 2
    t_hi = fam.t_max
    ts = np.array([0.0, 0.25 * t_hi, 0.5 * t_hi, t_hi])
    # the flatness numbers on 2048 points, read from the walk that gives the table;
    # below a subnormal t_max, linspace rounds some nodes above it
    grid = np.minimum(np.linspace(0.0, t_hi, 2048), t_hi)
    jets = fam.jets(np.concatenate((ts, grid)))
    print("      t        F(t)            H(t)")
    for t, f, h in zip(ts, jets.F, jets.H):
        print(f"{t:9.4f}  {f: .8e}  {h: .8e}")
    max_f, max_h, beta_dev, prod_dev = jets[ts.size:].flatness(grid)
    print(f"max |F| = {max_f:.3e}, max |H| = {max_h:.3e} on [0, {t_hi:g}]")

    failures = 0
    f_zero = max_f <= F_ZERO
    h_zero = max_h <= 1e-8
    if f_zero:
        # F == 0 forces the flatness beta, alpha*Delta = phi^2, phi > 0, H == 0.
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


def _coords(rows: np.ndarray) -> list[str]:
    """Each point or vector of a stack (m, n) as one CSV cell: its
    coordinates joined by ';', one repr per coordinate, made once per
    distinct row (by its bits, so that -0.0 is written as such)."""
    distinct, inverse = _distinct_rows(rows)
    texts = [";".join(map(repr, row)) for row in distinct.tolist()]
    return [texts[i] for i in inverse.tolist()]


# The index of each table task, one letter per axis of its value columns.
_TABLE_INDEX = {"curvature": "abcd", "sectional": "ij", "ricci": "ab", "scalar": ""}


def _table_columns(M: ChartManifold, fam: NaturalMetricFamily, fp, task: str) -> dict:
    """The value columns of one task's table at fp by name: arrays of one
    shape, a leading point axis first when fp is a stack, then one axis per
    index name of the task."""
    if task == "curvature":
        return {"value": closedform.tm_curvature(M, fam, fp)}
    if task == "sectional":
        sec = closedform.tm_sectional(M, fam, fp)
        return {"K_hh": sec.hh, "K_vv": sec.vv, "K_hv": sec.hv}
    if task == "ricci":
        return {"value": closedform.tm_ricci(M, fam, fp)}
    return {"scalar": np.asarray(closedform.tm_scalar(M, fam, fp))}


def _exit_code(results: list) -> int:
    """1 if a point of ``closedform.on_points`` failed, else 0."""
    return int(any(isinstance(result, TbcurvError) for _, result in results))


def cmd_tables(cfg: dict, task: str) -> int:
    """curvature | sectional | ricci | scalar closed-form tables."""
    M = _resolve_manifold(cfg)
    fam = _resolve_family(cfg)
    x, v = _resolve_points(cfg, M)

    def point_columns(fp):
        columns = _table_columns(M, fam, fp, task)
        return [{key: col[k, ...] for key, col in columns.items()} for k in range(len(fp.t))]

    with _write_text(cfg.get("output", {}).get("path")) as out:
        results = closedform.on_points(M, fam, x, v, point_columns)
        blocks = []
        for x_cell, v_cell, (t, result) in zip(_coords(x), _coords(v), results):
            head = {"x": x_cell, "v": v_cell, "t": t}
            if isinstance(result, TbcurvError):
                blocks.append(({**head, "error": error_text(result)}, None))
            else:
                blocks.append((head, result))
        _emit(out, cfg, blocks, f"{task} of (TM, G); {_NOTE}", task, _TABLE_INDEX[task])
    return _exit_code(results)


def cmd_verify(cfg: dict) -> int:
    M = _resolve_manifold(cfg)
    fam = _resolve_family(cfg)
    x, v = _resolve_points(cfg, M)
    oracle_cfg = _built(OracleConfig, **cfg.get("oracle", {}))
    path = cfg.get("output", {}).get("path")
    config = {
        "manifold": {"id": M.catalog_id, "params": M.params},
        "family": fam.name,
        "oracle": oracle_cfg.to_dict(),
    }
    # the config line, then one line per report in point order, each written
    # as its block is done, then "]}"; _resolve_points gives at least one
    lead = '{"config": ' + json.dumps(config, sort_keys=True) + ', "reports": [\n'
    ok = True
    with _write_text(path) as out:
        for report in compare(M, fam, x, v, oracle_cfg):
            print(report.summary_line())
            if path:
                out.write(lead + json.dumps(report.to_json_dict(), sort_keys=True))
                lead = ",\n"
            ok = ok and report.status == "ok" and report.passed
        if path:
            out.write("\n]}\n")
    return 0 if ok else 1


def cmd_scan(cfg: dict) -> int:
    M = _resolve_manifold(cfg)
    fam = _resolve_family(cfg)
    x, v = _resolve_points(cfg, M)

    def scalar_f_h(fp):
        with np.errstate(over="ignore"):  # a t^2 that overflows is the family's error
            jets = fam.jets(fp.t * fp.t)
        s_general = closedform.tm_scalar(M, fam, fp)
        return list(zip(s_general.tolist(), jets.F.tolist(), jets.H.tolist()))

    with _write_text(cfg.get("output", {}).get("path")) as out:
        results = closedform.on_points(M, fam, x, v, scalar_f_h)
        special = {"exp+": "plus", "exp-": "minus"}.get(fam.name)
        k0 = constant_curvature(M)
        nan = float("nan")
        rows = []  # v_norm, the three values and status, per point
        for t, result in results:
            s_special, status = nan, "ok"
            if isinstance(result, TbcurvError):
                status, result = error_text(result), (nan, nan, nan)
            elif special is not None and k0 is not None:
                s_special = closedform.scalar_exp_specials(k0, M.dim, t * t, special)
            s_general, f_val, h_val = result
            rows.append((t, s_general, s_special, f_val, h_val, status))
        v_norm, s_general, s_special, f_val, h_val, status = zip(*rows)
        columns = {
            "x": _coords(x),
            "v_norm": np.array(v_norm),
            "scalar_general": np.array(s_general),
            "scalar_special": np.array(s_special),
            "F": np.array(f_val),
            "H": np.array(h_val),
            "status": list(status),
        }
        _emit(out, cfg, [({}, columns)], f"scalar curvature scan; {_NOTE}", "scan")
    return _exit_code(results)


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged.  Each
    task takes the flags of ``_SETTINGS`` that it reads, and no other."""
    parser = argparse.ArgumentParser(
        prog="tbcurv",
        description="Tangent-bundle curvature tables and oracle verification.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        for row in _SETTINGS:
            if row.flag and task in row.tasks:
                p.add_argument(row.flag, **row.settings)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        task = args.task
        cfg = _check_config(_merge_flags(_load_config(args.config), args), task)
        if task == "family-check":
            return cmd_family_check(cfg)
        if task == "verify":
            return cmd_verify(cfg)
        if task == "scan":
            return cmd_scan(cfg)
        return cmd_tables(cfg, task)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TbcurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
