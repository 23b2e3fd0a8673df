"""Ground-truth numerical curvature of (TM, G).

The oracle treats the induced-coordinate bundle metric as an opaque
2n-dimensional metric: it differentiates G(x, v) by finite differences,
assembles the Levi-Civita curvature under the same pinned sign convention
as the base machinery, and contracts with the adapted frame.  It never
evaluates any closed-form curvature expression, so agreement between the
two tables is a genuine two-route check.

Both routes use one pinned sign convention, so the comparison is
``closed - oracle``, point by point.  It never absorbs a sign: where the two
have opposite signs, |closed - oracle| >= max(|closed|, |oracle|), so with
tol_rel < 1 a flip larger than tol_abs / (1 - tol_rel) always fails.  A
failing report names each class that the oracle's negative would pass.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .basemanifold import AdaptedFramePoint, ChartManifold
from .bundlemetric import adapted_frame_vectors, induced_metric
from .closedform import CLASS_NAMES, component_class_labels, on_points, tm_curvature
from .errors import TbcurvError, check_positive, error_text
from .metricfamily import NaturalMetricFamily
from .numdiff import (
    ORACLE,
    frame_components,
    levi_civita,
    matrix_jets,
    riemann_from_christoffels,
)

__all__ = [
    "OracleConfig",
    "CurvatureReport",
    "numeric_tm_curvature",
    "compare",
]


class _Tolerances(NamedTuple):
    tol_abs: float = 1e-5
    tol_rel: float = 1e-3


class OracleConfig(_Tolerances):
    """Tolerance policy of the comparison: a component passes when
    |closed - oracle| <= tol_abs + tol_rel * max(|closed|, |oracle|).
    Each tolerance is a positive finite number (a boolean is not one): an
    infinite one would pass every component, a NaN one fail it.  tol_rel is
    below 1, so that no sign flip above tol_abs / (1 - tol_rel) passes.
    Every config is checked when it is built, by ``_replace`` too.

    The steps are not configurable; the oracle always differentiates on the
    ``numdiff.ORACLE`` stencil.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        check_positive(config.tol_abs, "tol_abs")
        check_positive(config.tol_rel, "tol_rel", below=1.0)
        return config

    @classmethod
    def _make(cls, iterable) -> "OracleConfig":
        return cls(*iterable)

    def to_dict(self) -> dict:
        return {
            "base_step": ORACLE.base,
            "tol_abs": self.tol_abs,
            "tol_rel": self.tol_rel,
        }


def numeric_tm_curvature(
    M: ChartManifold, fam: NaturalMetricFamily, fp: AdaptedFramePoint
) -> tuple[np.ndarray, np.ndarray]:
    """Curvature table of the 2n-dimensional metric G in the adapted frame
    of fp, raw (no symmetry projection), and the condition number of G, or
    one of each per point of a stack of frame points, from finite
    differences of induced-metric values only: ``induced_metric`` on the
    whole stencil, in one call, which evaluates the chart's connection
    once per distinct base point of the stencil's x parts.  The frame
    vectors (``adapted_frame_vectors``) are lifted with the Gamma at fp.q
    that the same call returned: fp.q is the centre of the stencil.

    A check that fails at a stencil point (the metric's, the family's)
    names fp's point as well; a table that overflowed is a NonFiniteError
    naming it, computed without a warning."""
    n = M.dim
    # One check for the whole stencil, Christoffel stencils at its points included.
    M.check_interior(fp.q, M.oracle_reach(fp.q))
    z0 = np.concatenate([fp.q, fp.v], axis=-1)
    gamma = None

    def metric_at(z):
        nonlocal gamma
        G, gammas = induced_metric(M, fam, z[..., :n], z[..., n:], check=False)
        gamma = gammas[..., 0, :, :, :].copy()  # the centre row: fp.q
        return G

    with np.errstate(all="ignore"):
        try:
            g0, dg, d2g = matrix_jets(metric_at, z0, ORACLE)
        except TbcurvError as exc:
            lead = fp.q.shape[:-1]
            count = math.prod(lead)
            where = fp.named((0,) * len(lead)) if count == 1 else f"one of {count} points"
            exc.args = (f"oracle: stencil of {where}: {exc}",)
            raise
        cond = np.linalg.cond(g0)
        rlow = riemann_from_christoffels(g0, *levi_civita(g0, dg, d2g))
        table = frame_components(adapted_frame_vectors(fp, gamma), rlow)
    fp.require_finite("oracle: curvature of (TM, G)", table)
    return table, cond


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _written_components(m: int) -> np.ndarray:
    """Flat (C order) indices of the components (a, b, c, d) of an m^4
    table that a report writes: a < b, c < d and pair (a, b) <= pair
    (c, d), with the pairs in row-major order.  The others follow by
    R_abcd = -R_bacd = -R_abdc = R_cdab, and vanish where a = b or c = d."""
    a, b = np.triu_indices(m, k=1)
    p, q = np.triu_indices(len(a))
    index = np.ravel_multi_index((a[p], b[p], a[q], b[q]), (m,) * 4)
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=None)
def _class_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The components of the (2n)^4 table, flattened, grouped by symmetry
    class in CLASS_NAMES order, and where each class starts: the segments
    of one ``reduceat``.  Read-only."""
    labels = component_class_labels(n).ravel()
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(len(CLASS_NAMES)))
    order.flags.writeable = starts.flags.writeable = False
    return order, starts


def _symmetry_residual(table: np.ndarray) -> float:
    """Largest violation, in a curvature table, of the antisymmetry of
    either pair, of pair symmetry and of the first Bianchi identity."""
    return float(max(
        np.max(np.abs(table + table.transpose(1, 0, 2, 3))),
        np.max(np.abs(table + table.transpose(0, 1, 3, 2))),
        np.max(np.abs(table - table.transpose(2, 3, 0, 1))),
        np.max(np.abs(table + table.transpose(2, 0, 1, 3) + table.transpose(1, 2, 0, 3))),
    ))


class CurvatureReport:
    """Closed-form vs oracle comparison at one bundle point, filled in by
    ``finalize`` or, for a point that failed, by setting the error."""

    status: str = "ok"  # "ok" | "error"
    error: Optional[str] = None
    closed: Optional[np.ndarray] = None  # the written components of each table
    oracle: Optional[np.ndarray] = None
    max_abs_dev: Optional[float] = None
    max_rel_dev: Optional[float] = None
    class_deviations: Optional[dict] = None  # class name -> its max_abs_dev, max_rel_dev
    worst_component: Optional[dict] = None  # index, class, dev_over_tol
    oracle_symmetry_residual: Optional[float] = None
    cond: Optional[float] = None
    passed: bool = False
    negated_classes: tuple = ()  # of a failing report; written as a note

    def __init__(self, manifold_id: str, manifold_params: dict, family_name: str,
                 x: list, v: list, t: float, config: dict):
        self.manifold_id = manifold_id
        self.manifold_params = manifold_params
        self.family_name = family_name
        self.x = x
        self.v = v
        self.t = t
        self.config = config
        self.notes: list = []

    def finalize(self, closed: np.ndarray, oracle: np.ndarray, cond: float,
                 abs_tol: float, rel_tol: float):
        """Compare the (2n)^4 tables of both routes: a component passes when
        |closed - oracle| <= abs_tol + rel_tol * max(|closed|, |oracle|),
        and the report passes when every component does.  A failing report
        names its negated classes: those with a component outside its bound
        whose every component is within it with the oracle's sign flipped.
        The report keeps the components of each table that it writes."""
        self.cond = cond
        dev = np.abs(closed - oracle)
        scale = np.maximum(np.abs(closed), np.abs(oracle))
        bound = abs_tol + rel_tol * scale
        rel = np.divide(dev, scale, out=np.zeros(dev.shape), where=scale > abs_tol)
        self.max_abs_dev = float(np.max(dev))
        self.max_rel_dev = float(np.max(rel))
        n = dev.shape[0] // 2
        labels = component_class_labels(n)
        order, starts = _class_order(n)
        maxima = np.maximum.reduceat(np.stack([dev.ravel()[order], rel.ravel()[order]]),
                                     starts, axis=1)
        self.class_deviations = {
            name: {"max_abs_dev": abs_dev, "max_rel_dev": rel_dev}
            for name, abs_dev, rel_dev in zip(CLASS_NAMES, *maxima.tolist())
        }
        over = dev / bound
        worst = np.unravel_index(np.argmax(over), over.shape)
        self.worst_component = {
            "index": [int(i) for i in worst],
            "class": CLASS_NAMES[labels[worst]],
            "dev_over_tol": float(over[worst]),
        }
        self.oracle_symmetry_residual = _symmetry_residual(oracle)
        within = dev <= bound
        self.passed = bool(np.all(within))
        if not self.passed:
            flipped = np.abs(closed + oracle) <= bound
            all_within, all_flipped = np.logical_and.reduceat(
                np.stack([within.ravel()[order], flipped.ravel()[order]]), starts, axis=1
            )
            self.negated_classes = tuple(
                name for name, w, f in zip(CLASS_NAMES, all_within, all_flipped) if f and not w
            )
        if self.cond > 1e8:
            self.notes.append(f"bundle metric condition number {self.cond:.3g} exceeds 1e8")
        if self.negated_classes:
            self.notes.append("the closed form is the negated oracle, within tolerance, "
                              "in classes: " + ", ".join(self.negated_classes))
        written = _written_components(2 * n)
        self.closed, self.oracle = closed.take(written), oracle.take(written)

    def to_json_dict(self) -> dict:
        """The report as JSON values.  The closed and oracle tables are
        written as lists of their components with a < b, c < d and pair
        (a, b) <= pair (c, d), pairs in row-major order (Nones in an error
        report); ``table_shape`` is the full shape, [2n] * 4."""
        closed, oracle = (None if table is None else table.tolist()
                          for table in (self.closed, self.oracle))
        shape = None if self.closed is None else [2 * len(self.x)] * 4
        return {
            "manifold": {"id": self.manifold_id, "params": self.manifold_params},
            "family": self.family_name,
            "point": {"x": list(self.x), "v": list(self.v), "t": self.t},
            "config": self.config,
            "status": self.status,
            "error": self.error,
            "table_shape": shape,
            "closed_table": closed,
            "oracle_table": oracle,
            "max_abs_dev": self.max_abs_dev,
            "max_rel_dev": self.max_rel_dev,
            "class_deviations": self.class_deviations,
            "worst_component": self.worst_component,
            "oracle_symmetry_residual": self.oracle_symmetry_residual,
            "condition_number": self.cond,
            "passed": self.passed,
            "notes": list(self.notes),
        }

    def summary_line(self) -> str:
        """One line per report; a FAIL line also names the worst component,
        its class and its deviation over the tolerance, and the negated
        classes, if any."""
        if self.status == "error":
            return (
                f"ERROR  {self.manifold_id}+{self.family_name} at t={self.t:.4g}: "
                f"{self.error}"
            )
        verdict = "pass" if self.passed else "FAIL"
        line = (
            f"{verdict:5s}  {self.manifold_id}+{self.family_name} t={self.t:.4g} "
            f"max_abs={self.max_abs_dev:.3e} max_rel={self.max_rel_dev:.3e}"
        )
        if self.passed:
            return line
        worst = self.worst_component
        line += f" worst={worst['class']}{worst['index']} at {worst['dev_over_tol']:.3g}x tol"
        if self.negated_classes:
            line += " negated=" + ",".join(self.negated_classes)
        return line


# Points per block of a comparison: compare runs the stack in blocks of this
# many points, closed form then oracle, and yields a block's reports before
# it starts the next, so that their intermediate values (at n = 5 about
# 1.3 MB a point for the oracle's stencil, 0.2 MB for the closed form) take
# a bounded amount of memory however long the stack.  Each point gets the
# bits it gets alone, so the block size moves no result.
_BLOCK_POINTS = 16


def compare(
    M: ChartManifold,
    fam: NaturalMetricFamily,
    x: np.ndarray,
    v: np.ndarray,
    cfg: OracleConfig = OracleConfig(),
) -> Iterator[CurvatureReport]:
    """Run closed form and oracle over the stack of points (x, v), base
    points and vectors of shape (m, n), and yield one report per point, in
    point order; a report's t is the t of ``closedform.on_points``.

    Each point gets in its report what it would get alone: an error
    (validity, domain) from ``closedform.on_points``, or its own comparison
    (``CurvatureReport.finalize``).  A condition number of G above 1e8 is
    a note of the report.  The points run in blocks of ``_BLOCK_POINTS``,
    one ``on_points`` call each.
    """

    def both_routes(fp):
        closed = tm_curvature(M, fam, fp)
        table, cond = numeric_tm_curvature(M, fam, fp)
        return list(zip(closed, table, cond.tolist()))

    def report(x_k: list, v_k: list, point: tuple) -> CurvatureReport:
        t, result = point
        rep = CurvatureReport(manifold_id=M.catalog_id, manifold_params=M.params,
                              family_name=fam.name, x=x_k, v=v_k, t=t, config=cfg.to_dict())
        if isinstance(result, TbcurvError):
            rep.status, rep.error = "error", error_text(result)
        else:
            rep.finalize(*result, cfg.tol_abs, cfg.tol_rel)
        return rep

    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    for k in range(0, len(x), _BLOCK_POINTS):
        xs, vs = x[k : k + _BLOCK_POINTS], v[k : k + _BLOCK_POINTS]
        # a block's results, and so its two tables (2.6 MB at n = 5), are held
        # until the next block's are done: freed at once, they let malloc give
        # the top of the heap back after every block, and each block then
        # faulted its pages in again (5x the page faults, 25% more time a point)
        results = on_points(M, fam, xs, vs, both_routes)
        yield from map(report, xs.tolist(), vs.tolist(), results)
