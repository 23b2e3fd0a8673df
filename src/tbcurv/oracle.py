"""Ground-truth numerical curvature of (TM, G).

The oracle treats the induced-coordinate bundle metric as an opaque
2n-dimensional metric: it differentiates G(x, v) by finite differences,
assembles the Levi-Civita curvature under the same pinned sign convention
as the base machinery, and contracts with the adapted frame.  It never
evaluates any closed-form curvature expression, so agreement between the
two tables is a genuine two-route check.

Both routes use one pinned sign convention, so the comparison is
``closed - oracle`` and never absorbs a sign.  A global sign is still
calibrated per (manifold, family) run as a diagnostic: a calibrated -1 (one
route has the opposite sign) fails, and so does a class whose sign disagrees
with the others, which is reported as a formula erratum.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .basemanifold import AdaptedFramePoint, ChartManifold
from .bundlemetric import BundlePoint, adapted_frame_vectors, induced_metric
from .closedform import CLASS_NAMES, component_class_labels, on_points, tm_curvature
from .errors import ConditioningWarning, TbcurvError
from .metricfamily import NaturalMetricFamily
from .numdiff import (
    ORACLE,
    christoffel_jacobian_from_jets,
    christoffels_from_jets,
    frame_components,
    matrix_jets,
    riemann_from_christoffels,
)

__all__ = [
    "OracleConfig",
    "OracleResult",
    "SignCalibration",
    "CurvatureReport",
    "numeric_tm_curvature",
    "calibrate_sign",
    "compare",
]


@dataclass(frozen=True)
class OracleConfig:
    """Tolerance policy of the comparison: a component passes when
    |closed - oracle| <= tol_abs + tol_rel * max(|closed|, |oracle|).
    Each tolerance is a positive finite number (a boolean is not one): an
    infinite one would pass every component, a NaN one fail it.

    The steps are not configurable; the oracle always differentiates on the
    ``numdiff.ORACLE`` stencil.
    """

    tol_abs: float = 1e-5
    tol_rel: float = 1e-3

    def __post_init__(self):
        for name in ("tol_abs", "tol_rel"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
                0.0 < value < math.inf
            ):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")

    def to_dict(self) -> dict:
        return {
            "base_step": ORACLE.base,
            "tol_abs": self.tol_abs,
            "tol_rel": self.tol_rel,
        }


@dataclass(frozen=True)
class OracleResult:
    """For a stack of frame points, both lead with the point axes."""

    table: np.ndarray  # raw frame-contracted curvature, no symmetry projection
    cond: float  # condition number of G at the point


def numeric_tm_curvature(
    M: ChartManifold, fam: NaturalMetricFamily, fp: AdaptedFramePoint
) -> OracleResult:
    """Curvature table of the 2n-dimensional metric G in the adapted frame
    of fp, or one per point of a stack of frame points, from finite
    differences of induced_metric values only."""
    n = M.dim
    # One check for the whole stencil, Christoffel stencils at its points included.
    M.check_interior(fp.q, M.oracle_reach(fp.q))
    z0 = np.concatenate([fp.q, fp.v], axis=-1)

    def gfun(z: np.ndarray) -> np.ndarray:
        # z stacks every stencil point: one induced_metric call for all.
        return induced_metric(M, fam, BundlePoint(z[..., :n], z[..., n:]), check=False)

    g0, dg, d2g = matrix_jets(gfun, z0, ORACLE)
    cond = np.linalg.cond(g0)
    for c in np.ravel(cond)[np.ravel(cond) > 1e8]:
        warnings.warn(f"bundle metric condition number {c:.3g} exceeds 1e8", ConditioningWarning)
    gamma = christoffels_from_jets(g0, dg)
    dgamma = christoffel_jacobian_from_jets(g0, dg, d2g)
    _, rlow = riemann_from_christoffels(g0, gamma, dgamma)
    table = frame_components(adapted_frame_vectors(M, fp), rlow)
    return OracleResult(table=table, cond=cond)


# --------------------------------------------------------------------------
# Sign calibration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SignCalibration:
    sign: int
    underdetermined: bool
    per_class: dict  # class name -> +1 | -1 | None (undetermined)
    mixed_classes: tuple


def calibrate_sign(
    closed_tables: Sequence[np.ndarray],
    oracle_tables: Sequence[np.ndarray],
    n: int,
    abs_tol: float,
) -> SignCalibration:
    """Global sign s minimizing the total deviation |closed - s*oracle|,
    pooled over tables.

    A diagnostic: the comparison itself pins s = +1, and a calibrated -1
    fails it (``CurvatureReport.finalize``).  Components enter only where
    both tables exceed 100x the absolute tolerance, and a class's sign is
    that of its sum of closed*oracle over them (None where the sum is 0),
    read in one pass with ``component_class_labels``.  The per-class signs
    must agree; disagreement is reported in ``mixed_classes`` (a formula
    erratum, never silently fixed).  With no usable component anywhere the
    result is underdetermined and s = +1.
    """
    floor = 100.0 * abs_tol
    closed, orc = np.stack(closed_tables), np.stack(oracle_tables)
    keep = (np.abs(closed) > floor) & (np.abs(orc) > floor)
    labels = np.broadcast_to(component_class_labels(n), keep.shape)[keep]
    dots = np.bincount(labels, closed[keep] * orc[keep], minlength=len(CLASS_NAMES))
    per_class = {
        name: None if dot == 0.0 else (1 if dot > 0 else -1)
        for name, dot in zip(CLASS_NAMES, dots)
    }
    determined = [s for s in per_class.values() if s is not None]
    sign = 1 if not determined or dots.sum() > 0 else -1
    mixed = tuple(name for name, s in per_class.items() if s not in (None, sign))
    return SignCalibration(sign, not determined, per_class, mixed)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _written_components(m: int) -> tuple:
    """Index arrays (a, b, c, d) of the components of an m^4 table that a
    report writes: a < b, c < d and pair (a, b) <= pair (c, d), with the
    pairs in row-major order.  The others follow by R_abcd = -R_bacd =
    -R_abdc = R_cdab, and vanish where a = b or c = d."""
    a, b = np.triu_indices(m, k=1)
    p, q = np.triu_indices(len(a))
    index = (a[p], b[p], a[q], b[q])
    for axis in index:
        axis.flags.writeable = False
    return index


def _symmetry_residual(table: np.ndarray) -> float:
    """Largest violation, in a curvature table, of the antisymmetry of
    either pair, of pair symmetry and of the first Bianchi identity."""
    return float(max(
        np.max(np.abs(table + table.transpose(1, 0, 2, 3))),
        np.max(np.abs(table + table.transpose(0, 1, 3, 2))),
        np.max(np.abs(table - table.transpose(2, 3, 0, 1))),
        np.max(np.abs(table + table.transpose(2, 0, 1, 3) + table.transpose(1, 2, 0, 3))),
    ))


@dataclass
class CurvatureReport:
    """Closed-form vs oracle comparison at one bundle point."""

    manifold_id: str
    manifold_params: dict
    family_name: str
    x: list
    v: list
    t: float
    config: dict
    status: str = "ok"  # "ok" | "error"
    error: Optional[str] = None
    closed: Optional[np.ndarray] = None
    oracle: Optional[np.ndarray] = None
    max_abs_dev: Optional[float] = None
    max_rel_dev: Optional[float] = None
    class_deviations: Optional[dict] = None  # class name -> its max_abs_dev, max_rel_dev
    worst_component: Optional[dict] = None  # index, class, dev_over_tol
    oracle_symmetry_residual: Optional[float] = None
    sign: int = 1
    sign_underdetermined: bool = False
    mixed_sign_classes: tuple = ()
    cond: Optional[float] = None
    passed: bool = False
    notes: list = field(default_factory=list)

    def finalize(self, calibration: SignCalibration, abs_tol: float, rel_tol: float):
        """Compare the tables: a component passes when |closed - oracle| <=
        abs_tol + rel_tol * max(|closed|, |oracle|), and the report passes
        when every component does, the calibrated sign is +1 (as it is when
        underdetermined) and no class's sign disagrees with it."""
        self.sign = calibration.sign
        self.sign_underdetermined = calibration.underdetermined
        self.mixed_sign_classes = calibration.mixed_classes
        dev = np.abs(self.closed - self.oracle)
        scale = np.maximum(np.abs(self.closed), np.abs(self.oracle))
        bound = abs_tol + rel_tol * scale
        rel = np.divide(dev, scale, out=np.zeros_like(dev), where=scale > abs_tol)
        self.max_abs_dev = float(np.max(dev))
        self.max_rel_dev = float(np.max(rel))
        labels = component_class_labels(dev.shape[0] // 2)
        self.class_deviations = {
            name: {"max_abs_dev": float(np.max(dev[labels == k])),
                   "max_rel_dev": float(np.max(rel[labels == k]))}
            for k, name in enumerate(CLASS_NAMES)
        }
        over = dev / bound
        worst = np.unravel_index(np.argmax(over), over.shape)
        self.worst_component = {
            "index": [int(i) for i in worst],
            "class": CLASS_NAMES[labels[worst]],
            "dev_over_tol": float(over[worst]),
        }
        self.oracle_symmetry_residual = _symmetry_residual(self.oracle)
        self.passed = (
            bool(np.all(dev <= bound)) and not calibration.mixed_classes and self.sign == 1
        )
        if self.cond > 1e8:
            self.notes.append(f"bundle metric condition number {self.cond:.3g} exceeds 1e8")
        if self.sign == -1:
            self.notes.append("sign calibrates to -1: the closed form and the oracle "
                              "have opposite curvature signs")
        if calibration.mixed_classes:
            self.notes.append(
                "sign calibration disagrees across component classes: "
                + ", ".join(calibration.mixed_classes)
            )

    def to_json_dict(self) -> dict:
        """The report as JSON values.  Each table is written as its
        components with a < b, c < d and pair (a, b) <= pair (c, d), pairs in
        row-major order; ``table_shape`` is the full shape."""

        def written(table):
            if table is None:
                return None
            return table[_written_components(table.shape[0])].tolist()

        shape = None if self.closed is None else list(self.closed.shape)
        return {
            "manifold": {"id": self.manifold_id, "params": self.manifold_params},
            "family": self.family_name,
            "point": {"x": list(self.x), "v": list(self.v), "t": self.t},
            "config": self.config,
            "status": self.status,
            "error": self.error,
            "table_shape": shape,
            "closed_table": written(self.closed),
            "oracle_table": written(self.oracle),
            "max_abs_dev": self.max_abs_dev,
            "max_rel_dev": self.max_rel_dev,
            "class_deviations": self.class_deviations,
            "worst_component": self.worst_component,
            "oracle_symmetry_residual": self.oracle_symmetry_residual,
            "sign": self.sign,
            "sign_underdetermined": self.sign_underdetermined,
            "mixed_sign_classes": list(self.mixed_sign_classes),
            "condition_number": self.cond,
            "passed": self.passed,
            "notes": list(self.notes),
        }

    def summary_line(self) -> str:
        """One line per report; a FAIL line also names the worst component,
        its class and its deviation over the tolerance, and any class whose
        sign disagrees."""
        if self.status == "error":
            return (
                f"ERROR  {self.manifold_id}+{self.family_name} at t={self.t:.4g}: "
                f"{self.error}"
            )
        verdict = "pass" if self.passed else "FAIL"
        line = (
            f"{verdict:5s}  {self.manifold_id}+{self.family_name} t={self.t:.4g} "
            f"max_abs={self.max_abs_dev:.3e} max_rel={self.max_rel_dev:.3e} "
            f"sign={self.sign:+d}"
        )
        if self.passed:
            return line
        worst = self.worst_component
        line += f" worst={worst['class']}{worst['index']} at {worst['dev_over_tol']:.3g}x tol"
        if self.mixed_sign_classes:
            line += " mixed=" + ",".join(self.mixed_sign_classes)
        return line


def compare(
    M: ChartManifold,
    fam: NaturalMetricFamily,
    points: Sequence[BundlePoint],
    cfg: OracleConfig = OracleConfig(),
) -> list[CurvatureReport]:
    """Run closed form and oracle over the stack of points, calibrate the
    sign once per (manifold, family), and emit one report per point, in
    point order.

    A point that fails (validity, domain) gets in its report the error it
    would get alone (``closedform.on_points``); the remaining points still
    get full comparisons.  A condition number above 1e8 is a note of the
    report, not a ``ConditioningWarning``.
    """

    def both_routes(fp):
        closed = tm_curvature(M, fam, fp).table
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            orc = numeric_tm_curvature(M, fam, fp)
        return list(zip(closed, orc.table, orc.cond.tolist()))

    reports = []
    for p, (t, result) in zip(points, on_points(M, fam, points, both_routes)):
        report = CurvatureReport(
            manifold_id=M.catalog_id,
            manifold_params=M.params,
            family_name=fam.name,
            x=[float(c) for c in np.atleast_1d(p.x)],
            v=[float(c) for c in np.atleast_1d(p.v)],
            t=t,
            config=cfg.to_dict(),
        )
        if isinstance(result, TbcurvError):
            report.status = "error"
            report.error = f"{type(result).__name__}: {result}"
        else:
            report.closed, report.oracle, report.cond = result
        reports.append(report)

    ok = [r for r in reports if r.status == "ok"]
    if ok:
        calibration = calibrate_sign(
            [r.closed for r in ok], [r.oracle for r in ok], M.dim, cfg.tol_abs
        )
        for r in ok:
            r.finalize(calibration, cfg.tol_abs, cfg.tol_rel)
    return reports
