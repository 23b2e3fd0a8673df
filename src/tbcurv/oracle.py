"""Ground-truth numerical curvature of (TM, G).

The oracle treats the induced-coordinate bundle metric as an opaque
2n-dimensional metric: it differentiates G(x, v) by finite differences,
assembles the Levi-Civita curvature under the same pinned sign convention
as the base machinery, and contracts with the adapted frame.  It never
evaluates any closed-form curvature expression, so agreement between the
two tables is a genuine two-route check.

A single global sign is calibrated per (manifold, family) run; the sign is
required to be consistent across all six component classes, and a mixed
requirement is reported as a formula erratum rather than absorbed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .basemanifold import AdaptedFramePoint, ChartManifold
from .bundlemetric import BundlePoint, adapted_frame_vectors, induced_metric
from .closedform import CLASS_NAMES, component_class_masks, on_points, tm_curvature
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
    |closed - s * oracle| <= tol_abs + tol_rel * max(|closed|, |oracle|).

    The steps are not configurable; the oracle always differentiates on the
    ``numdiff.ORACLE`` stencil.
    """

    tol_abs: float = 1e-5
    tol_rel: float = 1e-3

    def __post_init__(self):
        if self.tol_abs <= 0 or self.tol_rel <= 0:
            raise ValueError("tolerances must be positive")

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

    @property
    def consistent(self) -> bool:
        return not self.mixed_classes


def calibrate_sign(
    closed_tables: Sequence[np.ndarray],
    oracle_tables: Sequence[np.ndarray],
    n: int,
    abs_tol: float,
) -> SignCalibration:
    """Global sign s minimizing the total deviation |closed - s*oracle|,
    pooled over tables.

    Components enter only where both tables exceed 100x the absolute
    tolerance.  The per-class signs must agree; disagreement is reported in
    ``mixed_classes`` (a formula erratum, never silently fixed).  With no
    usable component anywhere the result is underdetermined and s = +1.
    """
    floor = 100.0 * abs_tol
    masks = component_class_masks(n)
    per_class: dict = {}
    total_dot = 0.0
    for name in CLASS_NAMES:
        mask = masks[name]
        dot = 0.0
        seen = False
        for closed, orc in zip(closed_tables, oracle_tables):
            c = closed[mask]
            o = orc[mask]
            keep = (np.abs(c) > floor) & (np.abs(o) > floor)
            if np.any(keep):
                seen = True
                dot += float(c[keep] @ o[keep])
        if not seen or dot == 0.0:
            per_class[name] = None
        else:
            per_class[name] = 1 if dot > 0 else -1
            total_dot += dot
    determined = [s for s in per_class.values() if s is not None]
    if not determined:
        return SignCalibration(
            sign=1, underdetermined=True, per_class=per_class, mixed_classes=()
        )
    sign = 1 if total_dot > 0 else -1
    mixed = tuple(
        name for name, s in per_class.items() if s is not None and s != sign
    )
    return SignCalibration(
        sign=sign, underdetermined=False, per_class=per_class, mixed_classes=mixed
    )


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


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
    deviations: Optional[np.ndarray] = None
    max_abs_dev: Optional[float] = None
    max_rel_dev: Optional[float] = None
    sign: int = 1
    sign_underdetermined: bool = False
    mixed_sign_classes: tuple = ()
    cond: Optional[float] = None
    passed: bool = False
    notes: list = field(default_factory=list)

    def finalize(self, calibration: SignCalibration, abs_tol: float, rel_tol: float):
        s = calibration.sign
        self.sign = s
        self.sign_underdetermined = calibration.underdetermined
        self.mixed_sign_classes = calibration.mixed_classes
        dev = self.closed - s * self.oracle
        self.deviations = dev
        scale = np.maximum(np.abs(self.closed), np.abs(self.oracle))
        self.max_abs_dev = float(np.max(np.abs(dev)))
        significant = scale > abs_tol
        if np.any(significant):
            self.max_rel_dev = float(
                np.max(np.abs(dev[significant]) / scale[significant])
            )
        else:
            self.max_rel_dev = 0.0
        within = np.abs(dev) <= abs_tol + rel_tol * scale
        self.passed = bool(np.all(within)) and not calibration.mixed_classes
        if calibration.mixed_classes:
            self.notes.append(
                "sign calibration disagrees across component classes: "
                + ", ".join(calibration.mixed_classes)
            )

    def to_json_dict(self) -> dict:
        def flatten(a):
            return None if a is None else np.asarray(a).ravel().tolist()

        shape = None if self.closed is None else list(self.closed.shape)
        return {
            "manifold": {"id": self.manifold_id, "params": self.manifold_params},
            "family": self.family_name,
            "point": {"x": list(self.x), "v": list(self.v), "t": self.t},
            "config": self.config,
            "status": self.status,
            "error": self.error,
            "table_shape": shape,
            "closed_table": flatten(self.closed),
            "oracle_table": flatten(self.oracle),
            "deviations": flatten(self.deviations),
            "max_abs_dev": self.max_abs_dev,
            "max_rel_dev": self.max_rel_dev,
            "sign": self.sign,
            "sign_underdetermined": self.sign_underdetermined,
            "mixed_sign_classes": list(self.mixed_sign_classes),
            "condition_number": self.cond,
            "passed": self.passed,
            "notes": list(self.notes),
        }

    def summary_line(self) -> str:
        if self.status == "error":
            return (
                f"ERROR  {self.manifold_id}+{self.family_name} at t={self.t:.4g}: "
                f"{self.error}"
            )
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{verdict:5s}  {self.manifold_id}+{self.family_name} t={self.t:.4g} "
            f"max_abs={self.max_abs_dev:.3e} max_rel={self.max_rel_dev:.3e} "
            f"sign={self.sign:+d}"
        )


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
    get full comparisons.
    """

    def both_routes(fp):
        closed = tm_curvature(M, fam, fp).table
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
