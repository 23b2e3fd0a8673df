"""In-process tracing of tbcurv's public names, from outside the package.

``Tracer.install`` replaces each name in ``TRACE_POINTS`` with a wrapper,
at the place the calling module looks it up (``tbcurv.oracle.induced_metric``,
``tbcurv.cli.frame_curvature``, ``NaturalMetricFamily.validate``, ...), and
``Tracer.uninstall`` puts the originals back.  No source file changes.

Every wrapped call updates per-name and per-layer statistics on the fly:
calls, busy time (outermost call of the name or layer only, so nesting is
not counted twice), self time (duration minus the traced calls made inside
it) and errors (counted once, where an exception first leaves a traced
call).  Calls of non-hot names are also kept as spans in memory (name, job,
parent span, start, end) and written out when the benchmark ends; hot
names (scalar jets, metric evaluations, ...) run hundreds of thousands of
times per pass and are kept as statistics only.
"""

from __future__ import annotations

import importlib
import json
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

LAYERS = (
    "scalarfun",
    "metricfamily",
    "basemanifold",
    "bundlemetric",
    "numdiff",
    "closedform",
    "oracle",
    "cli",
)


@dataclass(frozen=True)
class TracePoint:
    """Where a name is looked up, and the statistic its calls go to.

    ``target`` is ``module:attribute`` or ``module:Class.method``.  ``name``
    is ``layer.function``; several targets may share one name.
    """

    target: str
    name: str
    hot: bool = False


def _tp(targets: str, name: str, hot: bool = False) -> list[TracePoint]:
    return [TracePoint(t, name, hot) for t in targets.split()]


TRACE_POINTS: list[TracePoint] = [
    *_tp(
        "tbcurv.scalarfun:ScalarFunction.jet tbcurv.scalarfun:ScalarFunction.value "
        "tbcurv.scalarfun:ScalarFunction.__call__",
        "scalarfun.jet",
        hot=True,
    ),
    *_tp("tbcurv.scalarfun:parse", "scalarfun.parse"),
    *_tp("tbcurv.metricfamily:NaturalMetricFamily.validate", "metricfamily.validate"),
    *_tp(
        "tbcurv.metricfamily:NaturalMetricFamily.max_abs_F "
        "tbcurv.metricfamily:NaturalMetricFamily.max_abs_H",
        "metricfamily.max_abs",
    ),
    *_tp(
        "tbcurv.metricfamily:NaturalMetricFamily.F tbcurv.metricfamily:NaturalMetricFamily.H",
        "metricfamily.F_H",
        hot=True,
    ),
    *_tp(
        "tbcurv.metricfamily:NaturalMetricFamily.check_point",
        "metricfamily.check_point",
        hot=True,
    ),
    *_tp(
        "tbcurv.metricfamily:NaturalMetricFamily.jets "
        "tbcurv.metricfamily:NaturalMetricFamily.alpha_at "
        "tbcurv.metricfamily:NaturalMetricFamily.beta_at "
        "tbcurv.metricfamily:NaturalMetricFamily.delta_at "
        "tbcurv.metricfamily:NaturalMetricFamily.phi_at",
        "metricfamily.pointwise",
        hot=True,
    ),
    *_tp("tbcurv.cli:preset tbcurv.cli:flatness_beta", "metricfamily.construct"),
    *_tp("tbcurv.cli:make_manifold", "basemanifold.construct"),
    *_tp("tbcurv.cli:adapted_frame tbcurv.oracle:adapted_frame", "basemanifold.adapted_frame"),
    # frame_curvature is split by its include_nabla argument, see _name_for.
    *_tp(
        "tbcurv.cli:frame_curvature tbcurv.oracle:frame_curvature "
        "tbcurv.closedform:frame_curvature",
        "basemanifold.frame_curvature",
    ),
    *_tp("tbcurv.basemanifold:ChartManifold.metric", "basemanifold.metric", hot=True),
    *_tp(
        "tbcurv.basemanifold:ChartManifold.christoffels", "basemanifold.christoffels", hot=True
    ),
    *_tp(
        "tbcurv.basemanifold:ChartManifold.christoffel_jacobian",
        "basemanifold.christoffel_jacobian",
    ),
    *_tp("tbcurv.basemanifold:ChartManifold.riemann", "basemanifold.riemann"),
    *_tp("tbcurv.basemanifold:ChartManifold.nabla_riemann", "basemanifold.nabla_riemann"),
    *_tp("tbcurv.oracle:induced_metric", "bundlemetric.induced_metric", hot=True),
    *_tp("tbcurv.oracle:adapted_frame_vectors", "bundlemetric.adapted_frame_vectors"),
    *_tp("tbcurv.oracle:matrix_jets tbcurv.basemanifold:matrix_jets", "numdiff.matrix_jets"),
    *_tp(
        "tbcurv.oracle:christoffels_from_jets tbcurv.oracle:christoffel_jacobian_from_jets "
        "tbcurv.oracle:riemann_from_christoffels "
        "tbcurv.basemanifold:christoffels_from_jets "
        "tbcurv.basemanifold:christoffel_jacobian_from_jets "
        "tbcurv.basemanifold:riemann_from_christoffels",
        "numdiff.levi_civita",
    ),
    *_tp("tbcurv.basemanifold:project_curvature_symmetries", "numdiff.project_symmetries"),
    *_tp("tbcurv.closedform:tm_curvature tbcurv.oracle:tm_curvature", "closedform.tm_curvature"),
    *_tp("tbcurv.closedform:tm_scalar", "closedform.tm_scalar"),
    *_tp("tbcurv.closedform:tm_ricci", "closedform.tm_ricci"),
    *_tp("tbcurv.closedform:tm_sectional", "closedform.tm_sectional"),
    *_tp("tbcurv.closedform:scalar_exp_specials", "closedform.scalar_exp_specials"),
    *_tp("tbcurv.oracle:numeric_tm_curvature", "oracle.numeric_tm_curvature"),
    *_tp("tbcurv.oracle:calibrate_sign", "oracle.calibrate_sign"),
    *_tp("tbcurv.cli:compare tbcurv.oracle:compare", "oracle.compare"),
    *_tp("tbcurv.oracle:CurvatureReport.to_json_dict", "oracle.to_json_dict"),
    *_tp("tbcurv.cli:main", "cli.main"),
]


class Stat:
    """Running totals for one traced name or one layer."""

    __slots__ = ("name", "layer", "hot", "calls", "busy_s", "self_s", "errors", "active")

    def __init__(self, name: str, layer: Optional["Stat"] = None, hot: bool = False):
        self.name = name
        self.layer = layer
        self.hot = hot
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.active = 0


def _name_for(base: str, args: tuple, kwargs: dict) -> str:
    if base == "basemanifold.frame_curvature":
        nabla = kwargs.get("include_nabla", args[2] if len(args) > 2 else True)
        return base + ("_nabla" if nabla else "_plain")
    return base


def _resolve(target: str):
    """(owner object, attribute) of a ``module:attr`` or ``module:Class.attr``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps TRACE_POINTS while installed; see the module docstring."""

    def __init__(self):
        self.layers = {layer: Stat(layer) for layer in LAYERS}
        self.stats: dict[str, Stat] = {}
        self.stack: list[list] = []  # [child seconds, span index] per open call
        self.job = -1
        self.recording = False
        self.span_names: dict[str, int] = {}
        self.span_cols = {
            "name": array("i"),
            "job": array("i"),
            "parent": array("i"),
            "start": array("d"),
            "end": array("d"),
        }
        self.christoffel_x: set = set()
        self.christoffel_distinct = 0
        self.missing: list[str] = []
        self._saved: list[tuple] = []
        self._last_exc: Optional[BaseException] = None
        for tp in TRACE_POINTS:
            for name in (
                (tp.name + "_nabla", tp.name + "_plain")
                if tp.name == "basemanifold.frame_curvature"
                else (tp.name,)
            ):
                if name not in self.stats:
                    self.stats[name] = Stat(name, self.layers[name.split(".")[0]], tp.hot)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for tp in TRACE_POINTS:
            try:
                owner, attr = _resolve(tp.target)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(tp.target)  # the program dropped this name
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(tp.name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, base: str, fn: Callable) -> Callable:
        tracer = self
        fixed = None if base == "basemanifold.frame_curvature" else self.stats[base]
        observe_x = base == "basemanifold.christoffels"

        def traced(*args, **kwargs):
            st = fixed or tracer.stats[_name_for(base, args, kwargs)]
            if observe_x:
                tracer._observe_christoffel_x(args[1] if len(args) > 1 else kwargs["x"])
            return tracer._call(st, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- recording ---------------------------------------------------------

    def _observe_christoffel_x(self, x) -> None:
        key = np.ascontiguousarray(x, dtype=float).tobytes()
        if key not in self.christoffel_x:
            self.christoffel_x.add(key)
            self.christoffel_distinct += 1

    def start_pass(self, record_spans: bool) -> None:
        """Distinct base points are counted per pass, so the fraction does
        not depend on how many passes a run makes."""
        self.christoffel_x = set()
        self.recording = record_spans

    def _call(self, st: Stat, fn: Callable, args: tuple, kwargs: dict):
        stack = self.stack
        parent = stack[-1] if stack else None
        layer = st.layer
        span = parent[1] if parent is not None else -1
        start = perf_counter()
        if self.recording and not st.hot:
            cols = self.span_cols
            span_parent = span
            span = len(cols["start"])
            cols["name"].append(self._span_name_id(st.name))
            cols["job"].append(self.job)
            cols["parent"].append(span_parent)
            cols["start"].append(start)
            cols["end"].append(start)
        frame = [0.0, span]
        stack.append(frame)
        st.active += 1
        layer.active += 1
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            if exc is not self._last_exc:
                self._last_exc = exc
                st.errors += 1
                layer.errors += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            st.active -= 1
            layer.active -= 1
            st.calls += 1
            layer.calls += 1
            own = dur - frame[0]
            st.self_s += own
            layer.self_s += own
            if st.active == 0:
                st.busy_s += dur
            if layer.active == 0:
                layer.busy_s += dur
            if parent is not None:
                parent[0] += dur
            if self.recording and not st.hot:
                self.span_cols["end"][span] = end

    def _span_name_id(self, name: str) -> int:
        return self.span_names.setdefault(name, len(self.span_names))

    def write_spans(self, path, jobs: list[str]) -> int:
        """Write the recorded spans as one JSON document of columns; times
        are seconds from the first span."""
        cols = self.span_cols
        t0 = cols["start"][0] if cols["start"] else 0.0
        doc = {
            "names": list(self.span_names),
            "jobs": jobs,
            "name": cols["name"].tolist(),
            "job": cols["job"].tolist(),
            "parent": cols["parent"].tolist(),
            "start_s": [round(t - t0, 7) for t in cols["start"]],
            "end_s": [round(t - t0, 7) for t in cols["end"]],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
        return len(cols["start"])
