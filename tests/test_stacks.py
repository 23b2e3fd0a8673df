"""Stacks of points: frames, base curvature, the closed forms, the oracle,
the CLI tables and verify computed over a leading point axis equal each
point's single-point call."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbcurv.basemanifold import (
    ChartManifold,
    adapted_frame,
    conformal_polynomial,
    euclidean,
    frame_curvature,
    hyperbolic,
    sphere,
)
from tbcurv.cli import _TABLE_INDEX, _table_columns, main
from tbcurv.closedform import on_points, tm_curvature, tm_ricci, tm_scalar, tm_sectional
from tbcurv.errors import SingularMetricError, TbcurvError
from tbcurv.metricfamily import preset
from tbcurv.numdiff import ORACLE, pointwise
from tbcurv.oracle import (
    CurvatureReport,
    OracleConfig,
    compare,
    numeric_tm_curvature,
)

TORUS_COEFFS = [[0.1, 1, 1, 0], [0.04, 0, 2, 1]]

# (chart, CLI manifold arguments, a base point well inside the chart)
CHARTS = {
    "sphere-polar": (sphere(2), ["sphere", "--dim", "2"], [1.0, 0.3]),
    "sphere-stereographic": (sphere(3), ["sphere", "--dim", "3"], [0.2, -0.1, 0.3]),
    "hyperbolic": (hyperbolic(3), ["hyperbolic", "--dim", "3"], [0.1, 0.2, -0.1]),
    "euclidean": (euclidean(3), ["euclidean", "--dim", "3"], [0.5, -1.0, 2.0]),
    "torus-conformal": (
        conformal_polynomial(3, TORUS_COEFFS),
        ["torus-conformal", "--dim", "3", "--coeffs", json.dumps(TORUS_COEFFS)],
        [0.2, -0.3, 0.4],
    ),
}
TASKS = ("curvature", "sectional", "ricci", "scalar")


def _close(stacked, single):
    """Within 1e-13 of the largest |value| (exactly equal when all vanish)."""
    stacked, single = np.asarray(stacked), np.asarray(single)
    assert stacked.shape == single.shape
    scale = np.max(np.abs(single), initial=0.0)
    assert np.max(np.abs(stacked - single), initial=0.0) <= 1e-13 * scale


def _closed_forms(M, fam, fp):
    sec = tm_sectional(M, fam, fp)
    return (
        tm_curvature(M, fam, fp),
        sec.hh,
        sec.vv,
        sec.hv,
        tm_ricci(M, fam, fp),
        tm_scalar(M, fam, fp),
    )


# Each case is (base point kind, |v|_g): v = 0, a repeated base point, or a
# fresh one near the first.
cases = st.lists(
    st.tuples(st.sampled_from(["same", "near"]), st.sampled_from([0.0, 0.3, 1.1, 1.5])),
    min_size=1,
    max_size=5,
)


@pytest.mark.parametrize("chart", CHARTS)
@settings(max_examples=6, deadline=None)
@given(cases=cases, seed=st.integers(0, 2**16))
def test_library_stack_matches_single_points(chart, cases, seed):
    M, _, x0 = CHARTS[chart]
    rng = np.random.default_rng(seed)
    q, v = [], []
    for kind, norm in cases:
        x = np.array(x0) + (0.05 * rng.normal(size=M.dim) if kind == "near" else 0.0)
        d = rng.normal(size=M.dim)
        q.append(x)
        v.append(norm * d / np.sqrt(d @ M.metric(x) @ d))
    q, v = np.array(q), np.array(v)
    fam = preset("exp+")
    fp = adapted_frame(M, q, v)
    frame = frame_curvature(M, fp)
    closed = _closed_forms(M, fam, fp)
    for i in range(len(cases)):
        one = adapted_frame(M, q[i], v[i])
        _close(fp.u[i], one.u)
        _close(fp.t[i], one.t)
        one_frame = frame_curvature(M, one)
        _close(frame.Rtable[i], one_frame.Rtable)
        _close(frame.dRtable[i], one_frame.dRtable)
        for stacked, single in zip(closed, _closed_forms(M, fam, one)):
            _close(stacked[i], single)


def test_single_point_has_no_leading_axis():
    M, _, x0 = CHARTS["hyperbolic"]
    fp = adapted_frame(M, x0, [0.3, 0.0, 0.1])
    assert fp.u.shape == (3, 3) and isinstance(fp.t, float)
    assert tm_curvature(M, preset("sasaki"), fp).shape == (6, 6, 6, 6)
    assert np.ndim(tm_scalar(M, preset("sasaki"), fp)) == 0


@pytest.mark.parametrize("chart", CHARTS)
def test_an_empty_stack_gives_empty_tables(chart):
    M, _, _ = CHARTS[chart]
    n, fam = M.dim, preset("sasaki")
    fp = adapted_frame(M, np.zeros((0, n)), np.zeros((0, n)))
    sec = tm_sectional(M, fam, fp)
    table, cond = numeric_tm_curvature(M, fam, fp)
    assert tm_curvature(M, fam, fp).shape == (0,) + (2 * n,) * 4
    assert table.shape == (0,) + (2 * n,) * 4 and cond.shape == (0,)
    assert tm_ricci(M, fam, fp).shape == (0, 2 * n, 2 * n)
    assert (sec.hh.shape, sec.vv.shape, sec.hv.shape) == ((0, n, n),) * 3
    assert tm_scalar(M, fam, fp).shape == (0,)


def _points(M, x0):
    """A mixed list of bundle points: v = 0, repeated base points, |v|_g = 3
    (t = 9 beyond t_max = 4), a base point whose nabla R stencil leaves the
    chart (inside it by 1e-6), and one outside the chart."""
    x0 = np.array(x0)
    edge = x0.copy()
    edge[0] = M.hi[0] - 1e-6
    outside = x0.copy()
    outside[0] = M.hi[0] + 0.01
    rng = np.random.default_rng(5)
    points = []
    for x, norm in [(x0, 0.0), (x0, 0.5), (edge, 0.5), (x0, 3.0), (outside, 0.5),
                    (x0 + 0.05, 1.5), (x0, 1.5), (edge, 0.0)]:
        d = rng.normal(size=M.dim)
        g = M.metric(x) if not M.outside(x) else np.eye(M.dim)
        points.append((x, norm * d / np.sqrt(d @ g @ d)))
    return points


def _reference_rows(M, fam, points, task):
    """The rows of each point alone, from the single-point calls."""
    rows = []
    for x, v in points:
        head = {"x": ";".join(map(repr, x.tolist())), "v": ";".join(map(repr, v.tolist()))}
        try:
            fp = adapted_frame(M, x, v)
            columns = _table_columns(M, fam, fp, task)
        except TbcurvError as exc:
            rows.append({**head, "error": f"{type(exc).__name__}: {exc}"})
            continue
        shape = next(iter(columns.values())).shape
        for idx in np.ndindex(shape):
            row = {**head, "t": float(fp.t), **dict(zip(_TABLE_INDEX[task], idx))}
            rows.append({**row, **{k: float(col[idx]) for k, col in columns.items()}})
    return rows


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("chart", CHARTS)
def test_cli_rows_match_single_points(tmp_path, chart, task):
    M, manifold_args, x0 = CHARTS[chart]
    points = _points(M, x0)
    args = [task, "--manifold", *manifold_args, "--family", "cheeger-gromoll",
            "--t-max", "4", "--format", "json", "--out", str(tmp_path / "t.json")]
    for x, v in points:
        args += ["--point=" + ",".join(map(repr, x.tolist())),
                 "--v=" + ",".join(map(repr, v.tolist()))]
    assert main(args) == 1
    rows = json.loads((tmp_path / "t.json").read_text())[task]
    expected = _reference_rows(M, preset("cheeger-gromoll", t_max=4.0), points, task)
    assert len(rows) == len(expected)
    values = [k for k in rows[0] if k not in ("x", "v", "t", "error", *"abcdij")]
    scale = max(abs(r[k]) for r in expected if "error" not in r for k in values)
    for row, ref in zip(rows, expected):
        assert (row["x"], row["v"]) == (ref["x"], ref["v"])
        if "error" in ref:
            assert row["error"] == ref["error"]
            continue
        assert {k: row[k] for k in "abcdij" if k in row} == {
            k: ref[k] for k in "abcdij" if k in ref
        }
        assert row["t"] == ref["t"]
        for k in values:
            assert abs(row[k] - ref[k]) <= 1e-13 * scale
    errors = [r["error"].split(":")[0] for r in expected if "error" in r]
    nabla = task in ("curvature", "ricci")
    assert errors == ["StencilOutOfDomainError"] * nabla + [
        "ValidityError", "StencilOutOfDomainError"] + ["StencilOutOfDomainError"] * nabla


def test_custom_chart_stack_matches_single_points():
    # a chart without connection data
    base = hyperbolic(2)
    M = ChartManifold(2, base.metric_fn, lo=base.lo, hi=base.hi)
    q = np.array([[0.2, -0.3], [0.2, -0.3], [0.1, 0.1]])
    v = np.array([[0.0, 0.0], [0.4, 0.1], [0.2, -0.3]])
    fam = preset("exp-")
    stacked = _closed_forms(M, fam, adapted_frame(M, q, v))
    for i in range(3):
        for s, one in zip(stacked, _closed_forms(M, fam, adapted_frame(M, q[i], v[i]))):
            _close(s[i], one)


def test_flagged_points_run_alone_and_the_rest_as_one_stack(monkeypatch, capsys):
    # t = |v|^2_g beyond t_max is flagged before any evaluation: that point
    # runs alone (and fails), the two good ones run as one stack
    import tbcurv.closedform as closedform

    sizes = []
    scalar = closedform.tm_scalar
    def counted(M, fam, fp):
        sizes.append(np.size(fp.t))
        return scalar(M, fam, fp)

    monkeypatch.setattr(closedform, "tm_scalar", counted)
    args = ["scalar", "--manifold", "hyperbolic", "--dim", "2", "--family", "sasaki",
            "--t-max", "1", "--point", "0.1,0.2", "--v", "0.1,0", "--point", "0.1,0.2",
            "--v", "2,0", "--point", "0,0", "--v", "0,0.2"]
    assert main(args) == 1
    assert sizes == [1, 2]
    assert "ValidityError" in capsys.readouterr().out


def test_a_failed_stack_keeps_the_results_of_its_points(monkeypatch, capsys):
    # |v| = 0.99995 passes the checks that evaluate nothing (t^2 <= t_max = 1),
    # but its oracle stencil reaches beyond t_max: the stack of four fails,
    # each point then runs once alone, and the good points keep those results
    import tbcurv.oracle as oracle

    sizes = []
    numeric = oracle.numeric_tm_curvature
    def counted(M, fam, fp):
        sizes.append(np.size(fp.t))
        return numeric(M, fam, fp)

    monkeypatch.setattr(oracle, "numeric_tm_curvature", counted)
    args = ["verify", "--manifold", "euclidean", "--dim", "2", "--family", "sasaki",
            "--t-max", "1", "--point", "0.1,0.2", "--v", "0.3,0", "--point", "0.5,0.5",
            "--v", "0,0.99995", "--point=-1,0.3", "--v", "0.2,0.2", "--point", "0,0",
            "--v", "0,0"]
    assert main(args) == 1
    assert sizes == [4, 1, 1, 1, 1]
    verdicts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert verdicts == ["pass", "ERROR", "pass", "pass"]


def test_a_failed_frame_stack_runs_each_point_alone():
    # the metric is not positive definite at x_0 <= -1: the stack of frames
    # fails, so each point runs alone, frame and all, and keeps its result;
    # the point without a frame gets t from its metric, here
    # sqrt(0.1 (1 - 1.5) 0.1), which is not real
    M = ChartManifold(2, pointwise(lambda x: np.diag([1.0 + x[0], 1.0])), lo=[-2, -2], hi=[2, 2])
    x = np.array([[0.5, 0.0], [-1.5, 0.0], [0.0, 0.5]])
    v = np.array([[0.3, 0.0], [0.1, 0.0], [0.0, 0.0]])
    sizes = []
    def fun(fp):
        sizes.append(np.size(fp.t))
        return (2.0 * fp.t).tolist()

    results = on_points(M, preset("sasaki"), x, v, fun)
    assert sizes == [1, 1]
    (t0, r0), (t1, r1), (t2, r2) = results
    assert t0 == pytest.approx(np.sqrt(1.5) * 0.3) and r0 == 2.0 * t0
    assert np.isnan(t1) and isinstance(r1, SingularMetricError)
    assert (t2, r2) == (0.0, 0.0)
    # where that metric gives a real norm, t is its |v|_g
    (t1, r1), = on_points(M, preset("sasaki"), x[1:2], [[0.0, 0.2]], fun)
    assert t1 == 0.2 and isinstance(r1, SingularMetricError)


def test_polar_sphere_point_has_the_same_bits_in_any_stack():
    # at theta = 1.258, np.float64(s) ** 2 (pow) and s * s differ in the last
    # bit; the chart squares by a product, so a point alone, as a stack of
    # one and inside a stack gets one value
    M = sphere(2)
    x = np.array([1.258, 0.3])
    for f in (M.metric, lambda x: M.connection(x)[2]):  # g and d Gamma
        one = f(x).tobytes()
        assert f(x[None])[0].tobytes() == one
        assert f(np.array([x, [1.0, 0.3]]))[0].tobytes() == one


@pytest.mark.parametrize("chart", CHARTS)
def test_oracle_stack_equals_single_points_bit_for_bit(chart):
    M, _, x0 = CHARTS[chart]
    x0 = np.array(x0)
    rng = np.random.default_rng(11)
    q = np.array([x0, x0, x0, x0 + 0.05])
    v = [0.0 * x0] + [norm * rng.normal(size=M.dim) for norm in (0.3, 0.8, 0.5)]
    fam = preset("cheeger-gromoll")
    table, cond = numeric_tm_curvature(M, fam, adapted_frame(M, q, v))
    for i in range(len(q)):
        one_table, one_cond = numeric_tm_curvature(M, fam, adapted_frame(M, q[i], v[i]))
        assert np.array_equal(table[i], one_table)
        assert cond[i] == one_cond


def _reference_reports(M, fam, xs, vs, cfg):
    """Reports from one point at a time: frame, closed form and oracle, each
    failure caught at its point, and each comparison finalized alone.  A
    point whose frame fails is outside the chart here: its t is nan."""
    reports = []
    for x, v in zip(xs, vs):
        report = CurvatureReport(
            manifold_id=M.catalog_id,
            manifold_params=M.params,
            family_name=fam.name,
            x=[float(c) for c in x],
            v=[float(c) for c in v],
            t=float("nan"),
            config=cfg.to_dict(),
        )
        try:
            fp = adapted_frame(M, x, v)
            report.t = fp.t
            closed = tm_curvature(M, fam, fp)
            orc, cond = numeric_tm_curvature(M, fam, fp)
        except TbcurvError as exc:
            report.status = "error"
            report.error = f"{type(exc).__name__}: {exc}"
        else:
            report.finalize(closed, orc, float(cond), cfg.tol_abs, cfg.tol_rel)
        reports.append(report)
    return reports


@pytest.mark.parametrize("chart", CHARTS)
def test_compare_equals_point_by_point_reports(chart):
    # v = 0, a repeated base point, an oracle stencil leaving the chart (but
    # not the nabla R stencil), a stencil t beyond t_max = 4 (the point's own
    # t is inside it), t beyond t_max, and a base point outside the chart
    M, _, x0 = CHARTS[chart]
    x0 = np.array(x0)
    near_edge = x0.copy()
    near_edge[0] = M.hi[0] - 0.5 * ORACLE.steps(M.hi)[0]
    outside = x0.copy()
    outside[0] = M.hi[0] + 0.01
    rng = np.random.default_rng(3)
    xs = [x0, x0, near_edge, x0, x0, x0 + 0.05, outside, x0]
    vs = []
    for x, norm in zip(xs, [0.0, 0.5, 0.5, 1.9999, 3.0, 1.2, 0.5, 1.2]):
        d = rng.normal(size=M.dim)
        g = np.eye(M.dim) if M.outside(x) else M.metric(x)
        vs.append(norm * d / np.sqrt(d @ g @ d))
    fam, cfg = preset("exp-", t_max=4.0), OracleConfig()
    reports = list(compare(M, fam, xs, vs, cfg))
    expected = _reference_reports(M, fam, xs, vs, cfg)
    # as JSON text, where a nan t equals a nan t
    assert ([json.dumps(r.to_json_dict()) for r in reports]
            == [json.dumps(r.to_json_dict()) for r in expected])
    errors = [r.error.split(":")[0] for r in expected if r.status == "error"]
    assert errors == ["StencilOutOfDomainError", "ValidityError", "ValidityError",
                      "StencilOutOfDomainError"]
    assert np.isnan([r.t for r in reports if r.status == "error"][-1])


def test_the_first_report_costs_one_block(monkeypatch):
    # compare yields a block's reports before it starts the next block: the
    # first of 40 reports has run the oracle once, on the first 16 points
    import tbcurv.oracle as oracle

    sizes = []
    numeric = oracle.numeric_tm_curvature
    def counted(M, fam, fp):
        sizes.append(np.size(fp.t))
        return numeric(M, fam, fp)

    monkeypatch.setattr(oracle, "numeric_tm_curvature", counted)
    M = euclidean(2)
    x = np.tile([0.1, 0.2], (40, 1))
    v = np.linspace(0.0, 1.0, 80).reshape(40, 2)
    reports = compare(M, preset("sasaki"), x, v)
    assert next(reports).passed
    assert sizes == [16]
    assert sum(1 for _ in reports) == 39 and sizes == [16, 16, 8]


def test_compare_memory_is_flat_in_the_number_of_points():
    # a report keeps only its written components (2 x 1035 of 10000 at
    # n = 5), and compare holds no block's tables after the next block, so
    # the peak does not grow with the stack; reports that kept their full
    # tables added 160 KB a point, 1.8x the 16-point peak at 128 points
    M, fam = hyperbolic(5), preset("cheeger-gromoll")
    rng = np.random.default_rng(5)
    x, v = rng.uniform(-0.2, 0.2, (128, 5)), rng.uniform(-0.5, 0.5, (128, 5))

    def peak(m):
        tracemalloc.start()
        try:
            for _ in compare(M, fam, x[:m], v[:m]):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # the caches of the first call are not a point's memory
    assert peak(128) <= 1.5 * peak(16)
