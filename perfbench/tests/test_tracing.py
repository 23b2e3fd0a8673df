"""The tracer wraps public names from outside and restores them."""

import io
from contextlib import redirect_stdout

import tbcurv.cli
import tbcurv.oracle
from tbcurv.metricfamily import NaturalMetricFamily
from tracing import TRACE_POINTS, Tracer, _resolve

import workloads


def test_every_trace_point_exists_in_the_program():
    for tp in TRACE_POINTS:
        owner, attr = _resolve(tp.target)
        assert attr in owner.__dict__, tp.target


def test_install_and_uninstall_restore_originals():
    originals = [(_resolve(tp.target), _resolve(tp.target)[0].__dict__[_resolve(tp.target)[1]])
                 for tp in TRACE_POINTS]
    tracer = Tracer()
    tracer.install()
    try:
        assert hasattr(tbcurv.oracle.induced_metric, "__wrapped__")
        assert hasattr(NaturalMetricFamily.__dict__["validate"], "__wrapped__")
        for (owner, attr), original in originals:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals:
        assert owner.__dict__[attr] is original


def test_traced_job_statistics_are_consistent():
    job = workloads.build("verify", 3)[0]  # sphere n = 2, two points
    tracer = Tracer()
    tracer.start_pass(record_spans=True)
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert tbcurv.cli.main(list(job.argv)) == 0
    finally:
        tracer.uninstall()
    stats = tracer.stats
    # 65 induced-metric evaluations per point at 2n = 4 (Richardson stencil).
    assert stats["bundlemetric.induced_metric"].calls == 65 * job.items
    assert stats["cli.main"].calls == 1
    for st in list(stats.values()) + list(tracer.layers.values()):
        assert st.active == 0
        assert 0.0 <= st.self_s <= st.busy_s + 1e-9 or st.busy_s == 0.0
    assert abs(tracer.layers["cli"].busy_s - stats["cli.main"].busy_s) < 1e-12
    # children of cli.main account for all but its self time
    assert stats["cli.main"].self_s < stats["cli.main"].busy_s
    assert 0 < tracer.christoffel_distinct < stats["basemanifold.christoffels"].calls
    cols = tracer.span_cols
    assert len(cols["start"]) > 0
    assert all(e >= s for s, e in zip(cols["start"], cols["end"]))
    assert cols["parent"][0] == -1  # the cli.main span is the root
