"""Self-time folding, the layer tables, and wrapper installation."""

import threading

import pytest

from perfbench import tracing, use_program_sources


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.enter("a")            # a: 0..10
    clock.now = 2.0
    tracer.enter("b")            # b: 2..5
    clock.now = 3.0
    tracer.enter("c")            # c: 3..4
    clock.now = 4.0
    assert tracer.leave() == pytest.approx(1.0)
    clock.now = 5.0
    tracer.leave()
    clock.now = 6.0
    tracer.enter("b")            # b again: 6..8
    clock.now = 8.0
    tracer.leave()
    clock.now = 10.0
    tracer.leave()
    snap = tracer.snapshot()
    assert snap["self_s"] == pytest.approx({"a": 5.0, "b": 4.0, "c": 1.0})
    assert snap["total_s"] == pytest.approx({"a": 10.0, "b": 5.0, "c": 1.0})
    assert snap["calls"] == {"a": 1, "b": 2, "c": 1}
    # Self times of all layers add up to the outermost span.
    assert sum(snap["self_s"].values()) == pytest.approx(10.0)


def test_same_layer_nesting_and_detached_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.enter("x")
    clock.now = 1.0
    tracer.enter("x")
    clock.now = 3.0
    tracer.leave()
    clock.now = 4.0
    tracer.leave()
    tracer.record("raw", 2.5)
    snap = tracer.snapshot()
    assert snap["self_s"]["x"] == pytest.approx(4.0)
    assert snap["total_s"]["x"] == pytest.approx(6.0)
    assert snap["self_s"]["raw"] == pytest.approx(2.5)


def test_spans_nest_per_thread():
    tracer = tracing.Tracer()
    tracer.enter("outer")
    seen = []
    thread = threading.Thread(target=lambda: seen.append(tracer.current()))
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    assert seen == [None] and tracer.current() == "outer"
    tracer.leave()


def test_local_table_remainder_closes_the_sum():
    snapshot = {"calls": {"regions": 2, "schedule.ddg": 5},
                "self_s": {"regions": 1.0, "schedule.ddg": 2.5},
                "total_s": {}, "counts": {}}
    rows = tracing.local_table(snapshot, wall=4.0)
    assert rows["remainder"]["self_s"] == pytest.approx(0.5)
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(4.0)
    metrics = tracing.table_metrics(rows, 4.0, overhead=1.1)
    assert metrics["trace.attributed_share"] == pytest.approx(0.875)
    assert set(metrics) <= set(tracing.per_layer_catalog())


def test_serve_table_splits_request_seconds_into_hops():
    def snap(calls, self_s, total_s=None, counts=None):
        return {"calls": calls, "self_s": self_s,
                "total_s": total_s or dict(self_s), "counts": counts or {}}

    client = snap({"serve.client": 10, "serve.wire": 20},
                  {"serve.client": 0.5, "serve.wire": 0.2},
                  {"serve.client": 6.0, "serve.wire": 0.2})
    server = {
        "trace": snap(
            {tracing.RAW_DISPATCH: 10, tracing.RAW_FLEET: 10,
             tracing.RAW_SERVICE: 2, "serve.wire": 20, "serve.store": 3},
            {tracing.RAW_DISPATCH: 5.0, tracing.RAW_FLEET: 4.5,
             tracing.RAW_SERVICE: 4.0, "serve.wire": 0.1,
             "serve.store": 0.3}),
        "workers": [{"jobs": 2, "wall": 1.5,
                     "trace": snap({"serve.worker": 1, "schedule.ddg": 4},
                                   {"serve.worker": 0.5,
                                    "schedule.ddg": 1.0})}],
    }
    rows = tracing.serve_table(client, server, latency_sum=6.25)
    assert rows["serve.worker"]["self_s"] == pytest.approx(1.0)
    assert rows["schedule.ddg"]["self_s"] == pytest.approx(2.0)
    assert rows["serve.service"]["self_s"] == pytest.approx(4.0 - 3.0 - 0.3)
    assert rows["serve.fleet"]["self_s"] == pytest.approx(0.5)
    assert rows["serve.frontend"]["self_s"] == pytest.approx(0.5)
    assert rows["serve.client"]["self_s"] == pytest.approx(6.0 - 0.3 - 5.0)
    assert rows["remainder"]["self_s"] == pytest.approx(0.25)
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(6.25)


def test_installation_wraps_every_binding_and_restores_them():
    use_program_sources()
    import repro.schedule.memo as memo
    import repro.schedule.prep as prep
    import repro.schedule.scheduler as scheduler
    from repro.schedule.memo import RegionMemo

    original = prep.prepare_region
    method = RegionMemo.__dict__["schedule"]
    installation = tracing.Installation(tracing.Tracer()).install()
    try:
        assert not installation.missing
        wrapped = prep.prepare_region
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert memo.prepare_region is wrapped
        assert scheduler.prepare_region is wrapped
        assert RegionMemo.__dict__["schedule"] is not method
    finally:
        installation.uninstall()
    assert prep.prepare_region is original
    assert memo.prepare_region is original
    assert scheduler.prepare_region is original
    assert RegionMemo.__dict__["schedule"] is method


def test_a_missing_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_TARGETS", (
        ("regions", ("repro.no_such_module:form",), None),))
    use_program_sources()
    installation = tracing.Installation(tracing.Tracer()).install()
    installation.uninstall()
    assert installation.missing == ["repro.no_such_module:form"]
