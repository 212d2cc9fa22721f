"""Tests for the observability layer (:mod:`repro.obs`).

Covers the tracer (span nesting, exception unwinding, Chrome trace-event
and JSONL export), the metrics registry (histograms, merge semantics,
snapshot round-trips, the active-registry scope), the determinism
contract (serial vs ``jobs=2`` evaluation of the same grid serializes
byte-identically), the pipeline instrumentation points, the schedule
annotations on DOT export, and the CLI surfacing (``repro trace``,
``--metrics``/``--trace``/``--timings-json``).
"""

import json

import pytest

from repro import api
from repro.api import GridCell
from repro.cli import main
from repro.core import form_treegions
from repro.evaluation.engine import (
    _run_task,
    _split_cells,
    default_grid,
    evaluate_grid,
)
from repro.evaluation.runner import evaluate_program
from repro.evaluation.schemes import treegion_scheme, treegion_td_scheme
from repro.interp import profile_program
from repro.ir.dot import cfg_to_dot
from repro.machine import VLIW_4U
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    Tracer,
    current_metrics,
    current_tracer,
    metrics_scope,
    span,
    trace_scope,
)
from repro.obs.metrics import observability_snapshot
from repro.schedule import ScheduleOptions
from repro.schedule.memo import RegionMemo
from repro.schedule.scheduler import schedule_partition
from repro.workloads import build_benchmark

from tests.helpers import diamond_function, program_with
from tests.test_regions_formation import build_figure1_like


class FakeClock:
    """Deterministic clock: every read advances one 'second'."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        value = self.now
        self.now += 1.0
        return value


# ----------------------------------------------------------------------
# Tracer


class TestTracer:
    def test_span_nesting_and_ordering(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", kind="test"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass

        spans = tracer.finished_spans()
        assert [s.name for s in spans] == ["outer", "first", "second"]
        outer, first, second = spans
        assert outer.parent is None and outer.depth == 0
        assert first.parent == outer.sid and first.depth == 1
        assert second.parent == outer.sid and second.depth == 1
        # Siblings are ordered by start time; the parent brackets both.
        assert first.start < second.start
        assert outer.start < first.start
        assert outer.end > second.end
        assert outer.args == {"kind": "test"}

    def test_span_durations_from_injected_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        (span,) = tracer.finished_spans()
        assert span.duration == pytest.approx(1.0)

    def test_exception_still_closes_spans(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert [s.name for s in tracer.finished_spans()] == ["outer",
                                                             "inner"]
        # The stack fully unwound: a new span is a root again.
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].depth == 0

    def test_orphaned_span_unwound_by_ancestor_close(self):
        # A span opened directly (no context manager) is abandoned when
        # an ancestor closes: the stack must not leak it.
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            tracer._open("leaked", {})
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].name == "after"
        assert tracer.spans[-1].depth == 0

    def test_events_attach_to_current_span(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("root_event")
        with tracer.span("outer"):
            tracer.event("nested", n=3)
        assert len(tracer.events) == 2
        (_, parent0, name0, _), (_, parent1, name1, args1) = tracer.events
        assert (name0, parent0) == ("root_event", None)
        assert name1 == "nested"
        assert parent1 == tracer.spans[0].sid
        assert args1 == {"n": 3}

    def test_null_tracer_is_reusable_and_silent(self):
        handle = NULL_TRACER.span("anything", a=1)
        with handle:
            with NULL_TRACER.span("nested"):
                NULL_TRACER.event("e")
        # Same singleton handle every time — no allocation per call.
        assert NULL_TRACER.span("other") is handle

    def test_format_summary_mentions_spans(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("alpha"):
            pass
        text = tracer.format_summary()
        assert "1 spans" in text
        assert "alpha" in text


class TestSpanScope:
    def test_span_records_into_innermost_scope(self):
        outer, inner = Tracer(), Tracer()
        with trace_scope(outer):
            with span("a"):
                with trace_scope(inner):
                    assert current_tracer() is inner
                    with span("b", n=1):
                        pass
            with trace_scope(NULL_TRACER):
                # A null tracer does not hide the outer scope.
                assert current_tracer() is outer
                with span("c"):
                    pass
        assert current_tracer() is NULL_TRACER
        assert [s.name for s in outer.spans] == ["a", "c"]
        assert [(s.name, s.args) for s in inner.spans] == [("b", {"n": 1})]


def _ancestors(tracer: Tracer, span_obj):
    by_sid = {s.sid: s for s in tracer.spans}
    names = []
    while span_obj.parent is not None:
        span_obj = by_sid[span_obj.parent]
        names.append(span_obj.name)
    return names


class TestGridSpans:
    """Scheduler stages report to the scope the grid runs under."""

    @pytest.mark.parametrize("memo", [False, True])
    def test_scheduler_spans_reach_cells(self, memo):
        cells = default_grid(benchmarks=["compress"])[:16]
        tracer = Tracer()
        with trace_scope(tracer):
            evaluate_grid(cells, jobs=1,
                          region_memo=RegionMemo() if memo else False)
        for stage in ("ddg", "list_schedule"):
            stage_spans = [s for s in tracer.spans if s.name == stage]
            assert stage_spans, stage
            assert all("cell" in _ancestors(tracer, s)
                       for s in stage_spans), stage
        # The table is the fold of exactly these spans.
        counts = {}
        for s in tracer.spans:
            counts[s.name] = counts.get(s.name, 0) + 1
        assert counts == tracer.stage_counts
        if memo:
            assert counts["fingerprint"] > 0

    def test_serial_rows_add_up_to_the_grid_span(self):
        tracer = Tracer()
        evaluate_grid(default_grid(benchmarks=["compress"])[:8], jobs=1,
                      tracer=tracer, region_memo=False)
        (root,) = [s for s in tracer.spans if s.name == "evaluate_grid"]
        assert tracer.stage_total == pytest.approx(root.duration,
                                                   rel=1e-9)

    def test_forked_task_leaves_inherited_tracer_alone(self):
        import multiprocessing

        cells = [GridCell("compress", "treegion", "4U", "global_weight")]
        (task,) = _split_cells(cells, 1)
        tracer = Tracer()
        with trace_scope(tracer), span("parent"):
            with multiprocessing.get_context("fork").Pool(1) as pool:
                child_names, table = pool.apply(_run_task_in_child, (task,))
        # The child saw only the parent's own open span in the tracer it
        # inherited; the task's spans went into the table it shipped.
        assert child_names == ["parent"]
        assert [s.name for s in tracer.spans] == ["parent"]
        seconds, counts = table
        assert counts["ddg"] > 0 and counts["cell"] == 1


def _run_task_in_child(task):
    _out, _lo, table, _snapshot, _memo = _run_task(task)
    return [s.name for s in current_tracer().spans], table


class TestTraceExport:
    def _traced(self) -> Tracer:
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", machine="4U"):
            with tracer.span("inner"):
                pass
            tracer.event("ping", n=1)
        return tracer

    def test_chrome_schema_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        self._traced().write_chrome(str(path))
        doc = json.loads(path.read_text())

        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert isinstance(events, list)

        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["name"] == "process_name"

        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["outer", "inner"]
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid",
                    "tid", "args"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] >= 0
        # Timestamps are normalized: the first span starts at ts=0.
        assert complete[0]["ts"] == 0
        assert complete[0]["args"] == {"machine": "4U"}

        instants = [e for e in events if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["ping"]
        assert instants[0]["args"] == {"n": 1}

    def test_jsonl_export(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        self._traced().write_jsonl(str(path))
        lines = path.read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert [row["name"] for row in rows] == ["outer", "inner"]
        assert rows[0]["parent"] is None and rows[0]["start"] == 0.0
        assert rows[1]["parent"] == rows[0]["sid"]
        assert rows[1]["depth"] == 1


# ----------------------------------------------------------------------
# Metrics


class TestHistogram:
    def test_observe_stats_and_buckets(self):
        histogram = Histogram()
        for value in (0, 1, 2, 3, 7):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.total == 13
        assert (histogram.min, histogram.max) == (0, 7)
        assert histogram.mean == pytest.approx(13 / 5)
        # bucket = bit_length: 0 -> 0, 1 -> 1, {2,3} -> 2, {4..7} -> 3.
        assert histogram.buckets == {0: 1, 1: 1, 2: 2, 3: 1}

    def test_merge_equals_union_of_observations(self):
        left, right, union = Histogram(), Histogram(), Histogram()
        for value in (1, 5, 9):
            left.observe(value)
            union.observe(value)
        for value in (2, 5):
            right.observe(value)
            union.observe(value)
        left.merge(right)
        assert left.as_dict() == union.as_dict()

    def test_dict_round_trip(self):
        histogram = Histogram()
        for value in (3, 3, 16):
            histogram.observe(value)
        clone = Histogram.from_dict(
            json.loads(json.dumps(histogram.as_dict()))
        )
        assert clone.as_dict() == histogram.as_dict()

    def test_empty_round_trip(self):
        clone = Histogram.from_dict(Histogram().as_dict())
        assert clone.count == 0 and clone.min is None


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        metrics = MetricsRegistry()
        metrics.inc("ops")
        metrics.inc("ops", 4)
        metrics.gauge("cache.hits", 17)
        metrics.observe("length", 8)
        assert metrics.counters["ops"] == 5
        assert metrics.gauges["cache.hits"] == 17
        assert metrics.histograms["length"].count == 1

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.inc("only_b")
        a.gauge("g", 10)
        b.gauge("g", 4)
        a.observe("h", 1)
        b.observe("h", 2)
        a.merge(b)
        assert a.counters == {"n": 5, "only_b": 1}
        assert a.gauges == {"g": 10}  # max, not sum
        assert a.histograms["h"].count == 2

    def test_snapshot_keys_sorted(self):
        metrics = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            metrics.inc(name)
        snap = metrics.snapshot()
        assert list(snap["counters"]) == ["alpha", "mid", "zeta"]

    def test_deterministic_snapshot_excludes_gauges(self):
        metrics = MetricsRegistry()
        metrics.inc("c")
        metrics.gauge("g", 1.0)
        metrics.observe("h", 2)
        snap = metrics.deterministic_snapshot()
        assert set(snap) == {"counters", "histograms"}

    def test_snapshot_merge_round_trip(self):
        # Two "workers" shipped home as snapshots must equal a direct
        # in-process merge — this is the engine's worker protocol.
        w1, w2 = MetricsRegistry(), MetricsRegistry()
        w1.inc("n", 2)
        w1.observe("h", 4)
        w2.inc("n", 5)
        w2.observe("h", 9)

        via_snapshots = MetricsRegistry()
        via_snapshots.merge_snapshot(json.loads(json.dumps(w1.snapshot())))
        via_snapshots.merge_snapshot(json.loads(json.dumps(w2.snapshot())))

        direct = MetricsRegistry()
        direct.merge(w1)
        direct.merge(w2)
        assert via_snapshots.snapshot() == direct.snapshot()

    def test_merge_is_commutative(self):
        w1, w2 = MetricsRegistry(), MetricsRegistry()
        w1.inc("a", 3)
        w1.observe("h", 1)
        w2.inc("a", 4)
        w2.inc("b")
        w2.observe("h", 6)
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(w1)
        ab.merge(w2)
        ba.merge(w2)
        ba.merge(w1)
        assert ab.snapshot() == ba.snapshot()

    def test_format_table_stable_order(self):
        metrics = MetricsRegistry()
        metrics.inc("b.counter", 2)
        metrics.inc("a.counter", 1)
        metrics.observe("h.hist", 3)
        metrics.gauge("z.gauge", 9)
        lines = metrics.format_table().splitlines()
        names = [line.split()[0] for line in lines]
        # Counters first (sorted), then histograms, then gauges.
        assert names == ["a.counter", "b.counter", "h.hist", "z.gauge"]
        assert metrics.format_table() == metrics.format_table()

    def test_observability_snapshot_folds_timer(self):
        metrics = MetricsRegistry()
        metrics.inc("c")
        tracer = Tracer(clock=FakeClock(), keep_spans=False)
        for _ in range(2):
            with tracer.span("formation"):
                pass
        snap = observability_snapshot(metrics, tracer)
        assert snap["counters"] == {"c": 1}
        assert snap["stages"]["formation"] == {
            "seconds": pytest.approx(2.0), "count": 2}
        assert snap["total_seconds"] == pytest.approx(2.0)
        assert "stages" not in observability_snapshot(metrics, NULL_TRACER)


class TestGaugeModes:
    def test_default_max_is_a_high_water_mark(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("memo.entries", 14, mode="max")
        b.gauge("memo.entries", 9)
        a.merge(b)
        assert a.gauges["memo.entries"] == 14

    def test_last_mode_adopts_the_incoming_value(self):
        # A shard's *current* queue depth: after the queue drains, the
        # newest snapshot must win or the stale peak pins forever.
        fleet, shard = MetricsRegistry(), MetricsRegistry()
        fleet.gauge("fleet.queued", 120, mode="last")
        shard.gauge("fleet.queued", 0, mode="last")
        fleet.merge(shard)
        assert fleet.gauges["fleet.queued"] == 0

    def test_receiver_learns_mode_from_the_incoming_side(self):
        receiver, sender = MetricsRegistry(), MetricsRegistry()
        sender.gauge("fleet.inflight", 3, mode="last")
        receiver.merge(sender)
        sender2 = MetricsRegistry()
        sender2.gauge("fleet.inflight", 1, mode="last")
        receiver.merge(sender2)
        assert receiver.gauges["fleet.inflight"] == 1

    def test_mode_is_sticky_until_changed(self):
        metrics = MetricsRegistry()
        metrics.gauge("g", 5, mode="last")
        metrics.gauge("g", 7)  # no mode -> keeps "last"
        assert metrics.gauge_modes == {"g": "last"}
        metrics.gauge("g", 9, mode="max")  # explicit reset
        assert metrics.gauge_modes == {}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().gauge("g", 1, mode="sum")

    def test_modes_round_trip_through_snapshots(self):
        worker = MetricsRegistry()
        worker.gauge("fleet.queued", 4, mode="last")
        worker.gauge("memo.entries", 10, mode="max")
        snap = json.loads(json.dumps(worker.snapshot()))
        assert snap["gauge_modes"] == {"fleet.queued": "last"}
        clone = MetricsRegistry.from_snapshot(snap)
        assert clone.gauge_modes == {"fleet.queued": "last"}
        clone.merge_snapshot(
            {"gauges": {"fleet.queued": 1, "memo.entries": 6}})
        assert clone.gauges == {"fleet.queued": 1, "memo.entries": 10}

    def test_mode_free_snapshot_keeps_the_old_shape(self):
        # Back-compat: registries that never used "last" serialize
        # exactly as before the modes existed.
        metrics = MetricsRegistry()
        metrics.gauge("g", 1)
        metrics.gauge("h", 2, mode="max")
        assert "gauge_modes" not in metrics.snapshot()
        assert set(metrics.snapshot()) == {"counters", "gauges",
                                           "histograms"}

    def test_format_table_names_the_mode(self):
        metrics = MetricsRegistry()
        metrics.gauge("depth", 3, mode="last")
        metrics.gauge("peak", 9)
        table = metrics.format_table()
        assert "(gauge:last)" in table
        assert "(gauge:max)" in table

    def test_null_metrics_accepts_mode(self):
        NullMetrics().gauge("g", 1, mode="last")


class TestRollingHistogram:
    def _rolling(self, clock):
        from repro.obs import RollingHistogram

        return RollingHistogram(window_seconds=10.0, windows=3,
                                clock=clock)

    def test_summary_over_live_windows(self):
        now = {"t": 0.0}
        rolling = self._rolling(lambda: now["t"])
        for value in (100, 200, 400):
            rolling.observe(value)
        summary = rolling.summary()
        assert summary["count"] == 3
        assert summary["min"] == 100 and summary["max"] == 400
        assert summary["window_seconds"] == 30.0
        assert summary["p50"] >= 200
        assert summary["p99"] <= 400

    def test_old_windows_age_out(self):
        now = {"t": 0.0}
        rolling = self._rolling(lambda: now["t"])
        rolling.observe(1_000_000)  # a slow outlier at t=0
        now["t"] = 15.0
        rolling.observe(100)
        assert rolling.merged().count == 2  # still inside the horizon
        now["t"] = 35.0  # window 0 is now beyond 3x10s
        rolling.observe(100)
        merged = rolling.merged()
        assert merged.count == 2
        assert merged.max == 100  # the outlier no longer dominates p99

    def test_empty_summary(self):
        now = {"t": 0.0}
        summary = self._rolling(lambda: now["t"]).summary()
        assert summary["count"] == 0
        assert summary["p99"] is None

    def test_rejects_degenerate_config(self):
        from repro.obs import RollingHistogram

        with pytest.raises(ValueError):
            RollingHistogram(window_seconds=0)
        with pytest.raises(ValueError):
            RollingHistogram(windows=0)


class TestMetricsScope:
    def test_default_is_null(self):
        assert current_metrics() is NULL_METRICS

    def test_scope_installs_and_restores(self):
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            assert current_metrics() is metrics
            current_metrics().inc("seen")
        assert current_metrics() is NULL_METRICS
        assert metrics.counters == {"seen": 1}

    def test_inner_scope_wins(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with metrics_scope(outer):
            with metrics_scope(inner):
                assert current_metrics() is inner
            assert current_metrics() is outer

    def test_null_scope_does_not_shadow(self):
        # An uninstrumented intermediate layer passing NULL_METRICS must
        # not hide the instrumented caller's registry.
        outer = MetricsRegistry()
        with metrics_scope(outer):
            with metrics_scope(NULL_METRICS):
                assert current_metrics() is outer

    def test_scope_restored_after_exception(self):
        metrics = MetricsRegistry()
        with pytest.raises(ValueError):
            with metrics_scope(metrics):
                raise ValueError
        assert current_metrics() is NULL_METRICS

    def test_null_metrics_api_is_silent(self):
        null = NullMetrics()
        null.inc("x")
        null.gauge("y", 1)
        null.observe("z", 2)
        null.merge(MetricsRegistry())
        null.merge_snapshot({})


# ----------------------------------------------------------------------
# Determinism contract + pipeline instrumentation


GRID = [GridCell("compress", scheme, "4U", "global_weight")
        for scheme in ("bb", "treegion", "treegion-td:2.0")]


class TestMergeDeterminism:
    def test_serial_and_parallel_metrics_byte_identical(self):
        serial_metrics = MetricsRegistry()
        parallel_metrics = MetricsRegistry()
        serial = api.evaluate_grid(GRID, jobs=1, metrics=serial_metrics)
        parallel = api.evaluate_grid(GRID, jobs=2,
                                     metrics=parallel_metrics)

        for a, b in zip(serial, parallel):
            assert a.time == b.time

        dump_serial = json.dumps(serial_metrics.deterministic_snapshot(),
                                 sort_keys=True)
        dump_parallel = json.dumps(
            parallel_metrics.deterministic_snapshot(), sort_keys=True)
        assert dump_serial == dump_parallel

        counters = serial_metrics.counters
        assert counters["engine.cells"] == len(GRID)
        assert counters["formation.regions"] > 0
        assert counters["schedule.regions"] > 0
        assert counters["ddg.nodes"] > 0


class TestPipelineCounters:
    def test_evaluate_program_populates_counters(self):
        program = build_benchmark("compress")
        metrics = MetricsRegistry()
        tracer = Tracer()
        options = ScheduleOptions(heuristic="global_weight",
                                  dominator_parallelism=True)
        evaluate_program(program, treegion_scheme(), VLIW_4U, options,
                         metrics=metrics, tracer=tracer)

        counters = metrics.counters
        assert counters["formation.regions"] >= 1
        assert counters["formation.blocks"] >= counters["formation.regions"]
        assert counters["schedule.regions"] == counters["formation.regions"]
        assert counters["schedule.cycles"] > 0
        assert counters["ddg.nodes"] > 0
        assert counters["ddg.edges"] > 0
        # One histogram sample per scheduled region.
        lengths = metrics.histograms["schedule.length"]
        assert lengths.count == counters["schedule.regions"]
        assert lengths.total == counters["schedule.cycles"]

        names = [s.name for s in tracer.finished_spans()]
        assert "evaluate_program" in names
        assert "schedule_region" in names
        assert "list_schedule" in names

    def test_tail_duplication_counters(self):
        program = build_benchmark("compress")
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            evaluate_program(program, treegion_td_scheme(), VLIW_4U,
                             ScheduleOptions(heuristic="global_weight"))
        assert metrics.counters.get("tail_dup.blocks", 0) > 0
        assert metrics.counters.get("tail_dup.ops", 0) > 0

    def test_simulator_records_gauges(self):
        program = program_with(diamond_function())
        profile_program(program, inputs=[[5]])
        metrics = MetricsRegistry()
        _result, simulator = api.simulate(program, "treegion", "4U",
                                          args=[5])
        simulator.record_metrics(metrics)
        assert metrics.gauges["sim.cycles"] > 0
        assert metrics.gauges["sim.region_visits"] > 0
        assert "sim.squashes" in metrics.gauges
        # Gauges stay out of the deterministic snapshot.
        assert "gauges" not in metrics.deterministic_snapshot()


# ----------------------------------------------------------------------
# DOT schedule annotation


class TestDotScheduleAnnotation:
    def _scheduled(self):
        fn = build_figure1_like()
        partition = form_treegions(fn.cfg)
        schedules = schedule_partition(
            partition, VLIW_4U, ScheduleOptions(heuristic="global_weight")
        )
        return fn, partition, schedules

    def test_blocks_annotated_with_cycles(self):
        fn, partition, schedules = self._scheduled()
        dot = cfg_to_dot(fn.cfg, partition=partition, schedules=schedules)
        assert "sched:" in dot
        assert "cycles)" in dot  # cluster labels carry schedule length

    def test_no_annotation_without_schedules(self):
        fn, partition, _schedules = self._scheduled()
        dot = cfg_to_dot(fn.cfg, partition=partition)
        assert "sched:" not in dot


# ----------------------------------------------------------------------
# CLI surfacing


SOURCE = """
func main(a) {
    var x = 0;
    if (a > 3) { x = a * 2; } else { x = a + 10; }
    return x;
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(SOURCE)
    return str(path)


class TestObservabilityCLI:
    def test_trace_command_writes_chrome_json(self, source_file, tmp_path,
                                              capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "spans.jsonl"
        metrics_out = tmp_path / "metrics.json"
        assert main(["trace", source_file, "--args", "5",
                     "--out", str(out), "--jsonl", str(jsonl),
                     "--metrics-out", str(metrics_out)]) == 0

        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "evaluate_program" in names
        assert "list_schedule" in names

        rows = [json.loads(line)
                for line in jsonl.read_text().splitlines()]
        assert any(row["name"] == "schedule_region" for row in rows)

        metrics_doc = json.loads(metrics_out.read_text())
        assert metrics_doc["counters"]["schedule.regions"] > 0
        assert "stages" in metrics_doc

        stdout = capsys.readouterr().out
        assert "estimated time" in stdout
        assert "schedule.regions" in stdout

    def test_run_metrics_and_trace_flags(self, source_file, tmp_path):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        assert main(["run", source_file, "--args", "5",
                     "--metrics", str(metrics_path),
                     "--trace", str(trace_path)]) == 0
        metrics_doc = json.loads(metrics_path.read_text())
        assert metrics_doc["counters"]["schedule.regions"] > 0
        assert metrics_doc["gauges"]["sim.cycles"] > 0
        trace_doc = json.loads(trace_path.read_text())
        assert any(e["name"] == "simulate"
                   for e in trace_doc["traceEvents"])

    def test_bench_timings_json(self, tmp_path, capsys):
        timings = tmp_path / "timings.json"
        assert main(["bench", "--benchmarks", "compress",
                     "--schemes", "bb,treegion", "--machine", "4U",
                     "--metrics", str(tmp_path / "m.json"),
                     "--timings-json", str(timings)]) == 0
        doc = json.loads(timings.read_text())
        assert doc["total_seconds"] > 0
        assert "formation" in doc["stages"]
        assert doc["counters"]["engine.cells"] > 0
        capsys.readouterr()

    def test_dot_schedule_flag(self, source_file, capsys):
        assert main(["dot", source_file, "--schedule"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "sched:" in out
