"""Tests for repro.util (id allocation, ordered sets, stats) and for
stage timing, which is the stage table of :class:`repro.obs.Tracer`."""

import pytest

from repro.obs import NULL_TRACER, Tracer, span, trace_scope
from repro.util import (
    IdAllocator,
    OrderedSet,
    geometric_mean,
)


class StepClock:
    """Deterministic clock: every read advances one 'second'."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        value = self.now
        self.now += 1.0
        return value


class TestIdAllocator:
    def test_allocates_consecutively(self):
        ids = IdAllocator()
        assert [ids.allocate() for _ in range(3)] == [0, 1, 2]

    def test_custom_start(self):
        ids = IdAllocator(start=7)
        assert ids.allocate() == 7

    def test_reserve_skips_past(self):
        ids = IdAllocator()
        ids.reserve(10)
        assert ids.allocate() == 11

    def test_reserve_below_next_is_noop(self):
        ids = IdAllocator(start=5)
        ids.reserve(2)
        assert ids.allocate() == 5

    def test_next_id_does_not_advance(self):
        ids = IdAllocator()
        assert ids.next_id == 0
        assert ids.next_id == 0


class TestOrderedSet:
    def test_preserves_insertion_order(self):
        s = OrderedSet([3, 1, 2])
        assert list(s) == [3, 1, 2]

    def test_duplicate_add_keeps_first_position(self):
        s = OrderedSet([1, 2])
        s.add(1)
        assert list(s) == [1, 2]

    def test_membership_and_len(self):
        s = OrderedSet("abc")
        assert "a" in s and "z" not in s
        assert len(s) == 3

    def test_pop_first_is_fifo(self):
        s = OrderedSet([5, 6, 7])
        assert s.pop_first() == 5
        assert s.pop_first() == 6

    def test_pop_first_empty_raises(self):
        with pytest.raises(KeyError):
            OrderedSet().pop_first()

    def test_discard_missing_is_silent(self):
        s = OrderedSet([1])
        s.discard(9)
        assert list(s) == [1]

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            OrderedSet([1]).remove(9)

    def test_equality_with_set(self):
        assert OrderedSet([1, 2]) == {2, 1}
        assert OrderedSet([1, 2]) == OrderedSet([2, 1])

    def test_update_and_bool(self):
        s = OrderedSet()
        assert not s
        s.update([1, 2])
        assert s and len(s) == 2


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single_value(self):
        assert geometric_mean([3.5]) == pytest.approx(3.5)

    def test_empty_returns_neutral_factor(self):
        assert geometric_mean([]) == 1.0

    def test_zero_dominates(self):
        assert geometric_mean([0.0, 5.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([2.0, -1.0])

    def test_accepts_any_iterable(self):
        assert geometric_mean(x for x in (1.0, 4.0)) == pytest.approx(2.0)


class TestStageTimer:
    """The stage table a :class:`Tracer` folds its spans into."""

    def test_stage_accumulates(self):
        tracer = Tracer(keep_spans=False)
        with trace_scope(tracer):
            with span("work"):
                pass
            with span("work"):
                pass
        assert tracer.stage_counts["work"] == 2
        assert tracer.stage_seconds["work"] >= 0.0

    def test_merge_and_total(self):
        a = Tracer(clock=StepClock())
        with a.span("x"):                       # x: 1s
            pass
        b = Tracer(clock=StepClock())
        with b.span("y"):                       # y: 0..3, self 2s
            with b.span("x"):                   # x: 1..2, 1s
                pass
        a.merge(b.stage_seconds, b.stage_counts)
        assert a.stage_seconds["x"] == pytest.approx(2.0)
        assert a.stage_seconds["y"] == pytest.approx(2.0)
        assert a.stage_total == pytest.approx(4.0)
        assert a.stage_counts["x"] == 2

    def test_as_dict_and_format(self):
        tracer = Tracer(clock=StepClock())
        with tracer.span("ddg"):                # ddg: 0..3, self 2s
            with tracer.span("prep"):           # prep: 1..2, 1s
                pass
        table = tracer.stages()
        assert list(table) == ["ddg", "prep"]
        assert table["ddg"] == {"seconds": pytest.approx(2.0), "count": 1}
        # Text form: slowest row first.
        lines = tracer.format_stages().splitlines()
        assert [line.split()[0] for line in lines] == ["ddg", "prep"]
        assert lines[0].endswith("x1")

    def test_null_timer_is_inert(self):
        # No scope open: span() hands out the shared no-op handle.
        handle = span("anything")
        with handle:
            pass
        assert span("other") is handle
        NULL_TRACER.merge({"anything": 1.0}, {"anything": 1})
        with trace_scope(NULL_TRACER):
            assert span("inside") is handle
