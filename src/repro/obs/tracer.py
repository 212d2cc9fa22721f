"""Hierarchical tracing: nested spans, their stage table, and the scope.

A :class:`Tracer` records *spans* — named, attributed intervals nested by
a span stack — so one run of the pipeline can be replayed as a tree
("evaluate_program" → "function" → "formation" / "schedule_region" →
"prep"/"renaming"/"ddg"/"priority"/"list_schedule").

**The stage table.**  As each span closes the tracer folds it into a
per-name table of (self seconds, count): a span's *self* time is its
duration minus the durations of its direct children.  The stages the
scheduler opens are leaves, so their rows are their wall time; in a
serial run the rows add up to the outermost span.  Pool workers ship
their table back and the parent folds it in with :meth:`Tracer.merge`.
``--timings``, ``--timings-json`` and the report's Observability section
print this table.  ``Tracer(keep_spans=False)`` keeps only the table;
the default also keeps every :class:`Span` for export:

* **JSONL** (:meth:`Tracer.write_jsonl`): one JSON object per finished
  span with its id, parent id, depth, relative start/end, and attributes
  — grep- and pandas-friendly;
* **Chrome trace-event JSON** (:meth:`Tracer.to_chrome` /
  :meth:`Tracer.write_chrome`): the ``{"traceEvents": [...]}`` format
  that loads directly in ``chrome://tracing`` and Perfetto.

**The scope.**  Pipeline code does not take a tracer parameter: it calls
:func:`span`, which records into the innermost tracer installed by
:func:`trace_scope` (the entry points that take ``tracer=`` open it, as
they open :func:`~repro.obs.metrics.metrics_scope` for ``metrics=``).
With no scope active :func:`span` returns a shared no-op context manager
that never reads the clock, so an uninstrumented run pays one function
call per instrumentation point.  :data:`NULL_TRACER` is the no-op
stand-in for objects that hold a tracer attribute (the serve layer,
whose threads cannot share a process-global scope).

Timestamps come from ``time.perf_counter`` (injectable for tests);
exports normalize to the first span's start, so absolute clock epochs
never leak into the files.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Span:
    """One finished (or still-open) traced interval."""

    __slots__ = ("sid", "parent", "name", "depth", "start", "end", "args",
                 "child")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 depth: int, start: float, args: Dict[str, object]):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.depth = depth
        self.start = start
        self.end: Optional[float] = None
        self.args = args
        #: Summed duration of the direct children closed so far.
        self.child = 0.0

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:
        state = f"{self.duration * 1e3:.3f}ms" if self.end is not None \
            else "open"
        return f"<span {self.sid} {self.name!r} depth={self.depth} {state}>"


class _SpanHandle:
    """Context manager opening one span on enter, closing it on exit."""

    __slots__ = ("_tracer", "_span", "_name", "_args")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, object]):
        self._tracer = tracer
        # The span is created on __enter__, not here, so building a
        # handle without entering it records nothing.
        self._span: Optional[Span] = None
        self._name = name
        self._args = args

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._args)
        return self._span

    def __exit__(self, *exc) -> bool:
        assert self._span is not None
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects nested spans, their stage table, and instant events for
    one run."""

    def __init__(self, clock: Callable[[], float] = perf_counter,
                 keep_spans: bool = True):
        self._clock = clock
        self._keep = keep_spans
        #: Every span ever opened, in open order (start-time order);
        #: empty with ``keep_spans=False``.
        self.spans: List[Span] = []
        #: Instant events: (timestamp, parent span id or None, name, args).
        self.events: List[tuple] = []
        #: The stage table: span name -> summed self seconds / count.
        self.stage_seconds: Dict[str, float] = {}
        self.stage_counts: Dict[str, int] = {}
        self._stack: List[Span] = []
        self._opened = 0

    # ------------------------------------------------------------------

    def span(self, name: str, **args) -> _SpanHandle:
        """Context manager recording one nested span named ``name``."""
        return _SpanHandle(self, name, args)

    def event(self, name: str, **args) -> None:
        """Record an instant (zero-duration) event at the current depth."""
        parent = self._stack[-1].sid if self._stack else None
        self.events.append((self._clock(), parent, name, args))

    def _open(self, name: str, args: Dict[str, object]) -> Span:
        stack = self._stack
        span = Span(self._opened, stack[-1].sid if stack else None, name,
                    len(stack), self._clock(), args)
        self._opened += 1
        if self._keep:
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        end = span.end = self._clock()
        stack = self._stack
        # Exceptions can leave deeper spans open; unwind past this span.
        while stack and stack.pop() is not span:
            pass
        duration = end - span.start
        if stack:
            stack[-1].child += duration
        name = span.name
        seconds, counts = self.stage_seconds, self.stage_counts
        seconds[name] = seconds.get(name, 0.0) + duration - span.child
        counts[name] = counts.get(name, 0) + 1

    # ------------------------------------------------------------------
    # The stage table

    def merge(self, seconds: Dict[str, float],
              counts: Dict[str, int]) -> None:
        """Fold another tracer's stage table in (a pool worker's
        ``stage_seconds``/``stage_counts``)."""
        for name, value in seconds.items():
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) \
                + value
            self.stage_counts[name] = self.stage_counts.get(name, 0) \
                + counts.get(name, 0)

    @property
    def stage_total(self) -> float:
        return sum(self.stage_seconds.values())

    def stages(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready table: name -> {seconds, count}, sorted by name."""
        return {
            name: {"seconds": self.stage_seconds[name],
                   "count": self.stage_counts.get(name, 0)}
            for name in sorted(self.stage_seconds)
        }

    def format_stages(self) -> str:
        """The table as text, slowest row first."""
        seconds = self.stage_seconds
        width = max([16, *map(len, seconds)])
        return "\n".join(
            f"{name:>{width}s}  {seconds[name]:8.3f}s"
            f"  x{self.stage_counts.get(name, 0)}"
            for name in sorted(seconds, key=seconds.get, reverse=True)
        )

    # ------------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span.end is not None]

    def _epoch(self) -> float:
        starts = [span.start for span in self.spans]
        starts.extend(ts for ts, _parent, _name, _args in self.events)
        return min(starts) if starts else 0.0

    def to_chrome(self, process_name: str = "repro") -> Dict[str, object]:
        """The Chrome trace-event JSON object (``chrome://tracing`` /
        Perfetto).  Spans become complete (``"ph": "X"``) events with
        microsecond timestamps relative to the first span."""
        epoch = self._epoch()
        pid = os.getpid()
        events: List[Dict[str, object]] = [{
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }]
        for span in self.finished_spans():
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start - epoch) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": 0,
                "args": dict(span.args),
            })
        for ts, _parent, name, args in self.events:
            events.append({
                "name": name,
                "cat": "repro",
                "ph": "i",
                "s": "t",
                "ts": (ts - epoch) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": dict(args),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str, process_name: str = "repro") -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome(process_name), handle, indent=1)
            handle.write("\n")

    def write_jsonl(self, path: str) -> None:
        """One JSON object per finished span, in start order."""
        epoch = self._epoch()
        with open(path, "w") as handle:
            for span in self.finished_spans():
                handle.write(json.dumps({
                    "sid": span.sid,
                    "parent": span.parent,
                    "name": span.name,
                    "depth": span.depth,
                    "start": span.start - epoch,
                    "end": (span.end or span.start) - epoch,
                    "dur": span.duration,
                    "args": dict(span.args),
                }, sort_keys=True))
                handle.write("\n")

    def format_summary(self, top: int = 8) -> str:
        """Human summary: span count plus the slowest stage-table rows."""
        lines = [f"{len(self.finished_spans())} spans, "
                 f"{len(self.events)} events"]
        lines.extend(self.format_stages().splitlines()[:top])
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Tracer {len(self.spans)} spans>"


class _NullSpanHandle:
    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpanHandle()


class NullTracer:
    """No-op :class:`Tracer` stand-in; never reads the clock."""

    __slots__ = ()

    def span(self, name: str, **args) -> _NullSpanHandle:
        return _NULL_SPAN

    def event(self, name: str, **args) -> None:
        pass

    def merge(self, seconds, counts) -> None:
        pass


#: Shared no-op tracer: ``tracer = tracer or NULL_TRACER``.
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# Active-tracer scope (how pipeline stages find the tracer)

_ACTIVE: List[Tracer] = []


def current_tracer():
    """The innermost tracer installed by :func:`trace_scope`, or
    :data:`NULL_TRACER` when none is active."""
    return _ACTIVE[-1] if _ACTIVE else NULL_TRACER


def span(name: str, **args):
    """Context manager recording one span named ``name`` into the active
    tracer; the shared no-op handle when no scope is active."""
    if _ACTIVE:
        return _SpanHandle(_ACTIVE[-1], name, args)
    return _NULL_SPAN


@contextmanager
def trace_scope(tracer):
    """Install ``tracer`` as the active tracer for the dynamic extent.

    Passing :data:`NULL_TRACER` (or any :class:`NullTracer`) is a no-op:
    it does *not* mask an outer scope, exactly like
    :func:`~repro.obs.metrics.metrics_scope`.
    """
    if isinstance(tracer, NullTracer):
        yield tracer
        return
    _ACTIVE.append(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.pop()
