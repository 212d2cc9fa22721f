"""Observability: hierarchical tracing + deterministic metrics.

See :mod:`repro.obs.tracer` (spans, their stage table, and the
:func:`span`/:func:`trace_scope` pair) and :mod:`repro.obs.metrics`
(counters and :func:`metrics_scope`) for the two in-process halves, and
:mod:`repro.obs.distributed` for cross-process trace-context propagation
and the ``merge_traces()`` collector; DESIGN.md ("Observability", "Fleet
observability") describes how the evaluation engine merges worker
registries, why serial and parallel runs report identical counters, and
how a fleet request becomes one merged Perfetto timeline.
"""

from repro.obs.distributed import (
    NULL_DTRACER,
    DistributedTracer,
    MergedSpan,
    MergedTrace,
    NullDistributedTracer,
    merge_traces,
    new_span_id,
    new_trace_id,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    RollingHistogram,
    current_metrics,
    metrics_scope,
    observability_snapshot,
    write_observability_json,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    span,
    trace_scope,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "RollingHistogram",
    "current_metrics",
    "metrics_scope",
    "observability_snapshot",
    "write_observability_json",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "span",
    "trace_scope",
    "DistributedTracer",
    "NullDistributedTracer",
    "NULL_DTRACER",
    "MergedSpan",
    "MergedTrace",
    "merge_traces",
    "new_trace_id",
    "new_span_id",
]
