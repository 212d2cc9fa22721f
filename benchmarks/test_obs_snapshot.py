"""Observability regression benchmark.

Runs the paper's evaluation grid through the engine in two
configurations —

* **uninstrumented**: ``NULL_METRICS`` / ``NULL_TRACER`` (the default
  for every caller that does not opt in: no scope is open, so every
  span is the shared no-op), and
* **instrumented**: a real :class:`MetricsRegistry` and a
  :class:`Tracer` collecting the full span tree, every scheduler stage
  included, and folding it into the stage table;

— verifies both produce identical numbers, bounds the instrumentation
overhead, and writes ``BENCH_obs.json`` at the repo root (wall times,
overhead ratio, the stage table's self seconds and counts, headline
pipeline counters, histogram summaries) so the perf trajectory can be
diffed.  The Chrome
trace from the instrumented run is saved to
``benchmarks/results/obs_trace.json`` as a viewable artifact.

Measurement discipline: the grid runs with ``region_memo=False`` — this
benchmark measures the *direct pipeline's* instrumentation overhead, and
with the memo on the second configuration would be served from cache and
time the cache instead (the memoized path has its own benchmark,
``test_sched_snapshot.py``).  Each configuration is timed best-of-N
(minimum of ``BEST_OF`` runs), with the two configurations
*interleaved* so neither gets all the late, process-warmed iterations:
the minimum is the standard noise floor for CPU-bound benchmarks, and
without both disciplines warm-up asymmetry used to push the overhead
ratio *below* 1.0.

CI smoke runs shrink the grid via ``REPRO_OBS_BENCH_BENCHMARKS`` (a
comma-separated benchmark subset, e.g. ``compress``); the snapshot
records the grid size so shrunken runs are not mistaken for full ones.
Regenerate the committed snapshot with::

    PYTHONPATH=src python -m pytest benchmarks/test_obs_snapshot.py -s
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.evaluation.engine import default_grid, evaluate_grid
from repro.obs import MetricsRegistry, Tracer

from benchmarks.conftest import RESULTS_DIR, emit_table

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_obs.json"
TRACE_ARTIFACT = RESULTS_DIR / "obs_trace.json"

#: Runs per configuration; the recorded wall time is the minimum.
BEST_OF = 3

#: Headline counters recorded in the snapshot (a stable subset, so the
#: JSON diffs cleanly when unrelated counters are added later).
HEADLINE_COUNTERS = (
    "engine.cells",
    "formation.regions",
    "formation.blocks",
    "tail_dup.blocks",
    "tail_dup.ops",
    "prep.pand_merges",
    "rename.registers_minted",
    "rename.exit_copies",
    "ddg.nodes",
    "ddg.edges",
    "schedule.regions",
    "schedule.cycles",
    "schedule.speculated",
    "schedule.merged",
)

#: Generous ceiling on instrumented/uninstrumented wall time: the
#: instrumentation points are per-region, never per-op, so the real
#: ratio sits near 1.0; anything past this bound means a hot path grew
#: an instrumentation call it should not have.
MAX_OVERHEAD_RATIO = 1.5


def _grid():
    subset = os.environ.get("REPRO_OBS_BENCH_BENCHMARKS")
    if subset:
        return default_grid(benchmarks=[
            name.strip() for name in subset.split(",") if name.strip()
        ])
    return default_grid()


def _timed(make_run):
    """Time one run; ``make_run`` returns (payload, result-rows)."""
    t0 = time.perf_counter()
    payload, rows = make_run()
    return time.perf_counter() - t0, payload, rows


def test_obs_snapshot():
    grid = _grid()

    def plain_run():
        return None, evaluate_grid(grid, jobs=1, region_memo=False)

    def instrumented_run():
        metrics = MetricsRegistry()
        tracer = Tracer()
        rows = evaluate_grid(grid, jobs=1, metrics=metrics, tracer=tracer,
                             region_memo=False)
        return (metrics, tracer), rows

    best_plain = best_instr = None
    for _ in range(BEST_OF):
        run = _timed(plain_run)
        if best_plain is None or run[0] < best_plain[0]:
            best_plain = run
        run = _timed(instrumented_run)
        if best_instr is None or run[0] < best_instr[0]:
            best_instr = run
    t_plain, _, plain = best_plain
    t_instr, (metrics, tracer), instrumented = best_instr

    # Observability must never change the answer.
    for a, b in zip(plain, instrumented):
        assert a.time == b.time
        assert a.code_expansion == b.code_expansion
        assert a.schedule_lengths == b.schedule_lengths

    assert metrics.counters["engine.cells"] == len(grid)
    spans = tracer.finished_spans()
    assert spans and all(s.end is not None for s in spans)
    # Every scheduler stage is a span under the grid, and the stage
    # table is the fold of exactly those spans.
    assert tracer.stage_counts["list_schedule"] > 0
    assert len(spans) == sum(tracer.stage_counts.values())

    overhead = t_instr / t_plain if t_plain > 0 else 1.0
    assert overhead < MAX_OVERHEAD_RATIO, (
        f"instrumented grid run ({t_instr:.2f}s) is {overhead:.2f}x the "
        f"uninstrumented run ({t_plain:.2f}s); bound {MAX_OVERHEAD_RATIO}"
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    tracer.write_chrome(str(TRACE_ARTIFACT))

    snapshot = {
        "grid_cells": len(grid),
        "best_of": BEST_OF,
        "uninstrumented_seconds": round(t_plain, 3),
        "instrumented_seconds": round(t_instr, 3),
        "overhead_ratio": round(overhead, 3),
        "span_count": len(spans),
        "stage_seconds": {
            name: round(seconds, 3)
            for name, seconds in sorted(tracer.stage_seconds.items())
        },
        "stage_counts": dict(sorted(tracer.stage_counts.items())),
        "counters": {
            name: metrics.counters[name]
            for name in HEADLINE_COUNTERS if name in metrics.counters
        },
        "histograms": {
            name: metrics.histograms[name].as_dict()
            for name in sorted(metrics.histograms)
        },
    }
    BENCH_FILE.write_text(json.dumps(snapshot, indent=2) + "\n")

    counter_lines = [
        f"{name:32s} {metrics.counters[name]:>12d}"
        for name in HEADLINE_COUNTERS if name in metrics.counters
    ]
    emit_table("obs_snapshot", [
        f"{'grid cells':32s} {len(grid):>12d}",
        f"{'uninstrumented':32s} {t_plain:>11.2f}s",
        f"{'instrumented':32s} {t_instr:>11.2f}s",
        f"{'overhead':32s} {overhead:>11.2f}x",
        f"{'spans':32s} {len(spans):>12d}",
        "",
    ] + counter_lines)
