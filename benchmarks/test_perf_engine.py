"""Performance benchmark for the evaluation engine.

Runs the paper's full 192-cell grid (8 benchmarks × {bb, treegion,
treegion-td(2.0)} × {4U, 8U} × 4 heuristics) three ways —

* per-cell serial (``evaluate_cell``): the analysis caches and hot-path
  fixes, but no cross-cell work sharing;
* engine serial (``jobs=1``): shared clone/formation/priority keys;
* engine parallel (``jobs=4``): the multiprocessing path;

— verifies all three produce bit-identical numbers, and writes the wall
times plus the serial run's stage table to ``BENCH_eval.json`` at the
repo root.

The ``seed_serial_seconds`` reference was measured on this container at
the seed commit (before the engine, caches, and hot-path work) by
evaluating the same 192 cells through ``evaluate_program`` one at a
time.  Regenerate the snapshot with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_engine.py -s
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.evaluation.engine import default_grid, evaluate_cell, evaluate_grid
from repro.obs import Tracer

from benchmarks.conftest import emit_table

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_eval.json"

#: Wall time of the per-cell serial sweep at the seed commit (same
#: container, same 192 cells, no caches / engine / hot-path fixes).
SEED_SERIAL_SECONDS = 38.63
SEED_GRID_CELLS = 192


def test_perf_engine_snapshot():
    grid = default_grid()
    assert len(grid) == SEED_GRID_CELLS

    t0 = time.perf_counter()
    percell = [evaluate_cell(cell) for cell in grid]
    t_percell = time.perf_counter() - t0

    tracer = Tracer(keep_spans=False)
    t0 = time.perf_counter()
    serial = evaluate_grid(grid, jobs=1, tracer=tracer)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = evaluate_grid(grid, jobs=4)
    t_parallel = time.perf_counter() - t0

    # Bit-identical across all three paths.
    for a, b, c in zip(percell, serial, parallel):
        assert a.time == b.time == c.time
        assert a.code_expansion == b.code_expansion == c.code_expansion
        assert a.schedule_lengths == b.schedule_lengths == c.schedule_lengths

    # The caches alone must beat the seed, and the engine must beat the
    # per-cell path (generous margins: CI wall time is noisy).
    assert t_percell < SEED_SERIAL_SECONDS, (
        f"cached per-cell sweep ({t_percell:.2f}s) slower than the seed "
        f"({SEED_SERIAL_SECONDS:.2f}s)"
    )
    assert t_serial < SEED_SERIAL_SECONDS / 1.5
    assert t_parallel < SEED_SERIAL_SECONDS / 1.5

    snapshot = {
        "grid_cells": len(grid),
        "seed_serial_seconds": SEED_SERIAL_SECONDS,
        "percell_cached_seconds": round(t_percell, 3),
        "engine_serial_seconds": round(t_serial, 3),
        "engine_jobs4_seconds": round(t_parallel, 3),
        "speedup_percell_vs_seed": round(SEED_SERIAL_SECONDS / t_percell, 2),
        "speedup_serial_vs_seed": round(SEED_SERIAL_SECONDS / t_serial, 2),
        "speedup_jobs4_vs_seed": round(SEED_SERIAL_SECONDS / t_parallel, 2),
        "stage_seconds": {
            name: round(seconds, 3)
            for name, seconds in sorted(tracer.stage_seconds.items())
        },
        "stage_counts": dict(sorted(tracer.stage_counts.items())),
    }
    BENCH_FILE.write_text(json.dumps(snapshot, indent=2) + "\n")

    emit_table("perf_engine", [
        f"{'path':24s} {'seconds':>9s} {'vs seed':>9s}",
        f"{'seed per-cell serial':24s} {SEED_SERIAL_SECONDS:9.2f} {'1.00x':>9s}",
        f"{'per-cell (caches only)':24s} {t_percell:9.2f} "
        f"{SEED_SERIAL_SECONDS / t_percell:8.2f}x",
        f"{'engine jobs=1':24s} {t_serial:9.2f} "
        f"{SEED_SERIAL_SECONDS / t_serial:8.2f}x",
        f"{'engine jobs=4':24s} {t_parallel:9.2f} "
        f"{SEED_SERIAL_SECONDS / t_parallel:8.2f}x",
    ])
