"""The parallel evaluation engine: equivalence with the serial runner.

The engine's contract is bit-identical results — not "close", identical:
``time`` (float equality, same accumulation order), ``code_expansion``,
and every region's schedule length must match per-cell serial evaluation
for every cell, on both the shared-work serial path and the
multiprocessing path.
"""

import pytest

from repro.evaluation import evaluate_program
from repro.evaluation.engine import (
    GridCell,
    build_scheme,
    default_grid,
    evaluate_cell,
    evaluate_grid,
    machine_by_name,
)
from repro.obs import Tracer, trace_scope
from repro.schedule.priorities import HEURISTICS
from repro.schedule.scheduler import ScheduleOptions
from repro.workloads.specint import build_benchmark

# A small but representative slice of the paper's grid: one mutating and
# one non-mutating scheme, both machines, two heuristics.
GRID = [
    GridCell(bench, scheme, machine, heuristic)
    for bench in ("compress", "li")
    for scheme in ("bb", "treegion", "treegion-td:2.0")
    for machine in ("4U", "8U")
    for heuristic in ("dep_height", "global_weight")
]


def _signature(result):
    return (result.time, result.code_expansion, result.schedule_lengths)


@pytest.fixture(scope="module")
def reference():
    """Per-cell serial evaluation through the plain runner."""
    refs = []
    for cell in GRID:
        program = build_benchmark(cell.benchmark)
        result = evaluate_program(
            program,
            build_scheme(cell.scheme),
            machine_by_name(cell.machine),
            ScheduleOptions(heuristic=cell.heuristic),
        )
        refs.append((result.time, result.code_expansion,
                     tuple(s.length for s in result.schedules)))
    return refs


class TestEquivalence:
    def test_evaluate_cell_matches_runner(self, reference):
        for cell, ref in zip(GRID, reference):
            assert _signature(evaluate_cell(cell)) == ref, cell

    def test_serial_grid_matches_runner(self, reference):
        results = evaluate_grid(GRID, jobs=1)
        for cell, result, ref in zip(GRID, results, reference):
            assert _signature(result) == ref, cell

    def test_parallel_grid_matches_runner(self, reference):
        results = evaluate_grid(GRID, jobs=2)
        for cell, result, ref in zip(GRID, results, reference):
            assert _signature(result) == ref, cell

    def test_results_in_input_order(self):
        results = evaluate_grid(GRID, jobs=2)
        assert [r.cell for r in results] == GRID

    def test_custom_programs_evaluated_locally(self, reference):
        programs = {"compress": build_benchmark("compress")}
        results = evaluate_grid(GRID, programs=programs, jobs=2)
        for cell, result, ref in zip(GRID, results, reference):
            assert _signature(result) == ref, cell


class TestDominatorParallelismCells:
    def test_dp_cells_match_runner(self):
        cells = [
            GridCell("compress", "treegion-td:2.0", "4U", "global_weight",
                     dominator_parallelism=True),
            GridCell("compress", "treegion-td:2.0", "4U", "global_weight"),
        ]
        serial = evaluate_grid(cells, jobs=1)
        program = build_benchmark("compress")
        for cell, result in zip(cells, serial):
            ref = evaluate_program(
                program, build_scheme(cell.scheme),
                machine_by_name(cell.machine),
                ScheduleOptions(
                    heuristic=cell.heuristic,
                    dominator_parallelism=cell.dominator_parallelism,
                ),
            )
            assert result.time == ref.time
            assert result.total_merged == ref.total_merged


class TestGridHelpers:
    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 8 * 3 * 2 * 4
        assert len(set(grid)) == len(grid)

    def test_build_scheme_specs(self):
        assert build_scheme("bb").name == "bb"
        assert build_scheme("treegion").name == "treegion"
        assert build_scheme("treegion-td:1.5").name == "treegion-td(1.5)"
        assert build_scheme("treegion-td(1.5)").name == "treegion-td(1.5)"
        assert build_scheme("treegion-td").mutates
        assert build_scheme("hyperblock").name == "hyperblock"
        with pytest.raises(ValueError):
            build_scheme("nonsense")

    def test_machine_by_name(self):
        assert machine_by_name("4U").issue_width == 4
        assert machine_by_name("1U").issue_width == 1
        assert machine_by_name("16U").issue_width == 16
        with pytest.raises(ValueError):
            machine_by_name("fast")

    def test_jobs_zero_uses_cpu_count(self):
        cells = GRID[:2]
        results = evaluate_grid(cells, jobs=0)
        assert len(results) == 2

    def test_timer_collects_stages(self):
        # The tracer's stage table times the stages.  Direct pipeline:
        # with the region memo on, a warm process may legitimately skip
        # every stage, so pin it off here.
        tracer = Tracer(keep_spans=False)
        evaluate_grid(GRID[:4], jobs=1, tracer=tracer, region_memo=False)
        for stage in ("formation", "prep", "renaming", "ddg", "priority",
                      "list_schedule", "estimate"):
            assert stage in tracer.stage_seconds, stage
        # Each stage is entered once per region pipeline, so a stage's
        # count is the number of times it ran (e.g. DDG builds).
        pipeline = ("prep", "renaming", "ddg", "priority", "list_schedule")
        assert len({tracer.stage_counts[stage] for stage in pipeline}) == 1
        # Table only: no span objects are kept.
        assert tracer.spans == []

    def test_memo_ranks_once_per_ddg_and_heuristic(self):
        # Memo on, every heuristic on both machines of one group: 4U and
        # 8U share a DDG, so `priority` may run at most once per
        # (region, latency model, heuristic), i.e. per (DDG build,
        # heuristic) — never once per schedule.
        from repro.schedule.memo import RegionMemo

        cells = [GridCell("compress", "treegion", machine, heuristic)
                 for machine in ("4U", "8U") for heuristic in HEURISTICS]
        tracer = Tracer(keep_spans=False)
        evaluate_grid(cells, jobs=1, tracer=tracer,
                      region_memo=RegionMemo())
        counts = tracer.stage_counts
        ddg_builds = counts["ddg"]
        assert ddg_builds > 0
        assert counts["priority"] <= ddg_builds * len(HEURISTICS)
        assert counts["list_schedule"] > counts["priority"]
        # Every memo lookup fingerprints its region once.
        regions = sum(len(build_scheme("treegion").form(fn.cfg))
                      for fn in build_benchmark("compress").functions())
        assert counts["fingerprint"] == regions * len(cells)

    def test_worker_timers_merged(self):
        # Workers ship their stage tables; the parent folds them in.
        serial = Tracer(keep_spans=False)
        evaluate_grid(GRID[:4], jobs=1, tracer=serial, region_memo=False)
        tracer = Tracer(keep_spans=False)
        evaluate_grid(GRID[:4], jobs=2, tracer=tracer, region_memo=False)
        assert "ddg" in tracer.stage_seconds
        assert tracer.stage_total > 0
        assert tracer.stage_counts == serial.stage_counts

    def test_cell_result_as_dict(self):
        result = evaluate_grid(GRID[:1], jobs=1)[0]
        snapshot = result.as_dict()
        assert snapshot["benchmark"] == GRID[0].benchmark
        assert snapshot["time"] == result.time


class TestHeuristicSweepSharing:
    """Shared priority keys must not leak between heuristics."""

    def test_all_heuristics_distinct_results_possible(self):
        cells = [
            GridCell("gcc", "treegion", "8U", heuristic)
            for heuristic in HEURISTICS
        ]
        shared = evaluate_grid(cells, jobs=1)
        for cell, result in zip(cells, shared):
            assert _signature(result) == _signature(evaluate_cell(cell)), (
                cell.heuristic
            )
