"""One-shot experiment report generation.

``generate_report`` runs a configurable-scale version of every study in
the repository — region statistics, heuristic speedups, tail duplication
vs superblocks, hyperblocks, profile variation, and the dynamic-core
comparison — and renders a single markdown document.  Used by
``examples/full_report.py``; the committed EXPERIMENTS.md was produced
from the full-scale benchmark runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core import form_treegions
from repro.interp import profile_program
from repro.machine import VLIW_4U, universal_machine
from repro.obs.metrics import NULL_METRICS, NullMetrics
from repro.obs.tracer import NULL_TRACER, current_tracer, span, trace_scope
from repro.regions import form_slrs, partition_stats
from repro.schedule import ScheduleOptions
from repro.schedule.priorities import DEP_HEIGHT, HEURISTICS
from repro.util.stats import geometric_mean as _geomean
from repro.evaluation.engine import GridCell, evaluate_grid
from repro.evaluation.schemes import bb_scheme, treegion_scheme
from repro.evaluation.variation import variation_study
from repro.workloads.specint import BENCHMARK_NAMES, build_benchmark


def _table(header: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return lines


class ReportBuilder:
    """Collects study results and renders markdown.

    Grid-shaped studies (heuristic speedups, scheme comparison) run
    through :func:`repro.evaluation.engine.evaluate_grid`, so ``jobs``
    fans them out over worker processes; results are identical to the
    serial path regardless.
    """

    def __init__(self, benchmarks: Optional[List[str]] = None,
                 jobs: int = 1, metrics=NULL_METRICS,
                 cache_dir: Optional[str] = None,
                 cache_max_mb: float = 256.0, region_memo=None):
        self.benchmarks = benchmarks or list(BENCHMARK_NAMES)
        self.jobs = jobs
        self.metrics = metrics
        self.cache_dir = cache_dir
        self.cache_max_mb = cache_max_mb
        self.region_memo = region_memo
        self.lines: List[str] = [
            "# Treegion scheduling — experiment report",
            "",
            f"Benchmarks: {', '.join(self.benchmarks)}",
            "",
        ]
        self._baselines: Dict[str, float] = {}

    def _grid(self, grid: List[GridCell]):
        if self.cache_dir is not None:
            from repro.api import cached_evaluate

            return cached_evaluate(
                grid, cache_dir=self.cache_dir,
                cache_max_mb=self.cache_max_mb, jobs=self.jobs,
                metrics=self.metrics, region_memo=self.region_memo,
            )
        return evaluate_grid(grid, jobs=self.jobs, metrics=self.metrics,
                             region_memo=self.region_memo)

    def _baseline(self, name: str) -> float:
        if not self._baselines:
            grid = [GridCell(bench, "bb", "1U", DEP_HEIGHT)
                    for bench in self.benchmarks]
            for cell, result in zip(grid, self._grid(grid)):
                self._baselines[cell.benchmark] = result.time
        return self._baselines[name]

    # ------------------------------------------------------------------

    def add_region_statistics(self) -> None:
        rows = []
        for name in self.benchmarks:
            function = build_benchmark(name).entry_function
            tree = partition_stats([form_treegions(function.cfg)])
            slr = partition_stats([form_slrs(function.cfg)])
            rows.append([
                name,
                f"{tree.avg_blocks:.2f}", f"{tree.avg_ops:.1f}",
                f"{slr.avg_blocks:.2f}", f"{slr.avg_ops:.1f}",
            ])
        self.lines.append("## Region statistics (Tables 1 & 2)")
        self.lines.append("")
        self.lines.extend(_table(
            ["program", "tree bb", "tree ops", "slr bb", "slr ops"], rows
        ))

    def add_heuristic_speedups(self, machine_name: str = "4U") -> None:
        grid = [
            GridCell(name, "treegion", machine_name, heuristic)
            for name in self.benchmarks
            for heuristic in HEURISTICS
        ]
        results = iter(self._grid(grid))
        rows = []
        means = {heuristic: [] for heuristic in HEURISTICS}
        for name in self.benchmarks:
            base = self._baseline(name)
            cells = [name]
            for heuristic in HEURISTICS:
                speedup = base / next(results).time
                means[heuristic].append(speedup)
                cells.append(f"{speedup:.2f}")
            rows.append(cells)
        rows.append(["geomean"] + [
            f"{_geomean(means[h]):.2f}" for h in HEURISTICS
        ])
        self.lines.append(
            f"## Treegion heuristics, {machine_name} (Figure 8)"
        )
        self.lines.append("")
        self.lines.extend(_table(["program"] + list(HEURISTICS), rows))

    def add_scheme_comparison(self, machine_name: str = "8U") -> None:
        schemes = [
            ("bb", "bb"),
            ("slr", "slr"),
            ("superblock", "superblock"),
            ("hyperblock", "hyperblock"),
            ("treegion", "treegion"),
            ("treegion-td(3.0)", "treegion-td:3.0"),
        ]
        grid = [
            GridCell(name, spec, machine_name, "global_weight",
                     dominator_parallelism=True)
            for name in self.benchmarks
            for _, spec in schemes
        ]
        results = iter(self._grid(grid))
        rows = []
        means: Dict[str, List[float]] = {label: [] for label, _ in schemes}
        for name in self.benchmarks:
            base = self._baseline(name)
            cells = [name]
            for label, _ in schemes:
                speedup = base / next(results).time
                means[label].append(speedup)
                cells.append(f"{speedup:.2f}")
            rows.append(cells)
        rows.append(["geomean"] + [
            f"{_geomean(means[label]):.2f}" for label, _ in schemes
        ])
        self.lines.append(
            f"## All schemes, {machine_name}, global weight "
            "(Figures 6 & 13 + hyperblocks)"
        )
        self.lines.append("")
        self.lines.extend(_table(
            ["program"] + [label for label, _ in schemes], rows
        ))

    def add_variation_study(self, seeds: Sequence[int] = (7, 19)) -> None:
        rows = []
        for name in self.benchmarks[:4]:
            program = build_benchmark(name)
            results = variation_study(
                program, treegion_scheme, VLIW_4U,
                heuristics=list(HEURISTICS), seeds=list(seeds),
            )
            rows.append([name] + [
                f"{results[h]['degradation']:.3f}" for h in HEURISTICS
            ])
        self.lines.append("## Profile-variation robustness (Section 6)")
        self.lines.append("")
        self.lines.extend(_table(["program"] + list(HEURISTICS), rows))

    def add_dynamic_comparison(self) -> None:
        from repro.dynamic import DynamicParams, collect_trace, simulate_trace
        from repro.vliw import simulate
        from repro.workloads.minic_programs import (
            build_minic_program,
            minic_program_names,
        )

        options = ScheduleOptions(heuristic="global_weight")
        rows = []
        for name in minic_program_names():
            program, args = build_minic_program(name)
            _result, trace = collect_trace(program, args)
            profile_program(program, inputs=[args])
            _res, bb1 = simulate(program, bb_scheme(), universal_machine(1),
                                 args, options)
            _res, tree = simulate(program, treegion_scheme(), VLIW_4U, args,
                                  options)
            ooo = simulate_trace(trace, DynamicParams(issue_width=4,
                                                      window=32))
            rows.append([
                name,
                f"{bb1.cycles / tree.cycles:.2f}",
                f"{bb1.cycles / ooo.cycles:.2f}",
            ])
        self.lines.append("## Static treegions vs out-of-order core "
                          "(Section 6)")
        self.lines.append("")
        self.lines.extend(_table(["program", "treegion 4U", "ooo 4-wide"],
                                 rows))

    def add_analysis(self) -> None:
        """Schedule-height lower bounds vs achieved heights per benchmark.

        Runs :func:`repro.analysis.driver.analyze_program` over the
        report's benchmarks (bb + treegion on 4U/8U, every heuristic)
        and tabulates how tight the sound critical-path/resource bound
        is against the best achieved height.  An unsound bound (bound
        above an achieved height) would be a scheduler or analysis bug
        and is flagged loudly.
        """
        from repro.analysis.driver import analyze_program

        rows = []
        any_unsound = False
        for name in self.benchmarks:
            program = build_benchmark(name)
            result = analyze_program(program, name=name, lint=False)
            summary = result["summary"]
            any_unsound = any_unsound or not summary["sound"]
            rows.append([
                name,
                str(summary["regions"]),
                f"{summary['tight']}/{summary['regions']}",
                f"{summary['mean_gap']:.2f}",
                str(summary["max_gap"]),
                "yes" if summary["sound"] else "**NO**",
            ])
        self.lines.append("## Analysis: schedule-height lower bounds")
        self.lines.append("")
        self.lines.append(
            "Per-region critical-path and resource-saturation lower "
            "bounds (bb + treegion, 4U + 8U, every heuristic); `tight` "
            "counts regions where the best achieved height equals the "
            "bound."
        )
        self.lines.append("")
        self.lines.extend(_table(
            ["program", "regions", "tight", "mean gap", "max gap",
             "sound"], rows
        ))
        if any_unsound:
            self.lines.append(
                "**WARNING: an analysis lower bound exceeded an "
                "achieved schedule height — soundness bug.**"
            )
            self.lines.append("")

    def add_gap(self, budget: int = 20_000) -> None:
        """Optimality gap: heuristic heights vs proven B&B optima.

        Runs :func:`repro.exact.gap.gap_program` (bb + treegion, 4U +
        8U) over the report's benchmarks and tabulates, per benchmark,
        how many regions the exact backend proved within ``budget``
        nodes and how often each heuristic hit the proven optimum.  The
        run executes inside the report's metrics scope, so the
        ``exact.*`` search counters land in the Observability section.
        """
        from repro.exact.gap import gap_program, gap_summary
        from repro.obs.metrics import metrics_scope

        rows = []
        all_rows: List[Dict[str, object]] = []
        skipped = 0
        heuristics = list(HEURISTICS)
        with metrics_scope(self.metrics):
            for name in self.benchmarks:
                program = build_benchmark(name)
                result = gap_program(program, name=name, budget=budget)
                summary = result["summary"]
                all_rows.extend(result["regions"])
                skipped += summary["skipped"]
                best = max(
                    heuristics,
                    key=lambda h: summary["heuristics"][h]["optimal"],
                )
                stats = summary["heuristics"][best]
                rows.append([
                    name,
                    str(summary["regions"]),
                    f"{summary['proven']}/{summary['regions']}",
                    f"{best} "
                    f"({stats['optimal_fraction'] * 100:.0f}%)",
                    "yes" if summary["sound"] else "**NO**",
                ])
        total = gap_summary(all_rows, heuristics, skipped=skipped)
        self.lines.append("## Exact backend: optimality gap")
        self.lines.append("")
        self.lines.append(
            "Branch-and-bound proven optima (bb + treegion, 4U + 8U, "
            f"node budget {budget}) against every heuristic's schedule "
            "height; `best heuristic` is the heuristic most often at "
            "the proven optimum for that benchmark."
        )
        self.lines.append("")
        self.lines.extend(_table(
            ["program", "regions", "proven", "best heuristic", "sound"],
            rows,
        ))
        opt = ", ".join(
            f"{h} {total['heuristics'][h]['optimal_fraction'] * 100:.1f}%"
            for h in heuristics
        )
        self.lines.append(
            f"Corpus: {total['proven']}/{total['regions']} proven "
            f"({total['proven_fraction'] * 100:.1f}%); optimal rate — "
            f"{opt}."
        )
        self.lines.append("")
        if total["unsound_bounds"]:
            self.lines.append(
                "**WARNING: an analysis lower bound exceeded a proven "
                "optimum — soundness bug.**"
            )
            self.lines.append("")

    def add_observability(self) -> None:
        """Per-stage timing and pipeline-counter tables for the studies
        run so far (plain text inside code fences, stable column order,
        so two report runs diff cleanly)."""
        if not isinstance(self.metrics, NullMetrics):
            # Publish the analysis-cache hit/miss/eviction gauges
            # (cache.* for scheduler-feeding lookups, cache.analysis.*
            # for the dataflow analyses the Analysis section just ran).
            from repro.ir.analysis_cache import record_cache_metrics

            record_cache_metrics(self.metrics)
        tracer = current_tracer()
        have_stages = tracer is not NULL_TRACER and tracer.stage_counts
        have_metrics = (not isinstance(self.metrics, NullMetrics)
                        and (self.metrics.counters or self.metrics.gauges))
        if not have_stages and not have_metrics:
            return
        self.lines.append("## Observability")
        self.lines.append("")
        if have_stages:
            self.lines.append("Per-span self time (all studies, worker "
                              "tables merged in):")
            self.lines.append("")
            self.lines.append("```")
            self.lines.append(tracer.format_stages())
            self.lines.append("```")
            self.lines.append("")
        if have_metrics:
            self.lines.append("Pipeline counters:")
            self.lines.append("")
            self.lines.append("```")
            self.lines.append(self.metrics.format_table())
            self.lines.append("```")
            self.lines.append("")

    # ------------------------------------------------------------------

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def generate_report(benchmarks: Optional[List[str]] = None,
                    jobs: int = 1, metrics=NULL_METRICS,
                    tracer=NULL_TRACER, cache_dir: Optional[str] = None,
                    cache_max_mb: float = 256.0, region_memo=None) -> str:
    """Run every study and return the markdown report.

    ``jobs`` parallelizes the grid-shaped studies (see
    :func:`repro.evaluation.engine.evaluate_grid`).  Passing a
    ``tracer``/``metrics`` pair appends an Observability section with
    the tracer's stage table and pipeline counters for the grid studies
    (region-memo hit/miss/byte gauges included).  ``cache_dir`` routes
    the grid studies through the persistent artifact store
    (:mod:`repro.serve.store`), so repeated reports reuse each other's
    schedule results.  ``region_memo=False`` disables the region-level
    result cache (see :func:`repro.evaluation.engine.evaluate_grid`).
    """
    builder = ReportBuilder(benchmarks, jobs=jobs, metrics=metrics,
                            cache_dir=cache_dir,
                            cache_max_mb=cache_max_mb,
                            region_memo=region_memo)
    with trace_scope(tracer):
        with span("report.region_statistics"):
            builder.add_region_statistics()
        with span("report.heuristic_speedups"):
            builder.add_heuristic_speedups("4U")
        with span("report.scheme_comparison"):
            builder.add_scheme_comparison("8U")
        with span("report.variation_study"):
            builder.add_variation_study()
        with span("report.dynamic_comparison"):
            builder.add_dynamic_comparison()
        with span("report.analysis"):
            builder.add_analysis()
        with span("report.gap"):
            builder.add_gap()
        builder.add_observability()
    return builder.render()
