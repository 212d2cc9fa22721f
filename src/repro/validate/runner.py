"""Validation campaigns: seed fan-out, shrinking, and JSON reports.

A campaign runs the differential oracle over a range of generator seeds,
optionally in parallel.  Workers receive only ``(seed, grid, flags)`` —
the generator is deterministic, so a worker regenerates the program from
its seed exactly as the parent would, the same trick the PR-1 engine
uses to keep programs out of the pickle stream.  A failing seed is
minimized in the worker (the shrinker only needs the regenerable
program) and comes back as a structured :class:`FailureReport`.

The engine-identity oracle check spawns its own worker pool, which can't
nest inside a campaign worker (daemonic processes may not fork), so
parallel campaigns sample it with ``jobs=1`` (serial-vs-per-cell only)
while serial campaigns also exercise the parallel engine path.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import NULL_METRICS, metrics_scope
from repro.obs.tracer import NULL_TRACER, span, trace_scope
from repro.validate.generator import generate
from repro.validate.oracle import (
    Cell,
    DEFAULT_HEURISTICS,
    DEFAULT_MACHINES,
    DEFAULT_SCHEMES,
    OracleReport,
    check_generated,
    default_grid,
)
from repro.validate.shrink import FailureReport, minimize_failure

#: Check engine identity on every Nth seed (pool spawns are expensive).
ENGINE_SAMPLE_EVERY = 10


def parse_grid_spec(spec: Optional[str]) -> List[Cell]:
    """Parse ``schemes=bb,slr;machines=4U,8U;heuristics=global_weight``.

    Axes may appear in any order; omitted axes keep their defaults.
    """
    axes: Dict[str, Sequence[str]] = {
        "schemes": DEFAULT_SCHEMES,
        "machines": DEFAULT_MACHINES,
        "heuristics": DEFAULT_HEURISTICS,
    }
    if spec:
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad grid axis {part!r}; expected axis=v1,v2"
                )
            axis, _, values = part.partition("=")
            axis = axis.strip()
            if axis not in axes:
                raise ValueError(
                    f"unknown grid axis {axis!r}; use one of {sorted(axes)}"
                )
            axes[axis] = [v.strip() for v in values.split(",") if v.strip()]
    return default_grid(
        schemes=axes["schemes"],
        machines=axes["machines"],
        heuristics=axes["heuristics"],
    )


@dataclass
class SeedOutcome:
    """What one seed produced (picklable)."""

    seed: int
    ok: bool
    cells_checked: int
    mismatch_count: int
    failure: Optional[FailureReport] = None


@dataclass
class ValidationSummary:
    """Aggregate of a whole campaign."""

    seeds: int = 0
    cells_checked: int = 0
    outcomes: List[SeedOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failures(self) -> List[SeedOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]


def _run_seed(
    seed: int,
    grid: Sequence[Cell],
    engine_jobs: int,
    shrink: bool,
    max_trials: int,
) -> SeedOutcome:
    generated = generate(seed)
    # The store- and region-memo-identity checks ride the same sampling
    # cadence as the engine check: all certify an alternate evaluation
    # route without a nested pool, so they are safe on parallel
    # campaigns too.
    report = check_generated(generated, grid=grid, engine_jobs=engine_jobs,
                             store_check=engine_jobs > 0,
                             region_memo_check=engine_jobs > 0,
                             analysis_check=engine_jobs > 0)
    failure = None
    if report.mismatches and shrink:
        failure = minimize_failure(
            generated, report.mismatches[0], max_trials=max_trials,
        )
    return SeedOutcome(
        seed=seed,
        ok=report.ok,
        cells_checked=report.cells_checked,
        mismatch_count=len(report.mismatches),
        failure=failure,
    )


def _seed_worker(task: Tuple[int, Tuple[Cell, ...], int, bool, int]):
    return _run_seed(*task)


def run_validation(
    seeds: Sequence[int],
    grid: Optional[Sequence[Cell]] = None,
    jobs: int = 1,
    shrink: bool = True,
    max_trials: int = 3000,
    engine_every: int = ENGINE_SAMPLE_EVERY,
    report_dir: Optional[str] = None,
    progress: Optional[Callable[[SeedOutcome], None]] = None,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
) -> ValidationSummary:
    """Run the oracle over ``seeds``; minimize and report any failure.

    ``metrics`` counts campaign totals (``validate.*``, recorded in the
    parent from the outcomes, so they are mode-independent); a serial
    campaign additionally collects the deep pipeline counters of every
    seed's oracle runs via the active-registry scope.  ``tracer``
    records one span per seed, with the oracle's pipeline spans under it
    (serial campaigns only — worker spans do not cross the process
    boundary).
    """
    if grid is None:
        grid = default_grid()
    if jobs == 0:
        jobs = os.cpu_count() or 1

    def engine_jobs_for(seed: int) -> int:
        if engine_every <= 0 or seed % engine_every != 0:
            return 0
        return 2 if jobs == 1 else 1

    tasks = [
        (seed, tuple(grid), engine_jobs_for(seed), shrink, max_trials)
        for seed in seeds
    ]
    summary = ValidationSummary()
    if jobs == 1 or len(tasks) <= 1:
        outcomes = []
        with metrics_scope(metrics), trace_scope(tracer):
            for task in tasks:
                with span("seed", seed=task[0]):
                    outcome = _seed_worker(task)
                outcomes.append(outcome)
                if progress is not None:
                    progress(outcome)
    else:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            outcomes = []
            for outcome in pool.imap_unordered(_seed_worker, tasks):
                outcomes.append(outcome)
                if progress is not None:
                    progress(outcome)
        outcomes.sort(key=lambda outcome: outcome.seed)

    for outcome in outcomes:
        summary.seeds += 1
        summary.cells_checked += outcome.cells_checked
        summary.outcomes.append(outcome)
        metrics.inc("validate.seeds")
        metrics.inc("validate.cells_checked", outcome.cells_checked)
        metrics.inc("validate.mismatches", outcome.mismatch_count)
        if not outcome.ok:
            metrics.inc("validate.failing_seeds")

    if report_dir is not None:
        write_reports(summary, report_dir)
    return summary


def write_reports(summary: ValidationSummary, directory: str) -> List[str]:
    """Write one JSON file per failing seed; returns the paths."""
    paths: List[str] = []
    os.makedirs(directory, exist_ok=True)
    for outcome in summary.failures:
        if outcome.failure is None:
            continue
        path = os.path.join(directory, f"failure-seed{outcome.seed}.json")
        with open(path, "w") as handle:
            json.dump(outcome.failure.to_json(), handle, indent=2)
            handle.write("\n")
        paths.append(path)
    return paths
