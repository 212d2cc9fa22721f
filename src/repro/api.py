"""The stable, typed entry points of the toolkit.

Everything a caller needs for the paper's workflow — load or compile a
program, name a scheme, evaluate the experiment grid, co-simulate, and
run the differential validator — lives here with plain-data arguments
(paths, spec strings, :class:`SchemeSpec`) instead of the internal
closure-holding objects.  The CLI and the tests go through this module;
the subpackage internals stay importable but are not the contract.

Scheme and machine parameters accept either the parsed object or its
textual name (``"treegion-td:2.0"``, ``"8U"``), so the facade composes
with configuration files and command lines without ad-hoc parsing at
every call site.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.ir.function import Program
from repro.ir.parser import parse_program
from repro.machine.model import MachineModel
from repro.schedule.scheduler import ScheduleOptions
from repro.evaluation.engine import (
    CellResult,
    GridCell,
    evaluate_cell,
    evaluate_grid as _evaluate_grid,
    machine_by_name,
)
from repro.evaluation.schemes import Scheme, SchemeSpec, SchemeSpecError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer, span, trace_scope

SchemeLike = Union[str, SchemeSpec, Scheme]
MachineLike = Union[str, MachineModel]


def load_program(path: Optional[str] = None, *,
                 text: Optional[str] = None,
                 optimize: bool = False) -> Program:
    """Load a program from a file path or a string.

    Textual IR dumps are detected by their ``program entry=`` header;
    anything else is treated as minic source.  ``optimize=True`` applies
    the classic optimization pipeline before returning.
    """
    if (path is None) == (text is None):
        raise ValueError("pass exactly one of path= or text=")
    if path is not None:
        with open(path) as handle:
            text = handle.read()
    assert text is not None
    if text.lstrip().startswith("program entry="):
        program = parse_program(text)
    else:
        program = compile_source(text)
    if optimize:
        from repro.opt import optimize_program

        optimize_program(program)
    return program


def compile_source(source: str, optimize: bool = False) -> Program:
    """minic source → verified IR program."""
    from repro.lang import compile_source as _compile

    program = _compile(source)
    if optimize:
        from repro.opt import optimize_program

        optimize_program(program)
    return program


def make_scheme(spec: SchemeLike) -> Scheme:
    """Resolve a scheme from a spec string, a SchemeSpec, or a Scheme."""
    if isinstance(spec, Scheme):
        return spec
    if isinstance(spec, SchemeSpec):
        return spec.build()
    return SchemeSpec.parse(spec).build()


def machine(name: MachineLike) -> MachineModel:
    """Resolve a machine model from its name (``1U``/``4U``/``8U``/<N>U)."""
    if isinstance(name, MachineModel):
        return name
    return machine_by_name(name)


def evaluate_grid(
    cells: Sequence[GridCell],
    *,
    programs: Optional[Dict[str, Program]] = None,
    program_texts: Optional[Dict[str, str]] = None,
    jobs: int = 1,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
    region_memo=None,
    region_store=None,
) -> List[CellResult]:
    """Evaluate experiment grid cells (PR-1 engine; see its module doc).

    ``jobs=1`` runs the serial shared-work path, ``jobs>1`` (or 0 for
    the CPU count) fans out over a worker pool — both bit-identical to
    per-cell evaluation.  A supplied ``metrics`` registry collects the
    pipeline counters (identically on either path, worker registries
    merged in); a ``tracer`` records the run as spans and folds them,
    worker tables included, into its stage table.  ``region_memo``
    and ``region_store`` control the region-level result cache — see
    :func:`repro.evaluation.engine.evaluate_grid` (memoization is on by
    default and bit-identical; pass ``region_memo=False`` to disable).
    """
    return _evaluate_grid(
        cells, jobs=jobs, programs=programs, program_texts=program_texts,
        metrics=metrics, tracer=tracer,
        region_memo=region_memo, region_store=region_store,
    )


def cached_evaluate(
    cells: Sequence[GridCell],
    *,
    store=None,
    cache_dir: Optional[str] = None,
    cache_max_mb: float = 256,
    programs: Optional[Dict[str, Program]] = None,
    program_texts: Optional[Dict[str, str]] = None,
    jobs: int = 1,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
    region_memo=None,
) -> List[CellResult]:
    """:func:`evaluate_grid` routed through the persistent artifact store.

    Every cell is first looked up in the store (an
    :class:`~repro.serve.store.ArtifactStore`, or one opened at
    ``cache_dir``); only the misses are evaluated — in one engine run,
    so the PR-1 work sharing still applies — and their results are
    written back.  Results are bit-identical to :func:`evaluate_grid`
    on every path (the store round-trips results losslessly).

    The region memo persists alongside the cell results: misses are
    evaluated with a region store rooted at ``<store dir>/regions``, so
    even a *changed* program reuses every region it has in common with
    earlier runs.  ``region_memo=False`` turns that layer off.

    Pass exactly one of ``store`` or ``cache_dir``; with neither this
    degrades to a plain :func:`evaluate_grid` call.
    """
    import os
    from repro.ir.printer import format_program
    from repro.serve.service import resolve_program_text
    from repro.serve.store import ArtifactStore, cell_key
    from repro.serve.jobs import JobRequest

    if store is not None and cache_dir is not None:
        raise ValueError("pass at most one of store= or cache_dir=")
    if store is None and cache_dir is None:
        return evaluate_grid(
            cells, programs=programs, program_texts=program_texts,
            jobs=jobs, metrics=metrics, tracer=tracer,
        )
    opened = store is None
    if opened:
        store = ArtifactStore(cache_dir, max_mb=cache_max_mb)
    try:
        with trace_scope(tracer), span("cached_evaluate", cells=len(cells)):
            keys: List[str] = []
            text_cache: Dict[str, str] = dict(program_texts or {})
            for cell in cells:
                text = text_cache.get(cell.benchmark)
                if text is None:
                    if programs is not None and cell.benchmark in programs:
                        text = format_program(programs[cell.benchmark])
                    else:
                        text = resolve_program_text(
                            JobRequest(cell=cell)
                        )
                    text_cache[cell.benchmark] = text
                keys.append(cell_key(text, cell))
            from repro.obs.metrics import metrics_scope

            with metrics_scope(metrics):
                found = {index: store.get(key)
                         for index, key in enumerate(keys)}
            miss_indices = [i for i, result in found.items()
                            if result is None]
            if miss_indices:
                region_spec = None
                if region_memo is not False:
                    region_spec = (os.path.join(store.directory, "regions"),
                                   store.max_bytes / (1024 * 1024))
                fresh = evaluate_grid(
                    [cells[i] for i in miss_indices],
                    programs=programs, program_texts=program_texts,
                    jobs=jobs, metrics=metrics, region_memo=region_memo,
                    region_store=region_spec,
                )
                with metrics_scope(metrics):
                    for index, result in zip(miss_indices, fresh):
                        store.put(keys[index], result)
                        found[index] = result
            return [found[i] for i in range(len(cells))]
    finally:
        if opened:
            store.close()


def connect(endpoint, **kwargs):
    """Dial a compile front-end; returns a connected
    :class:`~repro.serve.client.Client` (use as a context manager).

    The endpoint string is the only transport switch —
    ``unix:///path/to.sock`` for a local socket, ``tcp://host:port``
    for a fleet across the network, or a bare filesystem path (treated
    as a unix socket)::

        with repro.api.connect("tcp://127.0.0.1:7421") as client:
            results = client.evaluate(cells, program)
            client.warm(grid)           # populate the fleet's caches
            print(client.stats())

    Keyword arguments (``timeout``, ``retries``, ...) pass through to
    :class:`~repro.serve.client.Client`.  Retries are idempotent by
    construction: requests are content-keyed, so a resend after a
    dropped connection dedups server-side instead of recomputing.
    """
    from repro.serve.client import connect as _connect

    return _connect(endpoint, **kwargs)


def open_fleet(
    *,
    shards: int = 2,
    cache_dir: Optional[str] = None,
    cache_max_mb: float = 256,
    jobs: int = 1,
    batch_size: int = 16,
    max_pending: int = 256,
    job_timeout: Optional[float] = None,
    retries: int = 2,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
    **kwargs,
):
    """Open a :class:`~repro.serve.fleet.CompileFleet` in-process.

    The fleet shards work by content key across ``shards`` independent
    service+store pairs (each under ``cache_dir/shard-NN``), dedups
    in-flight requests, serves warm hits from an in-memory hot tier,
    and supervises/restarts failed shards.  Use as a context manager;
    serve it over a socket with ``repro serve --endpoint ...`` or
    :class:`~repro.serve.frontend.FrontendServer`.
    """
    from repro.serve.fleet import CompileFleet

    return CompileFleet(
        shards=shards, cache_dir=cache_dir, cache_max_mb=cache_max_mb,
        jobs=jobs, batch_size=batch_size, max_pending=max_pending,
        job_timeout=job_timeout, retries=retries, metrics=metrics,
        tracer=tracer, **kwargs,
    )


def open_service(
    *,
    cache_dir: Optional[str] = None,
    cache_max_mb: float = 256,
    jobs: int = 2,
    batch_size: int = 16,
    max_pending: int = 256,
    job_timeout: Optional[float] = None,
    retries: int = 2,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
):
    """Open a single :class:`~repro.serve.service.CompileService`.

    .. deprecated::
        ``open_service`` predates the fleet and remains as a shim for
        single-shard, in-process use (it reads/writes the *unsharded*
        store layout at ``cache_dir``).  New code should use
        :func:`open_fleet` in-process or :func:`connect` against a
        served endpoint.
    """
    import warnings

    from repro.serve.service import CompileService
    from repro.serve.store import ArtifactStore

    warnings.warn(
        "repro.api.open_service is deprecated; use repro.api.open_fleet "
        "(in-process) or repro.api.connect (against a served endpoint)",
        DeprecationWarning, stacklevel=2,
    )
    store = None
    if cache_dir is not None:
        store = ArtifactStore(cache_dir, max_mb=cache_max_mb)
    return CompileService(
        store=store, jobs=jobs, batch_size=batch_size,
        max_pending=max_pending, job_timeout=job_timeout,
        retries=retries, metrics=metrics, tracer=tracer,
    )


def simulate(
    program: Program,
    scheme: SchemeLike = "treegion",
    machine_model: MachineLike = "4U",
    args: Sequence[object] = (),
    options: Optional[ScheduleOptions] = None,
):
    """Schedule ``program`` and execute it on the VLIW simulator.

    Returns ``(result, simulator)``; the simulator object exposes final
    memory and the dynamic cycle count.  The program should be profiled
    (or carry weights) before calling for meaningful schedules.
    """
    from repro.vliw.simulator import simulate as _simulate

    return _simulate(
        program, make_scheme(scheme), machine(machine_model), args, options,
    )


def lint_program(
    program: Program,
    *,
    schedule: bool = False,
    scheme: Optional[SchemeLike] = None,
    machine_model: Optional[MachineLike] = None,
    options: Optional[ScheduleOptions] = None,
):
    """Run the static-analysis rules; returns a
    :class:`~repro.lint.diagnostics.LintReport`.

    IR rules always run.  With ``schedule=True`` the program is also
    scheduled (default: treegion on 8U) and every region schedule is
    certified against the machine model and pre-scheduling DDG; schedule
    certification is skipped when the IR rules already found errors.
    """
    from repro.lint.run import lint_program as _lint

    return _lint(
        program,
        schedule=schedule,
        scheme=None if scheme is None else make_scheme(scheme),
        machine=None if machine_model is None else machine(machine_model),
        options=options,
    )


def analyze_program(
    program: Program,
    *,
    name: Optional[str] = None,
    schemes: Optional[Sequence[str]] = None,
    machines: Optional[Sequence[str]] = None,
    heuristics: Optional[Sequence[str]] = None,
    calls: bool = False,
    lint: bool = True,
):
    """Dataflow analysis report for one program (JSON-ready dict).

    Computes every region's critical-path and resource-saturation lower
    bounds on schedule height, schedules the same regions under the
    requested heuristics, and reports the bounds next to the achieved
    heights (``summary.sound`` is False if any bound exceeds an achieved
    height — a soundness bug).  ``lint=True`` adds the flow-sensitive
    lint summary; ``calls=True`` the whole-program call graph.  See
    :func:`repro.analysis.driver.analyze_program`.
    """
    from repro.analysis.driver import (
        DEFAULT_MACHINES, DEFAULT_SCHEMES,
        analyze_program as _analyze,
    )

    return _analyze(
        program,
        name=name,
        schemes=tuple(schemes) if schemes else DEFAULT_SCHEMES,
        machines=tuple(machines) if machines else DEFAULT_MACHINES,
        heuristics=heuristics,
        calls=calls,
        lint=lint,
    )


def gap_report(
    program: Program,
    *,
    name: Optional[str] = None,
    schemes: Optional[Sequence[str]] = None,
    machines: Optional[Sequence[str]] = None,
    budget: Optional[int] = None,
    max_ops: Optional[int] = None,
    lint: bool = True,
):
    """Optimality-gap report for one program (JSON-ready dict).

    Solves every region with the exact branch-and-bound backend
    (:mod:`repro.exact`), scores each list-scheduler heuristic's height
    against the proven optimum, and machine-certifies the
    :mod:`repro.analysis.bounds` lower bounds (``summary.sound`` is
    False if any bound exceeds a proven optimum).  ``budget`` caps the
    search per region (default
    :data:`repro.exact.backend.DEFAULT_NODE_BUDGET`); regions the budget
    cannot prove are reported ``budget-exceeded`` with the best
    heuristic height.  ``lint=True`` certifies every exact schedule with
    the ``sched.*`` legality rules.  See :func:`repro.exact.gap.
    gap_program`.
    """
    from repro.exact.gap import (
        DEFAULT_MACHINES, DEFAULT_SCHEMES, gap_program,
    )

    return gap_program(
        program,
        name=name,
        schemes=tuple(schemes) if schemes else DEFAULT_SCHEMES,
        machines=tuple(machines) if machines else DEFAULT_MACHINES,
        budget=budget,
        max_ops=max_ops,
        lint=lint,
    )


def validate(
    seeds: Union[int, Sequence[int]] = 50,
    *,
    start: int = 0,
    grid: Union[None, str, Sequence] = None,
    jobs: int = 1,
    shrink: bool = True,
    max_trials: int = 3000,
    engine_every: Optional[int] = None,
    report_dir: Optional[str] = None,
    progress=None,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
):
    """Run the differential validation campaign; see :mod:`repro.validate`.

    ``seeds`` is a count (seeds ``start .. start+seeds-1``) or an
    explicit sequence.  ``grid`` is a list of cells or a spec string
    like ``"schemes=bb,treegion;machines=4U"``.  Returns a
    :class:`~repro.validate.runner.ValidationSummary`.
    """
    from repro.validate.runner import (
        ENGINE_SAMPLE_EVERY, parse_grid_spec, run_validation,
    )

    if isinstance(seeds, int):
        seeds = range(start, start + seeds)
    if grid is None or isinstance(grid, str):
        grid = parse_grid_spec(grid)
    return run_validation(
        list(seeds),
        grid=grid,
        jobs=jobs,
        shrink=shrink,
        max_trials=max_trials,
        engine_every=(ENGINE_SAMPLE_EVERY if engine_every is None
                      else engine_every),
        report_dir=report_dir,
        progress=progress,
        metrics=metrics,
        tracer=tracer,
    )


__all__ = [
    "load_program",
    "compile_source",
    "make_scheme",
    "machine",
    "evaluate_grid",
    "cached_evaluate",
    "connect",
    "open_fleet",
    "open_service",
    "evaluate_cell",
    "simulate",
    "lint_program",
    "analyze_program",
    "gap_report",
    "validate",
    "GridCell",
    "CellResult",
    "Scheme",
    "SchemeSpec",
    "SchemeSpecError",
    "ScheduleOptions",
    "MetricsRegistry",
    "NULL_METRICS",
    "Tracer",
    "NULL_TRACER",
]
