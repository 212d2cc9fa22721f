"""Parallel, cached evaluation of the full experiment grid.

The paper's experiments sweep a grid of (benchmark × scheme × machine ×
heuristic) cells; evaluating each cell independently repeats a lot of
work — the clone, the region formation, liveness, dominators, register
bounds, and the priority-key ingredients are all identical across the
machines and heuristics of one (benchmark, scheme) pair.  This module
provides :func:`evaluate_grid`, which exploits that structure:

* **serial path** (``jobs=1``, the default): cells are grouped by
  (benchmark, scheme); the clone and formation run once per group, the
  version-keyed analysis cache (:mod:`repro.ir.analysis_cache`) serves
  liveness/dominators/register bounds to every region, and priority keys
  are computed once per (region, machine) and shared across heuristics;

* **parallel path** (``jobs>1``, or ``jobs=0`` for the CPU count): work
  fans out over a ``multiprocessing`` pool at *cell* granularity, and
  large programs additionally split *by function* (formation and
  estimation are per-function independent, so a contiguous slice of
  functions is a self-contained work item).  Workers rebuild benchmark
  programs from their names — schemes hold closures and programs are
  heavy, so neither crosses the process boundary — and the parent merges
  partial results **in function order**, reproducing the serial float
  accumulation exactly.

Both paths are guaranteed bit-identical to per-cell serial evaluation
(:func:`evaluate_cell`): same ``time``, same ``code_expansion``, same
per-region schedule lengths.  ``tests/test_engine.py`` enforces this.

Cells name their scheme by *spec string* (``"bb"``, ``"slr"``,
``"treegion"``, ``"superblock"``, ``"hyperblock"``,
``"treegion-td:2.0"``) precisely because :class:`Scheme` objects close
over formers and are not picklable; :func:`build_scheme` turns a spec
back into a scheme anywhere, including inside a worker.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ir.analysis_cache import liveness_of
from repro.ir.clone import clone_function, clone_program
from repro.ir.function import Program
from repro.machine.model import MachineModel
from repro.machine.presets import PAPER_MACHINES, SCALAR_1U
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, metrics_scope
from repro.obs.tracer import (
    NULL_TRACER,
    Tracer,
    current_tracer,
    span,
    trace_scope,
)
from repro.schedule.priorities import HEURISTICS
from repro.schedule.scheduler import ScheduleOptions, schedule_region
from repro.evaluation.schemes import Scheme, SchemeSpec

#: Machines addressable by name from a grid cell.
MACHINES: Dict[str, MachineModel] = {"1U": SCALAR_1U, **PAPER_MACHINES}

#: Functions-per-task threshold above which a cell splits across workers.
SPLIT_THRESHOLD = 8


def build_scheme(spec: str) -> Scheme:
    """Turn a scheme spec string into a :class:`Scheme`.

    Deprecated ad-hoc path: the parsing now lives in
    :class:`repro.evaluation.schemes.SchemeSpec`; prefer
    ``SchemeSpec.parse(spec).build()`` (or ``repro.api.make_scheme``).
    Kept as a thin delegate because grid cells and workers still name
    schemes by spec string.
    """
    return SchemeSpec.parse(spec).build()


def machine_by_name(name: str) -> MachineModel:
    """Resolve a machine name (``1U``/``4U``/``8U``, or any ``<N>U``)."""
    machine = MACHINES.get(name)
    if machine is not None:
        return machine
    if name.endswith("U") and name[:-1].isdigit():
        from repro.machine.presets import universal_machine

        return universal_machine(int(name[:-1]), name=name)
    raise ValueError(
        f"unknown machine {name!r}; use one of {sorted(MACHINES)} or <N>U"
    )


@dataclass(frozen=True)
class GridCell:
    """One experiment: a benchmark under one scheme/machine/heuristic."""

    benchmark: str
    scheme: str
    machine: str
    heuristic: str
    dominator_parallelism: bool = False
    schedule_copies: bool = False
    backend: str = "heuristic"

    def options(self) -> ScheduleOptions:
        return ScheduleOptions(
            heuristic=self.heuristic,
            dominator_parallelism=self.dominator_parallelism,
            schedule_copies=self.schedule_copies,
            backend=self.backend,
        )


@dataclass
class CellResult:
    """The numbers one grid cell produced (picklable, program-free)."""

    cell: GridCell
    #: Estimated execution time (profile-weighted cycles).
    time: float
    #: Code expansion factor vs the original program.
    code_expansion: float
    #: Schedule length (cycles) of every region, in deterministic
    #: (function, region) order.
    schedule_lengths: Tuple[int, ...] = ()
    total_copies: int = 0
    total_merged: int = 0
    total_speculated: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.cell.benchmark,
            "scheme": self.cell.scheme,
            "machine": self.cell.machine,
            "heuristic": self.cell.heuristic,
            "time": self.time,
            "code_expansion": self.code_expansion,
            "copies": self.total_copies,
            "merged": self.total_merged,
            "speculated": self.total_speculated,
        }


def default_grid(
    benchmarks: Optional[Sequence[str]] = None,
    schemes: Sequence[str] = ("bb", "treegion", "treegion-td:2.0"),
    machines: Sequence[str] = ("4U", "8U"),
    heuristics: Sequence[str] = HEURISTICS,
) -> List[GridCell]:
    """The paper's evaluation grid (8 benchmarks × 3 schemes × 2 machines
    × 4 heuristics = 192 cells with the defaults)."""
    if benchmarks is None:
        from repro.workloads.specint import BENCHMARK_NAMES

        benchmarks = BENCHMARK_NAMES
    return [
        GridCell(bench, scheme, machine, heuristic)
        for bench in benchmarks
        for scheme in schemes
        for machine in machines
        for heuristic in heuristics
    ]


# ----------------------------------------------------------------------
# Per-function evaluation core
#
# Formation and estimation are independent per function, so everything
# below works on (function, partition) pairs; both execution paths are
# built from the same pieces, which is what makes them bit-identical.


@dataclass
class _FunctionPartial:
    """One function's contribution to a cell (picklable)."""

    time: float
    original_ops: int
    final_ops: int
    schedule_lengths: Tuple[int, ...]
    copies: int = 0
    merged: int = 0
    speculated: int = 0


def _schedule_function_partition(
    partition,
    original_ops: int,
    final_ops: int,
    cell: GridCell,
    machine: MachineModel,
    memo=None,
) -> _FunctionPartial:
    """Schedule one function's formed partition for one cell.

    With a :class:`repro.schedule.memo.RegionMemo` supplied, regions go
    through it (hits come back as summaries); the accumulation below
    reads only the attributes schedules and summaries share.
    """
    options = cell.options()
    schedules = []
    for region in partition:
        liveness = liveness_of(region.root.cfg)
        if memo is not None:
            schedules.append(memo.schedule(region, machine, options,
                                           liveness))
            continue
        schedules.append(schedule_region(region, machine, options, liveness))
    with span("estimate"):
        time = sum(s.weighted_time for s in schedules)
    return _FunctionPartial(
        time=time,
        original_ops=original_ops,
        final_ops=final_ops,
        schedule_lengths=tuple(s.length for s in schedules),
        copies=sum(s.copy_count for s in schedules),
        merged=sum(s.merged_count for s in schedules),
        speculated=sum(s.speculated_count for s in schedules),
    )


def _merge_partials(cell: GridCell,
                    partials: Sequence[_FunctionPartial]) -> CellResult:
    """Fold per-function partials (already in function order) into one
    result, reproducing the serial runner's accumulation order."""
    time = 0.0
    lengths: List[int] = []
    original_ops = final_ops = copies = merged = speculated = 0
    for partial in partials:
        time += partial.time
        lengths.extend(partial.schedule_lengths)
        original_ops += partial.original_ops
        final_ops += partial.final_ops
        copies += partial.copies
        merged += partial.merged
        speculated += partial.speculated
    expansion = final_ops / original_ops if original_ops > 0 else 1.0
    return CellResult(
        cell=cell,
        time=time,
        code_expansion=expansion,
        schedule_lengths=tuple(lengths),
        total_copies=copies,
        total_merged=merged,
        total_speculated=speculated,
    )


# ----------------------------------------------------------------------
# Region memo plumbing


def _open_region_store(spec):
    """An artifact store from an instance, a directory, or (dir, max_mb)."""
    if spec is None:
        return None
    if hasattr(spec, "get_payload"):
        return spec
    from repro.serve.store import ArtifactStore

    if isinstance(spec, str):
        return ArtifactStore(spec)
    directory, max_mb = spec
    return ArtifactStore(directory, max_mb=max_mb)


def _resolve_memo(region_memo):
    """Turn ``evaluate_grid``'s ``region_memo`` argument into a memo.

    ``False`` → None (memo off); ``None``/``True`` → the process-global
    :func:`repro.schedule.memo.global_memo` (``None`` additionally
    honours ``REPRO_REGION_MEMO=0``); anything else is used as-is.
    """
    if region_memo is False:
        return None
    if region_memo is None or region_memo is True:
        if region_memo is None and \
                os.environ.get("REPRO_REGION_MEMO") == "0":
            return None
        from repro.schedule.memo import global_memo

        return global_memo()
    return region_memo


#: Per-worker-process region store handles, keyed by directory (opening
#: a store re-reads the index; once per process is enough).
_worker_stores: Dict[str, object] = {}


def _worker_region_store(directory: str, max_mb: float):
    store = _worker_stores.get(directory)
    if store is None:
        from repro.serve.store import ArtifactStore

        store = ArtifactStore(directory, max_mb=max_mb)
        _worker_stores[directory] = store
    return store


def evaluate_cell(
    cell: GridCell,
    program: Optional[Program] = None,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
) -> CellResult:
    """Evaluate one grid cell from scratch (the reference serial path).

    Exactly :func:`repro.evaluation.runner.evaluate_program` with the
    cell's parameters, reduced to a picklable :class:`CellResult`.
    """
    if program is None:
        from repro.workloads.specint import build_benchmark

        program = build_benchmark(cell.benchmark)
    scheme = build_scheme(cell.scheme)
    with metrics_scope(metrics), trace_scope(tracer), \
            span("evaluate_cell", benchmark=cell.benchmark,
                 scheme=cell.scheme, machine=cell.machine,
                 heuristic=cell.heuristic):
        metrics.inc("engine.cells")
        with span("clone"):
            worked = clone_program(program) if scheme.mutates else program
        partials: List[_FunctionPartial] = []
        for original, function in zip(program.functions(),
                                      worked.functions()):
            with span("formation", function=function.name):
                partition = scheme.form(function.cfg)
            partials.append(
                _schedule_function_partition(
                    partition, original.cfg.total_ops,
                    function.cfg.total_ops,
                    cell, machine_by_name(cell.machine),
                )
            )
        return _merge_partials(cell, partials)


# ----------------------------------------------------------------------
# Serial grid path: shared clone/formation per (benchmark, scheme)


def _evaluate_grid_serial(
    cells: Sequence[GridCell],
    programs: Optional[Dict[str, Program]],
    texts: Optional[Dict[str, str]] = None,
    metrics=NULL_METRICS,
    memo=None,
) -> List[CellResult]:
    results: List[Optional[CellResult]] = [None] * len(cells)
    groups: Dict[Tuple[str, str], List[int]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault((cell.benchmark, cell.scheme), []).append(index)

    with metrics_scope(metrics):
        for (bench, scheme_spec), indices in groups.items():
            with span("group", benchmark=bench, scheme=scheme_spec,
                      cells=len(indices)):
                program = _resolve_program(bench, programs, texts)
                scheme = build_scheme(scheme_spec)
                # Clone and form once: formation is machine- and
                # heuristic-independent, and scheduling never mutates the
                # IR, so every cell of the group schedules the same
                # partitions.
                with span("clone"):
                    worked = clone_program(program) if scheme.mutates \
                        else program
                formed = []  # (partition, orig_ops, final_ops) per func
                for original, function in zip(program.functions(),
                                              worked.functions()):
                    with span("formation", function=function.name):
                        partition = scheme.form(function.cfg)
                    formed.append((partition, original.cfg.total_ops,
                                   function.cfg.total_ops))
                if memo is not None:
                    # Tier-1 sharing is id-keyed; scope it to this
                    # group's freshly formed regions.
                    memo.begin_group()
                for index in indices:
                    cell = cells[index]
                    machine = machine_by_name(cell.machine)
                    metrics.inc("engine.cells")
                    with span("cell", machine=cell.machine,
                              heuristic=cell.heuristic):
                        partials = [
                            _schedule_function_partition(
                                partition, original_ops, final_ops, cell,
                                machine, memo=memo,
                            )
                            for partition, original_ops, final_ops in formed
                        ]
                        results[index] = _merge_partials(cell, partials)
    return results  # type: ignore[return-value]


#: Per-process cache of programs parsed from shipped IR text, keyed by
#: benchmark name (the stored text detects a changed payload).
_text_cache: Dict[str, Tuple[str, Program]] = {}


def _program_from_text(bench: str, text: str) -> Program:
    cached = _text_cache.get(bench)
    if cached is not None and cached[0] == text:
        return cached[1]
    from repro.ir.parser import parse_program

    program = parse_program(text)
    _text_cache[bench] = (text, program)
    return program


def _resolve_program(bench: str,
                     programs: Optional[Dict[str, Program]],
                     texts: Optional[Dict[str, str]] = None) -> Program:
    if programs is not None and bench in programs:
        return programs[bench]
    if texts is not None and bench in texts:
        return _program_from_text(bench, texts[bench])
    from repro.workloads.specint import build_benchmark

    return build_benchmark(bench)


# ----------------------------------------------------------------------
# Parallel grid path


#: A picklable work item: every cell of one (benchmark, scheme) group,
#: restricted to a half-open slice of the program's functions.  Grouping
#: keeps the serial path's work sharing inside the worker: the slice is
#: cloned and formed once, then scheduled for each (machine, heuristic)
#: cell of the group.  The fifth element is an optional textual IR dump:
#: programs that are not built-in benchmarks cross the process boundary
#: as text (the printer/parser round-trip is structure-identical).  The
#: last element is the region-memo directive: None = memo off, else
#: ``(store_directory_or_None, store_max_mb)`` — the worker uses its own
#: process-global memo and opens its own store handle (object writes are
#: atomic, so concurrent workers race safely).
_Task = Tuple[str, str, Tuple[Tuple[int, GridCell], ...], int, int,
              Optional[str], Optional[Tuple[Optional[str], float]]]


def _run_task(task: _Task):
    """Pool worker: evaluate one group's cells over a function slice.

    The program is rebuilt from the benchmark name (or re-parsed from the
    shipped IR text) inside the worker; each worker process caches per
    benchmark, so rebuilding is paid once per benchmark per worker, not
    per task.

    The task records its spans into a tracer of its own and ships that
    tracer's stage table back: a worker forked while the parent had a
    scope open never writes into the tracer it inherited.  The ``group``
    and ``cell`` spans mirror the serial path's, so both paths fold into
    the same rows.
    """
    bench, scheme_spec, indexed_cells, lo, hi, text, memo_spec = task
    if text is not None:
        program = _program_from_text(bench, text)
    else:
        from repro.workloads.specint import build_benchmark

        program = build_benchmark(bench)
    scheme = build_scheme(scheme_spec)
    tracer = Tracer(keep_spans=False)
    metrics = MetricsRegistry()
    memo = None
    before = None
    if memo_spec is not None:
        from repro.schedule.memo import global_memo

        memo = global_memo()
        directory, max_mb = memo_spec
        if directory is not None:
            memo.attach_store(_worker_region_store(directory, max_mb))
        memo.begin_group()
        before = memo.stats()
    with metrics_scope(metrics), trace_scope(tracer), \
            span("group", benchmark=bench, scheme=scheme_spec,
                 cells=len(indexed_cells)):
        formed = []  # (partition, original_ops, final_ops) per function
        for function in list(program.functions())[lo:hi]:
            with span("clone"):
                worked = clone_function(function) if scheme.mutates \
                    else function
            with span("formation", function=function.name):
                partition = scheme.form(worked.cfg)
            formed.append((partition, function.cfg.total_ops,
                           worked.cfg.total_ops))
        out = []
        for index, cell in indexed_cells:
            machine = machine_by_name(cell.machine)
            with span("cell", machine=cell.machine,
                      heuristic=cell.heuristic):
                partials = [
                    _schedule_function_partition(
                        partition, original_ops, final_ops, cell, machine,
                        memo=memo,
                    )
                    for partition, original_ops, final_ops in formed
                ]
            out.append((index, partials))
    memo_stats = None
    if memo is not None:
        if memo.store is not None:
            memo.store.sync()
        after = memo.stats()
        memo_stats = {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
            "store_hits": after["store_hits"] - before["store_hits"],
            "bytes": after["bytes"],
        }
        # High-water memo occupancy across the worker pool — explicitly
        # max-mode gauges, outside the determinism contract (occupancy
        # depends on work distribution, unlike the event counters).
        metrics.gauge("memo.entries", after["entries"], mode="max")
        metrics.gauge("memo.bytes", after["bytes"], mode="max")
    return (out, lo, (tracer.stage_seconds, tracer.stage_counts),
            metrics.snapshot(), memo_stats)


def _split_cells(cells: Sequence[GridCell], jobs: int,
                 texts: Optional[Dict[str, str]] = None,
                 memo_spec: Optional[Tuple[Optional[str], float]] = None,
                 ) -> List[_Task]:
    """Cut the grid into group×slice tasks.

    Groups with few functions stay whole; larger programs split into up
    to ``jobs`` contiguous slices so one heavy benchmark cannot starve
    the pool.
    """
    groups: Dict[Tuple[str, str], List[Tuple[int, GridCell]]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault((cell.benchmark, cell.scheme), []).append(
            (index, cell)
        )
    tasks: List[_Task] = []
    function_counts: Dict[str, int] = {}
    for (bench, scheme_spec), indexed in groups.items():
        text = texts.get(bench) if texts is not None else None
        count = function_counts.get(bench)
        if count is None:
            count = len(list(
                _resolve_program(bench, None, texts).functions()
            ))
            function_counts[bench] = count
        if count <= SPLIT_THRESHOLD:
            tasks.append((bench, scheme_spec, tuple(indexed), 0, count,
                          text, memo_spec))
            continue
        chunk = max(SPLIT_THRESHOLD, -(-count // jobs))
        for lo in range(0, count, chunk):
            tasks.append(
                (bench, scheme_spec, tuple(indexed), lo,
                 min(lo + chunk, count), text, memo_spec)
            )
    return tasks


def _evaluate_grid_parallel(
    cells: Sequence[GridCell],
    jobs: int,
    texts: Optional[Dict[str, str]] = None,
    metrics=NULL_METRICS,
    memo=None,
    region_stats: Optional[Dict[str, int]] = None,
) -> List[CellResult]:
    memo_spec: Optional[Tuple[Optional[str], float]] = None
    if memo is not None:
        if memo.store is not None:
            memo_spec = (memo.store.directory,
                         memo.store.max_bytes / (1024 * 1024))
        else:
            memo_spec = (None, 0.0)
    tasks = _split_cells(cells, jobs, texts, memo_spec)
    # Per-cell partial lists keyed by slice start, merged in function
    # order below so the float accumulation matches the serial path.
    by_cell: Dict[int, Dict[int, List[_FunctionPartial]]] = {}
    tracer = current_tracer()
    tracer.event("pool", jobs=jobs, tasks=len(tasks))
    with multiprocessing.Pool(processes=jobs) as pool:
        for out, lo, table, snapshot, memo_stats in \
                pool.imap_unordered(_run_task, tasks):
            for index, partials in out:
                by_cell.setdefault(index, {})[lo] = partials
            tracer.merge(*table)
            metrics.merge_snapshot(snapshot)
            if memo_stats is not None and region_stats is not None:
                region_stats["hits"] += memo_stats["hits"]
                region_stats["misses"] += memo_stats["misses"]
                region_stats["store_hits"] += memo_stats["store_hits"]
                region_stats["bytes"] = max(region_stats["bytes"],
                                            memo_stats["bytes"])
            tracer.event("task_done", slice_start=lo, cells=len(out))
    # The per-cell counter lives in the parent: a group split into
    # several function slices revisits each cell once per slice in the
    # workers, so counting there would overcount.
    metrics.inc("engine.cells", len(cells))
    results: List[CellResult] = []
    for index, cell in enumerate(cells):
        slices = by_cell[index]
        ordered: List[_FunctionPartial] = []
        for lo in sorted(slices):
            ordered.extend(slices[lo])
        results.append(_merge_partials(cell, ordered))
    return results


# ----------------------------------------------------------------------


def evaluate_grid(
    cells: Iterable[GridCell],
    programs: Optional[Dict[str, Program]] = None,
    jobs: int = 1,
    program_texts: Optional[Dict[str, str]] = None,
    metrics=NULL_METRICS,
    tracer=NULL_TRACER,
    region_memo=None,
    region_store=None,
) -> List[CellResult]:
    """Evaluate every grid cell; results come back in input order.

    Args:
        cells: The grid (see :func:`default_grid`).
        programs: Optional benchmark-name → program map overriding the
            built-in workloads.  Custom programs are evaluated in the
            parent process even when ``jobs > 1`` (workers rebuild
            programs by name and cannot receive arbitrary programs).
        jobs: 1 = serial with shared-work caching (default); N > 1 = a
            pool of N worker processes; 0 = one worker per CPU.
        program_texts: Optional benchmark-name → textual IR dump map
            (:func:`repro.ir.printer.format_program`).  Unlike
            ``programs``, text *does* cross the process boundary, so
            these benchmarks fan out to workers — this is how the
            validation oracle runs generated programs through the
            parallel path.  ``programs`` wins when a name is in both.
        metrics: A :class:`repro.obs.metrics.MetricsRegistry` collecting
            pipeline counters.  Worker registries merge in commutatively,
            so serial and parallel runs of the same grid report identical
            counters/histograms (``deterministic_snapshot``).
        tracer: A :class:`repro.obs.tracer.Tracer` installed as the
            active trace scope: it records the group/cell/stage spans of
            the serial path, and the parallel path folds each worker's
            stage table into it (worker-side spans themselves do not
            cross the process boundary).  With none given, spans go to
            an outer scope if one is open.
        region_memo: The region-level result cache
            (:class:`repro.schedule.memo.RegionMemo`).  ``None`` (the
            default) uses the process-global memo unless
            ``REPRO_REGION_MEMO=0`` is set; ``False`` disables
            memoization (the pre-memo shared-key path); an instance is
            used as given.  Memoized results are bit-identical to the
            direct pipeline, including deterministic metrics.
        region_store: Optional persistent backing for the region memo —
            an :class:`~repro.serve.store.ArtifactStore`, a directory,
            or ``(directory, max_mb)`` — attached for the duration of
            this call (workers open their own handles).

    Every path returns results bit-identical to calling
    :func:`evaluate_cell` per cell.
    """
    cells = list(cells)
    if jobs == 0:
        jobs = os.cpu_count() or 1
    memo = _resolve_memo(region_memo)
    previous_store = memo.store if memo is not None else None
    if memo is not None and region_store is not None:
        memo.attach_store(_open_region_store(region_store))
    stats = {"hits": 0, "misses": 0, "store_hits": 0, "bytes": 0}
    before = memo.stats() if memo is not None else None
    try:
        with trace_scope(tracer), \
                span("evaluate_grid", cells=len(cells), jobs=jobs):
            if jobs <= 1 or not cells:
                return _evaluate_grid_serial(cells, programs, program_texts,
                                             metrics, memo=memo)

            custom = set(programs) if programs is not None else set()
            pooled = [c for c in cells if c.benchmark not in custom]
            local = [c for c in cells if c.benchmark in custom]
            merged: Dict[int, CellResult] = {}
            if pooled:
                pooled_indices = [i for i, c in enumerate(cells)
                                  if c.benchmark not in custom]
                for position, result in enumerate(
                    _evaluate_grid_parallel(pooled, jobs, program_texts,
                                            metrics, memo=memo,
                                            region_stats=stats)
                ):
                    merged[pooled_indices[position]] = result
            if local:
                local_indices = [i for i, c in enumerate(cells)
                                 if c.benchmark in custom]
                for position, result in enumerate(
                    _evaluate_grid_serial(local, programs, program_texts,
                                          metrics, memo=memo)
                ):
                    merged[local_indices[position]] = result
            return [merged[i] for i in range(len(cells))]
    finally:
        if memo is not None:
            after = memo.stats()
            stats["hits"] += after["hits"] - before["hits"]
            stats["misses"] += after["misses"] - before["misses"]
            stats["store_hits"] += after["store_hits"] - before["store_hits"]
            stats["bytes"] = max(stats["bytes"], after["bytes"])
            if memo.store is not None:
                memo.store.sync()
            memo.attach_store(previous_store)
            if metrics is not NULL_METRICS:
                metrics.gauge("cache.region.hits", stats["hits"])
                metrics.gauge("cache.region.misses", stats["misses"])
                metrics.gauge("cache.region.bytes", stats["bytes"])
                if stats["store_hits"]:
                    metrics.gauge("cache.region.store_hits",
                                  stats["store_hits"])
