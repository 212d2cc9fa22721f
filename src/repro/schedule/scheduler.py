"""The region scheduler: Figure 3's three steps plus the supporting
passes, and the one module that knows their order.

    scheduleTreegion (treegion) {
        Form DDG for treegion
        sortDDGNodesBy*** (DDG)
        listSchedule (DDG)
    }

The stages come in two halves.  The front half builds the problem:
prep → renaming → optional copy ops (:func:`prepare_problem`), then the
DDG (:func:`build_problem_ddg`).  The back half (:func:`schedule_problem`)
orders, schedules, counts and certifies it.  ``schedule_region`` runs
both fresh on every call; the region memo, the exact backend and the
bound analysis call the halves directly.

``schedule_region`` works for any tree-shaped region, so the same code
schedules basic blocks, SLRs, superblocks, and treegions — only the region
former differs between the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.analysis_cache import liveness_of
from repro.ir.liveness import LivenessInfo
from repro.lint.collect import current_collector
from repro.machine.model import MachineModel
from repro.obs.metrics import NULL_METRICS, current_metrics
from repro.obs.tracer import NULL_TRACER
from repro.regions.region import Region, RegionPartition
from repro.schedule.ddg import DDG, build_ddg
from repro.schedule.list_scheduler import list_schedule
from repro.schedule.prep import ScheduleProblem, prepare_region
from repro.schedule.priorities import GLOBAL_WEIGHT, Heuristic, priority_order
from repro.schedule.renaming import ExitCopy, rename_region
from repro.schedule.schedule import RegionSchedule
from repro.util.timing import NULL_TIMER, StageTimer


@dataclass(frozen=True)
class ScheduleOptions:
    """Knobs for one scheduling run.

    Attributes:
        heuristic: One of ``repro.schedule.priorities.HEURISTICS``.
        dominator_parallelism: Enable duplicate elimination at schedule
            time (Section 4); only has an effect on tail-duplicated code.
        schedule_copies: Materialize renaming repair copies as real
            (predicated) ops competing for slots.  The paper's accounting
            leaves them out ("Copy Ops added due to renaming were not
            used in computing speedup"); turning this on quantifies that
            choice.
        max_cycles: Safety bound on schedule length.
        certify: Run the static legality certifier (``repro.lint``
            schedule rules) on every tree-region schedule and raise
            :class:`~repro.util.errors.ScheduleCertificationError` on any
            error diagnostic.  The certifier also runs — without raising —
            whenever a :func:`repro.lint.collect.lint_scope` is active.
        backend: ``"heuristic"`` (the list scheduler, default) or
            ``"exact"`` (branch-and-bound search for a provably minimal
            schedule height, seeded from the best heuristic schedule;
            see :mod:`repro.exact`).  The exact backend requires
            ``dominator_parallelism=False`` and ``schedule_copies=False``
            and does not cover hyperblocks.
        exact_budget: Node budget for the exact backend's search (one
            bundle-extension step per node).  When exceeded the best
            heuristic schedule is returned unchanged and the result is
            flagged ``budget-exceeded`` instead of ``proven``.
    """

    heuristic: Heuristic = GLOBAL_WEIGHT
    dominator_parallelism: bool = False
    schedule_copies: bool = False
    max_cycles: int = 1_000_000
    certify: bool = False
    backend: str = "heuristic"
    exact_budget: int = 50_000


def _record_schedule_metrics(schedule: RegionSchedule) -> RegionSchedule:
    """Count one finished region schedule into the active registry."""
    metrics = current_metrics()
    if metrics is not NULL_METRICS:
        metrics.inc("schedule.regions")
        metrics.inc("schedule.cycles", schedule.length)
        metrics.inc("schedule.speculated", schedule.speculated_count)
        metrics.inc("schedule.merged", len(schedule.merged))
        metrics.inc("rename.exit_copies", len(schedule.copies))
        metrics.observe("schedule.length", schedule.length)
    return schedule


def schedule_region(
    region: Region,
    machine: MachineModel,
    options: Optional[ScheduleOptions] = None,
    liveness: Optional[LivenessInfo] = None,
    timer: StageTimer = NULL_TIMER,
    tracer=NULL_TRACER,
) -> RegionSchedule:
    """Schedule one region for the given machine.

    ``liveness`` may be supplied to avoid recomputing it per region when
    scheduling a whole partition.  The input IR is never modified.

    ``timer`` records per-stage wall time (prep/renaming/ddg/priority/
    list_schedule) and ``tracer`` records the stages as nested spans;
    per-decision counters land in the active
    :func:`repro.obs.metrics.current_metrics` registry.

    Every call runs every stage fresh: this is the reference route the
    region memo is checked against.
    """
    options = options or ScheduleOptions()
    if options.backend not in ("heuristic", "exact"):
        raise ValueError(
            f"unknown backend {options.backend!r}; "
            "expected 'heuristic' or 'exact'"
        )
    if options.backend == "exact" and (options.dominator_parallelism
                                       or options.schedule_copies):
        raise ValueError(
            "backend='exact' requires dominator_parallelism=False and "
            "schedule_copies=False (merging and materialized copies "
            "fall outside the search's legality model)"
        )
    if liveness is None:
        liveness = liveness_of(region.root.cfg)
    # Hyperblocks go through the if-conversion pipeline: full predication,
    # DAG dependences, no renaming, no speculation.
    from repro.regions.hyperblock import Hyperblock

    if isinstance(region, Hyperblock):
        if options.backend == "exact":
            raise ValueError(
                "the exact backend covers tree-pipeline regions only; "
                "hyperblocks schedule through a different pipeline"
            )
        from repro.schedule.hyperblock import schedule_hyperblock

        with timer.stage("list_schedule"), \
                tracer.span("list_schedule", region=region.root.bid,
                            kind="hyperblock"):
            return _record_schedule_metrics(schedule_hyperblock(
                region, machine, heuristic=options.heuristic,
                liveness=liveness, max_cycles=options.max_cycles,
            ))
    with tracer.span("schedule_region", region=region.root.bid,
                     blocks=len(region.blocks),
                     machine=machine.name,
                     heuristic=options.heuristic):
        problem, copies = prepare_problem(region, machine, liveness,
                                          options.schedule_copies,
                                          timer, tracer)
        ddg = build_problem_ddg(problem, copies, machine, liveness,
                                timer, tracer)
        return schedule_problem(problem, ddg, copies, machine, liveness,
                                options, timer, tracer)


def prepare_problem(
    region: Region, machine: MachineModel, liveness: LivenessInfo,
    schedule_copies: bool = False, timer: StageTimer = NULL_TIMER,
    tracer=NULL_TRACER,
) -> Tuple[ScheduleProblem, List[ExitCopy]]:
    """Front half, part one: prep → renaming → optional copy ops.

    Returns the prepared problem and its exit repair copies; with
    ``schedule_copies`` the copies are also materialised as real ops.
    """
    with timer.stage("prep"), tracer.span("prep"):
        problem = prepare_region(region, machine, liveness)
    with timer.stage("renaming"), tracer.span("renaming"):
        copies = rename_region(problem, liveness)
        if schedule_copies:
            _insert_copy_ops(problem, copies)
    return problem, copies


def build_problem_ddg(
    problem: ScheduleProblem, copies: List[ExitCopy],
    machine: MachineModel, liveness: LivenessInfo,
    timer: StageTimer = NULL_TIMER, tracer=NULL_TRACER,
) -> DDG:
    """Front half, part two: the DDG of a prepared problem."""
    with timer.stage("ddg"), tracer.span("ddg"):
        return build_ddg(problem, machine, liveness=liveness, copies=copies)


def schedule_problem(
    problem: ScheduleProblem, ddg: DDG, copies: List[ExitCopy],
    machine: MachineModel, liveness: LivenessInfo, options: ScheduleOptions,
    timer: StageTimer = NULL_TIMER, tracer=NULL_TRACER,
    keys: Optional[Dict[Heuristic, List[Tuple]]] = None,
) -> RegionSchedule:
    """The back half: priority order → list schedule (or exact search)
    → schedule counters → certify.

    ``keys`` is an :func:`~repro.schedule.priorities.all_priority_keys`
    dict computed on an identically prepared problem (preparation is
    deterministic, so op indices line up); None computes the keys here.
    The problem must be placement-clean on entry.
    """
    if options.backend == "exact":
        from repro.exact.backend import exact_schedule_problem

        with timer.stage("exact"), tracer.span("exact"):
            schedule, _info = exact_schedule_problem(
                problem, ddg, keys, machine, options, copies,
            )
            _record_schedule_metrics(schedule)
    else:
        with timer.stage("priority"), tracer.span("priority"):
            order = priority_order(
                problem, ddg, options.heuristic,
                keys=keys.get(options.heuristic) if keys else None,
            )
        with timer.stage("list_schedule"), tracer.span("list_schedule"):
            schedule = _record_schedule_metrics(list_schedule(
                problem, ddg, order, machine,
                dominator_parallelism=options.dominator_parallelism,
                copies=copies, max_cycles=options.max_cycles,
            ))
    if options.certify or current_collector() is not None:
        with timer.stage("certify"), tracer.span("certify"):
            _certify(problem, ddg, schedule, machine, liveness, options)
    return schedule


def _certify(problem, ddg, schedule, machine, liveness, options) -> None:
    """Run the schedule-legality rules over a freshly built schedule.

    Diagnostics flow into the active lint collector when one is open (the
    lint runner / validation oracle path); with ``options.certify`` the
    pipeline additionally fails fast on any error diagnostic.
    """
    from repro.lint.schedule_rules import check_schedule

    report = check_schedule(problem, ddg, schedule, machine=machine,
                            liveness=liveness)
    collector = current_collector()
    if collector is not None and report.diagnostics:
        collector.extend(report.diagnostics)
    if options.certify and not report.ok:
        from repro.util.errors import ScheduleCertificationError

        raise ScheduleCertificationError(report.errors)


def _insert_copy_ops(problem, copies) -> None:
    """Materialize exit repair copies as predicated COPY ops.

    Each copy (exit, original <- renamed) becomes a real op homed at the
    exit's source block, guarded by the exit's predicate so it only
    commits on that path, and placed before the exit branch in walk order
    — the exit's liveness edge then naturally orders the branch after it.
    """
    from repro.ir.operation import Operation
    from repro.ir.types import Opcode
    from repro.schedule.schedule import SchedOp

    for exit, original, renamed in copies:
        exit_sop = problem.exit_op_for(exit)
        branch = exit_sop.op
        if branch.opcode is Opcode.BRCT:
            guard = branch.srcs[0]
        else:  # BRU / RET exits inherit whatever guard they carry.
            guard = branch.guard
        copy_op = Operation(
            -(len(problem.sched_ops) + 1), Opcode.COPY,
            dests=[original], srcs=[renamed], guard=guard,
        )
        sop = SchedOp(len(problem.sched_ops), copy_op, exit.source,
                      source=None)
        problem.sched_ops.append(sop)
        block_list = problem.by_block[exit.source.bid]
        block_list.insert(block_list.index(exit_sop), sop)


def schedule_partition(
    partition: RegionPartition,
    machine: MachineModel,
    options: Optional[ScheduleOptions] = None,
    timer: StageTimer = NULL_TIMER,
    tracer=NULL_TRACER,
) -> List[RegionSchedule]:
    """Schedule every region of a partition (liveness cached per CFG)."""
    options = options or ScheduleOptions()
    schedules: List[RegionSchedule] = []
    for region in partition:
        liveness = liveness_of(region.root.cfg)
        schedules.append(
            schedule_region(region, machine, options, liveness, timer=timer,
                            tracer=tracer)
        )
    return schedules
