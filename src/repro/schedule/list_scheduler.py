"""The list scheduler (step 3 of Figure 3) with dominator parallelism.

This is a *placement-order* list scheduler: ops are visited in heuristic
priority order (the sorted DDG node list of Figure 3) and each is placed at
the earliest cycle that satisfies its dependences and has a free slot.
High-priority ops get first pick of the slots; lower-priority ops fill the
holes left over.  This matches the paper's observed behaviour — under the
dependence-height heuristic, ops far down the treegion share early slots
with ops near the root instead of starving them outright, and "on a very
wide machine a large amount of speculation will occur due to abundant
processor resources".

Placement runs through a heap of *placeable* ops (all DDG predecessors
already placed), keyed by priority rank.  The ranks come from
:func:`~repro.schedule.priorities.priority_ranks`; on the region memo's
path they are computed once per (DDG, heuristic) by
:class:`~repro.schedule.priorities.PriorityRanks` and shared by every
machine that shares the DDG, so a schedule call sorts nothing.

For tree-shaped regions the four priority orders are almost topological
over the DDG — along a path, dependence height never increases and block
weight / exit count never increase either — so the heap nearly always
pops ops in exact priority order; the heap exists to stay correct when
floating-point profile weights break monotonicity by an ulp.

The inner loop runs on the DDG's CSR arrays (see
:meth:`repro.schedule.ddg.DDG.finalize`): predecessor edges of the popped
op are the slice ``pred_ptr[i]:pred_ptr[i+1]`` of two parallel int lists,
placement cycles live in a local ``cycle_of`` int array (merged ops record
their survivor's cycle, so no ``effective_cycle`` chain is ever chased),
the per-op opcode classes are the DDG's ``is_mem``/``is_br`` arrays,
and the per-cycle resource table is three parallel int lists indexed by
``cycle - 1``.  No per-edge or per-op objects are touched until an op is
actually placed.

Dominator parallelism (Section 4) is folded in exactly where the paper puts
it — at schedule time: "if a tail duplicated Op A' is speculated into a
block where one of its duplicates A'' is already scheduled, A' can be
eliminated."  In the flattened predicated schedule an unguarded op executes
on every path through the region, so a duplicate about to be placed can be
merged into an already-placed sibling (same tail-duplication ``origin``)
whenever both clones still compute the same values — same opcode and
operands *and* the same DDG producers for every register source (per-path
renaming makes operand equality meaningful).  The merged op consumes no
slot; its consumers are rewired to read the survivor's destinations.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional

from repro.util.errors import SchedulingError
from repro.ir.registers import Register
from repro.machine.model import MachineModel
from repro.schedule.ddg import DDG
from repro.schedule.prep import ScheduleProblem
from repro.schedule.renaming import ExitCopy
from repro.schedule.schedule import ExitRecord, RegionSchedule, SchedOp


def list_schedule(
    problem: ScheduleProblem,
    ddg: DDG,
    ranks: List[int],
    machine: MachineModel,
    dominator_parallelism: bool = False,
    copies: Optional[List[ExitCopy]] = None,
    max_cycles: int = 1_000_000,
) -> RegionSchedule:
    """Place every op in heuristic order; ``ranks[i]`` is op i's
    position in the heuristic-sorted DDG node list."""
    schedule = RegionSchedule(problem.region)
    copies = copies if copies is not None else []
    # Duplicates by tail-duplication origin, filled only for the merge
    # search of dominator parallelism.
    merge_table: Optional[Dict[int, List[SchedOp]]] = \
        {} if dominator_parallelism else None

    sched_ops = problem.sched_ops
    n = len(sched_ops)

    ddg.finalize()
    pred_ptr, pred_src, pred_lat = ddg.pred_ptr, ddg.pred_src, ddg.pred_lat
    succ_ptr, succ_dst = ddg.succ_ptr, ddg.succ_dst
    is_mem, is_br = ddg.is_mem, ddg.is_br

    waiting = list(ddg.in_degree)
    ready = [(ranks[i], i) for i in range(n) if waiting[i] == 0]
    heapify(ready)

    #: cycle_of[i] — the effective issue cycle of op i once placed or
    #: merged (0 = not yet placed).  Merge survivors are always already
    #: placed, so a merged op's entry is final the moment it is written.
    cycle_of = [0] * n

    issue_width = machine.issue_width
    max_mem = machine.max_memory_per_cycle
    max_br = machine.max_branches_per_cycle
    # Per-cycle occupancy, indexed by cycle - 1.
    used: List[int] = []
    memory: List[int] = []
    branches: List[int] = []

    placed = 0
    while ready:
        _rank, index = heappop(ready)
        sop = sched_ops[index]
        earliest = 1
        for e in range(pred_ptr[index], pred_ptr[index + 1]):
            candidate = cycle_of[pred_src[e]] + pred_lat[e]
            if candidate > earliest:
                earliest = candidate

        survivor = None
        if merge_table is not None:
            survivor = _find_merge_target(problem, ddg, merge_table, sop)
        if survivor is not None:
            _merge(problem, ddg, schedule, copies, sop, survivor)
            cycle_of[index] = cycle_of[survivor.index]
        else:
            cycle = earliest
            mem = is_mem[index]
            br = is_br[index]
            while True:
                while len(used) < cycle:
                    used.append(0)
                    memory.append(0)
                    branches.append(0)
                slot = cycle - 1
                if used[slot] < issue_width and (
                    max_mem is None or not mem or memory[slot] < max_mem
                ) and (
                    max_br is None or not br or branches[slot] < max_br
                ):
                    break
                cycle += 1
                if cycle > max_cycles:
                    raise SchedulingError(
                        f"schedule exceeded {max_cycles} cycles placing {sop!r}"
                    )
            used[slot] += 1
            if mem:
                memory[slot] += 1
            if br:
                branches[slot] += 1
            schedule.place(sop, cycle)
            cycle_of[index] = cycle
            if (merge_table is not None and sop.source is not None
                    and sop.op.guard is None and sop.op.can_speculate):
                merge_table.setdefault(sop.source.origin, []).append(sop)

        placed += 1
        for e in range(succ_ptr[index], succ_ptr[index + 1]):
            succ = succ_dst[e]
            remaining = waiting[succ] - 1
            waiting[succ] = remaining
            if remaining == 0:
                heappush(ready, (ranks[succ], succ))

    if placed != n:
        raise SchedulingError(
            f"DDG has a cycle: only {placed}/{n} ops were placeable"
        )

    _record_exits(problem, schedule)
    _mark_speculation(problem, schedule)
    schedule.copies = list(copies)
    return schedule


# ----------------------------------------------------------------------
# Dominator parallelism

def _find_merge_target(
    problem: ScheduleProblem,
    ddg: DDG,
    merge_table: Dict[int, List[SchedOp]],
    sop: SchedOp,
) -> Optional[SchedOp]:
    """A scheduled duplicate that provably computes the same values."""
    if sop.source is None or sop.exit is not None:
        return None
    if sop.op.guard is not None or not sop.op.can_speculate:
        return None
    for candidate in merge_table.get(sop.source.origin, []):
        if candidate.home is sop.home:
            continue  # same block: that is CSE, not dominator parallelism
        if candidate.source is sop.source:
            continue
        if not candidate.op.same_computation(sop.op):
            continue
        if len(candidate.op.dests) != len(sop.op.dests):
            continue
        if not _same_producers(ddg, candidate, sop):
            continue
        return candidate
    return None


def _same_producers(ddg: DDG, a: SchedOp, b: SchedOp) -> bool:
    for src in b.op.srcs:
        if isinstance(src, Register):
            if ddg.producers[a.index].get(src) != ddg.producers[b.index].get(src):
                return False
    if a.op.is_load or b.op.is_load:
        # Loads only merge when they observe the same memory state.
        if ddg.mem_producers[a.index] != ddg.mem_producers[b.index]:
            return False
    return True


def _merge(
    problem: ScheduleProblem,
    ddg: DDG,
    schedule: RegionSchedule,
    copies: List[ExitCopy],
    sop: SchedOp,
    survivor: SchedOp,
) -> None:
    """Eliminate ``sop``; route its consumers to ``survivor``."""
    sop.merged_into = survivor
    schedule.merged.append(sop)
    replacements = dict(zip(sop.op.dests, survivor.op.dests))
    # Rewrite every (necessarily unplaced) consumer reading sop's dests.
    index = sop.index
    succ_ptr, succ_dst = ddg.succ_ptr, ddg.succ_dst
    for e in range(succ_ptr[index], succ_ptr[index + 1]):
        consumer = problem.sched_ops[succ_dst[e]].op
        for old, new in replacements.items():
            if old != new:
                consumer.replace_uses(old, new)
    for position, (exit, original, renamed) in enumerate(copies):
        if renamed in replacements:
            copies[position] = (exit, original, replacements[renamed])


# ----------------------------------------------------------------------
# Post-pass bookkeeping

def _record_exits(problem: ScheduleProblem, schedule: RegionSchedule) -> None:
    for exit in problem.exits:
        sop = problem.exit_op_for(exit)
        if sop.cycle is None:
            raise SchedulingError(f"exit op for {exit!r} was never scheduled")
        schedule.exits.append(ExitRecord(exit, sop.cycle))


def _mark_speculation(problem: ScheduleProblem, schedule: RegionSchedule) -> None:
    """Mark ops issued before their home guard resolves as speculative."""
    count = 0
    sched_ops = problem.sched_ops
    for index, guard_index in problem.speculation_guards():
        sop = sched_ops[index]
        guard_cycle = sched_ops[guard_index].effective_cycle
        if guard_cycle is None:
            continue
        if sop.cycle is not None and sop.cycle <= guard_cycle:
            sop.op.speculative = True
            count += 1
    schedule.speculated_count = count
