"""Hyperblock scheduling: full if-conversion (predication, no speculation).

The counterpart to the treegion pipeline for
:class:`~repro.regions.hyperblock.Hyperblock` regions, implementing the
comparison the paper plans in Section 6 ("the merits of predication versus
speculation for scheduling"):

* every op of a non-root block is **predicated** on its block guard and
  therefore cannot issue before the guard chain resolves — the exact
  opposite of the treegion scheduler, whose non-store ops speculate
  freely and repair conflicts by renaming;
* merge points stay inside the region; a join's guard is the ``POR`` of
  its incoming edge predicates;
* no renaming is needed: conflicting definitions on disjoint-guard paths
  are squashed by predication, and the DAG dependence walk gives a use at
  a join flow edges from *all* reaching definitions.

The pieces reused unchanged: the generic prep logic for edge predicates
and exit branches (subclassed), the priority heuristics (the
:class:`Hyperblock` region exposes DAG-reachability exit counts), and the
placement-order list scheduler.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.ir.cfg import BasicBlock, Edge
from repro.ir.liveness import LivenessInfo, compute_liveness
from repro.ir.operation import Operation
from repro.ir.registers import Register
from repro.ir.types import Opcode
from repro.machine.model import MachineModel
from repro.regions.hyperblock import Hyperblock
from repro.schedule.ddg import DDG, _live_at_exit
from repro.schedule.list_scheduler import list_schedule
from repro.schedule.prep import ScheduleProblem, _Prep
from repro.schedule.priorities import Heuristic, priority_ranks
from repro.schedule.schedule import RegionSchedule


class _HyperblockPrep(_Prep):
    """Prep with DAG visit order, OR-merged guards, and full predication."""

    def _visit_order(self) -> List[BasicBlock]:
        return self.region.topological_order()  # type: ignore[attr-defined]

    def _op_guard(self, op: Operation, guard, block):
        # Full if-conversion: everything executes under its block guard,
        # AND-combined with any guard the op already carried.
        if op.guard is not None:
            return self._merge_op_guard(op.guard, guard, block)
        return guard

    @property
    def _incoming(self) -> Dict[int, List]:
        return self.__dict__.setdefault("_incoming_preds", {})

    def _record_child_guard(self, edge: Edge) -> None:
        self._incoming.setdefault(edge.dst.bid, []).append(
            (edge, self._edge_predicate(edge))
        )

    def _prep_block(self, block: BasicBlock) -> None:
        if block is not self.region.root:
            self._resolve_guard(block)
        super()._prep_block(block)

    def _resolve_guard(self, block: BasicBlock) -> None:
        """Merge the incoming edge predicates into the block's guard."""
        arriving = self._incoming.get(block.bid, [])
        predicates = [pred for _edge, pred in arriving]
        if not predicates or any(pred is None for pred in predicates):
            # An unconditional/always-true way in: the block always runs.
            self.problem.guards[block.bid] = None
            return
        if len(predicates) == 1:
            self.problem.guards[block.bid] = predicates[0]
            return
        merged = self.problem.regs.fresh_pred()
        op = Operation(0, Opcode.POR, dests=[merged], srcs=list(predicates))
        self._emit_synth(op, block, merged)
        self.problem.guards[block.bid] = merged


def prepare_hyperblock(
    region: Hyperblock,
    machine: MachineModel,
    liveness: Optional[LivenessInfo] = None,
) -> ScheduleProblem:
    """Build the if-converted scheduling problem for a hyperblock."""
    return _HyperblockPrep(region, machine, liveness).run()


# ----------------------------------------------------------------------
# DAG dependence graph


class _DagState:
    """Dependence state at one program point of the DAG walk.

    Unlike the tree walk, definitions/uses/stores are *sets*: a join sees
    everything reaching it along any path, and a consumer depends on all
    of them (only the taken path's producer commits, but the schedule must
    order after every potential one).
    """

    __slots__ = ("defs", "uses", "stores", "loads", "sides")

    def __init__(self):
        self.defs: Dict[Register, FrozenSet[int]] = {}
        self.uses: Dict[Register, FrozenSet[int]] = {}
        self.stores: FrozenSet[int] = frozenset()
        self.loads: FrozenSet[int] = frozenset()
        self.sides: FrozenSet[int] = frozenset()

    @staticmethod
    def merge(states: List["_DagState"]) -> "_DagState":
        merged = _DagState()
        for state in states:
            for reg, defs in state.defs.items():
                merged.defs[reg] = merged.defs.get(reg, frozenset()) | defs
            for reg, uses in state.uses.items():
                merged.uses[reg] = merged.uses.get(reg, frozenset()) | uses
            merged.stores |= state.stores
            merged.loads |= state.loads
            merged.sides |= state.sides
        return merged

    def copy(self) -> "_DagState":
        clone = _DagState()
        clone.defs = dict(self.defs)
        clone.uses = dict(self.uses)
        clone.stores = self.stores
        clone.loads = self.loads
        clone.sides = self.sides
        return clone


def build_hyperblock_ddg(
    problem: ScheduleProblem,
    machine: MachineModel,
    liveness: Optional[LivenessInfo] = None,
) -> DDG:
    """DDG over an if-converted hyperblock (all-paths dependences)."""
    region: Hyperblock = problem.region  # type: ignore[assignment]
    ddg = DDG(problem)
    ops = problem.sched_ops

    live_cache: Dict[int, FrozenSet[Register]] = {}
    if liveness is not None:
        for exit in problem.exits:
            live_cache[id(exit)] = _live_at_exit(exit, liveness, None)

    out_states: Dict[int, _DagState] = {}
    for block in region.topological_order():
        preds = region.dag_preds(block)
        if preds:
            state = _DagState.merge([out_states[p.bid] for p in preds])
        else:
            state = _DagState()
        for sop in problem.by_block[block.bid]:
            _add_dag_edges(ddg, machine, sop, state,
                           live_cache if liveness is not None else None)
        out_states[block.bid] = state

    _add_dag_control_heights(ddg, region)
    ddg.compute_heights(machine)
    return ddg


def _add_dag_edges(ddg: DDG, machine: MachineModel, sop, state: _DagState,
                   live_cache) -> None:
    i = sop.index
    op = sop.op
    ops = ddg.problem.sched_ops

    for reg in op.used_registers():
        for producer in state.defs.get(reg, ()):
            ddg.add_edge(producer, i, machine.latency(ops[producer].op))
        state.uses[reg] = state.uses.get(reg, frozenset()) | {i}

    for reg in op.defined_registers():
        for previous in state.defs.get(reg, ()):
            spacing = max(
                1, machine.latency(ops[previous].op) - machine.latency(op) + 1
            )
            ddg.add_edge(previous, i, spacing)
        for user in state.uses.get(reg, ()):
            ddg.add_edge(user, i, 0)
        state.defs[reg] = frozenset({i})
        state.uses[reg] = frozenset()

    if op.opcode is Opcode.LD:
        for store in state.stores:
            latency = 0 if ops[store].op.opcode is Opcode.ST else 1
            ddg.add_edge(store, i, latency)
        state.loads |= {i}
    elif op.opcode is Opcode.ST or op.opcode is Opcode.CALL:
        for store in state.stores:
            ddg.add_edge(store, i, 1)
        for load in state.loads:
            ddg.add_edge(load, i, 1)
        state.stores = frozenset({i})
        state.loads = frozenset()
        state.sides |= {i}

    if sop.exit is not None:
        for side in state.sides:
            ddg.add_edge(side, i, 0)
        if live_cache is None:
            for defs in state.defs.values():
                for producer in defs:
                    ddg.add_edge(producer, i, 0)
        else:
            for reg in sorted(live_cache[id(sop.exit)]):
                for producer in state.defs.get(reg, ()):
                    ddg.add_edge(producer, i, 0)


def _add_dag_control_heights(ddg: DDG, region: Hyperblock) -> None:
    """Height-only control edges: branch-role ops control every op in
    blocks reachable below them (the DAG analogue of the tree version)."""
    problem = ddg.problem
    guard_opcodes = (Opcode.CMPP, Opcode.PAND, Opcode.PANDCN,
                     Opcode.NINSET, Opcode.POR)
    for block in region.blocks:
        below: List[int] = []
        for reached in region.reachable_from(block):
            if reached is block:
                continue
            below.extend(s.index for s in problem.by_block[reached.bid])
        if not below:
            continue
        for sop in problem.by_block[block.bid]:
            if sop.exit is not None or (
                sop.source is None and sop.op.opcode in guard_opcodes
            ):
                for target in below:
                    ddg.add_control_edge(sop.index, target)


# ----------------------------------------------------------------------


def schedule_hyperblock(
    region: Hyperblock,
    machine: MachineModel,
    heuristic: Heuristic = "global_weight",
    liveness: Optional[LivenessInfo] = None,
    max_cycles: int = 1_000_000,
) -> RegionSchedule:
    """The full hyperblock pipeline: if-convert, DDG, sort, list schedule."""
    if liveness is None:
        liveness = compute_liveness(region.root.cfg)
    problem = prepare_hyperblock(region, machine, liveness)
    ddg = build_hyperblock_ddg(problem, machine, liveness)
    ranks = priority_ranks(problem, ddg, heuristic)
    return list_schedule(problem, ddg, ranks, machine, copies=[],
                         max_cycles=max_cycles)
