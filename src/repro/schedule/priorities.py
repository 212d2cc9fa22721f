"""The four treegion scheduling heuristics (Section 3, step 2 of Figure 3).

Each heuristic is a sort key over DDG nodes; the list scheduler then picks
ready ops in sorted order.  Quoting the paper:

* **dependence height** — "the DDG nodes are sorted by their heights";
  critical-path scheduling, maximally eager speculation.
* **exit count** — "the priority of an Op is equal to the Op's exit count,
  which is the number of exits that follow the Op in control flow in the
  treegion"; ties broken by dependence height.  Adapted from speculative
  hedge's *helped count*.
* **global weight** — "the priority value assigned to an Op is the profile
  weight of the original basic block which contains it"; ties broken by
  dependence height.  Adapted from speculative hedge's *helped weight*
  (in a tree, the weight of all exits below an op equals its block's
  weight).
* **weighted count** — weight first, then exit count, then height.

All four fall back to op creation order as the final tie-break, making
schedules fully deterministic.

A heuristic's keys are stored *negated* (lower = more urgent), so its
order is one ascending ``sorted`` over op indices, stable on ties.  The
list scheduler consumes that order as a rank array
(:func:`priority_ranks`).  Keys and ranks read the machine only through
the DDG's heights, so :class:`PriorityRanks` computes each heuristic's
ranks once per DDG and every machine sharing the DDG reuses them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.schedule.ddg import DDG
from repro.schedule.prep import ScheduleProblem
from repro.schedule.schedule import SchedOp

#: Heuristic names as used throughout the benchmarks and figures.
Heuristic = str

DEP_HEIGHT: Heuristic = "dep_height"
EXIT_COUNT: Heuristic = "exit_count"
GLOBAL_WEIGHT: Heuristic = "global_weight"
WEIGHTED_COUNT: Heuristic = "weighted_count"

HEURISTICS: Tuple[Heuristic, ...] = (
    DEP_HEIGHT,
    EXIT_COUNT,
    GLOBAL_WEIGHT,
    WEIGHTED_COUNT,
)


def _exit_counts(problem: ScheduleProblem) -> Dict[int, int]:
    region = problem.region
    return {
        block.bid: region.exit_count_below(block) for block in region
    }


def priority_keys(
    problem: ScheduleProblem, ddg: DDG, heuristic: Heuristic
) -> List[Tuple]:
    """Per-op sort keys (lower = more urgent: every component of the
    heuristic negated), indexed like sched_ops."""
    heights = ddg.heights
    if heuristic == DEP_HEIGHT:
        return [(-heights[sop.index],) for sop in problem.sched_ops]
    if heuristic == EXIT_COUNT:
        counts = _exit_counts(problem)
        return [
            (-counts[sop.home.bid], -heights[sop.index])
            for sop in problem.sched_ops
        ]
    if heuristic == GLOBAL_WEIGHT:
        return [
            (-sop.home.weight, -heights[sop.index])
            for sop in problem.sched_ops
        ]
    if heuristic == WEIGHTED_COUNT:
        counts = _exit_counts(problem)
        return [
            (-sop.home.weight, -counts[sop.home.bid], -heights[sop.index])
            for sop in problem.sched_ops
        ]
    raise ValueError(
        f"unknown heuristic {heuristic!r}; choose one of {HEURISTICS}"
    )


def all_priority_keys(
    problem: ScheduleProblem, ddg: DDG
) -> Dict[Heuristic, List[Tuple]]:
    """``priority_keys`` for every heuristic, sharing the common pieces.

    Dependence heights, exit counts, and block weights feed several
    heuristics; evaluating the full heuristic sweep on one region (as the
    evaluation engine does) computes each ingredient once here instead of
    per heuristic.  Each entry is element-wise identical to what
    :func:`priority_keys` returns for that heuristic.
    """
    heights = ddg.heights
    counts = _exit_counts(problem)
    sops = problem.sched_ops
    per_op = [
        (-heights[sop.index], -counts[sop.home.bid], -sop.home.weight)
        for sop in sops
    ]
    return {
        DEP_HEIGHT: [(h,) for h, _, _ in per_op],
        EXIT_COUNT: [(c, h) for h, c, _ in per_op],
        GLOBAL_WEIGHT: [(w, h) for h, _, w in per_op],
        WEIGHTED_COUNT: [(w, c, h) for h, c, w in per_op],
    }


def priority_order(
    problem: ScheduleProblem,
    ddg: DDG,
    heuristic: Heuristic,
    keys: Optional[List[Tuple]] = None,
) -> List[SchedOp]:
    """Step 2 of Figure 3: the DDG nodes sorted by the chosen heuristic.

    ``keys`` lets a caller that already holds this heuristic's keys (e.g.
    from :func:`all_priority_keys` on an identically-prepared problem —
    preparation is deterministic, so op indices line up) skip recomputing
    them.  The sort is stable over op indices, so ties fall to op
    creation order.
    """
    if keys is None:
        keys = priority_keys(problem, ddg, heuristic)
    sched_ops = problem.sched_ops
    return [sched_ops[index]
            for index in sorted(range(len(sched_ops)), key=keys.__getitem__)]


def priority_ranks(
    problem: ScheduleProblem,
    ddg: DDG,
    heuristic: Heuristic,
    keys: Optional[List[Tuple]] = None,
) -> List[int]:
    """rank[i] = position of op i in the sorted list (0 = most urgent).

    What :func:`~repro.schedule.list_scheduler.list_schedule` consumes;
    ``keys`` as for :func:`priority_order`.
    """
    order = priority_order(problem, ddg, heuristic, keys)
    ranks = [0] * len(order)
    for position, sop in enumerate(order):
        ranks[sop.index] = position
    return ranks


class PriorityRanks:
    """Every heuristic's rank array over one DDG, each computed on first
    request.

    The region memo keeps one beside each tier-1 DDG, so the machines
    sharing that DDG (the paper's 4U and 8U) share one key computation
    and one sort per heuristic; the exact backend reads all four.
    """

    __slots__ = ("problem", "ddg", "keys", "ranks")

    def __init__(self, problem: ScheduleProblem, ddg: DDG):
        self.problem = problem
        self.ddg = ddg
        #: :func:`all_priority_keys`, computed with the first ranks.
        self.keys: Optional[Dict[Heuristic, List[Tuple]]] = None
        #: Heuristic -> ranks computed so far.
        self.ranks: Dict[Heuristic, List[int]] = {}

    def rank(self, heuristic: Heuristic) -> List[int]:
        """The heuristic's ranks (see :func:`priority_ranks`)."""
        ranks = self.ranks.get(heuristic)
        if ranks is None:
            if self.keys is None:
                self.keys = all_priority_keys(self.problem, self.ddg)
            ranks = self.ranks[heuristic] = priority_ranks(
                self.problem, self.ddg, heuristic,
                self.keys.get(heuristic))
        return ranks
