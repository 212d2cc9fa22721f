"""Live-variable analysis.

The treegion scheduler needs to know, for a register defined inside a
region, whether it is live-out along a given exit: speculating a def above a
branch is only a *live-out violation* (requiring renaming) when the original
value is still needed on the other arm (Section 3; the paper's ``r6 = 5``
example is exactly the non-live-out case where no repair is needed).

This is the textbook backward may-analysis over virtual registers, computed
per function.  Guards count as uses.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from repro.ir.cfg import CFG, BasicBlock
from repro.ir.registers import Register, sort_key_of


class LivenessInfo:
    """Per-block live-in/live-out register sets for one CFG."""

    def __init__(self, live_in: Dict[int, FrozenSet[Register]],
                 live_out: Dict[int, FrozenSet[Register]]):
        self._live_in = live_in
        self._live_out = live_out
        # Lazily cached sorted live-in tuples: renaming and the DDG
        # builder iterate live sets in sorted order once per region exit,
        # and one LivenessInfo is shared across all regions of a CFG (and
        # across schemes, via the analysis cache) — sorting each block's
        # set once beats re-sorting it at every exit.
        self._sorted_in: Dict[int, Tuple[Register, ...]] = {}

    def live_in(self, block: BasicBlock) -> FrozenSet[Register]:
        return self._live_in.get(block.bid, frozenset())

    def live_out(self, block: BasicBlock) -> FrozenSet[Register]:
        return self._live_out.get(block.bid, frozenset())

    def live_in_sorted(self, block: BasicBlock) -> Tuple[Register, ...]:
        """``sorted(live_in(block))`` as a cached tuple.

        Sorted with ``key=``:attr:`Register.sort_key
        <repro.ir.registers.Register.sort_key>` — the same order as the
        register comparisons, without a Python-level call per comparison.
        """
        cached = self._sorted_in.get(block.bid)
        if cached is None:
            cached = tuple(sorted(self._live_in.get(block.bid, ()),
                                  key=sort_key_of))
            self._sorted_in[block.bid] = cached
        return cached

    def live_into_edge(self, edge) -> FrozenSet[Register]:
        """Registers live on entry to the edge's destination.

        Edge-granular liveness (live-out restricted to one successor) is
        what the renaming pass actually asks about; with a may-analysis the
        destination's live-in is the precise answer.
        """
        return self.live_in(edge.dst)

    def live_into_edge_sorted(self, edge) -> Tuple[Register, ...]:
        """``sorted(live_into_edge(edge))`` as a cached tuple."""
        return self.live_in_sorted(edge.dst)


def block_use_def(block: BasicBlock):
    """(upward-exposed uses, defs) for one block."""
    uses: Set[Register] = set()
    defs: Set[Register] = set()
    for op in block.ops:
        for reg in op.used_registers():
            if reg not in defs:
                uses.add(reg)
        defs.update(op.defined_registers())
    return uses, defs


def compute_liveness(cfg: CFG) -> LivenessInfo:
    """Run the backward fixed-point over the CFG."""
    use: Dict[int, Set[Register]] = {}
    deff: Dict[int, Set[Register]] = {}
    for block in cfg.blocks():
        u, d = block_use_def(block)
        use[block.bid] = u
        deff[block.bid] = d

    live_in: Dict[int, Set[Register]] = {b.bid: set() for b in cfg.blocks()}
    live_out: Dict[int, Set[Register]] = {b.bid: set() for b in cfg.blocks()}

    # Iterate blocks in reverse RPO for fast convergence.
    order = list(reversed(cfg.reverse_postorder()))
    changed = True
    while changed:
        changed = False
        for block in order:
            out = set()
            for succ in block.successors:
                out |= live_in[succ.bid]
            inn = use[block.bid] | (out - deff[block.bid])
            if out != live_out[block.bid]:
                live_out[block.bid] = out
                changed = True
            if inn != live_in[block.bid]:
                live_in[block.bid] = inn
                changed = True

    return LivenessInfo(
        {bid: frozenset(s) for bid, s in live_in.items()},
        {bid: frozenset(s) for bid, s in live_out.items()},
    )
