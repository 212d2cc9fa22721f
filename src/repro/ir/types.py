"""Core IR enumerations and small value types.

The operation set follows the HPL Play-Doh architecture specification that
the paper's machine models assume: general-purpose compute ops, loads and
stores, a two-destination compare-to-predicate (``CMPP``), prepare-to-branch
(``PBR``) writing branch-target registers, and predicated branch ops
(``BRCT``/``BRCF``/``BRU``).  ``SWITCH`` models the wide multiway branches
that the paper observes rooting the problematic treegions in gcc and perl.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RegClass(enum.Enum):
    """Register classes, printed with the paper's prefixes.

    ``GPR`` holds both integer and floating-point values (the machine models
    use universal function units, so a unified register file loses nothing).
    ``PRED`` holds one-bit predicates.  ``BTR`` holds branch targets
    initialized by ``PBR`` ops.
    """

    GPR = "r"
    PRED = "p"
    BTR = "b"

    @property
    def prefix(self) -> str:
        return self.value


class Opcode(enum.Enum):
    """Operation opcodes.

    The string values double as the textual IR mnemonics.
    """

    # Integer ALU.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    # Floating point (carried in GPRs; latencies differ).
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    # Data movement.
    MOV = "mov"          # register or immediate move
    COPY = "copy"        # compiler-inserted rename-repair copy
    # Memory.
    LD = "ld"            # dest = MEM[src0 + src1]
    ST = "st"            # MEM[src0 + src1] = src2
    # Predicates.
    CMPP = "cmpp"        # p_true[, p_false] = compare(src0, src1) [? guard]
    PAND = "pand"        # p = src0 & src1 (predicate conjunction)
    PANDCN = "pandcn"    # p = ~src0 & src1 (and-complement)
    POR = "por"          # p = src0 | src1 | ... (predicate disjunction;
    #                      hyperblock merge guards)
    NINSET = "ninset"    # p = src0 not in {src1..srcN} [? guard]; switch default guard
    # Control.
    PBR = "pbr"          # btr = address-of(target block)
    BRU = "bru"          # unconditional branch
    BRCT = "brct"        # branch if predicate true
    BRCF = "brcf"        # branch if predicate false
    SWITCH = "switch"    # multiway branch on src0 (case edges on the block)
    CALL = "call"        # dest = callee(srcs); scheduling barrier
    RET = "ret"          # return [src0]
    NOP = "nop"

    @property
    def is_branch(self) -> bool:
        """True for ops that transfer control (excluding CALL/RET)."""
        return self in _BRANCHES

    @property
    def is_terminator(self) -> bool:
        """True for ops that must appear last in a basic block."""
        return self in _TERMINATORS

    @property
    def is_memory(self) -> bool:
        return self in (Opcode.LD, Opcode.ST)

    @property
    def has_side_effects(self) -> bool:
        """Ops that may not be executed speculatively.

        Stores write memory, calls are opaque, and control ops are handled
        by the predication machinery rather than by speculation.
        """
        return self in _SIDE_EFFECTS


_BRANCHES = frozenset({Opcode.BRU, Opcode.BRCT, Opcode.BRCF, Opcode.SWITCH})
_TERMINATORS = frozenset(
    {Opcode.BRU, Opcode.BRCT, Opcode.BRCF, Opcode.SWITCH, Opcode.RET}
)
_SIDE_EFFECTS = frozenset(
    {Opcode.ST, Opcode.CALL, Opcode.RET} | _BRANCHES
)


class CompareCond(enum.Enum):
    """Comparison conditions for ``CMPP``."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    def evaluate(self, lhs, rhs) -> bool:
        """Apply the comparison to two Python numbers."""
        if self is CompareCond.EQ:
            return lhs == rhs
        if self is CompareCond.NE:
            return lhs != rhs
        if self is CompareCond.LT:
            return lhs < rhs
        if self is CompareCond.LE:
            return lhs <= rhs
        if self is CompareCond.GT:
            return lhs > rhs
        return lhs >= rhs

    def negate(self) -> "CompareCond":
        """The condition computing the logical complement."""
        return _NEGATIONS[self]


_NEGATIONS = {
    CompareCond.EQ: CompareCond.NE,
    CompareCond.NE: CompareCond.EQ,
    CompareCond.LT: CompareCond.GE,
    CompareCond.LE: CompareCond.GT,
    CompareCond.GT: CompareCond.LE,
    CompareCond.GE: CompareCond.LT,
}


class EdgeKind(enum.Enum):
    """How control reaches an edge's destination from its source block."""

    TAKEN = "taken"              # target of BRU/BRCT/BRCF
    FALLTHROUGH = "fallthrough"  # textual successor (no branch / branch not taken)
    CASE = "case"                # SWITCH case edge; carries a case value
    DEFAULT = "default"          # SWITCH default edge


@dataclass(frozen=True)
class Immediate:
    """An immediate operand.

    Immediates may be integers or floats; the IR is untyped beyond the
    register class split, matching the paper's level of abstraction.
    """

    value: object  # int or float

    def __str__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True)
class LabelRef:
    """A reference to a basic block used as a branch/PBR target payload."""

    block_id: int

    def __str__(self) -> str:
        return f"bb{self.block_id}"
