"""Parser for the textual IR emitted by ``repro.ir.printer``.

Line-oriented recursive descent.  Block labels (``bb7``) are resolved to
freshly-allocated blocks, so parsed ids may differ from printed ids, but the
structure, weights, and op streams are identical; a second print/parse
round-trip is a fixed point (tested in ``tests/test_ir_roundtrip.py``).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.util.errors import IRValidationError
from repro.ir.cfg import BasicBlock
from repro.ir.function import Function, Program
from repro.ir.registers import Register
from repro.ir.types import CompareCond, EdgeKind, Immediate, Opcode, RegClass

_REG_RE = re.compile(r"^([rpb])(\d+)$")
_IMM_RE = re.compile(r"^#(-?\d+(?:\.\d+)?)$")
_BLOCK_RE = re.compile(r"^block (bb\d+) weight=([-\d.e+]+)( entry)?$")
_EDGE_RE = re.compile(
    r"^edge (bb\d+) -> (bb\d+) (taken|fallthrough|default|case\((-?\d+)\)) weight=([-\d.e+]+)$"
)
_FUNC_RE = re.compile(r"^func (\w+)\(([^)]*)\) \{$")
_GLOBAL_RE = re.compile(r"^global (\w+) size=(\d+)(?: init=\[([^\]]*)\])?$")
_TARGET_RE = re.compile(r"-> bb(\d+)")

_CLASS_BY_PREFIX = {"r": RegClass.GPR, "p": RegClass.PRED, "b": RegClass.BTR}
_OPCODES_BY_NAME = {op.value: op for op in Opcode}
_CONDS_BY_NAME = {c.value: c for c in CompareCond}


def _parse_register(text: str) -> Register:
    match = _REG_RE.match(text)
    if not match:
        raise IRValidationError(f"bad register {text!r}")
    try:
        return Register(_CLASS_BY_PREFIX[match.group(1)],
                        int(match.group(2)))
    except ValueError as exc:
        raise IRValidationError(f"bad register {text!r}: {exc}") from exc


def _parse_operand(text: str):
    imm = _IMM_RE.match(text)
    if imm:
        raw = imm.group(1)
        value = float(raw) if "." in raw else int(raw)
        return Immediate(value)
    return _parse_register(text)


def _parse_operation(function: Function, line: str,
                     labels: Dict[str, BasicBlock]) -> None:
    """Parse one op line and append it to the most recent block."""
    cfg = function.cfg
    block = cfg.blocks()[-1] if len(cfg) else None
    if block is None:
        raise IRValidationError(f"op outside any block: {line!r}")

    speculative = False
    if line.endswith("!spec"):
        speculative = True
        line = line[: -len("!spec")].strip()

    target: Optional[int] = None
    target_match = _TARGET_RE.search(line)
    target_label: Optional[str] = None
    if target_match:
        target_label = f"bb{target_match.group(1)}"
        line = _TARGET_RE.sub("", line).strip()

    guard: Optional[Register] = None
    if "?" in line:
        line, guard_text = line.rsplit("?", 1)
        guard = _parse_register(guard_text.strip())
        line = line.strip()

    dests: List[Register] = []
    if "=" in line:
        dest_text, line = line.split("=", 1)
        dests = [_parse_register(t.strip()) for t in dest_text.split(",")]
        line = line.strip()

    tokens = line.split(None, 1)
    mnemonic = tokens[0]
    rest = tokens[1] if len(tokens) > 1 else ""
    cond: Optional[CompareCond] = None
    if "." in mnemonic:
        mnemonic, cond_name = mnemonic.split(".", 1)
        cond = _CONDS_BY_NAME.get(cond_name)
        if cond is None:
            raise IRValidationError(f"bad condition {cond_name!r} in {line!r}")
    opcode = _OPCODES_BY_NAME.get(mnemonic)
    if opcode is None:
        raise IRValidationError(f"unknown opcode {mnemonic!r}")

    callee: Optional[str] = None
    if opcode is Opcode.CALL:
        call_tokens = rest.split(None, 1)
        callee = call_tokens[0] if call_tokens else None
        rest = call_tokens[1] if len(call_tokens) > 1 else ""

    srcs = []
    if rest.strip():
        srcs = [_parse_operand(t.strip()) for t in rest.split(",")]

    op = cfg.new_op(opcode, dests=dests, srcs=srcs, guard=guard,
                    cond=cond, callee=callee)
    op.speculative = speculative
    for reg in dests:
        function.regs.reserve(reg)
    for reg in op.used_registers():
        function.regs.reserve(reg)
    if target_label is not None:
        # Record the label; resolved to a real block id after all blocks of
        # the function exist (see _resolve_targets).
        op.target = target_label  # type: ignore[assignment]
    block.ops.append(op)
    cfg.bump_version()


def _resolve_targets(function: Function, labels: Dict[str, BasicBlock]) -> None:
    for block in function.cfg.blocks():
        for op in block.ops:
            if isinstance(op.target, str):
                dest = labels.get(op.target)
                if dest is None:
                    raise IRValidationError(
                        f"branch to unknown label {op.target!r}"
                    )
                op.target = dest.bid


def parse_program(text: str) -> Program:
    """Parse a whole program dump back into IR."""
    program: Optional[Program] = None
    function: Optional[Function] = None
    labels: Dict[str, BasicBlock] = {}
    pending_edges: List[Tuple[str, str, str, Optional[str], float]] = []

    def finish_function() -> None:
        nonlocal function
        if function is None:
            return
        _resolve_targets(function, labels)
        for src_label, dst_label, kind_text, case_text, weight in pending_edges:
            src = labels[src_label]
            dst = labels[dst_label]
            if kind_text.startswith("case"):
                kind = EdgeKind.CASE
                case_value: Optional[int] = int(case_text)  # type: ignore[arg-type]
            else:
                kind = EdgeKind(kind_text)
                case_value = None
            function.cfg.add_edge(src, dst, kind, case_value=case_value,
                                  weight=weight)
        pending_edges.clear()
        labels.clear()
        function = None

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith(";"):
            continue

        if line.startswith("program "):
            entry = line.split("entry=", 1)[1].strip()
            program = Program(entry=entry)
            continue

        if program is None:
            raise IRValidationError("missing 'program' header line")

        global_match = _GLOBAL_RE.match(line)
        if global_match:
            name, size, init_text = global_match.groups()
            initial = None
            if init_text:
                initial = [
                    float(v) if "." in v else int(v)
                    for v in (t.strip() for t in init_text.split(","))
                    if v
                ]
            program.add_global(name, size=int(size), initial=initial)
            continue

        func_match = _FUNC_RE.match(line)
        if func_match:
            finish_function()
            name, params_text = func_match.groups()
            params = [
                _parse_register(t.strip())
                for t in params_text.split(",")
                if t.strip()
            ]
            function = program.new_function(name, params)
            continue

        if line == "}":
            finish_function()
            continue

        if function is None:
            raise IRValidationError(f"line outside any function: {line!r}")

        block_match = _BLOCK_RE.match(line)
        if block_match:
            label, weight, entry_flag = block_match.groups()
            block = function.cfg.new_block(name=label)
            block.weight = float(weight)
            labels[label] = block
            if entry_flag:
                function.cfg.set_entry(block)
            continue

        edge_match = _EDGE_RE.match(line)
        if edge_match:
            src_label, dst_label, kind_text, case_text, weight = edge_match.groups()
            pending_edges.append(
                (src_label, dst_label, kind_text, case_text, float(weight))
            )
            continue

        _parse_operation(function, line, labels)

    finish_function()
    if program is None:
        raise IRValidationError("empty IR text")
    return program
