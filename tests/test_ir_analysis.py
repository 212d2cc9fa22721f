"""Tests for dominators, liveness, the verifier, and text round-trips."""

import pytest

from repro.ir import (
    CompareCond,
    DominatorTree,
    EdgeKind,
    Function,
    IRBuilder,
    Opcode,
    Program,
    RegClass,
    Register,
    compute_liveness,
    format_program,
    parse_program,
    verify_function,
)
from repro.util.errors import IRValidationError

from tests.helpers import (
    diamond_function,
    loop_function,
    program_with,
    straight_line_function,
    switch_function,
)


class TestDominators:
    def test_diamond(self):
        fn = diamond_function()
        entry, then_bb, else_bb, join = fn.cfg.blocks()
        dom = DominatorTree(fn.cfg)
        assert dom.dominates(entry, join)
        assert dom.dominates(entry, entry)
        assert not dom.dominates(then_bb, join)
        assert dom.idom(join) is entry
        assert dom.idom(entry) is None

    def test_loop_header_dominates_body(self):
        fn = loop_function()
        entry, header, body, exit_bb = fn.cfg.blocks()
        dom = DominatorTree(fn.cfg)
        assert dom.dominates(header, body)
        assert dom.dominates(header, exit_bb)
        assert not dom.dominates(body, exit_bb)

    def test_strict_dominance_is_irreflexive(self):
        fn = straight_line_function()
        blocks = fn.cfg.blocks()
        dom = DominatorTree(fn.cfg)
        assert dom.strictly_dominates(blocks[0], blocks[2])
        assert not dom.strictly_dominates(blocks[0], blocks[0])

    def test_dominated_by(self):
        fn = diamond_function()
        entry = fn.cfg.entry
        dom = DominatorTree(fn.cfg)
        assert set(b.bid for b in dom.dominated_by(entry)) == {
            b.bid for b in fn.cfg.blocks()
        }


class TestLiveness:
    def test_value_live_across_branch(self):
        fn = diamond_function()
        entry, then_bb, else_bb, join = fn.cfg.blocks()
        live = compute_liveness(fn.cfg)
        # 'then' defines t used in join: t is live out of then, into join.
        t = then_bb.ops[0].dest
        assert t in live.live_out(then_bb)
        assert t in live.live_in(join)
        # t is NOT defined before 'then', so it is (spuriously, in this
        # non-SSA IR) live-in to 'then'; what matters for renaming is the
        # else-path: t reaches join from both arms in the may-analysis.
        assert t in live.live_out(else_bb)

    def test_dead_value_not_live_out(self):
        fn = straight_line_function(n_blocks=2)
        b0, b1 = fn.cfg.blocks()
        dead = b0.ops[0].dest
        live = compute_liveness(fn.cfg)
        assert dead not in live.live_out(b0)

    def test_loop_carried_liveness(self):
        fn = loop_function()
        entry, header, body, exit_bb = fn.cfg.blocks()
        i = entry.ops[0].dest
        live = compute_liveness(fn.cfg)
        # i is live around the loop and into the exit (returned).
        assert i in live.live_out(body)
        assert i in live.live_in(header)
        assert i in live.live_in(exit_bb)

    def test_live_into_edge_matches_dest_live_in(self):
        fn = diamond_function()
        entry = fn.cfg.entry
        live = compute_liveness(fn.cfg)
        for edge in entry.out_edges:
            assert live.live_into_edge(edge) == live.live_in(edge.dst)


class TestDegenerateCfgs:
    """Edge shapes both dominators and liveness must not choke on:
    unreachable blocks, self-loops, entry-as-exit, and opless blocks."""

    def _unreachable(self):
        fn = Function("orphaned")
        b = IRBuilder(fn)
        entry = b.block("entry")
        orphan = b.block("orphan")
        b.at(entry)
        b.ret(0)
        b.at(orphan)
        b.ret(1)
        return fn, entry, orphan

    def _self_loop(self):
        fn = Function("spin", [Register(RegClass.GPR, 0)])
        fn.regs.reserve(Register(RegClass.GPR, 0))
        b = IRBuilder(fn)
        entry = b.block("entry")
        body = b.block("body")
        exit_bb = b.block("exit")
        b.at(entry)
        x = b.mov(0)
        b.fallthrough(body)
        b.at(body)
        p = b.cmpp(CompareCond.LT, x, fn.params[0])
        b.br_true(p, body, exit_bb)
        b.at(exit_bb)
        b.ret(x)
        return fn, body, x

    def _opless_middle(self):
        fn = Function("hollow")
        b = IRBuilder(fn)
        entry = b.block("entry")
        mid = b.block("mid")
        exit_bb = b.block("exit")
        b.at(entry)
        x = b.mov(3)
        b.fallthrough(mid)
        b.at(mid)
        b.fallthrough(exit_bb)
        b.at(exit_bb)
        b.ret(x)
        return fn, mid, x

    def test_dominators_skip_unreachable_blocks(self):
        fn, entry, orphan = self._unreachable()
        dom = DominatorTree(fn.cfg)
        assert dom.idom(orphan) is None
        assert not dom.dominates(entry, orphan)
        assert not dom.dominates(orphan, entry)
        assert orphan not in dom.dominated_by(entry)

    def test_liveness_unreachable_block_still_has_sets(self):
        fn, entry, orphan = self._unreachable()
        live = compute_liveness(fn.cfg)
        # The orphan's ret reads nothing; its sets exist and are empty.
        assert live.live_in(orphan) == frozenset()
        assert live.live_out(orphan) == frozenset()

    def test_self_loop_dominance(self):
        fn, body, _ = self._self_loop()
        dom = DominatorTree(fn.cfg)
        assert dom.dominates(body, body)
        assert not dom.strictly_dominates(body, body)
        assert dom.idom(body) is not body  # idom is the entry, not self

    def test_self_loop_carries_liveness_around(self):
        fn, body, x = self._self_loop()
        live = compute_liveness(fn.cfg)
        # x is read in the loop and after it: live around the back edge.
        assert x in live.live_in(body)
        assert x in live.live_out(body)
        back = next(e for e in body.out_edges if e.dst is body)
        assert live.live_into_edge(back) == live.live_in(body)

    def test_entry_is_also_exit(self):
        fn = Function("one", [Register(RegClass.GPR, 0)])
        fn.regs.reserve(Register(RegClass.GPR, 0))
        b = IRBuilder(fn)
        entry = b.block("entry")
        b.at(entry)
        b.ret(fn.params[0])
        dom = DominatorTree(fn.cfg)
        assert dom.idom(entry) is None
        assert dom.dominates(entry, entry)
        assert [blk.bid for blk in dom.dominated_by(entry)] == [entry.bid]
        live = compute_liveness(fn.cfg)
        assert fn.params[0] in live.live_in(entry)
        assert live.live_out(entry) == frozenset()

    def test_block_with_no_ops(self):
        fn, mid, x = self._opless_middle()
        dom = DominatorTree(fn.cfg)
        assert dom.strictly_dominates(fn.cfg.entry, mid)
        live = compute_liveness(fn.cfg)
        # Nothing defined or used: liveness flows straight through.
        assert live.live_in(mid) == live.live_out(mid) == frozenset({x})


class TestVerifier:
    def test_valid_functions_pass(self):
        for fn in (diamond_function(), loop_function(),
                   straight_line_function(), switch_function()):
            verify_function(fn)

    def test_missing_return_rejected(self):
        fn = Function("noret")
        b = IRBuilder(fn)
        blk = b.block()
        b.at(blk).mov(1)
        blk2 = b.block()
        b.fallthrough(blk2)
        b.at(blk2).mov(2)
        b.fallthrough(blk)
        with pytest.raises(IRValidationError):
            verify_function(fn)

    def test_terminator_must_be_last(self):
        fn = straight_line_function()
        block = fn.cfg.blocks()[0]
        ret = fn.cfg.new_op(Opcode.RET)
        block.ops.insert(0, ret)
        with pytest.raises(IRValidationError):
            verify_function(fn)

    def test_branch_edge_mismatch_rejected(self):
        fn = diamond_function()
        entry = fn.cfg.entry
        # Corrupt the branch target so it disagrees with the taken edge.
        entry.terminator.target = 999
        with pytest.raises(IRValidationError):
            verify_function(fn)

    def test_conditional_needs_predicate_operand(self):
        fn = Function("bad")
        b = IRBuilder(fn)
        e, t, f = b.block(), b.block(), b.block()
        b.at(e)
        r = b.mov(1)
        op = b.emit(Opcode.BRCT, srcs=[r], target=t.bid)
        fn.cfg.add_edge(e, t, EdgeKind.TAKEN)
        fn.cfg.add_edge(e, f, EdgeKind.FALLTHROUGH)
        b.at(t).ret()
        b.at(f).ret()
        with pytest.raises(IRValidationError):
            verify_function(fn)

    def test_duplicate_switch_cases_rejected(self):
        fn = switch_function()
        entry = fn.cfg.entry
        for edge in entry.case_edges():
            edge.case_value = 0
        with pytest.raises(IRValidationError):
            verify_function(fn)

    def test_fallthrough_block_needs_single_successor(self):
        fn = straight_line_function()
        b0, b1, b2 = fn.cfg.blocks()
        fn.cfg.add_edge(b0, b2, EdgeKind.FALLTHROUGH)
        with pytest.raises(IRValidationError):
            verify_function(fn)


class TestTextRoundTrip:
    @pytest.mark.parametrize("make", [
        diamond_function, loop_function, straight_line_function, switch_function,
    ])
    def test_print_parse_fixed_point(self, make):
        program = program_with(make())
        text = format_program(program)
        reparsed = parse_program(text)
        text2 = format_program(reparsed)
        assert format_program(parse_program(text2)) == text2

    def test_weights_and_globals_survive(self):
        fn = diamond_function()
        for block in fn.cfg.blocks():
            block.weight = 10.5
            for edge in block.out_edges:
                edge.weight = 3.25
        program = program_with(fn)
        program.add_global("A", size=2, initial=[4, 5])
        reparsed = parse_program(format_program(program))
        var = reparsed.globals["A"]
        assert var.size == 2 and var.initial == [4, 5]
        for block in reparsed.entry_function.cfg.blocks():
            assert block.weight == 10.5
            for edge in block.out_edges:
                assert edge.weight == 3.25

    def test_guards_conditions_and_spec_flags_survive(self):
        fn = Function("g")
        b = IRBuilder(fn)
        blk = b.block()
        b.at(blk)
        p_t, p_f = b.cmpp(CompareCond.LE, 3, 4, both=True)
        op = b.add(1, 2)
        blk.ops[-1].guard = p_t
        blk.ops[-1].speculative = True
        b.ret()
        program = program_with(fn)
        reparsed = parse_program(format_program(program))
        block = reparsed.entry_function.cfg.blocks()[0]
        cmpp, add, _ = block.ops
        assert cmpp.cond is CompareCond.LE and len(cmpp.dests) == 2
        assert add.guard is not None and add.speculative

    def test_parse_rejects_garbage(self):
        with pytest.raises(IRValidationError):
            parse_program("program entry=main\nfunc main() {\n  block bb1 weight=0\n    r1 = frobnicate r2\n}\n")

    def test_parse_rejects_out_of_range_register(self):
        with pytest.raises(IRValidationError):
            parse_program("program entry=main\nfunc main() {\n  block bb1 weight=0\n    r1 = mov r18446744073709551616\n    ret\n}\n")
