"""Tests for the static-analysis subsystem (``repro.lint``).

Three layers:

* **Negative suite** — each rule is triggered on deliberately broken
  input and must report its own rule id at the right location;
* **Clean corpus** — every schedule the pipeline produces across the
  built-in workloads certifies clean: zero errors, and the only
  diagnostics allowed are the flow-sensitive warning rules
  (``ir.dead-store`` / ``ir.unreachable-block`` / ``ir.const-branch``),
  which legitimately fire on hand-written workloads (e.g. a mov kept
  only to give an else-arm a body);
* **Plumbing** — the verifier shim, the stable schedule accessors shared
  with ``dot --schedule`` and the simulator, the API facade, the CLI,
  metrics counters, and the oracle's lint mismatch category.
"""

import json

import pytest

from repro import api
from repro.core import TreegionLimits, form_treegions, form_treegions_td
from repro.ir import (
    CompareCond,
    Function,
    IRBuilder,
    Opcode,
    Program,
    RegClass,
    Register,
)
from repro.ir.analysis_cache import liveness_of
from repro.ir.clone import clone_function
from repro.ir.dot import cfg_to_dot
from repro.ir.printer import format_program
from repro.ir.types import Immediate
from repro.ir.verify import check_program, verify_function
from repro.interp import profile_program
from repro.lint import (
    Diagnostic,
    LintReport,
    Severity,
    all_rules,
    check_schedule,
    lint_program,
)
from repro.lint.ir_rules import lint_cfg, lint_function, lint_program_ir
from repro.machine import SCALAR_1U, VLIW_4U, VLIW_8U, MachineModel
from repro.obs import MetricsRegistry, metrics_scope
from repro.schedule import ScheduleOptions, schedule_region
from repro.schedule.ddg import build_ddg
from repro.schedule.list_scheduler import list_schedule
from repro.schedule.prep import prepare_region
from repro.schedule.priorities import GLOBAL_WEIGHT, HEURISTICS, priority_ranks
from repro.schedule.renaming import rename_region
from repro.util.errors import IRValidationError, ScheduleCertificationError
from repro.workloads.minic_programs import build_minic_program
from repro.workloads.paper_example import build_paper_example
from repro.workloads.pathological import (
    build_biased_treegion,
    build_linearized_treegion,
    build_wide_shallow_treegion,
)
from repro.workloads.specint import build_benchmark

from tests.helpers import diamond_function, program_with
from tests.test_regions_formation import build_figure1_like


# ----------------------------------------------------------------------
# Scheduling plumbing for the negative suite: build the (problem, ddg,
# schedule) triple the certifier consumes, so tests can corrupt it.


def _triple(fn, machine=VLIW_4U, heuristic=GLOBAL_WEIGHT, dp=False,
            region=None):
    if region is None:
        partition = form_treegions(fn.cfg)
        region = partition.region_of(fn.cfg.entry)
    liveness = liveness_of(region.root.cfg)
    problem = prepare_region(region, machine, liveness)
    copies = rename_region(problem, liveness)
    ddg = build_ddg(problem, machine, liveness=liveness, copies=copies)
    ranks = priority_ranks(problem, ddg, heuristic)
    schedule = list_schedule(problem, ddg, ranks, machine,
                             dominator_parallelism=dp, copies=copies)
    return problem, ddg, schedule, liveness


def _move(schedule, sop, new_cycle):
    """Relocate a placed op to another cycle, keeping bundles coherent."""
    old = schedule.cycles[sop.cycle - 1]
    old.remove(sop)
    for slot, other in enumerate(old):
        other.slot = slot
    while len(schedule.cycles) < new_cycle:
        schedule.cycles.append([])
    dest = schedule.cycles[new_cycle - 1]
    sop.cycle = new_cycle
    sop.slot = len(dest)
    dest.append(sop)


def _chain_function():
    """One block: mov -> add -> add -> ret, a pure latency chain."""
    fn = Function("chain")
    b = IRBuilder(fn)
    block = b.block("entry")
    b.at(block)
    a = b.mov(1)
    c = b.add(a, 1)
    d = b.add(c, 1)
    b.ret(d)
    return fn


def _store_diamond():
    """Diamond with a store in the guarded then-block."""
    fn = Function("stdiamond", [Register(RegClass.GPR, 0)])
    fn.regs.reserve(Register(RegClass.GPR, 0))
    b = IRBuilder(fn)
    entry = b.block("entry")
    then_bb = b.block("then")
    else_bb = b.block("else")
    join = b.block("join")
    b.at(entry)
    base = b.mov(0)
    p = b.cmpp(CompareCond.GT, fn.params[0], 0)
    b.br_true(p, then_bb, else_bb)
    b.at(then_bb)
    b.st(base, 0, 7)
    b.jump(join)
    b.at(else_bb)
    b.mov(2)
    b.fallthrough(join)
    b.at(join)
    b.ret(0)
    return fn


def _certify(problem, ddg, schedule, machine, liveness):
    return check_schedule(problem, ddg, schedule, machine=machine,
                          liveness=liveness, function_name="f")


# ----------------------------------------------------------------------
# Schedule-rule negative suite


class TestScheduleRulesNegative:
    def test_clean_schedule_has_no_diagnostics(self):
        problem, ddg, schedule, liveness = _triple(diamond_function())
        report = _certify(problem, ddg, schedule, VLIW_4U, liveness)
        assert len(report) == 0 and report.ok

    def test_issue_width(self):
        # Certify a 4-wide schedule against a 1-wide machine: every
        # multi-op bundle is an issue-width violation.
        problem, ddg, schedule, liveness = _triple(diamond_function(),
                                                   machine=VLIW_4U)
        assert any(len(m) > 1 for m in schedule.cycles)
        narrow = MachineModel(name="1w", issue_width=1)
        report = _certify(problem, ddg, schedule, narrow, liveness)
        assert set(report.rule_ids()) == {"sched.issue-width"}

    def test_resource_caps(self):
        problem, ddg, schedule, liveness = _triple(diamond_function(),
                                                   machine=VLIW_4U)
        capped = MachineModel(name="nobr", issue_width=4,
                              max_branches_per_cycle=0)
        report = _certify(problem, ddg, schedule, capped, liveness)
        assert set(report.rule_ids()) == {"sched.resource"}

    def test_latency_violation(self):
        problem, ddg, schedule, liveness = _triple(_chain_function())
        # The add chain serializes; yank the deepest add up to cycle 1.
        adds = [s for s in problem.sched_ops
                if s.op.opcode is Opcode.ADD]
        victim = max(adds, key=lambda s: s.cycle)
        assert victim.cycle > 1
        _move(schedule, victim, 1)
        report = _certify(problem, ddg, schedule, VLIW_4U, liveness)
        assert "sched.latency" in report.rule_ids()
        diag = next(d for d in report if d.rule == "sched.latency")
        assert diag.op == victim.op.uid
        assert diag.severity is Severity.ERROR

    def test_speculated_store(self):
        problem, ddg, schedule, liveness = _triple(_store_diamond())
        st = next(s for s in problem.sched_ops
                  if s.op.opcode is Opcode.ST)
        assert st.op.guard is not None  # the scheduler guarded it
        st.op.guard = None  # pretend it was hoisted unguarded
        report = _certify(problem, ddg, schedule, VLIW_4U, liveness)
        assert set(report.rule_ids()) == {"sched.speculation"}
        diag = report.diagnostics[0]
        assert diag.block == st.home.bid and diag.op == st.op.uid

    def test_rename_clobber(self):
        # Un-rename the then-block's redefinition of t: its unguarded
        # write then clobbers the value the else-exit publishes.
        problem, ddg, schedule, liveness = _triple(diamond_function())
        assert schedule.copies, "renaming should have repaired an exit"
        exit, original, renamed = schedule.copies[0]
        writer = next(s for s in problem.sched_ops
                      if renamed in s.op.dests)
        writer.op.dests[0] = original
        schedule.copies[0] = (exit, original, original)
        report = _certify(problem, ddg, schedule, VLIW_4U, liveness)
        assert set(report.rule_ids()) == {"sched.rename-clobber"}

    def test_exit_copy_reads_undefined(self):
        problem, ddg, schedule, liveness = _triple(diamond_function())
        assert schedule.copies
        exit, original, _renamed = schedule.copies[0]
        schedule.copies[0] = (exit, original,
                              Register(RegClass.GPR, 9999))
        report = _certify(problem, ddg, schedule, VLIW_4U, liveness)
        assert set(report.rule_ids()) == {"sched.exit-copy"}

    def test_exit_retire_record_mismatch(self):
        problem, ddg, schedule, liveness = _triple(diamond_function())
        schedule.exits[0].cycle += 1
        report = _certify(problem, ddg, schedule, VLIW_4U, liveness)
        assert "sched.exit-retire" in report.rule_ids()

    def test_tree_shape_side_entry(self):
        fn = diamond_function()
        partition = form_treegions(fn.cfg)
        region = partition.region_of(fn.cfg.entry)
        problem, ddg, schedule, liveness = _triple(fn, region=region)
        blocks = list(region)
        assert len(blocks) == 3  # entry + then + else
        then_bb, else_bb = blocks[1], blocks[2]
        region._parent[then_bb.bid] = else_bb  # no such CFG edge
        report = _certify(problem, ddg, schedule, VLIW_4U, liveness)
        assert "sched.tree-shape" in report.rule_ids()
        messages = [d.message for d in report
                    if d.rule == "sched.tree-shape"]
        assert any("no matching CFG edge" in m for m in messages)

    def test_merge_divergent_computation(self):
        fn = clone_function(build_figure1_like())
        partition = form_treegions_td(
            fn.cfg, TreegionLimits(code_expansion=3.0)
        )
        region = partition.region_of(fn.cfg.entry)
        problem, ddg, schedule, liveness = _triple(
            fn, machine=VLIW_8U, dp=True, region=region
        )
        assert schedule.merged, "expected a dominator-parallelism merge"
        merged = schedule.merged[0]
        merged.op.srcs[0] = Immediate(4242)
        report = _certify(problem, ddg, schedule, VLIW_8U, liveness)
        assert "sched.merge" in report.rule_ids()

    def test_placement_slot_mismatch(self):
        problem, ddg, schedule, liveness = _triple(diamond_function())
        schedule.cycles[0][0].slot = 99
        report = _certify(problem, ddg, schedule, VLIW_4U, liveness)
        assert set(report.rule_ids()) == {"sched.placement"}


# ----------------------------------------------------------------------
# IR-rule negative suite


def _block_named(fn, name):
    return next(b for b in fn.cfg.blocks() if b.name == name)


class TestIRRulesNegative:
    def test_clean_function(self):
        # The diamond's else-arm mov exists to give the arm a body; its
        # value dies at the join, so the flow-sensitive pack flags it —
        # a single dead-store warning is the expected steady state.
        report = lint_function(diamond_function(), LintReport())
        assert report.ok
        assert set(report.rule_ids()) <= {"ir.dead-store"}

    def test_entry_missing(self):
        fn = Function("empty")
        report = lint_cfg(fn.cfg, LintReport())
        assert report.rule_ids() == ["ir.entry"]

    def test_terminator_missing(self):
        fn = diamond_function()
        join = _block_named(fn, "join")
        join.ops.pop()  # drop the RET
        report = lint_cfg(fn.cfg, LintReport())
        assert "ir.terminator" in report.rule_ids()
        diag = next(d for d in report if d.rule == "ir.terminator")
        assert diag.block == join.bid

    def test_branch_target_mismatch(self):
        fn = diamond_function()
        entry = _block_named(fn, "entry")
        join = _block_named(fn, "join")
        entry.terminator.target = join.bid
        report = lint_cfg(fn.cfg, LintReport())
        assert "ir.branch-target" in report.rule_ids()

    def test_edge_asymmetry(self):
        fn = diamond_function()
        join = _block_named(fn, "join")
        join.in_edges.remove(join.in_edges[0])
        report = lint_cfg(fn.cfg, LintReport())
        assert "ir.edge-symmetry" in report.rule_ids()

    def test_op_shape_cmpp_without_dests(self):
        fn = diamond_function()
        entry = _block_named(fn, "entry")
        cmpp = next(op for op in entry.ops if op.opcode is Opcode.CMPP)
        del cmpp.dests[:]
        report = lint_cfg(fn.cfg, LintReport())
        assert "ir.op-shape" in report.rule_ids()
        diag = next(d for d in report if d.rule == "ir.op-shape")
        assert diag.op == cmpp.uid

    def test_duplicate_parser_label(self):
        fn = diamond_function()
        _block_named(fn, "then").name = "bb99"
        _block_named(fn, "else").name = "bb99"
        report = lint_cfg(fn.cfg, LintReport())
        assert "ir.duplicate-label" in report.rule_ids()

    def test_decorative_duplicate_names_allowed(self):
        fn = diamond_function()
        _block_named(fn, "then").name = "work"
        _block_named(fn, "else").name = "work"
        report = lint_cfg(fn.cfg, LintReport())
        assert "ir.duplicate-label" not in report.rule_ids()

    def test_duplicate_uid(self):
        fn = diamond_function()
        entry = _block_named(fn, "entry")
        entry.ops[1].uid = entry.ops[0].uid
        report = lint_cfg(fn.cfg, LintReport())
        assert "ir.unique-uid" in report.rule_ids()

    def test_guard_without_dominating_def(self):
        fn = diamond_function()
        join = _block_named(fn, "join")
        join.ops[0].guard = Register(RegClass.PRED, 50)
        report = lint_cfg(fn.cfg, LintReport())
        assert "ir.guard-def" in report.rule_ids()

    def test_missing_return(self):
        fn = Function("spin")
        b = IRBuilder(fn)
        block = b.block("entry")
        b.at(block)
        b.mov(1)
        b.jump(block)
        report = lint_function(fn, LintReport())
        assert "ir.return" in report.rule_ids()

    def test_must_uninit_use_is_an_error(self):
        # No definition of r55 on any path: the flow-sensitive rule
        # grades this as an error and names an offending path.
        fn = Function("uses")
        b = IRBuilder(fn)
        block = b.block("entry")
        b.at(block)
        b.add(Register(RegClass.GPR, 55), 1)
        b.ret(0)
        report = lint_function(fn, LintReport())
        assert "ir.uninit-use" in report.rule_ids()
        diag = next(d for d in report if d.rule == "ir.uninit-use")
        assert diag.severity is Severity.ERROR
        assert not report.ok
        assert "bb" in (diag.hint or "")  # hint carries the path

    def test_may_uninit_use_is_a_warning(self):
        # Defined on the then-arm only; the join's read is uninitialized
        # along entry->join, so the rule stays a warning.
        fn = Function("maybe", [Register(RegClass.GPR, 0)])
        fn.regs.reserve(Register(RegClass.GPR, 0))
        b = IRBuilder(fn)
        entry = b.block("entry")
        then_bb = b.block("then")
        join = b.block("join")
        b.at(entry)
        p = b.cmpp(CompareCond.GT, fn.params[0], 0)
        b.br_true(p, then_bb, join)
        b.at(then_bb)
        v = b.mov(7)
        b.jump(join)
        b.at(join)
        b.ret(v)
        report = lint_function(fn, LintReport())
        diag = next(d for d in report if d.rule == "ir.uninit-use")
        assert diag.severity is Severity.WARNING
        assert report.ok  # warnings do not fail the report

    def test_use_def_alias_still_resolves(self):
        # Saved ``--fail-on`` configs and JSON reports address the old
        # rule id; the registry alias keeps it working.
        from repro.lint.registry import get_rule, resolve_rule_id

        assert resolve_rule_id("ir.use-def") == "ir.uninit-use"
        assert get_rule("ir.use-def").id == "ir.uninit-use"

    def test_program_entry_undefined(self):
        program = program_with(diamond_function())
        program.entry_name = "missing"
        report = lint_program_ir(program)
        assert "ir.program-entry" in report.rule_ids()

    def test_call_targets(self):
        callee = diamond_function("callee")
        fn = Function("main")
        b = IRBuilder(fn)
        block = b.block("entry")
        b.at(block)
        b.call("nope", [])        # undefined callee
        b.call("callee", [])      # arity mismatch: callee takes 1
        b.ret(0)
        program = Program(entry="main")
        program.add_function(fn)
        program.add_function(callee)
        report = lint_program_ir(program)
        call_diags = [d for d in report if d.rule == "ir.call-target"]
        assert len(call_diags) == 2


# ----------------------------------------------------------------------
# Clean corpus: the real pipeline certifies clean everywhere.


def _clean_corpus():
    programs = [
        ("paper", build_paper_example()),
        ("biased", build_biased_treegion()),
        ("wide", build_wide_shallow_treegion()),
        ("linear", build_linearized_treegion()),
    ]
    for name in ("sort", "hash"):
        program, args = build_minic_program(name)
        profile_program(program, inputs=[args])
        programs.append((f"minic-{name}", program))
    return programs


#: Flow-sensitive warnings that legitimately fire on the hand-written
#: workloads (padding movs, profile-dead arms); anything else — and any
#: error, and any schedule-family diagnostic — means the pipeline broke.
_EXPECTED_FLOW_WARNINGS = {
    "ir.dead-store", "ir.unreachable-block", "ir.const-branch",
}


class TestCleanCorpus:
    @pytest.mark.parametrize("heuristic", list(HEURISTICS))
    def test_workloads_certify_clean(self, heuristic):
        options = ScheduleOptions(heuristic=heuristic,
                                  dominator_parallelism=True)
        for name, program in _clean_corpus():
            for machine in ("4U", "8U"):
                for scheme in ("treegion", "treegion-td:2.0"):
                    report = api.lint_program(
                        program, schedule=True, scheme=scheme,
                        machine_model=machine, options=options,
                    )
                    unexpected = (set(report.rule_ids())
                                  - _EXPECTED_FLOW_WARNINGS)
                    assert report.ok and not unexpected, (
                        f"{name}/{scheme}/{machine}/{heuristic}: "
                        + report.format()
                    )

    def test_specint_certifies_with_known_warnings(self):
        program = build_benchmark("compress")
        report = api.lint_program(program, schedule=True,
                                  machine_model="8U")
        assert report.ok
        assert set(report.rule_ids()) == {"ir.dead-store"}

    def test_superblock_regression_no_side_entries(self):
        # Duplicating a later superblock trace used to point clone
        # out-edges into the middle of an earlier trace; seed 34 of the
        # validation generator exhibited it (sched.tree-shape).
        from repro.evaluation.engine import machine_by_name
        from repro.validate.generator import generate
        from repro.validate.oracle import Cell, _interpret, check_cell

        generated = generate(34)
        cell = Cell("superblock", "4U", "global_weight")
        reference = _interpret(generated.program, [-18, 2])
        mismatches = check_cell(generated.program, [-18, 2], cell,
                                machine_by_name("4U"), reference)
        assert mismatches == []


# ----------------------------------------------------------------------
# Rule registry


class TestRegistry:
    def test_catalog_is_complete(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert len(ids) == len(set(ids))
        assert len(rules) >= 20
        families = {rule.family for rule in rules}
        assert families == {"ir", "schedule"}
        for rule in rules:
            assert rule.summary and rule.invariant
            assert rule.check is not None

    def test_metrics_counters_per_rule(self):
        fn = diamond_function()
        _block_named(fn, "join").ops.pop()  # break the terminator
        registry = MetricsRegistry()
        with metrics_scope(registry):
            lint_cfg(fn.cfg, LintReport())
        assert registry.counters.get("lint.diagnostics", 0) >= 1
        assert registry.counters.get("lint.rule.ir.terminator", 0) >= 1


# ----------------------------------------------------------------------
# Verifier shim


class TestVerifyShim:
    def test_raises_with_all_errors(self):
        fn = diamond_function()
        entry = _block_named(fn, "entry")
        join = _block_named(fn, "join")
        entry.terminator.target = join.bid     # ir.branch-target
        _block_named(fn, "then").name = "bb99"
        _block_named(fn, "else").name = "bb99"  # ir.duplicate-label
        with pytest.raises(IRValidationError) as excinfo:
            verify_function(fn)
        message = str(excinfo.value)
        assert "ir.branch-target" in message
        assert "ir.duplicate-label" in message

    def test_warnings_do_not_raise(self):
        # A dead store is warning-grade; the shim only raises on errors.
        fn = Function("pad")
        b = IRBuilder(fn)
        block = b.block("entry")
        b.at(block)
        b.mov(1)  # result never read: ir.dead-store warning
        b.ret(0)
        verify_function(fn)

    def test_must_uninit_raises(self):
        # The flow-sensitive rule grades a read nothing ever defines as
        # an error, so the shim now rejects what the old path-
        # insensitive ``ir.use-def`` warning let through.
        fn = Function("uses")
        b = IRBuilder(fn)
        block = b.block("entry")
        b.at(block)
        b.add(Register(RegClass.GPR, 55), 1)
        b.ret(0)
        with pytest.raises(IRValidationError) as excinfo:
            verify_function(fn)
        assert "ir.uninit-use" in str(excinfo.value)

    def test_check_program_lists_errors(self):
        program = program_with(diamond_function())
        assert check_program(program) == []
        program.entry_name = "missing"
        problems = check_program(program)
        assert problems and "ir.program-entry" in problems[0]


# ----------------------------------------------------------------------
# Stable schedule accessors (shared with dot --schedule / simulator)


class TestScheduleAccessors:
    def test_iter_bundles_is_one_based(self):
        _problem, _ddg, schedule, _liveness = _triple(diamond_function())
        bundles = list(schedule.iter_bundles())
        assert bundles[0][0] == 1
        assert [m for _c, m in bundles] == schedule.cycles

    def test_placement_follows_merges(self):
        fn = clone_function(build_figure1_like())
        partition = form_treegions_td(
            fn.cfg, TreegionLimits(code_expansion=3.0)
        )
        region = partition.region_of(fn.cfg.entry)
        _p, _d, schedule, _l = _triple(fn, machine=VLIW_8U, dp=True,
                                       region=region)
        assert schedule.merged
        for merged in schedule.merged:
            survivor = merged.merged_into
            assert schedule.placement(merged) == (survivor.cycle,
                                                  survivor.slot)

    def test_dot_agrees_with_lint_view(self):
        # dot --schedule annotates each block with its last issue cycle;
        # it must agree with the certifier's effective-cycle view, both
        # reading through RegionSchedule.last_issue_by_block().
        fn = build_figure1_like()
        partition = form_treegions(fn.cfg)
        schedules = [
            schedule_region(region, VLIW_4U, ScheduleOptions())
            for region in partition
        ]
        dot = cfg_to_dot(fn.cfg, partition=partition, name=fn.name,
                         schedules=schedules)
        for schedule in schedules:
            # Independent re-derivation from per-op placements.
            expected = {}
            for _cycle, multiop in schedule.iter_bundles():
                for sop in multiop:
                    cycle, _slot = schedule.placement(sop)
                    bid = sop.home.bid
                    expected[bid] = max(expected.get(bid, 0), cycle)
            assert expected == schedule.last_issue_by_block()
            for bid, cycle in expected.items():
                assert (f"sched: last op @ cycle {cycle} "
                        f"of {schedule.length}") in dot


# ----------------------------------------------------------------------
# Pipeline hook, API facade, oracle category, CLI


class TestPipelineHook:
    def test_certify_option_raises_on_corruption(self):
        from repro.schedule.scheduler import _certify as certify_hook

        problem, ddg, schedule, liveness = _triple(diamond_function())
        schedule.cycles[0][0].slot = 99
        with pytest.raises(ScheduleCertificationError) as excinfo:
            certify_hook(problem, ddg, schedule, VLIW_4U, liveness,
                         ScheduleOptions(certify=True))
        assert excinfo.value.diagnostics
        assert "sched.placement" in str(excinfo.value)

    def test_certify_option_passes_clean_pipeline(self):
        fn = diamond_function()
        partition = form_treegions(fn.cfg)
        region = partition.region_of(fn.cfg.entry)
        schedule = schedule_region(region, VLIW_4U,
                                   ScheduleOptions(certify=True))
        assert schedule.length >= 1

    def test_mismatch_carries_rule_ids(self):
        from repro.validate.oracle import Mismatch

        mismatch = Mismatch(check="lint", expected="clean",
                            actual="1 violation",
                            rules=["sched.latency"])
        assert mismatch.to_json()["rules"] == ["sched.latency"]


class TestApiAndCli:
    def test_api_lint_program(self):
        report = lint_program(build_paper_example(), schedule=True)
        assert isinstance(report, LintReport)
        assert report.ok
        assert set(report.rule_ids()) <= _EXPECTED_FLOW_WARNINGS

    def test_api_export(self):
        assert "lint_program" in api.__all__
        report = api.lint_program(build_paper_example(), schedule=True,
                                  scheme="treegion", machine_model="4U")
        assert report.ok

    def _write_minic(self, tmp_path):
        path = tmp_path / "prog.mc"
        path.write_text(
            "func main(n) { var acc = 0; for (var i = 0; i < n; "
            "i = i + 1) { acc = acc + i; } return acc; }"
        )
        return str(path)

    def test_cli_clean_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        status = main(["lint", self._write_minic(tmp_path),
                       "--schedule"])
        out = capsys.readouterr().out
        assert status == 0
        assert "clean: no diagnostics" in out

    def test_cli_json_format(self, tmp_path, capsys):
        from repro.cli import main

        status = main(["lint", self._write_minic(tmp_path),
                       "--schedule", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["ok"] is True and payload["errors"] == 0

    def test_cli_fail_on_warning(self, tmp_path, capsys):
        from repro.cli import main

        fn = Function("w")
        b = IRBuilder(fn)
        block = b.block("bb1")
        b.at(block)
        b.mov(1)  # dead store: warning-grade
        b.ret(0)
        path = tmp_path / "warn.ir"
        path.write_text(format_program(program_with(fn)))

        assert main(["lint", str(path)]) == 0  # warnings pass by default
        capsys.readouterr()
        status = main(["lint", str(path), "--fail-on", "warning"])
        out = capsys.readouterr().out
        assert status == 1
        assert "ir.dead-store" in out

    def test_cli_rejects_file_plus_corpus(self, tmp_path, capsys):
        from repro.cli import main

        # Bad invocations follow the CLI contract: exit 2 plus a single
        # "repro: error:" line on stderr (see tests/test_cli_exit_codes).
        assert main(["lint", self._write_minic(tmp_path), "--corpus"]) == 2
        assert "repro: error:" in capsys.readouterr().err
        assert main(["lint"]) == 2
        assert "repro: error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Diagnostic value types


class TestDiagnostics:
    def test_location_and_format(self):
        diag = Diagnostic(rule="ir.op-shape", severity=Severity.ERROR,
                          message="bad", function="f", block=2, op=7,
                          hint="fix it")
        assert diag.location == "f/bb2/op7"
        text = diag.format()
        assert text.startswith("error [ir.op-shape] f/bb2/op7: bad")
        assert "(hint: fix it)" in text

    def test_report_aggregation(self):
        report = LintReport()
        report.add(Diagnostic(rule="a", severity=Severity.ERROR,
                              message="x"))
        report.add(Diagnostic(rule="b", severity=Severity.WARNING,
                              message="y"))
        report.add(Diagnostic(rule="a", severity=Severity.ERROR,
                              message="z"))
        assert not report.ok
        assert report.counts() == {"a": 2, "b": 1}
        assert report.rule_ids() == ["a", "b"]
        assert len(report.at_or_above(Severity.WARNING)) == 3
        assert len(report.at_or_above(Severity.ERROR)) == 2
        payload = report.to_json()
        assert payload["errors"] == 2 and payload["warnings"] == 1

    def test_severity_parse(self):
        assert Severity.parse("error") is Severity.ERROR
        with pytest.raises(ValueError):
            Severity.parse("fatal")
