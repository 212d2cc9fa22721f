"""Region/machine content fingerprints (``repro.schedule.fingerprint``).

The region memo is only sound if the fingerprint is *canonical* —
invariant under everything the scheduler cannot observe (register
numbering, block ids, op uids) and sensitive to everything it can
(opcodes, immediates, weights, exit structure, live-out sets).
"""

import os
import subprocess
import sys

import pytest

from repro.core import form_treegions
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import CompareCond, Function, IRBuilder, Opcode, RegClass, Register
from repro.ir.analysis_cache import liveness_of
from repro.ir.clone import clone_function
from repro.ir.registers import sort_key_of
from repro.machine import VLIW_4U, VLIW_8U, MachineModel
from repro.schedule.fingerprint import (
    latency_fingerprint,
    machine_fingerprint,
    region_fingerprint,
)
from repro.workloads.paper_example import build_paper_example
from repro.workloads.specint import build_benchmark


def _diamond(offset=0, imm=2, use_sub=False, then_weight=None,
             swap_targets=False):
    """The if/else diamond with canonicalization knobs.

    ``offset`` burns that many register indices before building, so the
    op stream is an alpha-renamed twin; the other knobs change content
    the scheduler *can* observe.
    """
    fn = Function("diamond", [Register(RegClass.GPR, 0)])
    fn.regs.reserve(Register(RegClass.GPR, 0))
    for _ in range(offset):
        fn.regs.fresh_gpr()
    b = IRBuilder(fn)
    entry = b.block("entry")
    then_bb = b.block("then")
    else_bb = b.block("else")
    join = b.block("join")

    b.at(entry)
    t = b.mov(0)
    if use_sub:
        e = b.sub(fn.params[0], 0)
    else:
        e = b.add(fn.params[0], 0)
    p = b.cmpp(CompareCond.GT, fn.params[0], 0)
    if swap_targets:
        b.br_true(p, else_bb, then_bb)
    else:
        b.br_true(p, then_bb, else_bb)

    b.at(then_bb)
    b.mov(1, dest=t)
    b.jump(join)

    b.at(else_bb)
    b.mov(imm, dest=e)
    b.fallthrough(join)

    b.at(join)
    b.add(t, e)
    b.ret(0)
    if then_weight is not None:
        then_bb.weight = then_weight
    return fn


def _root_fingerprint(fn):
    partition = form_treegions(fn.cfg)
    region = partition.region_of(fn.cfg.entry)
    return region_fingerprint(region, liveness_of(fn.cfg))


class TestCanonicalization:
    def test_deterministic(self):
        assert _root_fingerprint(_diamond()) == _root_fingerprint(_diamond())

    def test_alpha_renamed_twin_equal(self):
        # Same structure, register indices shifted by 7: the scheduler
        # cannot tell them apart, so neither may the fingerprint.
        assert (_root_fingerprint(_diamond())
                == _root_fingerprint(_diamond(offset=7)))

    def test_clone_equal(self):
        fn = build_paper_example().entry_function
        twin = clone_function(fn)
        ours = [region_fingerprint(r, liveness_of(fn.cfg))
                for r in form_treegions(fn.cfg)]
        theirs = [region_fingerprint(r, liveness_of(twin.cfg))
                  for r in form_treegions(twin.cfg)]
        assert ours == theirs

    def test_opcode_mutation_differs(self):
        assert (_root_fingerprint(_diamond())
                != _root_fingerprint(_diamond(use_sub=True)))

    def test_immediate_mutation_differs(self):
        assert (_root_fingerprint(_diamond())
                != _root_fingerprint(_diamond(imm=3)))

    def test_weight_mutation_differs(self):
        assert (_root_fingerprint(_diamond())
                != _root_fingerprint(_diamond(then_weight=40.0)))

    def test_exit_structure_differs(self):
        # Swapping the branch's taken/fallthrough targets rewires which
        # edge reaches which block — observable through exit order.
        assert (_root_fingerprint(_diamond())
                != _root_fingerprint(_diamond(swap_targets=True)))

    def test_distinct_regions_distinct_fingerprints(self):
        fn = build_paper_example().entry_function
        liveness = liveness_of(fn.cfg)
        fingerprints = [region_fingerprint(r, liveness)
                        for r in form_treegions(fn.cfg)]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_liveness_none_keys_differently(self):
        fn = _diamond()
        partition = form_treegions(fn.cfg)
        region = partition.region_of(fn.cfg.entry)
        with_liveness = region_fingerprint(region, liveness_of(fn.cfg))
        # Fresh region objects: the digest is cached on the region.
        partition = form_treegions(fn.cfg)
        region = partition.region_of(fn.cfg.entry)
        without = region_fingerprint(region, None)
        assert with_liveness != without


class TestGoldenDigests:
    """Literal digests, so a faster canonicaliser cannot drift.

    Region fingerprints key the on-disk region store
    (:func:`repro.serve.store.region_key`) under an unchanged
    ``FINGERPRINT_FORMAT``; these were computed with the quadratic
    register renumbering at commit 302cab3, and entries written by it
    must still hit.
    """

    PAPER_EXAMPLE = [
        "9de3991d670eb19c04d11006fed8c85fecbc27905807081f866ab7609c1fa759",
        "1aec25df52943d9a6bda2d80e5ecdb17890c597e7a5899a3c27bfa812e7e546c",
        "20ef887a9f4eff6ed7416d3cbbfd32339a30bff5145c391ce6f18f60c9b3efee",
    ]
    COMPRESS_FIRST_FUNCTION = [
        "25c760f3ccd8fddf754261952acd77bd3eb5de4c561f25e4cfad5e4596c9c820",
        "aad0f1c1aa15f3ed97e5acb553b27eaa67667939f6d4ec8408278979c3abdd60",
        "ca3f1a129d59d58a89633ae970b09204e1113c51f9e41d1cc91230fbcb82de7b",
        "1c6cedf0edc497d1c836df091bba4b600062db56e883de9d793b93f0ab746bad",
        "2096be4b4afbc9ef8e2d14e8dc964075d74d5b42863232b59fa2c3fcab6754e3",
        "5abe36f5965b60a4f76c66889013f4f62e4ac464bbfaacf7b3b588e76b65027b",
        "692980d95a30f54cf7a5e145af9a4ff18464a355270903c0a90b3be8a6d743f6",
        "12dd9a3047fba2cdd5c67a09386b27fea8b0fde9090a6cf23ff268c6113dd2c3",
        "e9faec432d403ac7f52682e2764cbd96121427078846f72cc3593378c0e31425",
        "4892eb8060a4a927f8321dcd13c60b76bd39e24541fd7b93d247030147a75dc6",
        "4fbbcb9e572557dc5a85bc143e766dd4664fb46379dad2a4f323c75ca1ff6edf",
        "55de4fdf419219e09ccc54bacaa1ec86fdaa35790108a96901fd6f8233f6fc44",
        "5966ae7370e2a735990a7f85c7e538a077e6c4a383ea6b10d2ffa7dab45c4d30",
        "f45e01778845df635b587aff75eeb9013fc74ee48dce6e1544235606411caeba",
    ]

    @staticmethod
    def _digests(fn):
        liveness = liveness_of(fn.cfg)
        return [region_fingerprint(region, liveness)
                for region in form_treegions(fn.cfg)]

    def test_paper_example(self):
        fn = build_paper_example().entry_function
        assert self._digests(fn) == self.PAPER_EXAMPLE

    def test_compress_first_function(self):
        fn = next(iter(build_benchmark("compress").functions()))
        assert self._digests(fn) == self.COMPRESS_FIRST_FUNCTION


class TestCrossProcessStability:
    def test_subprocess_agrees(self):
        """Fingerprints must be stable across interpreters — they key
        the on-disk region store.  The child runs under a different
        PYTHONHASHSEED to prove hash-seed independence."""
        fn = build_paper_example().entry_function
        liveness = liveness_of(fn.cfg)
        local = [region_fingerprint(r, liveness)
                 for r in form_treegions(fn.cfg)]
        code = (
            "from repro.core import form_treegions\n"
            "from repro.ir.analysis_cache import liveness_of\n"
            "from repro.schedule.fingerprint import region_fingerprint\n"
            "from repro.workloads.paper_example import build_paper_example\n"
            "fn = build_paper_example().entry_function\n"
            "liveness = liveness_of(fn.cfg)\n"
            "for region in form_treegions(fn.cfg):\n"
            "    print(region_fingerprint(region, liveness))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "271828"
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in sys.path if p] + [env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True,
        )
        assert out.stdout.split() == local


class TestMachineFingerprints:
    def test_distinguishes_issue_width(self):
        assert machine_fingerprint(VLIW_4U) != machine_fingerprint(VLIW_8U)

    def test_latency_fingerprint_shared_across_widths(self):
        # 4U and 8U differ only in issue width, which the DDG builder
        # never reads — they must share one latency fingerprint.
        assert latency_fingerprint(VLIW_4U) == latency_fingerprint(VLIW_8U)

    def test_latency_fingerprint_sees_latency_table(self):
        slow_loads = MachineModel(name="4U", issue_width=4,
                                  latencies={Opcode.LD: 5})
        assert latency_fingerprint(slow_loads) != latency_fingerprint(VLIW_4U)

    def test_latency_fingerprint_sees_btr(self):
        no_btr = MachineModel(name="4U", issue_width=4, use_btr=False)
        assert latency_fingerprint(no_btr) != latency_fingerprint(VLIW_4U)


class TestRegisterHash:
    """The precomputed ``Register.__hash__`` must stay consistent with
    equality — registers key the DDG's producer maps."""

    def test_hash_matches_field_tuple(self):
        register = Register(RegClass.GPR, 3)
        assert hash(register) == hash((register.rclass, register.index))

    def test_equal_registers_hash_equal(self):
        assert (hash(Register(RegClass.PRED, 1))
                == hash(Register(RegClass.PRED, 1)))
        assert Register(RegClass.PRED, 1) == Register(RegClass.PRED, 1)

    def test_pickle_round_trip(self):
        import pickle

        register = Register(RegClass.BTR, 2)
        revived = pickle.loads(pickle.dumps(register))
        assert revived == register
        assert hash(revived) == hash(register)
        assert revived.sort_key == register.sort_key
        assert {register: "x"}[revived] == "x"

    @given(st.lists(st.tuples(st.sampled_from(list(RegClass)),
                              st.integers(min_value=0,
                                          max_value=2 ** 64 - 1))))
    def test_sort_key_orders_by_class_then_index(self, fields):
        registers = [Register(rclass, index) for rclass, index in fields]
        reference = [
            (r.rclass, r.index)
            for r in sorted(registers, key=lambda r: (r.rclass.value, r.index))
        ]
        assert [(r.rclass, r.index) for r in sorted(registers)] == reference
        assert [(r.rclass, r.index)
                for r in sorted(registers, key=sort_key_of)] == reference

    @given(st.sampled_from(list(RegClass)),
           st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_pickle_preserves_sort_key_hash_and_equality(self, rclass, index):
        import pickle

        register = Register(rclass, index)
        revived = pickle.loads(pickle.dumps(register))
        assert revived.sort_key == register.sort_key
        assert hash(revived) == hash(register)
        assert revived == register
        assert not revived < register and not register < revived

    def test_equality_matches_fields(self):
        assert Register(RegClass.GPR, 1) != Register(RegClass.PRED, 1)
        assert Register(RegClass.GPR, 1) != Register(RegClass.GPR, 2)
        assert Register(RegClass.GPR, 1) != (RegClass.GPR, 1)

    def test_immutable(self):
        register = Register(RegClass.GPR, 1)
        with pytest.raises(AttributeError):
            register.index = 2
        with pytest.raises(AttributeError):
            del register.rclass
        assert register.sort_key == Register(RegClass.GPR, 1).sort_key

    @pytest.mark.parametrize("index", [-1, 2 ** 64])
    def test_index_out_of_sort_key_range_rejected(self, index):
        with pytest.raises(ValueError):
            Register(RegClass.GPR, index)
