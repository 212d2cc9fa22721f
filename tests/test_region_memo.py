"""The two-tier region memo (``repro.schedule.memo``).

The memo's contract is bit-identity with the direct pipeline — results
*and* deterministic pipeline counters — across cold, warm, and
disk-revived service.  (The validation oracle re-checks the same
contract against randomly generated programs;
``check_region_memo_identity`` in ``repro.validate.oracle``.)
"""

import itertools
import tempfile

import pytest

from repro.core import form_treegions
from repro.evaluation.engine import GridCell, evaluate_grid
from repro.ir.analysis_cache import liveness_of
from repro.ir.printer import format_operation
from repro.machine import VLIW_4U, VLIW_8U
from repro.obs.metrics import MetricsRegistry, metrics_scope
from repro.schedule import ScheduleOptions, schedule_region
from repro.schedule.memo import RegionMemo, RegionSummary, global_memo
from repro.schedule.priorities import HEURISTICS
from repro.serve.store import ArtifactStore
from repro.workloads.paper_example import build_paper_example
from repro.workloads.specint import build_benchmark

from tests.helpers import diamond_function


def _regions(fn):
    return list(form_treegions(fn.cfg)), liveness_of(fn.cfg)


def _summary(schedule):
    return (schedule.weighted_time, schedule.length, schedule.copy_count,
            schedule.merged_count, schedule.speculated_count)


def _full(schedule):
    """Everything a fresh RegionSchedule carries, in comparable form."""
    return (
        _summary(schedule),
        [[(sop.index, sop.slot, sop.op.speculative, format_operation(sop.op))
          for sop in bundle] for bundle in schedule.cycles],
        [(record.exit.source.bid, record.cycle) for record in schedule.exits],
        [(exit.source.bid, original, renamed)
         for exit, original, renamed in schedule.copies],
    )


def _assert_cold_and_warm_match_direct(**flags):
    # compress's first function speculates different ops under
    # different heuristics, so stale placement state would show.
    functions = [build_paper_example().entry_function,
                 next(iter(build_benchmark("compress").functions()))]
    memo = RegionMemo()
    for fn in functions:
        regions, liveness = _regions(fn)
        for machine, heuristic, region in itertools.product(
                (VLIW_4U, VLIW_8U), HEURISTICS, regions):
            options = ScheduleOptions(heuristic=heuristic, **flags)
            ref = schedule_region(region, machine, options, liveness)
            cold = memo.schedule(region, machine, options, liveness)
            warm = memo.schedule(region, machine, options, liveness)
            assert _full(cold) == _full(ref)
            assert _summary(warm) == _summary(ref)
            assert isinstance(warm, RegionSummary)
    stats = memo.stats()
    assert stats["hits"] >= stats["misses"] > 0


class TestIdentity:
    def test_cold_and_warm_match_direct(self):
        _assert_cold_and_warm_match_direct()

    # The other option sets that take the memo's tier-1 route.
    @pytest.mark.parametrize("flags", [
        {"schedule_copies": True},
        {"backend": "exact", "exact_budget": 200},
    ], ids=["schedule_copies", "exact"])
    def test_cold_and_warm_match_direct_with(self, flags):
        _assert_cold_and_warm_match_direct(**flags)

    def test_dominator_parallelism_memoizes(self):
        fn = build_paper_example().entry_function
        regions, liveness = _regions(fn)
        memo = RegionMemo()
        options = ScheduleOptions(heuristic="global_weight",
                                  dominator_parallelism=True)
        for region in regions:
            ref = _summary(schedule_region(
                region, VLIW_8U, options, liveness))
            assert _summary(memo.schedule(
                region, VLIW_8U, options, liveness)) == ref
            assert _summary(memo.schedule(
                region, VLIW_8U, options, liveness)) == ref
        assert memo.stats()["hits"] == len(regions)

    def test_counter_replay_is_lossless(self):
        fn = build_paper_example().entry_function
        regions, liveness = _regions(fn)
        options = ScheduleOptions(heuristic="dep_height")

        def counters(run):
            registry = MetricsRegistry()
            with metrics_scope(registry):
                run()
            return registry.deterministic_snapshot()

        direct = counters(lambda: [
            schedule_region(r, VLIW_4U, options, liveness) for r in regions
        ])
        memo = RegionMemo()
        cold = counters(lambda: [
            memo.schedule(r, VLIW_4U, options, liveness) for r in regions
        ])
        warm = counters(lambda: [
            memo.schedule(r, VLIW_4U, options, liveness) for r in regions
        ])
        assert cold == direct
        assert warm == direct


class TestTierOneSharing:
    def test_ddg_shared_across_same_latency_machines(self):
        fn = diamond_function()
        regions, liveness = _regions(fn)
        region = regions[0]
        memo = RegionMemo()
        options = ScheduleOptions()
        memo.schedule(region, VLIW_4U, options, liveness)
        memo.schedule(region, VLIW_8U, options, liveness)
        # One prep and one DDG build serve both machines: prep reads
        # only use_btr, the DDG only the latency table.
        assert len(memo._problems) == 1
        assert len(memo._ddgs) == 1

    def test_heuristic_sweep_shares_problem_and_ddg(self):
        fn = diamond_function()
        regions, liveness = _regions(fn)
        region = regions[0]
        memo = RegionMemo()
        for heuristic in HEURISTICS:
            memo.schedule(region, VLIW_4U,
                          ScheduleOptions(heuristic=heuristic), liveness)
        assert len(memo._problems) == 1
        assert len(memo._ddgs) == 1
        assert memo.stats()["misses"] == len(HEURISTICS)

    def test_begin_group_clears_tier_one_only(self):
        fn = diamond_function()
        regions, liveness = _regions(fn)
        memo = RegionMemo()
        memo.schedule(regions[0], VLIW_4U, ScheduleOptions(), liveness)
        memo.begin_group()
        assert not memo._problems and not memo._ddgs
        assert memo.stats()["entries"] > 0  # tier 2 is content-addressed


class TestStorePersistence:
    def test_fresh_memo_revives_from_disk(self):
        fn = build_paper_example().entry_function
        regions, liveness = _regions(fn)
        options = ScheduleOptions(heuristic="global_weight")
        reference = [
            _summary(schedule_region(r, VLIW_4U, options, liveness))
            for r in regions
        ]
        with tempfile.TemporaryDirectory(prefix="repro-memo-") as tmp:
            seeding = RegionMemo(store=ArtifactStore(tmp))
            for region in regions:
                seeding.schedule(region, VLIW_4U, options, liveness)
            seeding.store.sync()  # region writes defer index maintenance

            revived = RegionMemo(store=ArtifactStore(tmp))
            served = [
                _summary(revived.schedule(region, VLIW_4U, options,
                                          liveness))
                for region in regions
            ]
        assert served == reference
        stats = revived.stats()
        assert stats["store_hits"] == len(regions)
        assert stats["misses"] == 0

    def test_lru_bound_respected(self):
        fn = build_paper_example().entry_function
        regions, liveness = _regions(fn)
        memo = RegionMemo(max_entries=1)
        for heuristic in HEURISTICS:
            for region in regions:
                memo.schedule(region, VLIW_4U,
                              ScheduleOptions(heuristic=heuristic), liveness)
        stats = memo.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0


class TestBypasses:
    def test_certify_bypasses(self):
        fn = diamond_function()
        regions, liveness = _regions(fn)
        memo = RegionMemo()
        schedule = memo.schedule(regions[0], VLIW_4U,
                                 ScheduleOptions(certify=True), liveness)
        assert memo.stats()["bypasses"] == 1
        assert memo.stats()["misses"] == 0
        assert hasattr(schedule, "cycles")  # the full schedule object

    def test_nondefault_max_cycles_bypasses(self):
        fn = diamond_function()
        regions, liveness = _regions(fn)
        memo = RegionMemo()
        memo.schedule(regions[0], VLIW_4U,
                      ScheduleOptions(max_cycles=123456), liveness)
        assert memo.stats()["bypasses"] == 1


class TestEngineWiring:
    GRID = [
        GridCell("compress", scheme, machine, heuristic)
        for scheme in ("bb", "treegion")
        for machine in ("4U", "8U")
        for heuristic in ("dep_height", "global_weight")
    ]

    def test_grid_records_region_gauges(self):
        metrics = MetricsRegistry()
        evaluate_grid(self.GRID, jobs=1, metrics=metrics,
                      region_memo=RegionMemo())
        gauges = metrics.snapshot()["gauges"]
        for name in ("cache.region.hits", "cache.region.misses",
                     "cache.region.bytes"):
            assert name in gauges, name
        assert gauges["cache.region.misses"] > 0
        assert gauges["cache.region.bytes"] > 0

    def test_gauges_outside_determinism_contract(self):
        metrics = MetricsRegistry()
        evaluate_grid(self.GRID, jobs=1, metrics=metrics,
                      region_memo=RegionMemo())
        assert "gauges" not in metrics.deterministic_snapshot()

    def test_region_memo_false_disables(self):
        metrics = MetricsRegistry()
        evaluate_grid(self.GRID, jobs=1, metrics=metrics, region_memo=False)
        assert "cache.region.hits" not in metrics.snapshot()["gauges"]

    def test_parallel_grid_merges_memo_gauges(self):
        metrics = MetricsRegistry()
        evaluate_grid(self.GRID, jobs=2, metrics=metrics)
        gauges = metrics.snapshot()["gauges"]
        assert "cache.region.misses" in gauges

    def test_global_memo_is_default(self):
        before = global_memo().stats()
        evaluate_grid(self.GRID[:2], jobs=1)
        after = global_memo().stats()
        assert (after["hits"] + after["misses"]
                > before["hits"] + before["misses"])
