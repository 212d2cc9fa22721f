"""Priority ranks (``repro.schedule.priorities``) against the reference sort.

The list scheduler once re-sorted the heuristic order on every call with
the key ``tuple(-c for c in keys[s.index]) + (s.index,)`` over keys where
higher means more urgent.  Ranks are now sorted once per (DDG, heuristic)
over stored negated keys and shared through the region memo's tier 1;
these tests pin every shared rank array to that reference sort.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import form_treegions
from repro.ir.analysis_cache import liveness_of
from repro.machine import VLIW_4U, VLIW_8U
from repro.schedule import ScheduleOptions
from repro.schedule.memo import RegionMemo
from repro.schedule.priorities import (
    DEP_HEIGHT,
    EXIT_COUNT,
    GLOBAL_WEIGHT,
    HEURISTICS,
    WEIGHTED_COUNT,
    priority_order,
    priority_ranks,
)
from repro.workloads.paper_example import build_paper_example
from repro.workloads.specint import build_benchmark
from repro.workloads.synthetic import generate_function

from tests.test_properties import _random_params


def _reference_order(problem, ddg, heuristic):
    """The heuristic order as computed before ranks were shared."""
    region = problem.region
    counts = {block.bid: region.exit_count_below(block) for block in region}

    def keys(sop):
        height = ddg.heights[sop.index]
        count = counts[sop.home.bid]
        weight = sop.home.weight
        return {
            DEP_HEIGHT: (height,),
            EXIT_COUNT: (count, height),
            GLOBAL_WEIGHT: (weight, height),
            WEIGHTED_COUNT: (weight, count, height),
        }[heuristic]

    return sorted(problem.sched_ops,
                  key=lambda s: tuple(-c for c in keys(s)) + (s.index,))


def _ranks_of(order):
    ranks = [0] * len(order)
    for position, sop in enumerate(order):
        ranks[sop.index] = position
    return ranks


def _assert_tier1_ranks_match_reference(fn):
    memo = RegionMemo()
    liveness = liveness_of(fn.cfg)
    regions = list(form_treegions(fn.cfg))
    for machine, heuristic, region in itertools.product(
            (VLIW_4U, VLIW_8U), HEURISTICS, regions):
        memo.schedule(region, machine, ScheduleOptions(heuristic=heuristic),
                      liveness)
    tables = [priorities for _ddg, priorities, _snapshot
              in memo._ddgs.values()]
    assert tables
    for priorities in tables:
        problem, ddg = priorities.problem, priorities.ddg
        # Every heuristic the memo scheduled was ranked once, here.
        assert set(priorities.ranks) == set(HEURISTICS)
        for heuristic in HEURISTICS:
            reference = _reference_order(problem, ddg, heuristic)
            assert priorities.ranks[heuristic] == _ranks_of(reference)
            assert priority_order(problem, ddg, heuristic,
                                  priorities.keys[heuristic]) == reference
            # The memo-off route (keys of one heuristic) agrees too.
            assert priority_ranks(problem, ddg, heuristic) == \
                _ranks_of(reference)


def test_paper_example_ranks_match_reference():
    _assert_tier1_ranks_match_reference(build_paper_example().entry_function)


def test_compress_ranks_match_reference():
    for fn in build_benchmark("compress").functions():
        _assert_tier1_ranks_match_reference(fn)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=100_000),
       equal_weights=st.booleans())
def test_random_cfg_ranks_match_reference(seed, equal_weights):
    fn = generate_function(_random_params(seed))
    if equal_weights:
        # One float weight everywhere: the weight components tie, so the
        # order falls through to heights and then to op index.
        for block in fn.cfg.blocks():
            block.weight = 0.1 + 0.2
    _assert_tier1_ranks_match_reference(fn)
