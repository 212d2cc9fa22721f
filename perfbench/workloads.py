"""The in-process workloads: cold grid, warm grid, direct certification.

Each workload generates its programs from the benchmark seed, times its
operations with nothing but the clock (no metrics registry, stage timer
or tracer is passed, as a user calls the API by default), checks every
output, and optionally repeats one unit of work under the layer tracer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import tracing
from perfbench.clock import NormalizedClock, calibrate, normalize
from perfbench.stats import geomean, percentile

#: Set-ups per run; ``setup_s`` is their median.  A warm-grid set-up
#: fills the memo with a whole cold pass, so it runs two.
SETUP_REPEATS = 3
WARM_SETUPS = 2
TD = "treegion-td:2.0"
CERTIFY_MACHINE = "8U"


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    report: List[str] = dataclasses.field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        """Count ``count`` failed operations for one named problem."""
        self.failed += count
        self.problems.append(problem)


def make_programs(seed: int) -> Dict[str, object]:
    """The eight SPECint95 stand-ins under a seeded input profile.

    Each preset's own program keeps its structure, and so the paper's
    ijpeg, gcc, perl and vortex pathologies; the seed draws a different
    input set for it, the way the paper's profile-variation study does
    (:func:`repro.evaluation.variation.perturb_profile`: log-normal
    jitter of branch probabilities, occasional flips, flow re-solved).
    Re-seeding the generator instead redraws the structure, and with it
    the cost: a re-seeded gcc of the same size certifies in anything
    from 1.3 s to 4.6 s, which no bound could absorb.
    """
    from repro.evaluation.variation import perturb_profile
    from repro.workloads import specint, synthetic

    programs = {}
    for index, (name, params) in enumerate(specint.SPECINT95.items()):
        program = synthetic.generate_program(params)
        for function in program.functions():
            perturb_profile(function.cfg, seed * 16 + index)
        programs[name] = program
    return programs


def grid_groups() -> List[List[object]]:
    """The 192-cell default grid as its (benchmark, scheme) groups, in
    grid order."""
    from repro.evaluation.engine import default_grid

    groups: "OrderedDict[Tuple[str, str], List[object]]" = OrderedDict()
    for cell in default_grid():
        groups.setdefault((cell.benchmark, cell.scheme), []).append(cell)
    return list(groups.values())


def run_grid_pass(programs, memo, clock: Optional[NormalizedClock] = None
                  ) -> Tuple[list, float]:
    """Evaluate the whole grid group by group against ``memo``; returns
    the results and the measured seconds.

    The serial engine already works group by group with one memo, so
    splitting the call changes neither the work nor the results; it lets
    ``clock`` normalise each group by the kernel runs next to it.
    """
    import repro.api as api

    results: list = []
    elapsed = 0.0
    for cells in grid_groups():
        start = time.perf_counter()
        results.extend(api.evaluate_grid(cells, programs=programs,
                                         region_memo=memo))
        seconds = time.perf_counter() - start
        elapsed += seconds
        if clock is not None:
            clock.add(seconds)
    return results, elapsed


def timed_setup(setup: Callable[[], object], times: List[float]):
    """Run one set-up, appending its host-normalised duration."""
    before = calibrate()
    start = time.perf_counter()
    value = setup()
    seconds = time.perf_counter() - start
    times.append(normalize(seconds, before, calibrate()))
    return value


def throughput_report(ops: int, clock: NormalizedClock) -> str:
    return (f"raw: {ops / sum(clock.raw):.4g} ops/s; times normalised by "
            f"{clock.total / sum(clock.raw):.3f}")


def quality(results: Sequence[object]) -> Tuple[float, float]:
    """(geomean bb/td time ratio, geomean td code expansion) over every
    (benchmark, machine, heuristic) that has both a bb and a td cell."""
    by_cell = {(r.cell.benchmark, r.cell.scheme, r.cell.machine,
                r.cell.heuristic): r for r in results}
    speedups, expansions = [], []
    for (bench, scheme, machine, heuristic), result in sorted(by_cell.items()):
        if scheme != TD:
            continue
        base = by_cell.get((bench, "bb", machine, heuristic))
        if base is None:
            continue
        speedups.append(base.time / result.time)
        expansions.append(result.code_expansion)
    return geomean(speedups), geomean(expansions)


def digest(payload: object) -> str:
    """Short stable hash of a JSON-able value (printed so two runs of one
    seed can be compared)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def results_digest(results: Sequence[object]) -> str:
    return digest([r.as_dict() | {"lengths": list(r.schedule_lengths)}
                   for r in results])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(warm: Sequence[float], cold: Sequence[float]
                    ) -> Dict[str, float]:
    """The four latency metrics in ms, of warm and cold units of work.
    A workload with units of one kind only reports that kind under both
    names."""
    warm = warm or cold
    cold = cold or warm
    return {
        "warm_p50_ms": percentile(warm, 50) * 1e3,
        "warm_p99_ms": percentile(warm, 99) * 1e3,
        "cold_p50_ms": percentile(cold, 50) * 1e3,
        "cold_p90_ms": percentile(cold, 90) * 1e3,
    }


# ----------------------------------------------------------------------
# Traced units


class TracedPhase:
    """Install the wrappers, time one unit, fold the table."""

    def __init__(self):
        self.tracer = tracing.Tracer()
        self.installation = tracing.Installation(self.tracer)
        self.wall = 0.0

    def __enter__(self) -> "TracedPhase":
        from repro.ir.analysis_cache import GLOBAL_CACHE

        self._calibration = calibrate()
        self.installation.install()
        self._cache = (GLOBAL_CACHE.hits, GLOBAL_CACHE.misses)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        from repro.ir.analysis_cache import GLOBAL_CACHE

        self.wall = time.perf_counter() - self._start
        self.installation.uninstall()
        self.normalized_wall = normalize(self.wall, self._calibration,
                                         calibrate())
        self.cache_hits = GLOBAL_CACHE.hits - self._cache[0]
        self.cache_misses = GLOBAL_CACHE.misses - self._cache[1]

    def metrics(self, untraced: float, memo_delta=None,
                memo_final=None, lint_counts=None
                ) -> Tuple[Dict[str, float], str]:
        """Per-layer metrics and the printed table; ``untraced`` is the
        host-normalised wall time of one untraced unit of the same work."""
        snapshot = self.tracer.snapshot()
        rows = tracing.local_table(snapshot, self.wall)
        out = tracing.table_metrics(
            rows, self.wall, tracing.ratio(self.normalized_wall, untraced))
        out.update(extras(snapshot, self.cache_hits, self.cache_misses,
                          memo_delta, memo_final, lint_counts))
        table = tracing.format_table(rows, self.wall, "layer table")
        if self.installation.missing:
            table += "\nmissing targets: " + \
                ", ".join(self.installation.missing)
        return out, table


def extras(snapshot, cache_hits, cache_misses, memo_delta=None,
           memo_final=None, lint_counts=None, fleet=None
           ) -> Dict[str, float]:
    """The extra per-layer counts of one traced phase."""
    counts, calls = snapshot["counts"], snapshot["calls"]
    out = {name: 0.0 for name in tracing.EXTRAS
           if not name.startswith(("remainder.", "trace."))}
    for name in ("regions.formed", "schedule.ddg.nodes", "schedule.ddg.edges",
                 "schedule.renaming.registers_minted",
                 "schedule.list_scheduler.cycles", "serve.wire.bytes",
                 "serve.store.hits", "serve.store.bytes_written"):
        out[name] = counts.get(name, 0)
    out["ir.analysis_cache.hit_ratio"] = tracing.ratio(
        cache_hits, cache_hits + cache_misses)
    if memo_delta is not None:
        hits, misses = memo_delta
        out["schedule.memo.tier2_hit_ratio"] = tracing.ratio(
            hits, hits + misses)
        if misses:
            out["schedule.memo.prep_reuse_ratio"] = \
                1 - calls.get("schedule.prep", 0) / misses
            out["schedule.memo.ddg_reuse_ratio"] = \
                1 - calls.get("schedule.ddg", 0) / misses
    if memo_final is not None:
        out["schedule.memo.entries"] = memo_final[0]
        out["schedule.memo.bytes"] = memo_final[1]
    if lint_counts is not None:
        out["lint.errors"] = lint_counts.get("error", 0)
        out["lint.warnings"] = lint_counts.get("warning", 0)
        out["lint.infos"] = lint_counts.get("info", 0)
    if fleet is not None:
        out.update(fleet)
    return out


# ----------------------------------------------------------------------
# grid_cold


def _check_global_state(outcome: Outcome, ops: int) -> None:
    """A cold grid must never reach the process-global memo or the
    built-in benchmark cache."""
    from repro.schedule.memo import global_memo
    from repro.workloads import specint

    stats = global_memo().stats()
    if stats["hits"] or stats["misses"] or stats["bypasses"]:
        outcome.fail(ops, f"the global region memo was used: {stats}")
    if getattr(specint, "_cache", {}):
        outcome.fail(ops, "the build_benchmark cache was filled")


def grid_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    """Fresh programs and a fresh memo for every pass, so every region is
    prepared, renamed, DDG-built and list-scheduled."""
    from repro.schedule.memo import RegionMemo

    outcome = Outcome()
    setup_times: List[float] = []
    # Every pass takes a set of its own; the program never sees one twice.
    program_sets = [timed_setup(lambda: make_programs(seed), setup_times)
                    for _ in range(SETUP_REPEATS)]

    clock = NormalizedClock()
    pass_times: List[float] = []
    reference = None
    reference_stats = None
    timed = 0.0
    # At least two passes, so the second can be checked against the first.
    while timed < seconds or len(pass_times) < 2:
        programs = program_sets.pop() if program_sets else \
            timed_setup(lambda: make_programs(seed), setup_times)
        memo = RegionMemo()
        results, elapsed = run_grid_pass(programs, memo, clock)
        pass_times.append(clock.lap())
        del programs
        timed += elapsed
        outcome.attempted += len(results)
        stats = memo.stats()
        if stats["store_hits"]:
            outcome.fail(len(results), f"cold grid hit a store: {stats}")
        if reference is None:
            reference, reference_stats = results, stats
            continue
        wrong = sum(a != b for a, b in zip(results, reference))
        if wrong:
            outcome.fail(wrong, "a cold pass differs from the first pass")
        if stats != reference_stats:
            outcome.fail(len(results), "memo counters differ between "
                         f"cold passes: {stats} vs {reference_stats}")
    passes = len(pass_times)
    _check_global_state(outcome, outcome.attempted)

    speedup, expansion = quality(reference)
    outcome.metrics = {
        "setup_s": percentile(setup_times, 50),
        "ops_per_s": outcome.attempted / clock.total,
        **latency_metrics([], pass_times),
        "td_speedup_vs_bb": speedup,
        "td_code_expansion": expansion,
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.report.append(
        f"passes {passes} (all cold), memo {reference_stats}")
    outcome.report.append(throughput_report(outcome.attempted, clock))
    outcome.report.append(f"results digest {results_digest(reference)}")

    if trace:
        with TracedPhase() as phase:
            programs = make_programs(seed)
            memo = RegionMemo()
            results, _ = run_grid_pass(programs, memo)
        outcome.attempted += len(results)
        wrong = sum(a != b for a, b in zip(results, reference))
        if wrong:
            outcome.fail(wrong, "the traced cold pass differs")
        stats = memo.stats()
        # The traced unit generates its programs too.
        untraced = clock.total / passes + percentile(setup_times, 50)
        outcome.layers, table = phase.metrics(
            untraced, memo_delta=(stats["hits"], stats["misses"]),
            memo_final=(stats["entries"], stats["bytes"]))
        outcome.report.append(table)
    return outcome


# ----------------------------------------------------------------------
# grid_warm


def grid_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    """The grid against the memo set-up filled: every region is a tier-2
    hit, so formation, fingerprinting, memo lookup and the engine do the
    work and list scheduling does none."""
    from repro.schedule.memo import RegionMemo

    outcome = Outcome()
    setup_times: List[float] = []
    fill_clock = NormalizedClock()
    fill_times: List[float] = []
    reference = None

    def setup():
        programs = make_programs(seed)
        memo = RegionMemo()
        results, _ = run_grid_pass(programs, memo, fill_clock)
        fill_times.append(fill_clock.lap())
        return programs, memo, results

    for _ in range(WARM_SETUPS):
        programs = memo = None  # free the previous memo before refilling
        programs, memo, results = timed_setup(setup, setup_times)
        if reference is None:
            reference = results
        elif results != reference:
            outcome.fail(len(results), "set-up fills differ")

    clock = NormalizedClock()
    pass_times: List[float] = []
    timed = 0.0
    before = memo.stats()
    while timed < seconds or not pass_times:
        results, elapsed = run_grid_pass(programs, memo, clock)
        pass_times.append(clock.lap())
        timed += elapsed
        outcome.attempted += len(results)
        wrong = sum(a != b for a, b in zip(results, reference))
        if wrong:
            outcome.fail(wrong, "a warm pass differs from the cold fill")
    after = memo.stats()
    if after["misses"] != before["misses"]:
        outcome.fail(outcome.attempted, "the warm passes missed the memo "
                     f"{after['misses'] - before['misses']} times")
    passes = len(pass_times)

    speedup, expansion = quality(reference)
    outcome.metrics = {
        "setup_s": percentile(setup_times, 50),
        "ops_per_s": outcome.attempted / clock.total,
        **latency_metrics(pass_times, fill_times),
        "td_speedup_vs_bb": speedup,
        "td_code_expansion": expansion,
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.report.append(
        f"passes {passes} warm, {len(fill_times)} cold (the set-up fills), "
        f"memo {after}")
    outcome.report.append(throughput_report(outcome.attempted, clock))
    outcome.report.append(f"results digest {results_digest(reference)}")

    if trace:
        before = memo.stats()
        with TracedPhase() as phase:
            results, _ = run_grid_pass(programs, memo)
        outcome.attempted += len(results)
        if results != reference:
            outcome.fail(len(results), "the traced warm pass differs")
        stats = memo.stats()
        outcome.layers, table = phase.metrics(
            clock.total / passes,
            memo_delta=(stats["hits"] - before["hits"],
                        stats["misses"] - before["misses"]),
            memo_final=(stats["entries"], stats["bytes"]))
        outcome.report.append(table)
    return outcome


# ----------------------------------------------------------------------
# certify_direct


def certify_round(programs, heuristic: str,
                  clock: Optional[NormalizedClock], outcome: Outcome,
                  severities: Optional[Dict[str, int]] = None
                  ) -> Dict[str, list]:
    """Lint and certify every program once under ``heuristic``."""
    import repro.api as api
    from repro.schedule.scheduler import ScheduleOptions

    diagnostics = {}
    for name, program in programs.items():
        start = time.perf_counter()
        report = api.lint_program(
            program, schedule=True, scheme=TD, machine_model=CERTIFY_MACHINE,
            options=ScheduleOptions(heuristic=heuristic))
        if clock is not None:
            clock.add(time.perf_counter() - start)
        outcome.attempted += 1
        errors = [d for d in report.diagnostics
                  if d.rule.startswith("sched.")
                  and d.severity.value == "error"]
        if errors:
            outcome.fail(1, f"{name}/{heuristic}: {len(errors)} sched errors, "
                         f"first {errors[0].rule}: {errors[0].message}")
        if severities is not None:
            for d in report.diagnostics:
                severities[d.severity.value] = \
                    severities.get(d.severity.value, 0) + 1
        diagnostics[name] = sorted((d.rule, d.severity.value, d.block)
                                   for d in report.diagnostics)
    return diagnostics


def certify_direct(seed: int, seconds: float, trace: bool) -> Outcome:
    """``lint_program(schedule=True)`` per (program, heuristic): the open
    lint scope bypasses the memo, so the direct ``schedule_region``
    stage sequence and the schedule rules do the work."""
    from repro.schedule.memo import RegionMemo
    from repro.schedule.priorities import HEURISTICS

    outcome = Outcome()
    setup_times: List[float] = []
    for _ in range(SETUP_REPEATS):
        programs = timed_setup(lambda: make_programs(seed), setup_times)

    clock = NormalizedClock()
    round_times: List[float] = []
    signatures = {}
    rounds = 0
    while sum(clock.raw) < seconds or not round_times:
        heuristic = HEURISTICS[rounds % len(HEURISTICS)]
        signature = certify_round(programs, heuristic, clock, outcome)
        round_times.append(clock.lap())
        if heuristic in signatures and signatures[heuristic] != signature:
            outcome.fail(len(programs), f"certifying twice under "
                         f"{heuristic} gave different diagnostics")
        signatures[heuristic] = signature
        rounds += 1

    import repro.api as api
    from repro.evaluation.engine import GridCell

    cells = [GridCell(name, scheme, CERTIFY_MACHINE, heuristic)
             for name in programs for scheme in ("bb", TD)
             for heuristic in HEURISTICS]
    speedup, expansion = quality(api.evaluate_grid(
        cells, programs=programs, region_memo=RegionMemo()))
    outcome.metrics = {
        "setup_s": percentile(setup_times, 50),
        "ops_per_s": outcome.attempted / clock.total,
        **latency_metrics([], round_times),
        "td_speedup_vs_bb": speedup,
        "td_code_expansion": expansion,
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.report.append(f"rounds {rounds} (all cold)")
    outcome.report.append(throughput_report(outcome.attempted, clock))
    outcome.report.append(f"diagnostics digest {digest(signatures)}")

    if trace:
        severities: Dict[str, int] = {}
        heuristic = HEURISTICS[0]
        with TracedPhase() as phase:
            signature = certify_round(programs, heuristic, None, outcome,
                                      severities)
        if signature != signatures[heuristic]:
            outcome.fail(len(programs), "the traced round differs")
        outcome.layers, table = phase.metrics(
            clock.total / rounds, lint_counts=severities)
        outcome.report.append(table)
    return outcome


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "grid_cold": grid_cold,
    "grid_warm": grid_warm,
    "certify_direct": certify_direct,
}
