"""Region-level memoization of the scheduling pipeline.

The evaluation grid schedules the same regions over and over: the four
heuristic columns of one cell row share bit-identical prep/renaming
output and (per machine) bit-identical DDGs, and different cells — even
different runs — often schedule regions with identical *content*.  This
module exploits both, in two tiers:

**Tier 1 — in-process structural sharing** (``id(region)``-keyed,
scoped to one (benchmark, scheme) group by :meth:`RegionMemo.begin_group`)
is a cache in front of the scheduler's two halves: it keeps front-half
results (:func:`~repro.schedule.scheduler.prepare_problem`,
:func:`~repro.schedule.scheduler.build_problem_ddg`) and hands them to
the back half (:func:`~repro.schedule.scheduler.schedule_problem`).
The stage order lives in :mod:`repro.schedule.scheduler` alone.

* prep + renaming depend on the machine only through ``use_btr``
  (:mod:`repro.schedule.prep` reads nothing else from the model), so one
  prepared :class:`~repro.schedule.prep.ScheduleProblem` serves every
  machine of a row that agrees on it — both paper machines do.  Before
  each reuse :meth:`~repro.schedule.prep.ScheduleProblem.reset_placement`
  undoes the previous schedule's placement;
* the DDG and the four heuristics' priority keys
  (:func:`~repro.schedule.priorities.all_priority_keys`, handed to the
  back half) read the machine only through its latency table
  (:func:`~repro.schedule.fingerprint.latency_fingerprint`), so they are
  built once per (region, latency model) — 4U and 8U share one build.

**Tier 2 — content-addressed result memo** (global, optionally
disk-backed): the full pipeline result is a pure function of
``(region content, machine, heuristic, flags)``, keyed by
:func:`repro.schedule.fingerprint.region_fingerprint` ×
:func:`~repro.schedule.fingerprint.machine_fingerprint`.  A hit skips
the pipeline entirely and returns a :class:`RegionSummary` carrying
exactly what the engine consumes (weighted time, length, copy/merge/
speculation counts).  With an artifact store attached
(:meth:`RegionMemo.attach_store`), entries persist across processes
under :func:`repro.serve.store.region_key`.

**Bit-identity.**  Summaries reproduce the direct path exactly:

* ``weighted_time`` is *recomputed* on every hit from the live region's
  exit weights (``sum(exit.weight * cycle)`` in exit order — the same
  float accumulation as
  :attr:`~repro.schedule.schedule.RegionSchedule.weighted_time`), never
  stored, because the fingerprint quantizes weights with ``%g`` while
  the estimate uses full-precision floats;
* deterministic observability counters are preserved by *replay*: every
  miss runs under a private :class:`~repro.obs.metrics.MetricsRegistry`
  whose snapshot is stored with the entry (tier-1 entries store their
  build deltas too, merged into each reusing miss), and every hit merges
  the stored snapshot into the active registry — so memo-on, memo-off,
  serial, and parallel runs of one grid report identical
  ``deterministic_snapshot()``s.

**Bypasses** (served by :func:`~repro.schedule.scheduler.schedule_region`,
never cached): hyperblocks (a different pipeline), ``options.certify``
or an active lint collector (caller wants diagnostics, not numbers), and
non-default ``max_cycles``.  Dominator parallelism bypasses tier 1 only —
its merge step rewrites consumer operands, so a prepared problem is
single-use and each miss calls ``schedule_region`` fresh — but memoizes
fine at tier 2 (``dp`` is in the key).

Tier-2 keys assume the region's blocks/ops/weights do not change between
fingerprinting and scheduling — true for the engine, which forms fresh
regions per evaluation and never mutates IR while scheduling.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.ir.liveness import LivenessInfo
from repro.lint.collect import current_collector
from repro.machine.model import MachineModel
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    current_metrics,
    metrics_scope,
)
from repro.regions.region import Region
from repro.schedule.fingerprint import (
    latency_fingerprint,
    machine_fingerprint,
    region_fingerprint,
)
# Not called here; bound only because perfbench's tracing test checks
# that its wrappers replace this module's import-time binding.
from repro.schedule.prep import prepare_region  # noqa: F401
from repro.schedule.priorities import all_priority_keys
from repro.schedule.scheduler import (
    ScheduleOptions,
    build_problem_ddg,
    prepare_problem,
    schedule_problem,
    schedule_region,
)
from repro.util.timing import NULL_TIMER, StageTimer

#: Tier-2 entry bound; one entry is a few hundred bytes, so the default
#: caps the in-memory memo around a few tens of MiB worst case.
DEFAULT_MAX_ENTRIES = 1 << 16

_DEFAULT_MAX_CYCLES = ScheduleOptions().max_cycles


class RegionSummary:
    """What the engine consumes from one region's schedule.

    Attribute-compatible with the slice of
    :class:`~repro.schedule.schedule.RegionSchedule` the evaluation
    engine reads (``weighted_time``/``length``/``copy_count``/
    ``merged_count``/``speculated_count``), so cached and fresh regions
    flow through the same accumulation code.
    """

    __slots__ = ("weighted_time", "length", "copy_count", "merged_count",
                 "speculated_count")

    def __init__(self, weighted_time: float, length: int, copy_count: int,
                 merged_count: int, speculated_count: int):
        self.weighted_time = weighted_time
        self.length = length
        self.copy_count = copy_count
        self.merged_count = merged_count
        self.speculated_count = speculated_count

    def __repr__(self) -> str:
        return (f"<RegionSummary len={self.length} "
                f"time={self.weighted_time:g}>")


class _Level2Entry:
    """A memoized pipeline result plus its metric replay snapshot."""

    __slots__ = ("exit_cycles", "length", "copy_count", "merged_count",
                 "speculated_count", "snapshot", "size")

    def __init__(self, exit_cycles: Tuple[int, ...], length: int,
                 copy_count: int, merged_count: int, speculated_count: int,
                 snapshot: Dict[str, object], size: int):
        self.exit_cycles = exit_cycles
        self.length = length
        self.copy_count = copy_count
        self.merged_count = merged_count
        self.speculated_count = speculated_count
        self.snapshot = snapshot
        self.size = size

    def payload(self) -> Dict[str, object]:
        return {
            "kind": "region",
            "exit_cycles": list(self.exit_cycles),
            "length": self.length,
            "copy_count": self.copy_count,
            "merged_count": self.merged_count,
            "speculated_count": self.speculated_count,
            "snapshot": self.snapshot,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "_Level2Entry":
        entry = cls(
            exit_cycles=tuple(int(c) for c in payload["exit_cycles"]),
            length=int(payload["length"]),
            copy_count=int(payload["copy_count"]),
            merged_count=int(payload["merged_count"]),
            speculated_count=int(payload["speculated_count"]),
            snapshot=dict(payload["snapshot"]),
            size=0,
        )
        entry.size = len(json.dumps(entry.payload(), sort_keys=True))
        return entry


def _build_shared(step, *args) -> Tuple:
    """Run one tier-1 front-half step under a private registry.

    Returns the step's results plus the registry's snapshot, which is
    merged into every miss that reuses them so the counters match a
    fresh pipeline run.
    """
    build = MetricsRegistry()
    with metrics_scope(build):
        results = step(*args)
    return results + (build.deterministic_snapshot(),)


def _ddg_and_keys(problem, copies, machine, liveness, timer) -> Tuple:
    """The DDG plus every heuristic's priority keys (shared by a row)."""
    ddg = build_problem_ddg(problem, copies, machine, liveness, timer)
    with timer.stage("priority"):
        return ddg, all_priority_keys(problem, ddg)


class RegionMemo:
    """Two-tier memo for :func:`repro.schedule.scheduler.schedule_region`.

    One instance per process is the intended shape (see
    :func:`global_memo`); tier 1 must be scoped to a formation lifetime
    with :meth:`begin_group`, tier 2 is content-addressed and safe
    forever.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 store=None) -> None:
        self.max_entries = max_entries
        #: Tier 2: (region fp, machine fp, heuristic, dp, sc) -> entry,
        #: LRU-ordered (oldest first).
        self._entries: "OrderedDict[Tuple, _Level2Entry]" = OrderedDict()
        #: Tier 1, cleared per group: (problem, copies, snapshot) per
        #: (region, use_btr, sc) and (ddg, keys, snapshot) per
        #: (region, latency model, sc).
        self._problems: Dict[Tuple, Tuple] = {}
        self._ddgs: Dict[Tuple, Tuple] = {}
        #: id(machine) -> (machine, fingerprint); the strong reference
        #: pins the id, so reuse cannot alias a collected model.
        self._machine_fps: Dict[int, Tuple[MachineModel, str]] = {}
        self._latency_fps: Dict[int, Tuple[MachineModel, str]] = {}
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.store_hits = 0
        self.bytes = 0
        self.store = store

    # ------------------------------------------------------------------

    def begin_group(self) -> None:
        """Reset tier-1 sharing (call when a new formation begins —
        ``id(region)`` keys must not outlive their region objects)."""
        self._problems.clear()
        self._ddgs.clear()

    def attach_store(self, store) -> None:
        """Back tier 2 with an artifact store (``None`` detaches)."""
        self.store = store

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "store_hits": self.store_hits,
            "bytes": self.bytes,
            "entries": len(self._entries),
        }

    # ------------------------------------------------------------------

    def _machine_fp(self, machine: MachineModel) -> str:
        cached = self._machine_fps.get(id(machine))
        if cached is not None:
            return cached[1]
        fingerprint = machine_fingerprint(machine)
        self._machine_fps[id(machine)] = (machine, fingerprint)
        return fingerprint

    def _latency_fp(self, machine: MachineModel) -> str:
        cached = self._latency_fps.get(id(machine))
        if cached is not None:
            return cached[1]
        fingerprint = latency_fingerprint(machine)
        self._latency_fps[id(machine)] = (machine, fingerprint)
        return fingerprint

    def _remember(self, key: Tuple, entry: _Level2Entry) -> None:
        entries = self._entries
        previous = entries.pop(key, None)
        if previous is not None:
            self.bytes -= previous.size
        entries[key] = entry
        self.bytes += entry.size
        while len(entries) > self.max_entries:
            _, evicted = entries.popitem(last=False)
            self.bytes -= evicted.size

    @staticmethod
    def _bypass(region: Region, options: ScheduleOptions) -> bool:
        from repro.regions.hyperblock import Hyperblock

        return (
            isinstance(region, Hyperblock)
            or options.certify
            or current_collector() is not None
            or options.max_cycles != _DEFAULT_MAX_CYCLES
        )

    # ------------------------------------------------------------------

    def schedule(
        self,
        region: Region,
        machine: MachineModel,
        options: ScheduleOptions,
        liveness: LivenessInfo,
        timer: StageTimer = NULL_TIMER,
    ):
        """Schedule ``region`` through the memo.

        Returns a full :class:`~repro.schedule.schedule.RegionSchedule`
        on a miss (or bypass) and a :class:`RegionSummary` on a hit;
        both expose the accumulation attributes the engine reads.
        """
        if self._bypass(region, options):
            self.bypasses += 1
            return schedule_region(region, machine, options, liveness,
                                   timer=timer)

        fingerprint = region_fingerprint(region, liveness)
        key = (
            fingerprint,
            self._machine_fp(machine),
            options.heuristic,
            options.dominator_parallelism,
            options.schedule_copies,
        )
        # The exact backend is a different pure function of the same
        # inputs (and its result additionally depends on the node
        # budget), so its entries key separately; heuristic-backend
        # keys keep their historical five-part shape, so existing
        # stores stay valid.
        if options.backend != "heuristic":
            key = key + (options.backend, options.exact_budget)
        outer = current_metrics()

        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        elif self.store is not None:
            payload = self.store.get_payload(self._store_key(key))
            if payload is not None and payload.get("kind") == "region":
                try:
                    entry = _Level2Entry.from_payload(payload)
                except (KeyError, TypeError, ValueError):
                    entry = None
                if entry is not None:
                    self.store_hits += 1
                    self._remember(key, entry)

        if entry is not None:
            self.hits += 1
            if outer is not NULL_METRICS:
                outer.merge_snapshot(entry.snapshot)
            # Weighted time is recomputed from the *live* exit weights in
            # exit order — the fingerprint's %g quantization never leaks
            # into the estimate, and the float accumulation matches
            # RegionSchedule.weighted_time exactly.
            weighted_time = sum(
                exit.weight * cycle
                for exit, cycle in zip(region.exits(), entry.exit_cycles)
            )
            return RegionSummary(
                weighted_time=weighted_time,
                length=entry.length,
                copy_count=entry.copy_count,
                merged_count=entry.merged_count,
                speculated_count=entry.speculated_count,
            )

        self.misses += 1
        inner = MetricsRegistry()
        with metrics_scope(inner):
            if options.dominator_parallelism:
                # The dp merge step rewrites consumer operands in place,
                # so the prepared problem is single-use: run the full
                # reference pipeline fresh (tier 2 still caches it).
                schedule = schedule_region(region, machine, options,
                                           liveness, timer=timer)
            else:
                schedule = self._schedule_shared(region, machine, options,
                                                 liveness, timer)
        snapshot = inner.deterministic_snapshot()
        if outer is not NULL_METRICS:
            outer.merge_snapshot(snapshot)

        entry = _Level2Entry(
            exit_cycles=tuple(record.cycle for record in schedule.exits),
            length=schedule.length,
            copy_count=len(schedule.copies),
            merged_count=len(schedule.merged),
            speculated_count=schedule.speculated_count,
            snapshot=snapshot,
            size=0,
        )
        entry.size = len(json.dumps(entry.payload(), sort_keys=True))
        self._remember(key, entry)
        if self.store is not None:
            self.store.put_payload(self._store_key(key), entry.payload(),
                                   defer_index=True)
        return schedule

    @staticmethod
    def _store_key(key: Tuple) -> str:
        """The content-addressed store key for one tier-2 memo key."""
        from repro.serve.store import region_key

        if len(key) == 5:
            return region_key(*key)
        return region_key(*key[:5], backend=key[5], exact_budget=key[6])

    # ------------------------------------------------------------------

    def _schedule_shared(self, region, machine, options, liveness, timer):
        """The scheduler's back half on tier-1 shared front-half results."""
        active = current_metrics()
        sc = options.schedule_copies

        problem_key = (id(region), machine.use_btr, sc)
        shared = self._problems.get(problem_key)
        if shared is None:
            shared = self._problems[problem_key] = _build_shared(
                prepare_problem, region, machine, liveness, sc, timer)
        else:
            shared[0].reset_placement()
        problem, copies, snapshot = shared
        if active is not NULL_METRICS:
            active.merge_snapshot(snapshot)

        # Keyed by latency fingerprint, not full machine fingerprint:
        # DDG edges and priority keys read the machine only through
        # latencies, so 4U and 8U share one DDG per region.
        ddg_key = (id(region), self._latency_fp(machine), sc)
        shared = self._ddgs.get(ddg_key)
        if shared is None:
            shared = self._ddgs[ddg_key] = _build_shared(
                _ddg_and_keys, problem, copies, machine, liveness, timer)
        ddg, keys, snapshot = shared
        if active is not NULL_METRICS:
            active.merge_snapshot(snapshot)

        return schedule_problem(problem, ddg, copies, machine, liveness,
                                options, timer, keys=keys)


# ----------------------------------------------------------------------
# The process-global memo (what the engine uses by default)

_GLOBAL_MEMO: Optional[RegionMemo] = None


def global_memo() -> RegionMemo:
    """The process-wide region memo (created on first use)."""
    global _GLOBAL_MEMO
    if _GLOBAL_MEMO is None:
        _GLOBAL_MEMO = RegionMemo()
    return _GLOBAL_MEMO


def reset_global_memo() -> None:
    """Drop the process-wide memo (tests; reclaim memory)."""
    global _GLOBAL_MEMO
    _GLOBAL_MEMO = None
