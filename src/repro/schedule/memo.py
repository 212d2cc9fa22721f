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
* the DDG and the heuristics' priority ranks
  (a :class:`~repro.schedule.priorities.PriorityRanks`, handed to the
  back half, which fills in each heuristic's ranks on first request)
  read the machine only through its latency table
  (:func:`~repro.schedule.fingerprint.latency_fingerprint`), so they are
  built once per (region, latency model) — 4U and 8U share one DDG and
  one sort per heuristic.

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
* deterministic counters are preserved by *replay*.  An entry keeps
  the ``(name, value)`` pairs its miss wrote outside
  :data:`~repro.schedule.scheduler.SCHEDULE_COUNTERS` — the front
  half's (recorded once per tier-1 build) and ``exact.*`` — and a hit
  adds them back, then re-derives the schedule counters from its typed
  fields with :func:`~repro.schedule.scheduler.record_schedule_counters`,
  the direct path's own call.  Pairs are exactly what was written, so
  no counter appears, or goes missing, at 0 where the direct route
  differs.

Entries are sized from their shape, never serialized to be sized; a
store payload of any other shape is a miss that recomputes and
overwrites it.  The memo's own work is traced as ``memo.lookup``,
``memo.replay`` and ``memo.store``.

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

from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple

from repro.ir.liveness import LivenessInfo
from repro.lint.collect import current_collector
from repro.machine.model import MachineModel
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    current_metrics,
    metrics_scope,
)
from repro.obs.tracer import span
from repro.regions.hyperblock import Hyperblock
from repro.regions.region import Region
from repro.schedule.fingerprint import (
    latency_fingerprint,
    machine_fingerprint,
    region_fingerprint,
)
# Not called here; bound only because perfbench's tracing test checks
# that its wrappers replace this module's import-time binding.
from repro.schedule.prep import prepare_region  # noqa: F401
from repro.schedule.priorities import PriorityRanks
from repro.schedule.scheduler import (
    SCHEDULE_COUNTERS,
    ScheduleOptions,
    build_problem_ddg,
    prepare_problem,
    record_schedule_counters,
    schedule_problem,
    schedule_region,
)

#: Tier-2 entry bound.  ``stats()["bytes"]`` accounts ~190 payload
#: bytes per entry on the paper grid; in memory an entry and its key
#: take ~350, so the default caps the memo around 23 MiB.
DEFAULT_MAX_ENTRIES = 1 << 16

_DEFAULT_MAX_CYCLES = ScheduleOptions().max_cycles

#: Entry size fitted to the store payload's JSON length: a constant
#: plus a term per exit cycle and per counter pair.
_ENTRY_BYTES, _EXIT_BYTES, _COUNTER_BYTES = 76, 4, 34


class RegionSummary(NamedTuple):
    """What the engine consumes from one region's schedule.

    Attribute-compatible with the slice of
    :class:`~repro.schedule.schedule.RegionSchedule` the evaluation
    engine reads, so cached and fresh regions flow through the same
    accumulation code.
    """

    weighted_time: float
    length: int
    copy_count: int
    merged_count: int
    speculated_count: int


class _Level2Entry(NamedTuple):
    """A memoized pipeline result: typed fields plus the counter pairs
    outside :data:`~repro.schedule.scheduler.SCHEDULE_COUNTERS`."""

    exit_cycles: Tuple[int, ...]
    length: int
    copy_count: int
    merged_count: int
    speculated_count: int
    counters: Tuple[Tuple[str, int], ...]

    @property
    def size(self) -> int:
        return (_ENTRY_BYTES + _EXIT_BYTES * len(self.exit_cycles)
                + _COUNTER_BYTES * len(self.counters))

    def replay(self, metrics) -> None:
        """Write the counters the miss that built this entry wrote."""
        for name, value in self.counters:
            metrics.inc(name, value)
        record_schedule_counters(self, metrics)

    def payload(self) -> Dict[str, object]:
        return {**self._asdict(), "kind": "region",
                "exit_cycles": list(self.exit_cycles),
                "counters": dict(self.counters)}

    @classmethod
    def from_payload(cls, payload, exits: int) -> "_Level2Entry":
        """The entry of a region with ``exits`` exits from its store
        payload; ValueError on any other shape (older formats too)."""
        fields = {key: value for key, value in payload.items()
                  if key not in ("schema", "key")}  # the store's stamps
        if fields.pop("kind", None) != "region" or fields.keys() != set(
                cls._fields):
            raise ValueError("not a region payload of this format")
        cycles, counters = fields["exit_cycles"], fields["counters"]
        typed = [fields[name] for name in cls._fields[1:-1]]
        # type() is int, not isinstance: JSON booleans are not counts.
        if not (isinstance(cycles, list) and len(cycles) == exits
                and isinstance(counters, dict)
                and SCHEDULE_COUNTERS.isdisjoint(counters)
                and all(type(value) is int for value in
                        (*cycles, *typed, *counters.values()))):
            raise ValueError("malformed region payload")
        return cls(tuple(cycles), *typed, tuple(counters.items()))


def _build_shared(step, *args) -> Tuple:
    """Run one tier-1 front-half step under a private registry; returns
    its results plus the counter pairs it wrote, which every miss that
    reuses the results replays."""
    build = MetricsRegistry()
    with metrics_scope(build):
        results = step(*args)
    return results + (tuple(build.counters.items()),)


def _ddg_and_priorities(problem, copies, machine, liveness) -> Tuple:
    """The DDG plus its (empty) priority rank table, shared by a row."""
    ddg = build_problem_ddg(problem, copies, machine, liveness)
    return ddg, PriorityRanks(problem, ddg)


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
        #: Tier 1, cleared per group: (problem, copies, counter pairs)
        #: per (region, use_btr, sc) and (ddg, priorities, counter pairs)
        #: per (region, latency model, sc).
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
        if cached is None:
            cached = self._machine_fps[id(machine)] = (
                machine, machine_fingerprint(machine))
        return cached[1]

    def _latency_fp(self, machine: MachineModel) -> str:
        cached = self._latency_fps.get(id(machine))
        if cached is None:
            cached = self._latency_fps[id(machine)] = (
                machine, latency_fingerprint(machine))
        return cached[1]

    def _remember(self, key: Tuple, entry: _Level2Entry) -> None:
        """Add a new tier-2 entry (``key`` is never present yet)."""
        entries = self._entries
        entries[key] = entry
        self.bytes += entry.size
        while len(entries) > self.max_entries:
            _, evicted = entries.popitem(last=False)
            self.bytes -= evicted.size

    @staticmethod
    def _bypass(region: Region, options: ScheduleOptions) -> bool:
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
    ):
        """Schedule ``region`` through the memo.

        Returns a full :class:`~repro.schedule.schedule.RegionSchedule`
        on a miss (or bypass) and a :class:`RegionSummary` on a hit;
        both expose the accumulation attributes the engine reads.
        """
        if self._bypass(region, options):
            self.bypasses += 1
            return schedule_region(region, machine, options, liveness)

        with span("memo.lookup"):
            with span("fingerprint"):
                fingerprint = region_fingerprint(region, liveness)
            key = (fingerprint, self._machine_fp(machine), options.heuristic,
                   options.dominator_parallelism, options.schedule_copies)
            # The exact backend is a different pure function of the same
            # inputs (and its result additionally depends on the node
            # budget), so its entries key separately.
            if options.backend != "heuristic":
                key = key + (options.backend, options.exact_budget)
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            elif self.store is not None:
                entry = self._revive(key, len(region.exits()))
        outer = current_metrics()

        if entry is not None:
            self.hits += 1
            with span("memo.replay"):
                if outer is not NULL_METRICS:
                    entry.replay(outer)
                # From the *live* exit weights in exit order: the same
                # float accumulation as RegionSchedule.weighted_time,
                # free of the fingerprint's %g quantization.
                weighted_time = sum(
                    exit.weight * cycle
                    for exit, cycle in zip(region.exits(), entry.exit_cycles)
                )
                return RegionSummary(weighted_time, *entry[1:5])

        self.misses += 1
        if options.dominator_parallelism or options.backend != "heuristic":
            # The dp merge step rewrites consumer operands in place, so
            # a prepared problem is single-use: run the reference
            # pipeline fresh.  The exact back half writes counters of
            # its own (exact.*).  Record either privately.
            recorded = MetricsRegistry()
            with metrics_scope(recorded):
                schedule = (
                    schedule_region(region, machine, options, liveness)
                    if options.dominator_parallelism else
                    self._schedule_shared(region, machine, options,
                                          liveness)[0])
            outer.merge(recorded)
            counters = tuple(item for item in recorded.counters.items()
                             if item[0] not in SCHEDULE_COUNTERS)
        else:
            # The back half writes only the schedule counters, straight
            # into the caller's registry.
            schedule, counters = self._schedule_shared(region, machine,
                                                       options, liveness)

        with span("memo.store"):
            entry = _Level2Entry(
                tuple([record.cycle for record in schedule.exits]),
                schedule.length, schedule.copy_count, schedule.merged_count,
                schedule.speculated_count, counters)
            self._remember(key, entry)
            if self.store is not None:
                self.store.put_payload(self._store_key(key), entry.payload(),
                                       defer_index=True)
        return schedule

    def _revive(self, key: Tuple, exits: int) -> Optional[_Level2Entry]:
        """The store's entry under ``key``; any other shape is a miss,
        which the recompute overwrites under the same key."""
        payload = self.store.get_payload(self._store_key(key))
        if payload is None:
            return None
        try:
            entry = _Level2Entry.from_payload(payload, exits)
        except ValueError:
            return None
        self.store_hits += 1
        self._remember(key, entry)
        return entry

    @staticmethod
    def _store_key(key: Tuple) -> str:
        """The content-addressed store key for one tier-2 memo key."""
        from repro.serve.store import region_key

        return region_key(*key)

    # ------------------------------------------------------------------

    def _schedule_shared(self, region, machine, options, liveness):
        """The scheduler's back half on tier-1 shared front-half results.

        Returns the schedule and the front half's counter pairs, which
        are replayed into the active registry first.
        """
        sc = options.schedule_copies

        problem_key = (id(region), machine.use_btr, sc)
        shared = self._problems.get(problem_key)
        if shared is None:
            shared = self._problems[problem_key] = _build_shared(
                prepare_problem, region, machine, liveness, sc)
        else:
            shared[0].reset_placement()
        problem, copies, prep_counters = shared

        # Keyed by latency fingerprint, not full machine fingerprint:
        # DDG edges and priority ranks read the machine only through
        # latencies, so 4U and 8U share one DDG per region.
        ddg_key = (id(region), self._latency_fp(machine), sc)
        shared = self._ddgs.get(ddg_key)
        if shared is None:
            shared = self._ddgs[ddg_key] = _build_shared(
                _ddg_and_priorities, problem, copies, machine, liveness)
        ddg, priorities, ddg_counters = shared

        counters = prep_counters + ddg_counters
        active = current_metrics()
        if active is not NULL_METRICS:
            for name, value in counters:
                active.inc(name, value)
        return schedule_problem(problem, ddg, copies, machine, liveness,
                                options, priorities=priorities), counters


# ----------------------------------------------------------------------
# The process-global memo (what the engine uses by default)

_GLOBAL_MEMO: Optional[RegionMemo] = None


def global_memo() -> RegionMemo:
    """The process-wide region memo (created on first use)."""
    global _GLOBAL_MEMO
    if _GLOBAL_MEMO is None:
        _GLOBAL_MEMO = RegionMemo()
    return _GLOBAL_MEMO
