"""Layer tracing from outside the program.

A traced run replaces public functions of ``repro`` with thin wrappers
that time each call as a span of a named layer.  Spans nest per thread;
a layer's *self* time is its span's duration minus the part covered by
child spans (:meth:`Tracer.leave`), so the self times of every layer on
a thread add up to the wall time of its outermost spans.

Each function is wrapped where its callers look it up: every ``repro``
module that bound the function by name at import time gets the wrapper
in place of the original (``memo.py`` imports ``prepare_region`` at
import time, so ``repro.schedule.memo.prepare_region`` is replaced, not
just ``repro.schedule.prep.prepare_region``).  Methods are replaced on
their class.  A target that no longer exists is reported as missing
rather than failing the run, so a refactor shows up as unattributed time
in the remainder row.

Two kinds of span do not nest on a thread stack and are recorded whole
instead (:meth:`Tracer.record`): an ``async`` method, whose awaits
interleave with other connections on the same thread, and a submit whose
span ends when its handle resolves on another thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer of the table, in pipeline order.  ``serve.frontend``,
#: ``serve.fleet``, ``serve.service`` and ``serve.worker`` are derived
#: from whole-request spans (see :func:`serve_table`).
LAYERS: Tuple[str, ...] = (
    "workloads",
    "regions",
    "ir.clone",
    "ir.analysis_cache",
    "schedule.fingerprint",
    "schedule.memo",
    "obs",
    "schedule.prep",
    "schedule.renaming",
    "schedule.ddg",
    "schedule.priorities",
    "schedule.list_scheduler",
    "schedule.scheduler",
    "lint",
    "evaluation.engine",
    "serve.client",
    "serve.wire",
    "serve.frontend",
    "serve.fleet",
    "serve.service",
    "serve.worker",
    "serve.store",
)

#: Extra per-layer metrics: name -> (unit, better).
EXTRAS: Dict[str, Tuple[str, str]] = {
    "regions.formed": ("count", "lower"),
    "ir.analysis_cache.hit_ratio": ("ratio", "higher"),
    "schedule.memo.tier2_hit_ratio": ("ratio", "higher"),
    "schedule.memo.prep_reuse_ratio": ("ratio", "higher"),
    "schedule.memo.ddg_reuse_ratio": ("ratio", "higher"),
    "schedule.memo.entries": ("count", "lower"),
    "schedule.memo.bytes": ("bytes", "lower"),
    "schedule.ddg.nodes": ("count", "lower"),
    "schedule.ddg.edges": ("count", "lower"),
    "schedule.renaming.registers_minted": ("count", "lower"),
    "schedule.list_scheduler.cycles": ("count", "lower"),
    "lint.errors": ("count", "lower"),
    "lint.warnings": ("count", "lower"),
    "lint.infos": ("count", "lower"),
    "serve.wire.bytes": ("bytes", "lower"),
    "serve.fleet.hot_hit_ratio": ("ratio", "higher"),
    "serve.fleet.dedups": ("count", "higher"),
    "serve.service.store_hit_ratio": ("ratio", "higher"),
    "serve.store.hits": ("count", "higher"),
    "serve.store.bytes_written": ("bytes", "lower"),
    "remainder.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.attributed_share": ("ratio", "higher"),
}


def per_layer_catalog() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    out: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    out.update(EXTRAS)
    return out


# ----------------------------------------------------------------------
# The span recorder


class Tracer:
    """Per-thread span stacks folded into per-layer totals.

    ``calls[layer]``, ``self_s[layer]`` and ``total_s[layer]`` (inclusive
    time) accumulate over every finished span; ``counts`` holds the
    extra counters wrappers record.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.self_s.clear()
            self.total_s.clear()
            self.counts.clear()

    def stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """The innermost open layer on this thread, if any."""
        stack = self.stack()
        return stack[-1][0] if stack else None

    def enter(self, layer: str) -> None:
        self.stack().append([layer, self.clock(), 0.0])

    def leave(self) -> float:
        """Close the innermost span; returns its duration."""
        stack = self.stack()
        layer, start, covered = stack.pop()
        duration = self.clock() - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.calls[layer] += 1
            self.self_s[layer] += duration - covered
            self.total_s[layer] += duration
        return duration

    def record(self, layer: str, duration: float) -> None:
        """A whole span that did not nest on a thread stack."""
        with self._lock:
            self.calls[layer] += 1
            self.self_s[layer] += duration
            self.total_s[layer] += duration

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "counts": dict(self.counts),
            }


# ----------------------------------------------------------------------
# Wrappers


def _span_wrapper(tracer: Tracer, layer: str, original: Callable,
                  post: Optional[Callable] = None) -> Callable:
    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        enter(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            leave()
        if post is not None:
            post(tracer, args, result)
        return result

    return wrapper


def _async_wrapper(tracer: Tracer, layer: str, original: Callable
                   ) -> Callable:
    clock = tracer.clock

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        start = clock()
        try:
            return await original(*args, **kwargs)
        finally:
            tracer.record(layer, clock() - start)

    return wrapper


def _until_resolved_wrapper(tracer: Tracer, layer: str, original: Callable
                            ) -> Callable:
    """Span from the submit call until the returned handle settles."""
    clock = tracer.clock

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = clock()
        handle = original(*args, **kwargs)
        handle.add_done_callback(
            lambda _done: tracer.record(layer, clock() - start))
        return handle

    return wrapper


def _count_in_layer(tracer: Tracer, layer: str, counter: str,
                    original: Callable) -> Callable:
    """Count calls made while ``layer`` is the innermost open span."""
    current, count = tracer.current, tracer.count

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if current() == layer:
            count(counter)
        return original(*args, **kwargs)

    return wrapper


# -- post hooks: extra counters read off arguments and results ----------


def _post_regions(tracer, args, partition):
    tracer.count("regions.formed", len(partition))


def _post_ddg(tracer, args, ddg):
    tracer.count("schedule.ddg.nodes", len(args[0].sched_ops))
    tracer.count("schedule.ddg.edges", ddg.num_edges)


def _post_cycles(tracer, args, schedule):
    tracer.count("schedule.list_scheduler.cycles", schedule.length)


def _post_encode(tracer, args, frame):
    tracer.count("serve.wire.bytes", len(frame))


def _post_decode(tracer, args, message):
    tracer.count("serve.wire.bytes", len(args[0]))


def _post_store_get(tracer, args, found):
    if found is not None:
        tracer.count("serve.store.hits")


def _post_store_put(tracer, args, _none):
    store, key = args[0], args[1]
    try:
        size = os.path.getsize(store._object_path(key))
    except (AttributeError, OSError):
        size = 0
    tracer.count("serve.store.bytes_written", size)


#: (layer, "module:qualname" targets, post hook).
SPAN_TARGETS: Tuple[Tuple[str, Tuple[str, ...], Optional[Callable]], ...] = (
    ("workloads", ("repro.workloads.synthetic:generate_program",), None),
    ("regions", (
        "repro.regions.basic:form_basic_block_regions",
        "repro.core.formation:form_treegions",
        "repro.core.tail_duplication:form_treegions_td",
        "repro.regions.slr:form_slrs",
        "repro.regions.superblock:form_superblocks",
        "repro.regions.hyperblock:form_hyperblocks",
    ), _post_regions),
    ("ir.clone", ("repro.ir.clone:clone_program",
                  "repro.ir.clone:clone_function"), None),
    ("ir.analysis_cache", ("repro.ir.analysis_cache:liveness_of",), None),
    ("schedule.fingerprint",
     ("repro.schedule.fingerprint:region_fingerprint",), None),
    ("schedule.memo", ("repro.schedule.memo:RegionMemo.schedule",), None),
    ("obs", ("repro.obs.metrics:MetricsRegistry.merge_snapshot",
             "repro.obs.metrics:MetricsRegistry.deterministic_snapshot"),
     None),
    ("schedule.prep", ("repro.schedule.prep:prepare_region",), None),
    ("schedule.renaming", ("repro.schedule.renaming:rename_region",), None),
    ("schedule.ddg", ("repro.schedule.ddg:build_ddg",), _post_ddg),
    ("schedule.priorities", ("repro.schedule.priorities:all_priority_keys",
                             "repro.schedule.priorities:priority_order"),
     None),
    ("schedule.list_scheduler",
     ("repro.schedule.list_scheduler:list_schedule",), _post_cycles),
    ("schedule.scheduler", ("repro.schedule.scheduler:schedule_region",),
     None),
    ("lint", ("repro.lint.schedule_rules:check_schedule",
              "repro.lint.ir_rules:lint_program_ir"), None),
    ("evaluation.engine", ("repro.evaluation.engine:evaluate_grid",), None),
    ("serve.client", ("repro.serve.client:Client.submit",), None),
    ("serve.wire", ("repro.serve.wire:encode_frame",), _post_encode),
    ("serve.wire", ("repro.serve.wire:decode_frame_body",), _post_decode),
    ("serve.store", ("repro.serve.store:ArtifactStore.get",
                     "repro.serve.store:ArtifactStore.get_payload"),
     _post_store_get),
    ("serve.store", ("repro.serve.store:ArtifactStore.put_payload",),
     _post_store_put),
)

#: Raw whole-request spans the serve table is derived from.
RAW_DISPATCH = "raw.frontend_dispatch"
RAW_FLEET = "raw.fleet_submit"
RAW_SERVICE = "raw.service_submit"
RAW_TASK = "serve.worker"

#: Modules whose import-time bindings must exist before wrapping.
_PRELOAD = (
    "repro.api",
    "repro.evaluation.engine",
    "repro.evaluation.schemes",
    "repro.schedule.memo",
    "repro.schedule.scheduler",
    "repro.lint.run",
    "repro.lint.schedule_rules",
    "repro.serve.client",
    "repro.serve.frontend",
    "repro.serve.fleet",
    "repro.serve.service",
)


def _resolve(target: str):
    """``module:Qual.name`` -> (owner object or None for a module-level
    function, attribute name, original object)."""
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attr = qualname.split(".")
        owner = getattr(module, class_name)
        return owner, attr, owner.__dict__[attr]
    return None, qualname, getattr(module, qualname)


class Installation:
    """The wrappers of one traced phase; :meth:`uninstall` restores
    every original."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def _replace(self, target: str, make: Callable[[Callable], Callable]
                 ) -> None:
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError, KeyError, ValueError):
            self.missing.append(target)
            return
        wrapper = make(original)
        if owner is not None:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self, worker_dir: Optional[str] = None) -> "Installation":
        for module in _PRELOAD:
            try:
                importlib.import_module(module)
            except ImportError:
                self.missing.append(module)
        tracer = self.tracer
        for layer, targets, post in SPAN_TARGETS:
            for target in targets:
                self._replace(target, lambda original, layer=layer,
                              post=post: _span_wrapper(tracer, layer,
                                                       original, post))
        self._replace(
            "repro.ir.registers:RegisterFactory.fresh",
            lambda original: _count_in_layer(
                tracer, "schedule.renaming",
                "schedule.renaming.registers_minted", original))
        self._replace(
            "repro.serve.frontend:FleetFrontend._dispatch",
            lambda original: _async_wrapper(tracer, RAW_DISPATCH, original))
        self._replace(
            "repro.serve.fleet:CompileFleet.submit",
            lambda original: _until_resolved_wrapper(tracer, RAW_FLEET,
                                                     original))
        self._replace(
            "repro.serve.service:CompileService.submit",
            lambda original: _until_resolved_wrapper(tracer, RAW_SERVICE,
                                                     original))
        if worker_dir is not None:
            self._replace(
                "repro.evaluation.engine:_run_task",
                lambda original: _task_wrapper(tracer, original,
                                               worker_dir))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# Pool workers: one record per task, flushed before the task returns


def _task_wrapper(tracer: Tracer, original: Callable, worker_dir: str
                  ) -> Callable:
    """Time one engine group task in a shard pool worker.

    Workers are forked from the server after the wrappers went in, so
    they inherit them (and the server's totals, dropped on a worker's
    first task).  A pool worker leaves through ``os._exit``, which runs
    no ``atexit`` hook, so each task appends its own record to
    ``worker_dir/worker-<pid>.jsonl`` before returning its result.
    """
    owner_pid = os.getpid()

    @functools.wraps(original)
    def wrapper(task):
        pid = os.getpid()
        if pid == owner_pid:
            return original(task)
        from repro.ir.analysis_cache import GLOBAL_CACHE
        from repro.schedule.memo import global_memo

        tracer.reset()
        memo_before = global_memo().stats()
        cache_before = (GLOBAL_CACHE.hits, GLOBAL_CACHE.misses)
        started = time.monotonic()
        tracer.enter(RAW_TASK)
        try:
            result = original(task)
        finally:
            wall = tracer.leave()
        memo_after = global_memo().stats()
        record = {
            "pid": pid,
            "started": started,
            "wall": wall,
            "jobs": len(task[2]),
            "trace": tracer.snapshot(),
            "memo_hits": memo_after["hits"] - memo_before["hits"],
            "memo_misses": memo_after["misses"] - memo_before["misses"],
            "memo_entries": memo_after["entries"],
            "memo_bytes": memo_after["bytes"],
            "cache_hits": GLOBAL_CACHE.hits - cache_before[0],
            "cache_misses": GLOBAL_CACHE.misses - cache_before[1],
        }
        path = os.path.join(worker_dir, f"worker-{pid}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        return result

    return wrapper


def read_worker_records(worker_dir: str, since: float) -> List[dict]:
    """Every task record in ``worker_dir`` started at or after ``since``
    (a ``time.monotonic()`` reading; the clock is system-wide)."""
    records = []
    for name in sorted(os.listdir(worker_dir)):
        if not (name.startswith("worker-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(worker_dir, name)) as handle:
            for line in handle:
                record = json.loads(line)
                if record["started"] >= since:
                    records.append(record)
    return records


# ----------------------------------------------------------------------
# Tables


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def local_table(snapshot: Dict[str, Dict[str, float]], wall: float
                ) -> Dict[str, Dict[str, float]]:
    """Layer rows of one in-process traced phase (grid, certify).

    The remainder row is the phase wall time no layer span covered.
    """
    rows = {
        layer: {"calls": snapshot["calls"].get(layer, 0),
                "self_s": snapshot["self_s"].get(layer, 0.0)}
        for layer in LAYERS
    }
    attributed = sum(row["self_s"] for row in rows.values())
    rows["remainder"] = {"calls": 0, "self_s": wall - attributed}
    return rows


def serve_table(client: Dict[str, Dict[str, float]], server: dict,
                latency_sum: float) -> Dict[str, Dict[str, float]]:
    """Layer rows of a traced serving phase, in request-seconds.

    ``latency_sum`` is the sum of every request's latency as the load
    generator saw it.  Each request's latency splits into hops:

    * ``serve.client``: the client call minus wire work at both ends
      and the server's dispatch span (socket transit, event-loop wake-up,
      client bookkeeping);
    * ``serve.frontend``: the server's dispatch span minus the fleet
      span (request parsing, reply building, completion hand-off);
    * ``serve.fleet``: fleet submit until its handle settles, minus the
      shard service span (keying, hot tier, dedup, routing);
    * ``serve.service``: service submit until settled, minus worker and
      store time (queue wait, batching, pool hand-off);
    * worker-side layers: each pool task's layer self times, weighted by
      the number of requests the task answered, since each of them
      waited for the whole task.

    By construction the rows plus the remainder (the load generator's
    own time around the client call) add up to ``latency_sum``.
    """
    server_trace = server["trace"]
    rows: Dict[str, Dict[str, float]] = {
        layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS
    }

    def add(layer, calls, seconds):
        rows[layer]["calls"] += calls
        rows[layer]["self_s"] += seconds

    for snapshot in (client, server_trace):
        for layer in ("serve.wire", "serve.store", "obs"):
            add(layer, snapshot["calls"].get(layer, 0),
                snapshot["self_s"].get(layer, 0.0))

    worker_weighted = 0.0
    for record in server["workers"]:
        weight = record["jobs"]
        worker_weighted += weight * record["wall"]
        trace = record["trace"]
        for layer in LAYERS:
            add(layer, trace["calls"].get(layer, 0),
                weight * trace["self_s"].get(layer, 0.0))

    server_calls, server_total = server_trace["calls"], server_trace["total_s"]
    dispatch = server_total.get(RAW_DISPATCH, 0.0)
    fleet = server_total.get(RAW_FLEET, 0.0)
    service = server_total.get(RAW_SERVICE, 0.0)
    server_store = server_trace["self_s"].get("serve.store", 0.0)
    server_obs = server_trace["self_s"].get("obs", 0.0)
    add("serve.frontend", server_calls.get(RAW_DISPATCH, 0),
        dispatch - fleet)
    add("serve.fleet", server_calls.get(RAW_FLEET, 0), fleet - service)
    add("serve.service", server_calls.get(RAW_SERVICE, 0),
        service - worker_weighted - server_store - server_obs)

    client_call = client["total_s"].get("serve.client", 0.0)
    wire = client["self_s"].get("serve.wire", 0.0) + \
        server_trace["self_s"].get("serve.wire", 0.0)
    add("serve.client", client["calls"].get("serve.client", 0),
        client_call - wire - dispatch)
    rows["remainder"] = {"calls": 0, "self_s": latency_sum - client_call}
    return rows


def format_table(rows: Dict[str, Dict[str, float]], wall: float,
                 title: str) -> str:
    lines = [title, f"{'layer':<26}{'calls':>10}{'self_s':>12}{'share':>8}"]
    for layer, row in rows.items():
        if not row["calls"] and abs(row["self_s"]) < 5e-7 \
                and layer != "remainder":
            continue
        lines.append(
            f"{layer:<26}{int(row['calls']):>10}{row['self_s']:>12.4f}"
            f"{ratio(row['self_s'], wall):>8.1%}"
        )
    total = sum(row["self_s"] for row in rows.values())
    lines.append(f"{'total':<26}{'':>10}{total:>12.4f}{ratio(total, wall):>8.1%}"
                 f"  (traced wall {wall:.4f} s)")
    return "\n".join(lines)


def table_metrics(rows: Dict[str, Dict[str, float]], wall: float,
                  overhead: float) -> Dict[str, float]:
    """The ``<layer>.calls``/``<layer>.self_s`` metrics plus the trace
    summary of one table."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = rows[layer]["calls"]
        out[f"{layer}.self_s"] = rows[layer]["self_s"]
    out["remainder.self_s"] = rows["remainder"]["self_s"]
    out["trace.wall_s"] = wall
    out["trace.overhead"] = overhead
    out["trace.attributed_share"] = ratio(
        wall - rows["remainder"]["self_s"], wall)
    return out
