"""The shard's batch dispatcher.

:class:`CompileService` is one fleet shard's compute engine.  It does
no request-level work: the fleet (:mod:`repro.serve.fleet`) resolves
the program text, computes the content key, deduplicates in-flight
requests and probes the stores, and hands the service only the misses,
each with its key.  What the service does with them:

* **batching** — queued jobs are coalesced into batches and grouped by
  (program, scheme) exactly like the PR-1 engine's parallel path, so
  one dispatch clones and forms each program once and schedules it for
  every (machine, heuristic) of the group; the worker *is* the engine's
  (:func:`repro.evaluation.engine._run_task`), which is what makes
  service results bit-identical to :func:`~repro.api.evaluate_grid`;
* **retry** — a dispatch that times out or loses its worker process
  (``BrokenProcessPool``) is retried with exponential backoff up to a
  bounded attempt budget; the pool is recycled first, so one poisoned
  worker cannot wedge the service.  Deterministic worker exceptions
  (the job itself is broken) fail immediately — retrying cannot fix
  them;
* **store write-back** — with an :class:`~repro.serve.store.ArtifactStore`
  attached, every computed result is put under its key;
* **backpressure** — the intake queue is bounded; a full queue makes
  ``submit`` raise :class:`~repro.serve.jobs.ServiceSaturatedError`
  rather than buffering unboundedly;
* **graceful shutdown** — ``close(drain=True)`` finishes everything
  already accepted, ``close(drain=False)`` fails queued jobs with
  :class:`~repro.serve.jobs.ServiceClosedError`; either way the
  dispatcher exits and the pool is torn down.

The service counts submissions, dispatches, retries, timeouts, and
failures into its metrics registry.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.evaluation.engine import CellResult, _merge_partials, _run_task
from repro.obs.metrics import NULL_METRICS
from repro.serve.jobs import (
    JobFailedError,
    JobHandle,
    JobRequest,
    ServiceClosedError,
    ServiceSaturatedError,
)
from repro.serve.store import ArtifactStore

def _service_worker(task):
    """Default pool worker: exactly the engine's group-task worker."""
    return _run_task(task)


#: Per-process cache of worker-side distributed tracers, keyed by
#: (trace directory, shard, pid).  The pid key matters: a pool worker is
#: forked from the service process and must not write through an
#: inherited parent handle.
_worker_tracers: Dict[Tuple[Optional[str], Optional[int], int], object] = {}


def _worker_tracer(trace_dir: str, shard: Optional[int]):
    from repro.obs.distributed import DistributedTracer

    key = (trace_dir, shard, os.getpid())
    tracer = _worker_tracers.get(key)
    if tracer is None:
        tracer = DistributedTracer(trace_dir, "worker", shard=shard)
        _worker_tracers[key] = tracer
    return tracer


def _traced_call(worker, trace_dir, shard, specs, task):
    """Run ``worker(task)`` inside per-request ``worker.run_task`` spans.

    ``specs`` is a list of ``(trace_id, parent_span_id)`` pairs — one
    per traced job coalesced into this group task.  The wrapper lives
    *around* the injected worker rather than inside it, so test workers
    (crashers, gated workers) keep their exact signature and payload.
    With no specs or no trace directory this is a plain passthrough.
    """
    if not trace_dir or not specs:
        return worker(task)
    tracer = _worker_tracer(trace_dir, shard)
    bench, scheme = task[0], task[1]
    spans = [
        tracer.start_span("worker.run_task", trace_id=trace_id,
                          parent_span_id=parent, benchmark=bench,
                          scheme=scheme, group_jobs=len(specs))
        for trace_id, parent in specs
    ]
    try:
        return worker(task)
    finally:
        for span in spans:
            span.finish()


class CompileService:
    """One shard's batching, retrying dispatcher over the engine pool.

    Args:
        store: Optional artifact store every computed result is put
            into; None disables write-back.  The fleet reads it.
        jobs: Worker processes in the pool.
        batch_size: Max jobs coalesced into one dispatch round.
        max_pending: Bound of the intake queue (backpressure).
        job_timeout: Seconds one dispatched group may take before the
            attempt counts as failed (None = no timeout).
        retries: Extra attempts after the first for crashed/timed-out
            dispatches.
        backoff: Base of the exponential retry delay (seconds).
        worker: Override of the pool worker function (tests inject
            crashing workers through this seam; must be picklable).
        sleep: Override of the backoff sleep (tests pass a no-op).
        trace_dir: Distributed-trace export directory; when set, jobs
            that carry a trace context get a ``worker.run_task`` span
            written from inside the pool worker process.
        shard: Shard identity stamped on worker spans (None outside a
            fleet).
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        jobs: int = 2,
        batch_size: int = 16,
        max_pending: int = 256,
        job_timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.05,
        metrics=NULL_METRICS,
        worker: Optional[Callable] = None,
        sleep: Callable[[float], None] = time.sleep,
        trace_dir: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> None:
        self.store = store
        self.trace_dir = trace_dir
        self.shard = shard
        self.jobs = max(1, jobs)
        self.batch_size = max(1, batch_size)
        self.job_timeout = job_timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.metrics = metrics
        self._worker = worker if worker is not None else _service_worker
        self._sleep = sleep
        self._queue: "queue.Queue[JobHandle]" = queue.Queue(
            maxsize=max_pending)
        #: Accepted, not yet settled handles by id (what a draining
        #: close waits for).
        self._pending: Dict[int, JobHandle] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._stop = threading.Event()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- submission ------------------------------------------------------

    def submit(self, request: JobRequest, key: str) -> JobHandle:
        """Enqueue one job under its content ``key``; returns its handle.

        Raises :class:`ServiceClosedError` after shutdown began and
        :class:`ServiceSaturatedError` when the intake queue is full.
        """
        if self._closed:
            raise ServiceClosedError("service is shut down")
        self.metrics.inc("serve.jobs.submitted")
        handle = JobHandle(key=key, request=request)
        with self._lock:
            self._pending[id(handle)] = handle
        try:
            self._queue.put_nowait(handle)
        except queue.Full:
            with self._lock:
                self._pending.pop(id(handle), None)
            self.metrics.inc("serve.jobs.rejected")
            raise ServiceSaturatedError(
                f"intake queue full ({self._queue.maxsize} pending)"
            )
        return handle

    # -- dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=0.02)
            except queue.Empty:
                continue
            batch = [first]
            while len(batch) < self.batch_size:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            for (bench, scheme, text), handles in \
                    self._group_batch(batch).items():
                self._dispatch_group(bench, scheme, text, handles)
        # A non-draining close fails whatever is still queued.
        while True:
            try:
                handle = self._queue.get_nowait()
            except queue.Empty:
                break
            self._resolve_failure(
                handle, ServiceClosedError("service shut down"),
                counter="serve.jobs.cancelled",
            )

    @staticmethod
    def _group_batch(
        batch: Sequence[JobHandle],
    ) -> Dict[Tuple[str, str, Optional[str]], List[JobHandle]]:
        """Group by (program, scheme, shipping text).

        The shipping text is what crosses the process boundary: the
        caller's program text verbatim, or None for a built-in
        benchmark — workers rebuild those by name, exactly like the
        engine's parallel path (the printed text is canonical for
        *keying* but rounds profile weights to ``%g``, so shipping it
        would perturb the estimate).
        """
        groups: Dict[Tuple[str, str, Optional[str]], List[JobHandle]] = {}
        for handle in batch:
            request = handle.request
            groups.setdefault(
                (request.cell.benchmark, request.cell.scheme,
                 request.program_text), []
            ).append(handle)
        return groups

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def _recycle_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _dispatch_group(self, bench: str, scheme: str,
                        text: Optional[str],
                        handles: List[JobHandle]) -> None:
        """Run one (program, scheme) group, retrying crash/timeout."""
        indexed = tuple(
            (index, handle.request.cell)
            for index, handle in enumerate(handles)
        )
        # The engine group-task over the whole function range; passing
        # None as the slice end means "all functions" without knowing
        # the count parent-side.  Workers keep a region memo, backed by
        # a store sub-directory when the service is store-backed.
        memo_spec = None
        if os.environ.get("REPRO_REGION_MEMO") != "0":
            if self.store is not None:
                memo_spec = (os.path.join(self.store.directory, "regions"),
                             self.store.max_bytes / (1024 * 1024))
            else:
                memo_spec = (None, 0.0)
        task = (bench, scheme, indexed, 0, None, text, memo_spec)
        trace_specs = []
        if self.trace_dir is not None:
            trace_specs = [
                (handle.request.trace_id, handle.request.parent_span_id)
                for handle in handles
                if handle.request.trace_id
            ]
        attempts = self.retries + 1
        error: Optional[BaseException] = None
        retryable = True
        for attempt in range(attempts):
            for handle in handles:
                handle.attempts = attempt + 1
            if attempt > 0:
                self.metrics.inc("serve.jobs.retries", len(handles))
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            self.metrics.inc("serve.dispatches")
            try:
                if trace_specs:
                    future = self._ensure_executor().submit(
                        _traced_call, self._worker, self.trace_dir,
                        self.shard, trace_specs, task,
                    )
                else:
                    future = self._ensure_executor().submit(
                        self._worker, task)
                out, _, _, snapshot, _memo_stats = future.result(
                    timeout=self.job_timeout
                )
            except _FutureTimeout as exc:
                # The worker is wedged mid-task; recycle the pool so the
                # retry does not queue behind it.
                self.metrics.inc("serve.timeouts")
                self._recycle_executor()
                error = exc
                continue
            except BrokenProcessPool as exc:
                self.metrics.inc("serve.worker_crashes")
                self._recycle_executor()
                error = exc
                continue
            except Exception as exc:
                # Deterministic failure inside the job itself: retrying
                # replays it byte-identically, so fail fast — and tell
                # upper layers (the fleet) not to retry either.
                error = exc
                retryable = False
                break
            self.metrics.merge_snapshot(snapshot)
            by_index = dict(out)
            for index, handle in enumerate(handles):
                self._resolve_success(handle, _merge_partials(
                    handle.request.cell, by_index[index]))
            return
        cause = error if error is not None else RuntimeError("dispatch")
        for handle in handles:
            self._resolve_failure(
                handle,
                JobFailedError(
                    f"job failed after {attempts} attempt(s): "
                    f"{type(cause).__name__}: {cause}",
                    retryable=retryable,
                ),
                counter="serve.jobs.failed",
            )

    def _resolve_success(self, handle: JobHandle,
                         result: CellResult) -> None:
        if self.store is not None:
            self.store.put(handle.key, result)
        with self._lock:
            self._pending.pop(id(handle), None)
        handle.resolve(result)
        self.metrics.inc("serve.jobs.completed")

    def _resolve_failure(self, handle: JobHandle, error: BaseException,
                         counter: str) -> None:
        with self._lock:
            self._pending.pop(id(handle), None)
        handle.fail(error)
        self.metrics.inc(counter)

    # -- lifecycle -------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the service accepts work and its dispatcher runs
        (the fleet's health checks poll this)."""
        return not self._closed and self._dispatcher.is_alive()

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until everything currently accepted has resolved."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                pending = list(self._pending.values())
            if not pending and self._queue.empty():
                return
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            for handle in pending:
                handle._event.wait(remaining)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError("flush timed out")

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Stop the service.

        ``drain=True`` finishes all accepted work first; ``drain=False``
        fails still-queued jobs with :class:`ServiceClosedError` (jobs
        already dispatched still complete).
        """
        if self._closed and not self._dispatcher.is_alive():
            return
        self._closed = True
        if drain:
            self.flush(timeout)
        self._stop.set()
        self._dispatcher.join(timeout)
        if self._executor is not None:
            self._executor.shutdown(wait=drain)
            self._executor = None
        if self.store is not None:
            self.store.sync()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=True)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            inflight = len(self._pending)
        out: Dict[str, object] = {
            "inflight": inflight,
            "queued": self._queue.qsize(),
            "closed": self._closed,
        }
        if self.store is not None:
            out["store"] = self.store.stats()
        return out
