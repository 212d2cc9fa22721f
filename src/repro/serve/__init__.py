"""Persistent artifact store, batched compile service, and the fleet.

The layers, bottom up (see DESIGN.md §10–§12):

* :mod:`repro.serve.store` — a content-addressed, disk-backed cache of
  grid-cell schedule results, keyed by SHA-256 of (canonical IR text,
  scheme spec, machine fingerprint, heuristic, schema version), with
  atomic writes, LRU size-bounded eviction, and corruption tolerance;
* :mod:`repro.serve.service` (+ :mod:`repro.serve.jobs`) — the
  :class:`CompileService`, one shard's batch dispatcher for the store
  misses the fleet hands it: a bounded intake queue (backpressure),
  batches grouped by (program, scheme) for the PR-1 multiprocessing
  worker, crash/timeout retry with backoff, write-back into the
  shard's store, and graceful shutdown;
* :mod:`repro.serve.router` + :mod:`repro.serve.fleet` — a
  :class:`CompileFleet` of N service+store shards.  The fleet does all
  request-level work, once per request: it resolves the program text
  and computes the content key (:func:`request_key`, the one place
  keying happens), answers from its in-memory hot tier, owns the one
  in-flight dedup map, and probes the owner shard's store (then warm
  replicas) before dispatching.  It also supervises and restarts
  shards.  Results are bit-identical to
  :func:`repro.api.evaluate_grid`;
* :mod:`repro.serve.wire` — framed, versioned JSON protocol with typed
  messages and structured error codes over ``unix://`` / ``tcp://``
  endpoints;
* :mod:`repro.serve.frontend` / :mod:`repro.serve.client` — the
  asyncio server multiplexing thousands of connections onto one fleet,
  and the synchronous :class:`Client` behind
  :func:`repro.api.connect`;
* :mod:`repro.serve.soak` — the many-client load harness behind
  ``repro soak`` and ``benchmarks/test_load_snapshot.py``;
* :mod:`repro.serve.events` — the size-rotated JSONL lifecycle event
  log, and :mod:`repro.serve.top` — the ``repro top`` ANSI dashboard
  over the ``STATS``/``HEALTH`` wire ops (see DESIGN.md §13).
"""

from repro.serve.jobs import (
    JobFailedError,
    JobHandle,
    JobRequest,
    ServeError,
    ServiceClosedError,
    ServiceSaturatedError,
    ShardDownError,
)
from repro.serve.service import CompileService
from repro.serve.store import (
    ArtifactStore,
    cell_key,
    machine_fingerprint,
    result_from_payload,
    result_to_payload,
    store_schema,
)
from repro.serve.router import KeyRouter, request_key, resolve_program_text
from repro.serve.fleet import CompileFleet
from repro.serve.wire import Endpoint, ErrorCode, parse_endpoint
from repro.serve.client import Client, ClientError, connect
from repro.serve.events import NULL_EVENTS, EventLog, read_events
from repro.serve.frontend import FleetFrontend, FrontendServer
from repro.serve.soak import SoakReport, run_soak
from repro.serve.top import render_top, run_top

__all__ = [
    "ArtifactStore",
    "Client",
    "ClientError",
    "CompileFleet",
    "CompileService",
    "Endpoint",
    "ErrorCode",
    "EventLog",
    "NULL_EVENTS",
    "FleetFrontend",
    "FrontendServer",
    "JobFailedError",
    "JobHandle",
    "JobRequest",
    "KeyRouter",
    "ServeError",
    "ServiceClosedError",
    "ServiceSaturatedError",
    "ShardDownError",
    "SoakReport",
    "cell_key",
    "connect",
    "machine_fingerprint",
    "parse_endpoint",
    "read_events",
    "render_top",
    "request_key",
    "resolve_program_text",
    "result_from_payload",
    "result_to_payload",
    "run_soak",
    "run_top",
    "store_schema",
]
