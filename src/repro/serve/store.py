"""Content-addressed, disk-backed artifact store for schedule results.

Every ``repro run/bench/report`` invocation recompiles, re-forms, and
re-schedules from scratch; the PR-1 analysis cache is in-memory and dies
with the process.  This store makes the expensive half of a grid cell —
formation plus scheduling plus estimation — durable across processes:
the profile-weighted schedule estimate is a pure function of (IR,
scheme, machine, heuristic), so its result can be memoized under a
content hash of exactly those inputs.

**Key derivation** (:func:`cell_key`): the SHA-256 digest of

* the store schema string (:func:`store_schema` — repro version plus a
  payload-format revision, so an upgraded tool never reads stale
  payload shapes);
* the canonical textual IR of the program
  (:func:`repro.ir.printer.format_program` — block and edge profile
  weights are part of the text, so re-profiled programs key
  differently);
* the canonical scheme spec (``str(SchemeSpec.parse(...))``, so
  aliases of one spec share an entry);
* the machine fingerprint (:func:`machine_fingerprint` — name, issue
  width, the full latency table, and the structural knobs);
* the heuristic name and the two :class:`ScheduleOptions` flags a
  :class:`~repro.evaluation.engine.GridCell` carries.

**Layout**: ``<dir>/objects/<key[:2]>/<key>.json`` holds one JSON
payload per entry (the key is restated inside the payload and checked
on read); ``<dir>/index.json`` records sizes and LRU clocks.  Writes go
through a temp file in the same directory followed by ``os.replace``,
so concurrent writers of the same key race atomically — last write
wins, and a reader never observes a torn file.

**Eviction**: the store is LRU size-bounded (``max_mb``); exceeding the
bound evicts least-recently-used entries until it fits and counts them
(``serve.store.evictions``).  A missing or unparsable index is rebuilt
by scanning the object tree; an unreadable, unparsable, or wrong-key
object file is deleted and served as a miss
(``serve.store.corrupt``) — corruption can cost time, never wrong
answers.

Hit/miss/evict/corrupt totals flow into the active
:mod:`repro.obs` metrics registry and are also kept on the instance
(:meth:`ArtifactStore.stats`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Iterable, Optional, Tuple

from repro.evaluation.engine import CellResult, GridCell, machine_by_name
from repro.evaluation.schemes import SchemeSpec
from repro.obs.metrics import current_metrics
# Canonical definition lives with the region fingerprints; re-exported
# here so cell keys and region keys agree on what "the same machine"
# means.
from repro.schedule.fingerprint import machine_fingerprint  # noqa: F401

#: Revision of the on-disk payload shape.  Bump when the JSON layout of
#: an entry changes; old entries then key differently and age out.
STORE_FORMAT = 1

#: Revision of the region memo's payload shape, folded into every
#: :func:`region_key` (cell payloads do not depend on it).  Format 2
#: entries hold typed counter deltas instead of a metrics snapshot, so
#: format 1 entries are never addressed.
REGION_PAYLOAD_FORMAT = 2

#: Default size bound (in MiB) when a caller does not pass one.
DEFAULT_MAX_MB = 256


def store_schema() -> str:
    """The schema/version string mixed into every key and payload."""
    from repro import __version__

    return f"repro-{__version__}/store-{STORE_FORMAT}"


def cell_key(program_text: str, cell: GridCell) -> str:
    """SHA-256 key of one (program, scheme, machine, heuristic) cell."""
    digest = hashlib.sha256()
    parts = [
        store_schema(),
        program_text,
        str(SchemeSpec.parse(cell.scheme)),
        machine_fingerprint(machine_by_name(cell.machine)),
        cell.heuristic,
        f"dp={int(cell.dominator_parallelism)}",
        f"sc={int(cell.schedule_copies)}",
    ]
    # Appended only when non-default so historical keys stay valid.
    backend = getattr(cell, "backend", "heuristic")
    if backend != "heuristic":
        parts.append(f"backend={backend}")
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def region_key(
    region_fp: str,
    machine_fp: str,
    heuristic: str,
    dominator_parallelism: bool,
    schedule_copies: bool,
    backend: str = "heuristic",
    exact_budget: int = 0,
) -> str:
    """SHA-256 key of one memoized region scheduling result.

    The region-granular analogue of :func:`cell_key`: the program text is
    replaced by :func:`repro.schedule.fingerprint.region_fingerprint` and
    the scheme disappears entirely (whatever former produced the region,
    equal content schedules identically).  A ``region`` tag carrying
    :data:`REGION_PAYLOAD_FORMAT` keeps the two keyspaces disjoint even
    under hash-input coincidence and puts payloads of any other region
    format out of reach.

    Non-default backends key separately: an exact result depends on the
    node budget (a larger budget may prove a shorter schedule), so the
    budget is part of the key.  The default backend omits the part
    entirely, so its keys do not depend on the budget.
    """
    digest = hashlib.sha256()
    parts = [
        store_schema(),
        f"region-{REGION_PAYLOAD_FORMAT}",
        region_fp,
        machine_fp,
        heuristic,
        f"dp={int(dominator_parallelism)}",
        f"sc={int(schedule_copies)}",
    ]
    if backend != "heuristic":
        parts.append(f"backend={backend}:budget={exact_budget}")
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def result_to_payload(key: str, result: CellResult) -> Dict[str, object]:
    """Full-fidelity JSON payload for one :class:`CellResult`.

    Floats serialize via ``repr`` (shortest round-trip), so a stored
    result deserializes bit-identical to the one computed fresh.
    """
    cell = result.cell
    return {
        "schema": store_schema(),
        "key": key,
        "cell": {
            "benchmark": cell.benchmark,
            "scheme": cell.scheme,
            "machine": cell.machine,
            "heuristic": cell.heuristic,
            "dominator_parallelism": cell.dominator_parallelism,
            "schedule_copies": cell.schedule_copies,
            "backend": getattr(cell, "backend", "heuristic"),
        },
        "time": result.time,
        "code_expansion": result.code_expansion,
        "schedule_lengths": list(result.schedule_lengths),
        "total_copies": result.total_copies,
        "total_merged": result.total_merged,
        "total_speculated": result.total_speculated,
    }


def result_from_payload(payload: Dict[str, object]) -> CellResult:
    cell = payload["cell"]
    return CellResult(
        cell=GridCell(
            benchmark=cell["benchmark"],
            scheme=cell["scheme"],
            machine=cell["machine"],
            heuristic=cell["heuristic"],
            dominator_parallelism=cell["dominator_parallelism"],
            schedule_copies=cell["schedule_copies"],
            backend=cell.get("backend", "heuristic"),
        ),
        time=payload["time"],
        code_expansion=payload["code_expansion"],
        schedule_lengths=tuple(payload["schedule_lengths"]),
        total_copies=payload["total_copies"],
        total_merged=payload["total_merged"],
        total_speculated=payload["total_speculated"],
    )


class ArtifactStore:
    """A content-addressed result cache rooted at ``directory``.

    Safe to open from several processes at once: object writes are
    atomic renames, reads validate the restated key, and the index is
    advisory (a stale index only costs recency fidelity, never
    correctness — a missing object is a miss, an unindexed object is
    re-adopted on the next :meth:`put` scan).
    """

    def __init__(self, directory: str,
                 max_mb: float = DEFAULT_MAX_MB) -> None:
        self.directory = directory
        self.max_bytes = int(max_mb * 1024 * 1024)
        self.objects_dir = os.path.join(directory, "objects")
        self.index_path = os.path.join(directory, "index.json")
        os.makedirs(self.objects_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        #: key -> (size_bytes, last_used_clock)
        self._index: Dict[str, Tuple[int, int]] = {}
        self._clock = 0
        self._load_index()

    # -- index persistence ---------------------------------------------

    def _load_index(self) -> None:
        try:
            with open(self.index_path) as handle:
                raw = json.load(handle)
            self._clock = int(raw["clock"])
            self._index = {
                key: (int(entry[0]), int(entry[1]))
                for key, entry in raw["entries"].items()
            }
        except (OSError, ValueError, KeyError, TypeError):
            self._rebuild_index()

    def _rebuild_index(self) -> None:
        """Re-adopt whatever object files exist (index lost/corrupt)."""
        self._index = {}
        self._clock = 0
        for key, path in sorted(self._iter_objects()):
            try:
                size = os.stat(path).st_size
            except OSError:
                continue
            self._clock += 1
            self._index[key] = (size, self._clock)
        self._save_index()

    def _iter_objects(self) -> Iterable[Tuple[str, str]]:
        for shard in sorted(os.listdir(self.objects_dir)):
            shard_dir = os.path.join(self.objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield name[:-5], os.path.join(shard_dir, name)

    def _save_index(self) -> None:
        payload = {
            "schema": store_schema(),
            "clock": self._clock,
            "entries": {key: list(entry)
                        for key, entry in self._index.items()},
        }
        self._atomic_write(self.index_path,
                           json.dumps(payload, sort_keys=True))

    def _atomic_write(self, path: str, text: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- object paths ---------------------------------------------------

    def _object_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.json")

    def _drop(self, key: str, counter: Optional[str] = None) -> None:
        self._index.pop(key, None)
        try:
            os.unlink(self._object_path(key))
        except OSError:
            pass
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)
            current_metrics().inc(f"serve.store.{counter}")

    # -- the cache interface --------------------------------------------

    def _read_validated(self, key: str) -> Tuple[Dict[str, object], str]:
        """Load + validate the payload under ``key``; raises on trouble."""
        path = self._object_path(key)
        with open(path) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict) or payload.get("key") != key or \
                payload.get("schema") != store_schema():
            raise ValueError("payload/key mismatch")
        return payload, path

    def _count_miss(self, key: str, corrupt: bool) -> None:
        if corrupt:
            self._drop(key, "corrupt")
        else:
            # No file: a plain miss (drop any stale index entry).
            self._index.pop(key, None)
        self.misses += 1
        current_metrics().inc("serve.store.misses")

    def _count_hit(self, key: str, path: str) -> None:
        self._clock += 1
        size = self._index.get(key, (0, 0))[0] or self._entry_size(path)
        self._index[key] = (size, self._clock)
        self.hits += 1
        current_metrics().inc("serve.store.hits")

    def get(self, key: str) -> Optional[CellResult]:
        """The stored result under ``key``, or None (miss)."""
        try:
            payload, path = self._read_validated(key)
            result = result_from_payload(payload)
        except OSError:
            self._count_miss(key, corrupt=False)
            return None
        except (ValueError, KeyError, TypeError):
            self._count_miss(key, corrupt=True)
            return None
        self._count_hit(key, path)
        return result

    def get_payload(self, key: str) -> Optional[Dict[str, object]]:
        """The raw JSON payload under ``key``, or None (miss).

        The schema and restated key are validated like :meth:`get`;
        interpreting the rest of the payload is the caller's business
        (the region memo stores :class:`RegionSummary`-shaped entries
        through this, cell results keep using :meth:`get`/:meth:`put`).
        """
        try:
            payload, path = self._read_validated(key)
        except OSError:
            self._count_miss(key, corrupt=False)
            return None
        except (ValueError, KeyError, TypeError):
            self._count_miss(key, corrupt=True)
            return None
        self._count_hit(key, path)
        return payload

    @staticmethod
    def _entry_size(path: str) -> int:
        try:
            return os.stat(path).st_size
        except OSError:
            return 0

    def put(self, key: str, result: CellResult) -> None:
        """Store ``result`` under ``key`` (atomic; last writer wins)."""
        self.put_payload(key, result_to_payload(key, result))

    def put_payload(self, key: str, payload: Dict[str, object],
                    defer_index: bool = False) -> None:
        """Store a JSON payload under ``key`` (atomic; last writer wins).

        The schema string and the key are stamped into the payload so
        reads can validate them.  ``defer_index=True`` skips the
        per-entry eviction sweep and index write — per-region puts are
        far too hot for one disk write each — leaving both to the next
        :meth:`sync` (or any undeferred put).
        """
        path = self._object_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        stamped = dict(payload)
        stamped["schema"] = store_schema()
        stamped["key"] = key
        text = json.dumps(stamped, sort_keys=True)
        self._atomic_write(path, text)
        self._clock += 1
        self._index[key] = (len(text), self._clock)
        current_metrics().inc("serve.store.puts")
        if not defer_index:
            self._evict_to_fit()
            self._save_index()

    def _evict_to_fit(self) -> None:
        while len(self._index) > 1 and \
                sum(size for size, _ in self._index.values()) > self.max_bytes:
            victim = min(self._index, key=lambda k: self._index[k][1])
            self._drop(victim, "evictions")

    # -- maintenance ----------------------------------------------------

    def sync(self) -> None:
        """Persist the in-memory index (recency clocks and any entries
        written with ``defer_index=True``), evicting to fit first."""
        self._evict_to_fit()
        self._save_index()

    def close(self) -> None:
        self.sync()

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._object_path(key))

    def keys(self) -> Tuple[str, ...]:
        return tuple(sorted(self._index))

    def total_bytes(self) -> int:
        return sum(size for size, _ in self._index.values())

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._index),
            "bytes": self.total_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }
