"""The persistent artifact store: keys, durability, eviction, recovery.

The store's contract is "caching can cost time, never wrong answers":
a stored result must deserialize bit-identical to the computed one, a
corrupt entry must degrade to a miss, concurrent writers of one key
must race atomically, and the LRU bound must evict oldest-first.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.evaluation.engine import CellResult, GridCell, evaluate_cell
from repro.obs import MetricsRegistry, metrics_scope
from repro.serve import (
    ArtifactStore,
    cell_key,
    machine_fingerprint,
    result_from_payload,
    result_to_payload,
    store_schema,
)
from repro.serve.router import _builtin_text


def _result(benchmark: str = "b", time: float = 1.5,
            lengths=(3, 4)) -> CellResult:
    return CellResult(
        cell=GridCell(benchmark, "treegion", "4U", "global_weight"),
        time=time,
        code_expansion=1.25,
        schedule_lengths=tuple(lengths),
        total_copies=2,
        total_merged=1,
        total_speculated=7,
    )


KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


class TestKeys:
    def test_key_is_stable_and_content_addressed(self):
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        text = _builtin_text("compress")
        assert cell_key(text, cell) == cell_key(text, cell)
        # Any input perturbation changes the key.
        assert cell_key(text + " ", cell) != cell_key(text, cell)
        for other in (
            GridCell("compress", "bb", "4U", "global_weight"),
            GridCell("compress", "treegion", "8U", "global_weight"),
            GridCell("compress", "treegion", "4U", "dep_height"),
            GridCell("compress", "treegion", "4U", "global_weight",
                     dominator_parallelism=True),
            GridCell("compress", "treegion", "4U", "global_weight",
                     schedule_copies=True),
        ):
            assert cell_key(text, other) != cell_key(text, cell)

    def test_scheme_spec_aliases_share_a_key(self):
        text = _builtin_text("compress")
        explicit = GridCell("compress", "treegion-td:2.0", "4U",
                            "global_weight")
        spelled = GridCell("compress", " treegion-td:2.0 ", "4U",
                           "global_weight")
        assert cell_key(text, explicit) == cell_key(text, spelled)

    def test_schema_version_is_part_of_the_key(self):
        assert store_schema() in json.dumps(
            result_to_payload(KEY_A, _result())
        )

    def test_machine_fingerprint_covers_latencies(self):
        from repro.machine.presets import VLIW_4U, universal_machine

        assert machine_fingerprint(VLIW_4U) != \
            machine_fingerprint(universal_machine(8))
        assert "ld=2" in machine_fingerprint(VLIW_4U)


class TestRoundTrip:
    def test_payload_round_trip_is_lossless(self):
        # An awkward float that must survive JSON exactly.
        result = _result(time=390814.5466726795, lengths=(6, 2, 14))
        payload = json.loads(json.dumps(result_to_payload(KEY_A, result)))
        assert result_from_payload(payload) == result

    def test_real_result_round_trip(self, tmp_path):
        cell = GridCell("compress", "treegion", "4U", "global_weight")
        result = evaluate_cell(cell)
        store = ArtifactStore(str(tmp_path))
        key = cell_key(_builtin_text("compress"), cell)
        store.put(key, result)
        assert store.get(key) == result


class TestDurability:
    def test_process_restart_hit(self, tmp_path):
        """An entry written by one store instance is served by a fresh
        instance on the same directory (the disk is the cache)."""
        first = ArtifactStore(str(tmp_path))
        first.put(KEY_A, _result())
        first.close()
        second = ArtifactStore(str(tmp_path))
        assert second.get(KEY_A) == _result()
        assert second.hits == 1

    def test_missing_key_is_a_plain_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.get(KEY_A) is None
        assert store.misses == 1
        assert store.corrupt == 0

    def test_index_rebuild_after_index_loss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        store.close()
        os.unlink(store.index_path)
        rebuilt = ArtifactStore(str(tmp_path))
        assert len(rebuilt) == 1
        assert rebuilt.get(KEY_A) == _result()

    def test_index_corruption_is_tolerated(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        store.close()
        with open(store.index_path, "w") as handle:
            handle.write("{ not json")
        rebuilt = ArtifactStore(str(tmp_path))
        assert rebuilt.get(KEY_A) == _result()


class TestEviction:
    def _sized_store(self, tmp_path, entries: int) -> ArtifactStore:
        """A store whose bound holds about ``entries`` result payloads."""
        size = len(json.dumps(result_to_payload(KEY_A, _result())))
        return ArtifactStore(str(tmp_path),
                             max_mb=(size * entries + size // 2) / 2**20)

    def test_lru_eviction_order(self, tmp_path):
        store = self._sized_store(tmp_path, 2)
        store.put(KEY_A, _result())
        store.put(KEY_B, _result())
        assert store.get(KEY_A) is not None  # A is now most recent
        store.put(KEY_C, _result())          # evicts B, not A
        assert store.evictions == 1
        assert KEY_B not in store
        assert store.get(KEY_A) is not None
        assert store.get(KEY_C) is not None

    def test_eviction_never_empties_the_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_mb=0.0)
        store.put(KEY_A, _result())
        assert KEY_A in store  # the newest entry always survives

    def test_eviction_counter_and_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            store = self._sized_store(tmp_path, 1)
            store.put(KEY_A, _result())
            store.put(KEY_B, _result())
        assert store.evictions == 1
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["serve.store.evictions"] == 1
        assert snapshot["counters"]["serve.store.puts"] == 2


class TestCorruption:
    def test_corrupt_entry_recovers_as_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        with open(store._object_path(KEY_A), "w") as handle:
            handle.write("{ truncated")
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            assert store.get(KEY_A) is None
        assert store.corrupt == 1
        assert store.misses == 1
        # The bad file is gone; a re-put fully heals the entry.
        assert not os.path.exists(store._object_path(KEY_A))
        store.put(KEY_A, _result())
        assert store.get(KEY_A) == _result()
        counters = metrics.snapshot()["counters"]
        assert counters["serve.store.corrupt"] == 1

    def test_wrong_key_payload_is_corrupt(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        # A payload whose restated key disagrees with its filename
        # (e.g. a file copied between shards) must not be served.
        payload = result_to_payload(KEY_B, _result(time=9.9))
        with open(store._object_path(KEY_A), "w") as handle:
            json.dump(payload, handle)
        assert store.get(KEY_A) is None
        assert store.corrupt == 1

    def test_wrong_schema_payload_is_corrupt(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        payload = result_to_payload(KEY_A, _result())
        payload["schema"] = "repro-0.0.0/store-0"
        with open(store._object_path(KEY_A), "w") as handle:
            json.dump(payload, handle)
        assert store.get(KEY_A) is None
        assert store.corrupt == 1

    @pytest.mark.parametrize("read", ["get", "get_payload"])
    def test_non_object_payload_is_corrupt(self, tmp_path, read):
        store = ArtifactStore(str(tmp_path))
        store.put(KEY_A, _result())
        with open(store._object_path(KEY_A), "w") as handle:
            handle.write("[1, 2]")
        assert getattr(store, read)(KEY_A) is None
        assert store.corrupt == 1


def _hammer_writes(directory: str, time_value: float, rounds: int) -> None:
    store = ArtifactStore(directory)
    for _ in range(rounds):
        store.put(KEY_A, _result(time=time_value))


class TestConcurrency:
    def test_concurrent_same_key_writers_never_tear(self, tmp_path):
        """Two processes hammering one key: every read is a valid
        payload from one writer or the other (atomic rename), and the
        final state is the last writer's."""
        directory = str(tmp_path)
        writers = [
            multiprocessing.Process(
                target=_hammer_writes, args=(directory, float(value), 40),
            )
            for value in (1.0, 2.0)
        ]
        for proc in writers:
            proc.start()
        reader = ArtifactStore(directory)
        for _ in range(200):
            result = reader.get(KEY_A)
            if result is not None:
                assert result.time in (1.0, 2.0)  # never a torn mix
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        assert reader.corrupt == 0
        final = ArtifactStore(directory).get(KEY_A)
        assert final is not None and final.time in (1.0, 2.0)


class TestHitMissMetrics:
    def test_counters_flow_to_active_registry(self, tmp_path):
        metrics = MetricsRegistry()
        store = ArtifactStore(str(tmp_path))
        with metrics_scope(metrics):
            store.get(KEY_A)
            store.put(KEY_A, _result())
            store.get(KEY_A)
        counters = metrics.snapshot()["counters"]
        assert counters["serve.store.misses"] == 1
        assert counters["serve.store.hits"] == 1
        assert store.stats()["entries"] == 1
