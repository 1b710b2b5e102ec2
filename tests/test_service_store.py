"""The content-addressed result store: atomicity, LRU, crash tolerance."""

from __future__ import annotations

import gc
import json
import os
import pickle
import time

import pytest

from repro.designs import build_design
from repro.errors import ReproError
from repro.flow import Flow
from repro.opt import BASELINE
from repro.service.request import FlowRequest
from repro.service.store import STORE_SCHEMA, ResultStore, unpickle


@pytest.fixture(scope="module")
def flow_result(synthetic_table):
    """One real FlowResult, shared read-only by every test here."""
    return Flow(calibration=synthetic_table).run(build_design("matmul"), BASELINE)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(str(tmp_path / "results"), max_entries=3)


def _request(seed: int = 2020) -> FlowRequest:
    return FlowRequest.make("matmul", config="orig", seed=seed)


class TestRoundtrip:
    def test_put_then_get(self, store, flow_result):
        request = _request()
        entry = store.put(request, flow_result)
        assert entry.digest == request.digest()
        hit = store.get(request.digest())
        assert hit is not None
        assert hit.result_digest == flow_result.result_digest()
        assert hit.summary["design"] == flow_result.design
        assert hit.summary["fmax_mhz"] == pytest.approx(flow_result.fmax_mhz)

    def test_load_result_reproduces_digest(self, store, flow_result):
        request = _request()
        store.put(request, flow_result)
        loaded = store.load_result(request.digest())
        assert loaded is not None
        assert loaded.result_digest() == flow_result.result_digest()
        assert loaded.fingerprint() == flow_result.fingerprint()

    def test_miss_returns_none(self, store):
        assert store.get("0" * 64) is None
        assert store.load_result("0" * 64) is None

    def test_len_counts_payloads(self, store, flow_result):
        assert len(store) == 0
        store.put(_request(1), flow_result)
        store.put(_request(2), flow_result)
        assert len(store) == 2

    def test_put_is_idempotent(self, store, flow_result):
        request = _request()
        first = store.put(request, flow_result)
        second = store.put(request, flow_result)
        assert first.result_digest == second.result_digest
        assert len(store) == 1


class TestDurability:
    def test_no_temp_files_survive_put(self, store, flow_result):
        store.put(_request(), flow_result)
        leftovers = [n for n in os.listdir(store.root) if n.endswith(".tmp")]
        assert leftovers == []

    def test_sidecar_readable_without_unpickling(self, store, flow_result):
        request = _request()
        store.put(request, flow_result)
        with open(store._meta_path(request.digest())) as handle:
            meta = json.load(handle)
        assert meta["schema"] == STORE_SCHEMA
        assert meta["request"]["design"] == "matmul"
        assert meta["payload_bytes"] > 0

    def test_missing_payload_is_a_miss(self, store, flow_result):
        """Sidecar without payload (crash between the two writes of an
        eviction) must read as a miss, never an error."""
        request = _request()
        store.put(request, flow_result)
        os.unlink(store._payload_path(request.digest()))
        assert store.get(request.digest()) is None

    def test_corrupt_sidecar_is_a_miss(self, store, flow_result):
        request = _request()
        store.put(request, flow_result)
        with open(store._meta_path(request.digest()), "w") as handle:
            handle.write("{not json")
        assert store.get(request.digest()) is None

    def test_schema_mismatch_raises(self, store, flow_result):
        request = _request()
        store.put(request, flow_result)
        with open(store._payload_path(request.digest()), "wb") as handle:
            pickle.dump({"schema": "something-else/9"}, handle)
        with pytest.raises(ReproError, match="schema"):
            store.get(request.digest()).load()

    def test_entry_of_older_layout_is_a_miss(self, store, flow_result):
        """A ``/1`` entry (dict-state nets) is a miss before anything is
        unpickled: its payload here is not even a pickle."""
        request = _request()
        store.put(request, flow_result)
        digest = request.digest()
        with open(store._meta_path(digest)) as handle:
            meta = json.load(handle)
        meta["schema"] = "repro-result-store/1"
        with open(store._meta_path(digest), "w") as handle:
            json.dump(meta, handle)
        with open(store._payload_path(digest), "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get(digest) is None
        assert store.load_result(digest) is None
        assert store.get_bytes(digest) is None


class TestLru:
    def _age(self, store, digest, seconds_ago):
        then = time.time() - seconds_ago
        for path in (store._payload_path(digest), store._meta_path(digest)):
            os.utime(path, (then, then))

    def test_put_evicts_least_recently_used(self, store, flow_result):
        digests = []
        for seed in (1, 2, 3):
            entry = store.put(_request(seed), flow_result)
            digests.append(entry.digest)
            self._age(store, entry.digest, seconds_ago=100 - seed)
        entry4 = store.put(_request(4), flow_result)
        assert entry4.meta["evicted"] == 1
        assert len(store) == 3
        assert store.get(digests[0]) is None  # oldest gone
        assert store.get(digests[1]) is not None
        assert store.get(digests[2]) is not None

    def test_get_refreshes_recency(self, store, flow_result):
        digests = []
        for seed in (1, 2, 3):
            entry = store.put(_request(seed), flow_result)
            digests.append(entry.digest)
            self._age(store, entry.digest, seconds_ago=100 - seed)
        # Touch the oldest: it must now survive the next eviction.
        assert store.get(digests[0]) is not None
        store.put(_request(4), flow_result)
        assert store.get(digests[0]) is not None
        assert store.get(digests[1]) is None  # second-oldest paid instead

    def test_entries_sorted_lru_first(self, store, flow_result):
        for seed in (1, 2):
            entry = store.put(_request(seed), flow_result)
            self._age(store, entry.digest, seconds_ago=100 - seed)
        records = store.entries()
        assert [r["request"]["seed"] for r in records] == [1, 2]

    def test_max_entries_validated(self, tmp_path):
        with pytest.raises(ReproError):
            ResultStore(str(tmp_path), max_entries=0)


class TestCollectorPausedLoads:
    def test_collector_restored_after_load(self):
        assert gc.isenabled()
        assert unpickle(pickle.dumps({"x": [1]})) == {"x": [1]}
        assert gc.isenabled()

    def test_collector_restored_after_failed_load(self):
        assert gc.isenabled()
        with pytest.raises(Exception):
            unpickle(b"\x80\x04 not a pickle")
        assert gc.isenabled()

    def test_collector_left_off_when_caller_disabled_it(self):
        gc.disable()
        try:
            unpickle(pickle.dumps([1, 2, 3]))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_result_loads_restore_the_collector(self, store, flow_result):
        request = _request()
        store.put(request, flow_result)
        digest = request.digest()
        assert store.load_result(digest).result_digest() == (
            flow_result.result_digest()
        )
        assert store.put_bytes(digest, store.get_bytes(digest)) is not None
        assert store.put_bytes(digest, b"not a pickle") is None
        assert gc.isenabled()
