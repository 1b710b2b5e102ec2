"""The content-addressed result store: records, atomicity, LRU, crash
tolerance, and what it refuses from a tampered entry file."""

from __future__ import annotations

import json
import os
import pickle
import time

import pytest

from repro.designs import build_design
from repro.errors import ReproError
from repro.flow import Flow
from repro.opt import BASELINE
from repro.service import store as store_module
from repro.service.request import FlowRequest
from repro.service.store import (
    MAX_RECORD_BYTES,
    STORE_SCHEMA,
    ResultRecord,
    ResultStore,
)


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

    def test_record_round_trips_fingerprint_and_timing(self, store, flow_result):
        request = _request()
        store.put(request, flow_result)
        loaded = store.load_result(request.digest())
        assert isinstance(loaded, ResultRecord)
        assert loaded.fingerprint() == flow_result.fingerprint()
        assert loaded.result_digest() == flow_result.result_digest()
        assert loaded.timing.path_class == flow_result.timing.path_class
        assert [hop.cell for hop in loaded.timing.critical_path] == [
            hop.cell for hop in flow_result.timing.critical_path
        ]
        assert loaded.fmax_mhz == flow_result.fmax_mhz
        assert loaded.journal == flow_result.journal

    def test_put_accepts_a_record(self, store, flow_result, tmp_path):
        """What a client holds after ``load_result`` stores like the live
        result it was built from."""
        request = _request()
        store.put(request, flow_result)
        other = ResultStore(str(tmp_path / "other"))
        entry = other.put(request, store.load_result(request.digest()))
        assert entry.result_digest == flow_result.result_digest()
        assert other.get_bytes(request.digest()) == store.get_bytes(request.digest())

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
        """One file per entry, and it is canonical JSON."""
        request = _request()
        store.put(request, flow_result)
        assert sorted(os.listdir(store.root)) == [".lock", request.digest() + ".json"]
        with open(store._path(request.digest()), "rb") as handle:
            data = handle.read()
        record = json.loads(data)
        assert record["schema"] == STORE_SCHEMA
        assert record["request"]["design"] == "matmul"
        assert record["fingerprint"] == flow_result.fingerprint()
        assert data == json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode()

    def test_missing_payload_is_a_miss(self, store, flow_result):
        """A record file gone (evicted between a listing and a read) is a
        miss, never an error."""
        request = _request()
        store.put(request, flow_result)
        os.unlink(store._path(request.digest()))
        assert store.get(request.digest()) is None

    def test_corrupt_sidecar_is_a_miss(self, store, flow_result):
        request = _request()
        store.put(request, flow_result)
        with open(store._path(request.digest()), "w") as handle:
            handle.write("{not json")
        assert store.get(request.digest()) is None

    def test_schema_mismatch_raises(self, store, flow_result):
        request = _request()
        store.put(request, flow_result)
        path = store._path(request.digest())
        with open(path) as handle:
            record = json.load(handle)
        record["schema"] = "something-else/9"
        data = json.dumps(record).encode()
        with pytest.raises(ReproError, match="schema"):
            ResultRecord.parse(data, request.digest())
        with open(path, "wb") as handle:
            handle.write(data)
        assert store.get(request.digest()) is None

    def test_entry_of_older_layout_is_a_miss(self, store, flow_result):
        """A ``/2`` entry (sidecar plus pickled payload) is a miss; its
        payload is never opened."""
        request = _request()
        digest = request.digest()
        os.makedirs(store.root, exist_ok=True)
        with open(store._path(digest), "w") as handle:
            json.dump({"schema": "repro-result-store/2", "digest": digest}, handle)
        with open(os.path.join(store.root, digest + ".pkl"), "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get(digest) is None
        assert store.load_result(digest) is None
        assert store.get_bytes(digest) is None


class TestLru:
    def _age(self, store, digest, seconds_ago):
        then = time.time() - seconds_ago
        os.utime(store._path(digest), (then, then))

    def test_put_evicts_least_recently_used(self, store, flow_result):
        digests = []
        for seed in (1, 2, 3):
            entry = store.put(_request(seed), flow_result)
            digests.append(entry.digest)
            self._age(store, entry.digest, seconds_ago=100 - seed)
        entry4 = store.put(_request(4), flow_result)
        assert entry4.evicted == 1
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


class TestTraces:
    """``<digest>.trace``: the merged trace document stored next to the
    record, one entry and one recency with it."""

    DOCUMENT = {"schema": "repro-trace/1", "state": "done", "worker_spans": []}

    def _age(self, store, digest, seconds_ago):
        then = time.time() - seconds_ago
        for suffix in (".json", ".trace"):
            path = store._path(digest, suffix)
            if os.path.exists(path):
                os.utime(path, (then, then))

    def test_put_trace_round_trips_in_sorted_json(self, store):
        digest = _request().digest()
        store.put_trace(digest, {"b": 1, "a": [2]})
        assert store.get_trace(digest) == {"b": 1, "a": [2]}
        with open(store._path(digest, ".trace"), "rb") as handle:
            assert handle.read() == b'{"a": [2], "b": 1}\n'
        assert len(store) == 0  # a trace is not a record
        assert store.entries() == []

    def test_eviction_takes_the_trace_with_its_record(self, store, flow_result):
        digests = []
        for seed in (1, 2, 3):
            entry = store.put(_request(seed), flow_result)
            store.put_trace(entry.digest, self.DOCUMENT)
            digests.append(entry.digest)
            self._age(store, entry.digest, seconds_ago=100 - seed)
        assert store.put(_request(4), flow_result).evicted == 1
        assert not os.path.exists(store._path(digests[0]))
        assert not os.path.exists(store._path(digests[0], ".trace"))
        assert store.get_trace(digests[1]) == self.DOCUMENT

    def test_lone_trace_counts_and_is_evicted(self, store, flow_result):
        """A failed job stores a trace and no record: it takes a slot of
        the bound and goes in its LRU turn."""
        failed = _request(99).digest()
        store.put_trace(failed, self.DOCUMENT)
        self._age(store, failed, seconds_ago=100)
        kept = [store.put(_request(seed), flow_result).digest for seed in (1, 2)]
        assert store.get_trace(failed) == self.DOCUMENT  # three entries: fits
        assert store.put(_request(3), flow_result).evicted == 1
        assert store.get_trace(failed) is None
        assert all(store.get(digest) is not None for digest in kept)

    def test_put_trace_evicts_too(self, store, flow_result):
        for seed in (1, 2, 3):
            entry = store.put(_request(seed), flow_result)
            self._age(store, entry.digest, seconds_ago=100 - seed)
        assert store.put_trace(_request(99).digest(), self.DOCUMENT) == 1
        assert len(store) == 2

    def test_resolve_prefixes(self, store, flow_result):
        recorded = store.put(_request(1), flow_result).digest
        traced = _request(2).digest()
        store.put_trace(traced, self.DOCUMENT)
        store.put_trace(recorded, self.DOCUMENT)
        assert store.resolve(recorded[:12]) == [recorded]
        assert store.resolve("") == sorted({recorded, traced})
        assert store.resolve("../") == []

    @pytest.mark.parametrize(
        "digest", ["../x", "A" * 64, "0" * 63, "0" * 65, "", "0" * 63 + "/"]
    )
    def test_a_digest_that_is_not_64_lowercase_hex_is_a_miss(
        self, store, tmp_path, digest
    ):
        (tmp_path / "x.json").write_text('{"not": "a trace"}')
        (tmp_path / "x.trace").write_text('{"not": "a trace"}')
        assert store.get(digest) is None
        assert store.get_bytes(digest) is None
        assert store.get_trace(digest) is None
        with pytest.raises(ReproError, match="not a request digest"):
            store.put_trace(digest, self.DOCUMENT)


class TestTamperedEntry:
    """The entry files on disk are the bytes from outside the program that
    the store parses: every malformed or lying record written at an
    entry's path reads as a miss, and nothing is unpickled."""

    @pytest.fixture()
    def good(self, flow_result):
        request = _request()
        return request.digest(), ResultRecord.build(request, flow_result).to_bytes()

    @pytest.fixture(autouse=True)
    def no_unpickling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an entry's bytes reached pickle.loads")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)

    @staticmethod
    def _edit(data, **changes):
        record = json.loads(data)
        record.update(changes)
        return json.dumps(record).encode()

    @staticmethod
    def _write(store, digest, data):
        os.makedirs(store.root, exist_ok=True)
        with open(store._path(digest), "wb") as handle:
            handle.write(data)

    def _refused(self, store, digest, data):
        self._write(store, digest, data)
        assert store.get(digest) is None
        assert store.get_bytes(digest) is None

    def test_valid_record_reads(self, store, good):
        digest, data = good
        self._write(store, digest, data)
        assert store.get(digest) is not None
        assert store.get_bytes(digest) == data

    def test_corrupt(self, store, good):
        self._refused(store, good[0], b"{not json")
        self._refused(store, good[0], b"\xff\xfe binary")
        self._refused(store, good[0], b"[" * 100_000 + b"]" * 100_000)

    def test_truncated(self, store, good):
        digest, data = good
        self._refused(store, digest, data[: len(data) // 2])

    def test_wrong_result_digest(self, store, good):
        digest, data = good
        self._refused(store, digest, self._edit(data, result_digest="0" * 64))

    def test_fingerprint_edited_under_its_digest(self, store, good):
        digest, data = good
        fingerprint = json.loads(data)["fingerprint"]
        fingerprint["fmax_mhz"] = 999.0
        self._refused(store, digest, self._edit(data, fingerprint=fingerprint))

    def test_wrong_request_digest(self, store, good):
        """A valid record of another request, offered under this digest."""
        digest, data = good
        other = _request(seed=7)
        request = json.loads(data)["request"]
        assert request != other.to_dict()
        lying = self._edit(data, request=other.to_dict())
        self._refused(store, digest, lying)
        self._refused(store, digest, self._edit(data, digest=other.digest()))
        self._refused(store, other.digest(), data)

    def test_timing_report_of_another_path(self, store, good):
        digest, data = good
        report = json.loads(data)["timing_report"]
        forged = report.replace("Path Class: ", "Path Class: x", 1)
        self._refused(store, digest, self._edit(data, timing_report=forged))

    def test_oversized(self, store, good):
        digest, data = good
        padded = self._edit(data, journal=["x" * MAX_RECORD_BYTES])
        self._refused(store, digest, padded)

    def test_pickle(self, store, good, flow_result):
        digest, data = good
        self._refused(store, digest, pickle.dumps(json.loads(data), protocol=4))
        self._refused(store, digest, pickle.dumps(flow_result, protocol=4))

    def test_wire_modules_do_not_import_pickle(self):
        assert not hasattr(store_module, "pickle")
