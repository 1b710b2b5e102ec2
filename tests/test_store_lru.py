"""LRU eviction of the on-disk stores, read from directory metadata only.

The stage store and the result store share one eviction routine
(:func:`repro.cachedir.evict_lru`).  These tests pin its contract:

* a write at or under the bound parses no sidecar and stats no file;
* victims go in ``(mtime, key)`` order, the digest breaking mtime ties,
  and every put leaves the store within its bound;
* an entry with a corrupt sidecar, or an orphan file without one, counts
  toward the bound and is evicted in its LRU turn.  For the stage store
  the orphan is a payload whose sidecar was never written; for the result
  store it is the lone ``.trace`` of a failed job.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import os

import pytest

from repro import cachedir
from repro.designs import build_design
from repro.flow import Flow
from repro.opt import BASELINE
from repro.pipeline.store import StageArtifactStore, encode_outputs
from repro.service.request import FlowRequest
from repro.service.store import ENTRY_SUFFIXES, ResultRecord, ResultStore


@pytest.fixture(scope="module")
def flow_result(synthetic_table):
    return Flow(calibration=synthetic_table).run(build_design("matmul"), BASELINE)


@pytest.fixture(scope="module", autouse=True)
def result_template(flow_result):
    """The result every result-store entry of these tests records."""
    _ResultKind.template = ResultRecord.build(
        FlowRequest.make("matmul", config="orig"), flow_result
    )


def _key(index: int) -> str:
    return hashlib.sha256(str(index).encode()).hexdigest()


class _StageKind:
    suffixes = cachedir.SIDECAR_SUFFIXES
    orphan = ".pkl"  # a payload whose sidecar was never written

    def __init__(self, root: str, max_entries: int) -> None:
        self.store = StageArtifactStore(root=root, max_entries=max_entries)
        self.root = root

    def put(self, index: int) -> str:
        key = _key(index)
        self.store.put(key, encode_outputs("demo", {"i": index}), {"stage": "demo"})
        return key

    def __len__(self) -> int:
        return len(self.store)


class _ResultKind(_StageKind):
    suffixes = ENTRY_SUFFIXES
    orphan = ".trace"  # a failed job's trace, with no record
    template: ResultRecord

    def __init__(self, root: str, max_entries: int) -> None:
        self.store = ResultStore(root, max_entries=max_entries)
        self.root = root

    def put(self, index: int) -> str:
        request = FlowRequest.make("matmul", config="orig", seed=1000 + index)
        self.store.put(request, self.template)
        return request.digest()


KINDS = {"stage": _StageKind, "result": _ResultKind}


def _age(kind, key: str, mtime: float) -> None:
    for suffix in kind.suffixes:
        path = os.path.join(kind.root, key + suffix)
        if os.path.exists(path):
            os.utime(path, (mtime, mtime))


def _present(kind, key: str) -> bool:
    return any(
        os.path.exists(os.path.join(kind.root, key + suffix))
        for suffix in kind.suffixes
    )


def _spy(monkeypatch):
    """Count sidecar parses, recency stats and files opened by name."""
    calls = {"json.load": 0, "stat": 0, "opened": []}
    real_load, real_open, real_mtime = json.load, builtins.open, cachedir._mtime

    def load(*args, **kwargs):
        calls["json.load"] += 1
        return real_load(*args, **kwargs)

    def opener(file, *args, **kwargs):
        calls["opened"].append(str(file))
        return real_open(file, *args, **kwargs)

    def mtime(*args, **kwargs):
        calls["stat"] += 1
        return real_mtime(*args, **kwargs)

    monkeypatch.setattr(json, "load", load)
    monkeypatch.setattr(builtins, "open", opener)
    monkeypatch.setattr(cachedir, "_mtime", mtime)
    return calls


def _entry_files(calls):
    return [
        path for path in calls["opened"] if path.endswith((".json", ".pkl", ".trace"))
    ]


class TestWritePathReadsNoSidecar:
    """A put under the bound is O(1): no sidecar parse, no stat.  Over the
    bound it stats recency files but still opens none."""

    def test_stage_store_put_at_bound(self, tmp_path, monkeypatch):
        kind = _StageKind(str(tmp_path / "stages"), max_entries=16)
        for index in range(15):
            kind.put(index)
        calls = _spy(monkeypatch)
        assert kind.store.put(_key(15), encode_outputs("demo", {}), {}) == 0
        assert calls["json.load"] == 0
        assert calls["stat"] == 0
        assert _entry_files(calls) == []
        assert len(kind) == 16

        assert kind.store.put(_key(16), encode_outputs("demo", {}), {}) == 1
        assert calls["json.load"] == 0
        assert _entry_files(calls) == []
        assert len(kind) == 16

    def test_result_store_put_at_bound(self, tmp_path, monkeypatch, flow_result):
        kind = _ResultKind(str(tmp_path / "results"), max_entries=16)
        for index in range(15):
            kind.put(index)
        calls = _spy(monkeypatch)
        request = FlowRequest.make("matmul", config="orig", seed=1)
        assert kind.store.put(request, flow_result).evicted == 0
        assert calls["json.load"] == 0
        assert calls["stat"] == 0
        assert _entry_files(calls) == []  # only the lock file is opened
        assert len(kind) == 16

        request = FlowRequest.make("matmul", config="orig", seed=2)
        assert kind.store.put(request, flow_result).evicted == 1
        assert calls["json.load"] == 0
        assert _entry_files(calls) == []
        assert len(kind) == 16


@pytest.mark.parametrize("name", sorted(KINDS))
def test_victims_oldest_first_digest_breaks_ties(tmp_path, name):
    kind = KINDS[name](str(tmp_path / name), max_entries=3)
    keys = [kind.put(index) for index in range(3)]
    aged = {keys[0]: 300.0, keys[1]: 100.0, keys[2]: 100.0}
    for key, mtime in aged.items():
        _age(kind, key, mtime)
    expected = [key for _, key in sorted((m, k) for k, m in aged.items())]

    evicted = []
    for index in range(3, 6):
        before = {k for k in aged if _present(kind, k)}
        kind.put(index)
        assert len(kind) <= 3
        gone = before - {k for k in aged if _present(kind, k)}
        assert len(gone) == 1
        evicted.extend(gone)
    assert evicted == expected


@pytest.mark.parametrize("name", ["result", "stage"])
class TestLeakedEntriesAreEvicted:
    """Entries a killed writer or a torn sidecar leave behind still count."""

    def test_corrupt_sidecar_counts_and_is_evicted(self, tmp_path, name):
        kind = KINDS[name](str(tmp_path / name), max_entries=2)
        corrupt = kind.put(0)
        with open(os.path.join(kind.root, corrupt + ".json"), "w") as handle:
            handle.write("{not json")
        _age(kind, corrupt, 100.0)
        kept = kind.put(1)
        assert kind.store.get(corrupt) is None  # unreadable: a miss
        kind.put(2)  # three entries on disk: the corrupt one is oldest
        assert not _present(kind, corrupt)
        assert _present(kind, kept)
        assert len(kind) == 2

    def test_orphan_payload_counts_and_is_evicted(self, tmp_path, name):
        kind = KINDS[name](str(tmp_path / name), max_entries=2)
        os.makedirs(kind.root, exist_ok=True)
        orphan = _key(99)
        with open(os.path.join(kind.root, orphan + kind.orphan), "wb") as handle:
            handle.write(b"killed mid-write")
        _age(kind, orphan, 100.0)
        kept = kind.put(0)
        kind.put(1)  # three entries on disk: the orphan is oldest
        assert not _present(kind, orphan)
        assert _present(kind, kept)
        assert len(kind) == 2

    def test_fresh_orphan_is_never_the_victim(self, tmp_path, name):
        kind = KINDS[name](str(tmp_path / name), max_entries=2)
        oldest = kind.put(0)
        _age(kind, oldest, 100.0)
        kept = kind.put(1)
        _age(kind, kept, 200.0)
        orphan = _key(99)  # just written: the newest file on disk
        with open(os.path.join(kind.root, orphan + kind.orphan), "wb") as handle:
            handle.write(b"in flight")
        assert kind.store.evict() == 1
        assert _present(kind, orphan)
        assert not _present(kind, oldest)
        assert _present(kind, kept)
