"""Result-store concurrency: evict() racing put()/get() across processes.

The store's contract under concurrency (DESIGN.md, service/store.py):

* a reader can never observe a torn record (atomic temp+rename writes);
* an evictor can never delete the entry a concurrent put just (re)wrote
  (writers and evictors serialize on ``<root>/.lock``, and eviction
  re-checks each victim's mtime against its directory-scan snapshot);
* at rest, every entry is one complete, valid record.

The hammer spawns real processes — a writer re-putting a hot digest amid
filler churn, an evictor spinning ``evict()``, readers validating every
byte they get — against one shared store small enough that eviction runs
constantly.  Worker functions are module-level so they survive both
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro import cachedir
from repro.service.request import FlowRequest
from repro.errors import ReproError
from repro.service.store import ResultRecord, ResultStore
from repro.service.worker import execute_request

#: Small enough that the filler churn keeps eviction busy every put.
MAX_ENTRIES = 4
FILLER_SEEDS = tuple(range(3000, 3008))
HAMMER_SECONDS = 4.0


def _filler_request(seed: int) -> FlowRequest:
    return FlowRequest.make("vector_arith", config="orig", seed=seed)


def _hot_request() -> FlowRequest:
    return FlowRequest.make("vector_arith", config="orig", seed=2020)


def _writer_loop(root, record_path, errors_path, deadline):
    """put() the hot digest amid filler churn; the hot entry must be a
    valid hit immediately after every one of its puts — an evictor
    working from a stale scan is exactly what would break this.

    The filler burst between hot puts ages the hot entry all the way to
    LRU-eligibility, so a concurrent evictor regularly *decides* to
    delete it off a scan taken just before the re-put — the widest
    possible stale-decision window."""
    hot = _hot_request()
    with open(record_path, "rb") as handle:
        result = ResultRecord.parse(handle.read(), hot.digest())
    store = ResultStore(root, max_entries=MAX_ENTRIES)
    errors = []
    index = 0
    while time.time() < deadline:
        for seed in FILLER_SEEDS:
            store.put(_filler_request(seed), result)
        entry = store.put(hot, result)
        hit = store.get(entry.digest)
        if hit is None:
            errors.append(f"hot digest missing immediately after put #{index}")
        elif hit.result_digest != entry.result_digest:
            errors.append(f"hot digest changed identity after put #{index}")
        index += 1
    with open(errors_path, "w") as handle:
        handle.write("\n".join(errors))


def _evictor_loop(root, errors_path, deadline):
    """Spin evict() as fast as possible — the adversary."""
    store = ResultStore(root, max_entries=MAX_ENTRIES)
    errors = []
    while time.time() < deadline:
        try:
            store.evict()
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            errors.append(f"evict raised {type(exc).__name__}: {exc}")
            break
    with open(errors_path, "w") as handle:
        handle.write("\n".join(errors))


def _reader_loop(root, errors_path, deadline):
    """Read every record file straight off disk, and the hot one through
    get_bytes() too, constantly; every record that is there must parse and
    check out for its digest (``get`` alone would read a torn record as a
    miss).  Only the hot entry is read through ``get``: a ``get`` refreshes
    recency, and readers refreshing every filler between the writer's put
    and its check would make the hot entry least-recently-used, which an
    evictor then rightly removes."""
    store = ResultStore(root, max_entries=MAX_ENTRIES)
    hot = _hot_request().digest()
    digests = [hot] + [_filler_request(seed).digest() for seed in FILLER_SEEDS]
    errors = []
    index = 0
    while time.time() < deadline:
        digest = digests[index % len(digests)]
        index += 1
        try:
            with open(os.path.join(root, digest + ".json"), "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            raw = None  # a miss (evicted, or not written yet) is always legal
        hit = store.get_bytes(digest) if digest == hot else None
        for data in (raw, hit):
            if data is None:
                continue
            try:
                ResultRecord.parse(data, digest)
            except ReproError as exc:
                errors.append(f"torn record for {digest[:12]}: {exc}")
    with open(errors_path, "w") as handle:
        handle.write("\n".join(errors))


class TestStoreConcurrency:
    def test_evict_racing_put_and_get_is_safe(self, tmp_path):
        record = ResultRecord.build(_hot_request(), execute_request(_hot_request()))
        record_path = str(tmp_path / "record.json")
        with open(record_path, "wb") as handle:
            handle.write(record.to_bytes())
        root = str(tmp_path / "store")
        deadline = time.time() + HAMMER_SECONDS
        specs = [
            (_writer_loop, (root, record_path)),
            (_evictor_loop, (root,)),
            (_reader_loop, (root,)),
            (_reader_loop, (root,)),
        ]
        processes = []
        error_paths = []
        for index, (target, args) in enumerate(specs):
            errors_path = str(tmp_path / f"errors-{index}.txt")
            error_paths.append(errors_path)
            process = multiprocessing.Process(
                target=target, args=args + (errors_path, deadline)
            )
            process.start()
            processes.append(process)
        for process in processes:
            process.join(timeout=HAMMER_SECONDS + 180)
            assert not process.is_alive(), "hammer worker wedged"
            assert process.exitcode == 0

        failures = []
        for errors_path in error_paths:
            with open(errors_path) as handle:
                text = handle.read().strip()
            if text:
                failures.append(text)
        assert not failures, "\n".join(failures)

        # At-rest consistency: only valid records, bound respected.
        store = ResultStore(root, max_entries=MAX_ENTRIES)
        for name in os.listdir(root):
            if name == ".lock":
                continue
            assert name.endswith(".json"), f"stray file {name}"
            assert store.get(name[: -len(".json")]) is not None, name
        assert len(store) <= MAX_ENTRIES + 1  # the writer's last put
        store.evict()
        assert len(store) <= MAX_ENTRIES

    def test_stale_scan_cannot_delete_rewritten_entry(self, tmp_path, monkeypatch):
        """Deterministic version of the race the hammer can only make
        probable: an evictor that *decided* off an old directory scan
        must re-check mtimes and spare an entry a put rewrote since."""
        result = execute_request(_hot_request())
        root = str(tmp_path / "store")
        # Writer bound is one larger so its own put-time eviction never
        # removes the hot entry; the tighter-bounded evictor still sees
        # one entry of excess — the hot entry, its stale LRU victim.
        writer = ResultStore(root, max_entries=MAX_ENTRIES + 1)
        hot_entry = writer.put(_hot_request(), result)
        for seed in FILLER_SEEDS[:MAX_ENTRIES]:
            writer.put(_filler_request(seed), result)
        # The hot entry is now the LRU victim in this (soon stale) scan.
        evictor = ResultStore(root, max_entries=MAX_ENTRIES)
        stale_records = cachedir.scan_lru(root, cachedir.SIDECAR_SUFFIXES)
        assert stale_records[0][1] == hot_entry.digest
        time.sleep(0.01)  # ensure the rewrite lands a distinct mtime
        writer.put(_hot_request(), result)  # concurrent rewrite
        scans = []
        monkeypatch.setattr(
            cachedir, "scan_lru", lambda *args: scans.append(args) or stale_records
        )
        assert evictor.evict() == 0
        assert scans, "evict() no longer decides from scan_lru"
        hit = writer.get(hot_entry.digest)
        assert hit is not None, "evictor deleted a just-rewritten entry"
        assert hit.result_digest == hot_entry.result_digest

    def test_no_temp_droppings_survive(self, tmp_path):
        """Atomic writes must not leak .tmp files on the happy path."""
        result = execute_request(_hot_request())
        store = ResultStore(str(tmp_path / "store"), max_entries=2)
        for seed in FILLER_SEEDS[:4]:
            store.put(_filler_request(seed), result)
        leftovers = [
            name for name in os.listdir(store.root) if name.endswith(".tmp")
        ]
        assert leftovers == []
