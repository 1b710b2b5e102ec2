"""Content-addressed result store: ``$REPRO_CACHE_DIR/results/``.

Every entry is one finished flow compilation, keyed by the
:meth:`~repro.service.request.FlowRequest.digest` of the request that
produced it.  Two files per entry:

* ``<digest>.pkl`` — the pickled payload (request encoding, summary, and
  the full :class:`~repro.flow.FlowResult`);
* ``<digest>.json`` — a small metadata sidecar (design, config, Fmax,
  result digest, sizes) readable without unpickling, used for listings and
  the daemon's status endpoint.  A sidecar whose ``schema`` is not
  :data:`STORE_SCHEMA` (an entry of an older layout) is a miss, so its
  payload is never unpickled.

Payloads load through :func:`unpickle`, which pauses the cyclic garbage
collector while the result's object graph is rebuilt.

Guarantees:

* **Atomic writes** — both files are written to a temp name and
  ``os.replace``'d, the same discipline as the calibration cache, so a
  concurrent reader (another daemon, a worker retry racing its
  predecessor's corpse) can never observe a half-written entry.  Writes of
  the same digest are idempotent by construction: the flow is
  deterministic, so last-writer-wins replaces equal bytes with equal bytes.
* **LRU eviction** — the store is bounded (``max_entries``); a successful
  :meth:`ResultStore.get` refreshes the entry's recency (mtime), and
  :meth:`ResultStore.put` evicts the least-recently-used entries beyond
  the bound, reading only names and mtimes (:func:`repro.cachedir.evict_lru`
  stats nothing under the bound).  Eviction is crash-safe: a missing
  sidecar or payload is a miss, never an error, and an entry with a
  corrupt or missing sidecar still counts toward the bound.
* **Write/evict exclusion** — writers and evictors (possibly in different
  processes: every cluster node worker shares its node's store) serialize
  on an ``flock`` over ``<root>/.lock``, and eviction re-checks each
  victim's mtime against its directory-scan snapshot before unlinking.
  Without this, an evictor working from a stale scan could delete the
  entry a concurrent ``put`` just (re)wrote — the race
  ``tests/test_store_concurrency.py`` hammers.  Reads stay lock-free.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

try:
    import fcntl
except ImportError:  # non-POSIX: degrade to unserialized writes
    fcntl = None  # type: ignore[assignment]

from repro.cachedir import SIDECAR_SUFFIXES, evict_lru, read_sidecars
from repro.delay.cache import default_cache_dir
from repro.engine.pool import ensure_pickle_depth
from repro.errors import ReproError
from repro.flow import FlowResult
from repro.service.request import FlowRequest

#: Version tag of the on-disk entry layout (``/2``: tuple-state
#: :class:`~repro.rtl.netlist.Net` pickles).
STORE_SCHEMA = "repro-result-store/2"

#: Default LRU bound.  A FlowResult pickle runs tens of KB to a few MB
#: depending on design depth; 256 entries keeps the store well under a GB
#: while covering every design × config × seed point a realistic sweep hits.
DEFAULT_MAX_ENTRIES = 256


def unpickle(data: bytes) -> Any:
    """``pickle.loads`` with recursion headroom and the collector paused.

    A :class:`FlowResult` unpickles into a large object graph at once.
    With the cyclic collector on, those allocations trigger collections
    that walk the half-built graph over and over.  Only the call that
    disabled the collector turns it back on, so a load that overlaps one
    on another thread never re-enables it under that thread's feet.
    """
    ensure_pickle_depth()
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        return pickle.loads(data)
    finally:
        if paused:
            gc.enable()


def default_store_dir() -> str:
    """``$REPRO_CACHE_DIR/results`` (see :func:`default_cache_dir`)."""
    return os.path.join(default_cache_dir(), "results")


@dataclass
class StoredResult:
    """One store hit: the sidecar metadata plus a lazy payload loader."""

    digest: str
    meta: Dict[str, Any]
    path: str

    @property
    def result_digest(self) -> str:
        return self.meta.get("result_digest", "")

    @property
    def summary(self) -> Dict[str, Any]:
        return self.meta.get("summary", {})

    def load(self) -> FlowResult:
        """Unpickle the full :class:`FlowResult` (the expensive half)."""
        with open(self.path, "rb") as handle:
            payload = unpickle(handle.read())
        if payload.get("schema") != STORE_SCHEMA:
            raise ReproError(
                f"result-store entry {self.path!r} has schema "
                f"{payload.get('schema')!r}, expected {STORE_SCHEMA!r}"
            )
        return payload["result"]


class ResultStore:
    """Bounded, content-addressed cache of finished flow compilations."""

    def __init__(
        self,
        root: Optional[str] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise ReproError(f"max_entries must be >= 1, got {max_entries}")
        self.root = root or default_store_dir()
        self.max_entries = max_entries

    # -- locking ---------------------------------------------------------
    @contextlib.contextmanager
    def _exclusive(self) -> Iterator[None]:
        """Cross-process writer/evictor mutual exclusion.

        ``flock`` is per open-file-description, so a fresh handle per
        acquisition keeps this usable from any process or thread; the
        lock file itself is never an entry (no ``.pkl``/``.json`` suffix).
        Callers must not nest acquisitions (same-thread re-acquisition on
        a second handle would deadlock) — ``put``/``put_bytes`` therefore
        call :func:`~repro.cachedir.evict_lru` directly, not :meth:`evict`.
        """
        os.makedirs(self.root, exist_ok=True)
        if fcntl is None:
            yield
            return
        handle = open(os.path.join(self.root, ".lock"), "ab")
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(handle, fcntl.LOCK_UN)
            finally:
                handle.close()

    # -- paths -----------------------------------------------------------
    def _payload_path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.pkl")

    def _meta_path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    # -- read side -------------------------------------------------------
    def get(self, digest: str) -> Optional[StoredResult]:
        """Look up ``digest``; a hit refreshes the entry's LRU recency."""
        payload_path = self._payload_path(digest)
        meta_path = self._meta_path(digest)
        try:
            with open(meta_path) as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if meta.get("schema") != STORE_SCHEMA:
            return None  # older layout: never unpickle it
        if not os.path.exists(payload_path):
            return None
        now = time.time()
        for path in (payload_path, meta_path):
            try:
                os.utime(path, (now, now))
            except OSError:  # entry raced an eviction; treat as a miss
                return None
        return StoredResult(digest=digest, meta=meta, path=payload_path)

    def load_result(self, digest: str) -> Optional[FlowResult]:
        """Convenience: ``get`` + ``load`` in one call."""
        hit = self.get(digest)
        return hit.load() if hit is not None else None

    def get_bytes(self, digest: str) -> Optional[bytes]:
        """Raw payload pickle for ``digest`` (the ``/result/<digest>`` wire
        format), or ``None`` on a miss.  Strictly local — the explicit
        base-class call bypasses peer-fetch subclasses, so a node serving
        its ``/result`` route can never recurse into the fleet."""
        if ResultStore.get(self, digest) is None:  # sidecar check + LRU refresh
            return None
        try:
            with open(self._payload_path(digest), "rb") as handle:
                return handle.read()
        except OSError:  # raced an eviction
            return None

    def put_bytes(self, digest: str, payload: bytes) -> Optional[StoredResult]:
        """Install a payload fetched from a peer (write-through caching).

        The payload embeds its own metadata, so a transferred entry is
        self-describing: validate the schema and digest, then write
        payload-first/sidecar-last exactly like :meth:`put`.  Returns
        ``None`` (and stores nothing) for corrupt or mismatched payloads.
        """
        try:
            document = unpickle(payload)
        except Exception:
            return None
        if not isinstance(document, dict) or document.get("schema") != STORE_SCHEMA:
            return None
        meta = document.get("meta")
        if not isinstance(meta, dict) or meta.get("digest") != digest:
            return None
        meta = dict(meta)
        meta.pop("evicted", None)
        with self._exclusive():
            self._atomic_write(self._payload_path(digest), payload)
            meta["payload_bytes"] = len(payload)
            self._atomic_write(
                self._meta_path(digest),
                (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode(),
            )
            evict_lru(self.root, self.max_entries, SIDECAR_SUFFIXES)
        return StoredResult(digest=digest, meta=meta, path=self._payload_path(digest))

    def entries(self) -> List[Dict[str, Any]]:
        """All sidecar records, least-recently-used first (for listings)."""
        return read_sidecars(self.root)

    def __len__(self) -> int:
        try:
            return sum(1 for n in os.listdir(self.root) if n.endswith(".pkl"))
        except OSError:
            return 0

    def __bool__(self) -> bool:
        # Without this, an *empty* store is falsy (via __len__) and
        # ``store or ResultStore()`` silently swaps in the default root.
        return True

    # -- write side ------------------------------------------------------
    def put(self, request: FlowRequest, result: FlowResult) -> StoredResult:
        """Store ``result`` under ``request``'s digest (atomic), then evict
        down to ``max_entries``.  Returns the stored entry; the eviction
        count is available on ``entry.meta["evicted"]`` for observability.
        """
        digest = request.digest()
        meta = {
            "schema": STORE_SCHEMA,
            "digest": digest,
            "result_digest": result.result_digest(),
            "request": request.to_dict(),
            "summary": {
                "design": result.design,
                "config": result.config_label,
                "clock_target_mhz": result.clock_target_mhz,
                "fmax_mhz": result.fmax_mhz,
                "period_ns": result.period_ns,
                "critical_path_class": result.timing.path_class.value,
            },
            "created_s": time.time(),
        }
        ensure_pickle_depth()
        payload = {"schema": STORE_SCHEMA, "meta": meta, "result": result}
        blob = pickle.dumps(payload, protocol=4)  # pickle outside the lock
        with self._exclusive():
            # Payload first, sidecar last: a reader that sees the sidecar
            # is guaranteed the payload already exists.
            self._atomic_write(self._payload_path(digest), blob)
            meta["payload_bytes"] = len(blob)
            self._atomic_write(
                self._meta_path(digest),
                (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode(),
            )
            evicted = evict_lru(self.root, self.max_entries, SIDECAR_SUFFIXES)
        meta["evicted"] = evicted
        return StoredResult(digest=digest, meta=meta, path=self._payload_path(digest))

    def _atomic_write(self, path: str, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def evict(self) -> int:
        """Drop least-recently-used entries beyond ``max_entries``."""
        with self._exclusive():
            return evict_lru(self.root, self.max_entries, SIDECAR_SUFFIXES)
