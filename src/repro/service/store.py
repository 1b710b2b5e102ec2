"""Content-addressed result store: ``$REPRO_CACHE_DIR/results/``.

The service's one per-request store.  An entry is keyed by a
:meth:`~repro.service.request.FlowRequest.digest` and is up to two files:

* ``<digest>.json`` — the canonical-JSON :class:`ResultRecord` of a
  finished compilation: the request encoding, the result's
  :meth:`~repro.flow.FlowResult.fingerprint` (whose design, config, clock,
  Fmax, period and critical-path class are the summary the daemon
  reports), the timing report with its critical path, and the stage
  journal.  It is data only: a hit and a ``/result/<digest>`` download
  both parse JSON, and nothing another process wrote is ever unpickled.
  The full :class:`~repro.flow.FlowResult` stays in the process that
  compiled it.
* ``<digest>.trace`` — the merged trace document (``repro-trace/1``) of
  the last job that ran the request in workers
  (:meth:`ResultStore.put_trace`).  A failed job leaves a lone ``.trace``
  that also names its request, the failure ``reason`` and the ``error``.

Every record is validated where it is read, by :meth:`ResultRecord.parse`:
the fingerprint must hash to the record's ``result_digest``, and the
request must hash to the digest the record is stored under.  A file that
fails either check, or whose ``schema`` is not :data:`STORE_SCHEMA`, is a
miss.  :meth:`ResultStore._path` is the one place entry paths are built,
and a digest that is not 64 lowercase hex characters names no entry, so
no lookup reaches outside ``root``.

Guarantees:

* **Atomic writes** — both files go through
  :func:`repro.cachedir.atomic_write`, so a concurrent reader (another
  daemon, a worker retry racing its predecessor's corpse) never observes
  a half-written file.  The flow is deterministic, so rewriting a digest
  replaces its record with an equal one.
* **LRU eviction** — the store holds at most ``max_entries`` entries.  An
  entry's recency is its ``.json`` mtime (a lone ``.trace``'s otherwise),
  refreshed by a :meth:`ResultStore.get` hit.  :meth:`ResultStore.put`
  and :meth:`ResultStore.put_trace` evict beyond the bound, reading only
  names and mtimes (:func:`repro.cachedir.evict_lru`); a record and its
  trace go together, and a lone ``.trace`` or a corrupt record counts.
* **Write/evict exclusion** — writers and evictors (possibly in different
  processes: every worker of a daemon shares the daemon's store) serialize
  on an ``flock`` over ``<root>/.lock``, and eviction re-checks each
  victim's mtime against its directory-scan snapshot before unlinking.
  Without this, an evictor working from a stale scan could delete the
  entry a concurrent ``put`` just (re)wrote — the race
  ``tests/test_store_concurrency.py`` hammers.  Reads stay lock-free.

Workers spool their spans to ``<root>/spool/`` (:mod:`repro.service.traces`).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.cachedir import atomic_write, evict_lru, file_lock, read_sidecars
from repro.delay.cache import default_cache_dir
from repro.errors import ReproError
from repro.flow import FlowResult, fingerprint_digest
from repro.hashing import canonical_json
from repro.physical.timing import TimingResult
from repro.physical.timing_report import emit_timing_report, parse_timing_report
from repro.service.request import FlowRequest

#: Version tag of the on-disk entry layout (``/3``: one canonical-JSON
#: result record per entry, no pickled payload).
STORE_SCHEMA = "repro-result-store/3"

#: The files of one entry; the first present one carries its recency.
ENTRY_SUFFIXES = (".json", ".trace")

#: A request digest: the only entry names the store builds paths from.
_DIGEST = re.compile(r"[0-9a-f]{64}")

#: Default LRU bound.  A record is a few KB, so the bound is about how
#: many design × config × seed points a sweep revisits, not disk.
DEFAULT_MAX_ENTRIES = 256

#: Largest record :meth:`ResultRecord.parse` accepts.  Real records are a
#: few KB (the critical path is the longest part); anything near this is
#: not a record, and is refused before it is parsed.
MAX_RECORD_BYTES = 1 << 20

#: The fingerprint fields the daemon reports as a job's summary.
SUMMARY_FIELDS = (
    "design",
    "config",
    "clock_target_mhz",
    "fmax_mhz",
    "period_ns",
    "critical_path_class",
)


def default_store_dir() -> str:
    """``$REPRO_CACHE_DIR/results`` (see :func:`default_cache_dir`)."""
    return os.path.join(default_cache_dir(), "results")


class ResultRecord:
    """One finished compilation as validated data.

    Build one from a live result with :meth:`build`, or from stored or
    downloaded bytes with :meth:`parse`, which checks it.  It answers what
    callers of the store read from a :class:`~repro.flow.FlowResult`:
    :meth:`result_digest`, :meth:`fingerprint`, the summary fields, a
    :attr:`timing` parsed on demand from the stored report, and the stage
    :attr:`journal`.
    """

    __slots__ = ("document", "_timing")

    def __init__(self, document: Dict[str, Any]) -> None:
        self.document = document
        self._timing: Optional[TimingResult] = None

    @classmethod
    def build(
        cls, request: FlowRequest, result: Union[FlowResult, "ResultRecord"]
    ) -> "ResultRecord":
        """The record of ``result`` stored under ``request``'s digest."""
        if isinstance(result, ResultRecord):
            report = result.timing_report
        else:
            report = emit_timing_report(result.timing, design=result.design)
        return cls(
            {
                "schema": STORE_SCHEMA,
                "digest": request.digest(),
                "request": request.to_dict(),
                "result_digest": result.result_digest(),
                "fingerprint": result.fingerprint(),
                "timing_report": report,
                "journal": list(result.journal or []),
            }
        )

    @classmethod
    def parse(cls, data: bytes, digest: str) -> "ResultRecord":
        """Parse and check the record bytes stored or fetched under
        ``digest``; raises :class:`ReproError` on anything else."""
        if len(data) > MAX_RECORD_BYTES:
            raise ReproError(f"result record of {len(data)} bytes is oversized")
        try:
            document = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise ReproError(f"result record is not JSON: {exc}") from None
        if not isinstance(document, dict) or document.get("schema") != STORE_SCHEMA:
            raise ReproError("not a result record of schema " + STORE_SCHEMA)
        request = document.get("request")
        fingerprint = document.get("fingerprint")
        report = document.get("timing_report")
        journal = document.get("journal")
        if not (
            isinstance(request, dict)
            and isinstance(fingerprint, dict)
            and isinstance(report, str)
            and isinstance(journal, list)
        ):
            raise ReproError("result record is missing a field")
        try:
            request_digest = FlowRequest.from_dict(request).digest()
            result_digest = fingerprint_digest(fingerprint)
        except Exception as exc:  # malformed request or non-canonical values
            raise ReproError(f"result record does not hash: {exc}") from None
        if request_digest != digest or document.get("digest") != digest:
            raise ReproError(f"result record does not answer request {digest}")
        if result_digest != document.get("result_digest"):
            raise ReproError("result record's fingerprint does not match its digest")
        missing = [name for name in SUMMARY_FIELDS if name not in fingerprint]
        if missing:
            raise ReproError(f"result record's fingerprint lacks {missing}")
        if f"\nPath Class: {fingerprint['critical_path_class']}\n" not in report:
            raise ReproError("result record's timing report is of another path")
        return cls(
            {
                "schema": STORE_SCHEMA,
                "digest": digest,
                "request": request,
                "result_digest": result_digest,
                "fingerprint": fingerprint,
                "timing_report": report,
                "journal": journal,
            }
        )

    def to_bytes(self) -> bytes:
        """The canonical-JSON encoding stored on disk and served by
        ``/result/<digest>``."""
        return canonical_json(self.document).encode("ascii")

    # -- what callers read -------------------------------------------------
    @property
    def digest(self) -> str:
        return self.document["digest"]

    def result_digest(self) -> str:
        return self.document["result_digest"]

    def fingerprint(self) -> Dict[str, Any]:
        return dict(self.document["fingerprint"])

    @property
    def summary(self) -> Dict[str, Any]:
        fingerprint = self.document["fingerprint"]
        return {name: fingerprint[name] for name in SUMMARY_FIELDS}

    @property
    def design(self) -> str:
        return self.document["fingerprint"]["design"]

    @property
    def config_label(self) -> str:
        return self.document["fingerprint"]["config"]

    @property
    def clock_target_mhz(self) -> float:
        return self.document["fingerprint"]["clock_target_mhz"]

    @property
    def fmax_mhz(self) -> float:
        return self.document["fingerprint"]["fmax_mhz"]

    @property
    def period_ns(self) -> float:
        return self.document["fingerprint"]["period_ns"]

    @property
    def timing_report(self) -> str:
        return self.document["timing_report"]

    @property
    def timing(self) -> TimingResult:
        """The critical path, parsed from the report on first access."""
        if self._timing is None:
            self._timing = parse_timing_report(self.timing_report)
        return self._timing

    @property
    def journal(self) -> List[Dict[str, Any]]:
        return self.document["journal"]


@dataclass
class StoredResult:
    """One store entry: its validated record."""

    record: ResultRecord
    #: Entries the write that returned this evicted (``put`` only).
    evicted: int = 0

    @property
    def digest(self) -> str:
        return self.record.digest

    @property
    def result_digest(self) -> str:
        return self.record.result_digest()

    @property
    def summary(self) -> Dict[str, Any]:
        return self.record.summary


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

        A :func:`~repro.cachedir.file_lock` on ``<root>/.lock``; the lock
        file itself is never an entry (no ``.json``/``.trace`` suffix).
        Callers must not nest acquisitions (the lock is not re-entrant) —
        ``put`` and ``put_trace`` therefore call
        :func:`~repro.cachedir.evict_lru` directly, not :meth:`evict`.
        """
        os.makedirs(self.root, exist_ok=True)
        with file_lock(os.path.join(self.root, ".lock")):
            yield

    def _path(self, digest: str, suffix: str = ".json") -> str:
        """The path of ``digest``'s ``suffix`` file; raises
        :class:`ReproError` for anything but 64 lowercase hex characters."""
        if not _DIGEST.fullmatch(digest):
            raise ReproError(f"not a request digest: {digest!r}")
        return os.path.join(self.root, digest + suffix)

    # -- read side -------------------------------------------------------
    def get(self, digest: str) -> Optional[StoredResult]:
        """Look up ``digest``; a valid hit refreshes the entry's LRU recency."""
        try:
            path = self._path(digest)
            with open(path, "rb") as handle:
                record = ResultRecord.parse(handle.read(), digest)
        except (OSError, ReproError):
            return None
        now = time.time()
        try:
            os.utime(path, (now, now))
        except OSError:  # entry raced an eviction; treat as a miss
            return None
        return StoredResult(record=record)

    def load_result(self, digest: str) -> Optional[ResultRecord]:
        """The record stored under ``digest``, or ``None`` on a miss."""
        hit = self.get(digest)
        return hit.record if hit is not None else None

    def get_bytes(self, digest: str) -> Optional[bytes]:
        """The record bytes for ``digest`` (the ``/result/<digest>`` wire
        format), or ``None`` on a miss."""
        hit = self.get(digest)
        return hit.record.to_bytes() if hit is not None else None

    def get_trace(self, digest: str) -> Optional[Dict[str, Any]]:
        """The trace document stored under ``digest``, or ``None``; leaves
        the entry's recency alone."""
        try:
            with open(self._path(digest, ".trace"), "rb") as handle:
                document = json.load(handle)
        except (OSError, ReproError, ValueError, RecursionError):
            return None
        return document if isinstance(document, dict) else None

    def resolve(self, prefix: str) -> List[str]:
        """Stored request digests starting with ``prefix``, sorted: how
        ``repro trace --request`` accepts the 12-character prefixes
        ``repro submit`` prints."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        keys = {n.rsplit(".", 1)[0] for n in names if n.endswith(ENTRY_SUFFIXES)}
        return sorted(k for k in keys if k.startswith(prefix) and _DIGEST.fullmatch(k))

    def entries(self) -> List[Dict[str, Any]]:
        """All parseable records, least-recently-used first (for listings)."""
        return read_sidecars(self.root)

    def __len__(self) -> int:
        try:
            return sum(1 for n in os.listdir(self.root) if n.endswith(".json"))
        except OSError:
            return 0

    def __bool__(self) -> bool:
        # Without this, an *empty* store is falsy (via __len__) and
        # ``store or ResultStore()`` silently swaps in the default root.
        return True

    # -- write side ------------------------------------------------------
    def put(
        self, request: FlowRequest, result: Union[FlowResult, ResultRecord]
    ) -> StoredResult:
        """Store ``result`` (a live result or a record) under ``request``'s
        digest (atomic), then evict down to ``max_entries``.  The returned
        entry's ``evicted`` counts the entries that made room."""
        record = ResultRecord.build(request, result)
        data = record.to_bytes()  # encode outside the lock
        path = self._path(record.digest)
        with self._exclusive():
            atomic_write(path, data)
            evicted = evict_lru(
                self.root, self.max_entries, ENTRY_SUFFIXES, keep=record.digest
            )
        return StoredResult(record=record, evicted=evicted)

    def put_trace(self, digest: str, document: Dict[str, Any]) -> int:
        """Store ``document`` as ``digest``'s merged trace (atomic), then
        evict down to ``max_entries``; returns the entries evicted."""
        path = self._path(digest, ".trace")
        data = (json.dumps(document, sort_keys=True) + "\n").encode()
        with self._exclusive():
            atomic_write(path, data)
            return evict_lru(self.root, self.max_entries, ENTRY_SUFFIXES, keep=digest)

    def evict(self) -> int:
        """Drop least-recently-used entries beyond ``max_entries``."""
        with self._exclusive():
            return evict_lru(self.root, self.max_entries, ENTRY_SUFFIXES)
