"""Per-request merged traces and the worker trace spool.

Two pieces of the cross-process trace story live here:

* :class:`TraceStore` — a tiny content-addressed store of **merged trace
  documents** (``repro-trace/1``), one per request digest: the daemon's
  ``service.job`` span plus the span forest of *every* worker attempt,
  partial ones included.  A store hit writes none, so the document stays
  the compile's.  ``repro trace --request <digest>`` and
  ``GET /trace/<digest>`` read from it.
* the **trace spool** — the one way a worker attempt's spans come home.
  The worker runs a background thread that periodically snapshots its
  live tracer to a spool file (atomic temp+rename, so the daemon never
  reads a torn file), and writes it once more when the flow succeeds.
  After *every* attempt the daemon rebuilds the spooled snapshots via
  :func:`repro.obs.snapshot.rebuild_span` and tags them with the trace
  identity; an attempt that died or raised leaves its last generation,
  tagged ``partial`` — the trace shows exactly how far it got.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional

from repro import obs
from repro.cachedir import atomic_write
from repro.delay.cache import default_cache_dir
from repro.obs.journal import emit_event

#: Version tag of merged per-request trace documents.
TRACE_SCHEMA = "repro-trace/1"

#: How often the worker spools its live tracer (s).  Low enough that even
#: a worker killed a few ms into a stage leaves evidence.
SPOOL_INTERVAL_S = 0.05


def default_trace_dir() -> str:
    return os.path.join(default_cache_dir(), "traces")


class TraceStore:
    """Merged trace documents keyed by request digest (atomic writes)."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_trace_dir()

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    def put(self, digest: str, document: Dict[str, Any]) -> None:
        try:
            os.makedirs(self.root, exist_ok=True)
            atomic_write(
                self._path(digest),
                (json.dumps(document, sort_keys=True) + "\n").encode(),
            )
        except OSError:
            pass  # traces are forensics, never a reason to fail the job

    def resolve(self, prefix: str) -> List[str]:
        """Stored request digests starting with ``prefix``, sorted.
        ``repro submit`` prints 12-character digest prefixes, and this is
        how ``repro trace --request`` accepts them."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json") and name.startswith(prefix)
        )

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._path(digest)) as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return document if isinstance(document, dict) else None


def rebuild_trace(document: Dict[str, Any]) -> List[obs.Span]:
    """All spans of a merged trace document as live :class:`~repro.obs.Span`
    trees (daemon span first, then every attempt's roots)."""
    roots: List[obs.Span] = []
    daemon_span = obs.rebuild_span(document.get("daemon_span") or {})
    if daemon_span is not None:
        roots.append(daemon_span)
    for snapshot in document.get("worker_spans") or ():
        span = obs.rebuild_span(snapshot)
        if span is not None:
            roots.append(span)
    return roots


# ---------------------------------------------------------------------------
# Worker-side spool
# ---------------------------------------------------------------------------
def write_spool(path: str, tracer: obs.Tracer, meta: Dict[str, Any]) -> None:
    """Snapshot ``tracer``'s current forest to ``path`` atomically.

    The tracer is live (spans still mutating on the worker's main thread),
    so the snapshot is best-effort: a torn read of an in-flight list raises
    and this write round is simply skipped — the previous spool generation
    stays in place.
    """
    spans = [obs.snapshot_span(root) for root in list(tracer.roots)]
    document = {"meta": meta, "spans": [s for s in spans if s]}
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    atomic_write(path, json.dumps(document, default=str).encode())


def read_spool(path: str) -> Optional[Dict[str, Any]]:
    """The last complete spool generation, or ``None``."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return document if isinstance(document, dict) else None


def discard_spool(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class TraceSpool:
    """Background thread spooling a live tracer: the attempt's span record
    after a success, its forensics after a crash."""

    def __init__(
        self,
        tracer: obs.Tracer,
        path: str,
        meta: Optional[Dict[str, Any]] = None,
        interval_s: float = SPOOL_INTERVAL_S,
    ) -> None:
        self._tracer = tracer
        self.path = path
        self.meta = dict(meta or {})
        self.interval_s = interval_s
        #: Consecutive failed write rounds; exposed for tests/forensics.
        self.failures = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-trace-spool", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._write_once()

    def _write_once(self) -> None:
        """One best-effort spool round.

        Transient failures (a torn read of a span list mutating on the
        main thread, a disk hiccup) are expected — the next round wins and
        the previous spool generation stays readable.  But they must not
        be *silent*: a spool that has quietly stopped writing means a
        killed worker leaves no forensics.  The first failure of a streak
        and the eventual recovery each emit one journal event (not one per
        round — at 50ms intervals that would flood the journal).
        Programming errors (``TypeError``/``AttributeError``) re-raise:
        those never heal on retry.
        """
        try:
            write_spool(self.path, self._tracer, self.meta)
        except (TypeError, AttributeError):
            raise
        except Exception as exc:
            self.failures += 1
            if self.failures == 1:
                emit_event(
                    "trace.spool_write_failed",
                    path=self.path,
                    error=f"{type(exc).__name__}: {exc}",
                )
            return
        if self.failures:
            emit_event(
                "trace.spool_recovered", path=self.path, failures=self.failures
            )
            self.failures = 0

    def start(self) -> "TraceSpool":
        self._thread.start()
        return self

    def stop(self, final_write: bool = True) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)
        if final_write:
            self._write_once()
