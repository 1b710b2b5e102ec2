"""The stage artifact store: ``$REPRO_CACHE_DIR/stages/``.

Content-addressed persistence for individual pipeline stages, one level
below the whole-flow :class:`~repro.service.store.ResultStore`.  Every
entry is the bundled outputs of one stage execution, keyed by the stage's
input digest (see :mod:`repro.pipeline.digest`).  Two files per entry:

* ``<digest>.pkl`` — the output bundle, zlib-compressed.  Decompressed,
  it is one header line, ``<schema> <stage>\n`` (e.g.
  ``repro-stage-store/4 scheduling``), followed by the pickled outputs
  dict.  Scheduling stores ``{lowered, schedules, schedule_edits}``
  *together* so object identity between a schedule entry and the DFG
  operation it points at survives a round trip.  A *sidecar-only
  checkpoint* (:attr:`Stage.sidecar_only
  <repro.pipeline.stage.Stage.sidecar_only>`: placement, spreading,
  replication) stores an empty bundle here;
* ``<digest>.json`` — a compact metadata sidecar holding the stage name,
  the bundle's output keys (``outputs``; empty for a sidecar-only
  checkpoint), the observability snapshot (span attrs, counters, raw
  histogram samples, child spans) replayed when the stage is skipped, and
  the content digests early cutoff chains from.

The header and the sidecar's key list let a reader check that an entry
can serve a run without unpickling it: :meth:`StoredStage.read` returns
the decompressed bytes only if zlib's checksum and the header's schema
hold, and :func:`decode_outputs` unpickles them later, if anything reads
the outputs at all.

Writes go through :func:`repro.cachedir.atomic_write` (temp file +
rename), payload first and sidecar last, so a visible sidecar implies a
complete payload; eviction is mtime-LRU with ``get`` refreshing recency,
and a missing/corrupt file never fails a run.  ``get`` reads a missing or
corrupt sidecar as a miss; a payload that fails to read, decompress or
carry the right header only surfaces at :meth:`StoredStage.read` (or
:meth:`StoredStage.load`), and the
:class:`~repro.pipeline.manager.PassManager` then re-runs the flow with
that entry treated as a miss.  Eviction reads only names and mtimes
(:func:`repro.cachedir.evict_lru`).  A sidecar whose ``schema`` is not
:data:`STAGE_STORE_SCHEMA` (an entry written by an older layout, e.g. a
payload without a header) is a miss too.

Every :meth:`StoredStage.load` unpickles a fresh object graph: downstream
stages mutate their inputs in place, so handing out a shared live object
would let one run corrupt another's artifacts.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cachedir import SIDECAR_SUFFIXES, atomic_write, evict_lru, read_sidecars
from repro.delay.cache import default_cache_dir
from repro.errors import ReproError

#: Version tag of the on-disk stage entry layout (``/2``: zlib payloads;
#: ``/3``: tuple-state :class:`~repro.rtl.netlist.Net` pickles; ``/4``: a
#: payload header line and the sidecar's ``outputs`` key list).
STAGE_STORE_SCHEMA = "repro-stage-store/4"

#: What every decompressed payload starts with; the stage name and a
#: newline follow it.
_HEADER = STAGE_STORE_SCHEMA.encode() + b" "

#: zlib level of on-disk payloads: level 1 shrinks stage bundles ~4.6x
#: at a fraction of the cost of pickling them.
PAYLOAD_ZLIB_LEVEL = 1

#: Environment toggle: set to ``off``/``0``/``no`` to disable the on-disk
#: stage cache.
STAGE_CACHE_ENV = "REPRO_STAGE_CACHE"

#: Default LRU bound.  Stage bundles are smaller than whole-flow results
#: and a full run writes ~10 of them, so the bound is set to cover several
#: sweeps' worth of distinct stage points.
DEFAULT_MAX_ENTRIES = 512


def stage_cache_enabled() -> bool:
    """False when ``$REPRO_STAGE_CACHE`` is ``off``/``0``/``no``."""
    flag = os.environ.get(STAGE_CACHE_ENV, "on").strip().lower()
    return flag not in ("off", "0", "no", "false")


def default_stage_dir() -> str:
    """``$REPRO_CACHE_DIR/stages`` (see :func:`default_cache_dir`)."""
    return os.path.join(default_cache_dir(), "stages")


def encode_outputs(stage: str, outputs: Dict[str, Any]) -> bytes:
    """One stage's uncompressed payload: the header line, then the pickled
    output bundle (deep DFG graphs need headroom)."""
    # Imported lazily: engine.pool imports repro.flow, which imports this
    # package — a module-level import here would close the cycle.
    from repro.engine.pool import ensure_pickle_depth

    ensure_pickle_depth()
    # One buffer: the pickler streams its frames after the header, so the
    # bundle (megabytes on large designs) is never copied to prepend it.
    buffer = io.BytesIO()
    buffer.write(_HEADER + stage.encode() + b"\n")
    pickle.dump(outputs, buffer, protocol=4)
    return buffer.getvalue()


def _body_offset(data: bytes) -> int:
    """Where the pickle starts in a payload; raises unless the header
    carries :data:`STAGE_STORE_SCHEMA`."""
    end = data.find(b"\n", 0, 256)
    if not data.startswith(_HEADER) or end < 0:
        header = bytes(data[: end if end >= 0 else 40])
        raise ReproError(
            f"stage-store payload has header {header!r}, "
            f"expected {STAGE_STORE_SCHEMA!r}"
        )
    return end + 1


def decode_outputs(data: bytes) -> Dict[str, Any]:
    """Unpickle a payload written by :func:`encode_outputs`."""
    from repro.engine.pool import ensure_pickle_depth

    offset = _body_offset(data)
    ensure_pickle_depth()
    return pickle.loads(memoryview(data)[offset:])


@dataclass
class StoredStage:
    """One store hit: sidecar metadata plus a lazy output loader."""

    digest: str
    meta: Dict[str, Any]
    path: str

    @property
    def stage(self) -> str:
        return self.meta.get("stage", "")

    @property
    def outputs(self) -> Tuple[str, ...]:
        """The bundle's output keys, from the sidecar (empty for a
        sidecar-only checkpoint)."""
        return tuple(self.meta.get("outputs") or ())

    def read(self) -> bytes:
        """The decompressed payload, checked but not unpickled.

        Raises if the file is gone, fails zlib's checksum (a torn or
        truncated file) or carries another schema's header.
        """
        with open(self.path, "rb") as handle:
            data = zlib.decompress(handle.read())
        _body_offset(data)
        return data

    def load(self) -> Dict[str, Any]:
        """Read and unpickle the output bundle — always a fresh object graph."""
        return decode_outputs(self.read())


class StageArtifactStore:
    """Bounded, content-addressed on-disk cache of stage artifacts.

    Picklable (plain root/bound attributes), so a :class:`~repro.flow.Flow`
    carrying one ships cleanly to engine worker processes — every worker
    then shares the same artifact directory, and concurrent same-digest
    writes are idempotent by the atomic-replace discipline.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise ReproError(f"max_entries must be >= 1, got {max_entries}")
        self.root = root or default_stage_dir()
        self.max_entries = max_entries

    # -- paths -----------------------------------------------------------
    def _payload_path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.pkl")

    def _meta_path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    # -- read side -------------------------------------------------------
    def get(self, digest: str) -> Optional[StoredStage]:
        """Look up ``digest``; a hit refreshes the entry's LRU recency."""
        payload_path = self._payload_path(digest)
        meta_path = self._meta_path(digest)
        try:
            with open(meta_path) as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if meta.get("schema") != STAGE_STORE_SCHEMA:
            return None  # older layout: never hand it to zlib
        if not os.path.exists(payload_path):
            return None
        now = time.time()
        for path in (payload_path, meta_path):
            try:
                os.utime(path, (now, now))
            except OSError:  # raced an eviction; treat as a miss
                return None
        return StoredStage(digest=digest, meta=meta, path=payload_path)

    def entries(self) -> List[Dict[str, Any]]:
        """All sidecar records, least-recently-used first (for listings)."""
        return read_sidecars(self.root)

    def __len__(self) -> int:
        try:
            return sum(1 for n in os.listdir(self.root) if n.endswith(".pkl"))
        except OSError:
            return 0

    def __bool__(self) -> bool:
        # An empty store must not be falsy: ``store or default`` would
        # silently swap in the default root (same trap as ResultStore).
        return True

    # -- write side ------------------------------------------------------
    def put(self, digest: str, payload: bytes, meta: Dict[str, Any]) -> int:
        """Store one entry atomically, then evict down to ``max_entries``.

        ``payload`` comes pre-encoded (see :func:`encode_outputs`); it is
        compressed here, and ``meta["payload_bytes"]`` records its
        uncompressed length.  ``meta["outputs"]`` should list the bundle's
        keys: a reader serves only the keys listed there.  Returns the
        number of entries evicted.
        """
        os.makedirs(self.root, exist_ok=True)
        meta = dict(meta)
        meta["schema"] = STAGE_STORE_SCHEMA
        meta["digest"] = digest
        meta["created_s"] = time.time()
        meta["payload_bytes"] = len(payload)
        # Payload first, sidecar last: a reader that sees the sidecar is
        # guaranteed the payload already exists.
        atomic_write(
            self._payload_path(digest), zlib.compress(payload, PAYLOAD_ZLIB_LEVEL)
        )
        atomic_write(
            self._meta_path(digest),
            json.dumps(meta, sort_keys=True, separators=(",", ":")).encode(),
        )
        return evict_lru(self.root, self.max_entries, SIDECAR_SUFFIXES, keep=digest)

    def evict(self) -> int:
        """Drop least-recently-used entries beyond ``max_entries``."""
        return evict_lru(self.root, self.max_entries, SIDECAR_SUFFIXES)
