"""In-process incremental-recompilation state (sweep damage cones).

A parameter sweep re-runs the flow with one knob changed — the clock
target, the calibration table, a single pragma.  The stage-digest chain
(:mod:`repro.pipeline.digest`) already skips stages whose *inputs* are
byte-identical; this module holds the finer-grained memos that shrink the
work of the stages that **do** re-run:

* ``sched`` — per-loop scheduling decisions keyed by (loop content, clock,
  calibration).  A single-pragma flip re-chains only the flipped loop; all
  other loops replay their previous :class:`~repro.scheduling.schedule.Schedule`.
* ``rtl`` — per-loop emission tapes keyed by (loop content, schedule
  decisions, control style).  A loop whose schedule slice is unchanged is
  re-emitted by replaying its recorded cell/net tape instead of re-running
  the emitter logic.
* ``place`` — the previous run's greedy-placement trajectory.  Cells whose
  neighborhood state is unchanged re-take their recorded tile chunks
  (skipping the occupancy's capacity search); the first divergence falls
  back to fresh allocation for the rest of the order.
* ``overlay`` — a persistent in-process
  :class:`~repro.pipeline.store.MemoryStageStore` shared by every run of
  the owning flow.  It is what turns the stage-digest chain into a *sweep*
  damage cone: a re-run point whose stage inputs are byte-identical skips
  the stage outright (the overlay hands back a fresh unpickled copy of the
  previous outputs), so only the stages inside the dirty cone execute.

All three memos are *exact*: every replay reproduces bit-identical state
(tests/test_incremental_flow.py proves fingerprint equality against
from-scratch runs, and the ``incremental`` fuzz check does the same over
random programs).  The state lives on the :class:`~repro.flow.Flow`
instance and works even with the stage-artifact store disabled.

Persistence: each memo write-throughs to an on-disk :class:`MemoSpill`
under ``$REPRO_CACHE_DIR/memos`` (keyed by the content digest of the memo
key), so a *fresh* ``Flow`` — a recycled service worker, a new sweep
process — warms up from the previous owner's entries instead of starting
cold.  Disk hits count into the same ``incremental.<name>_hits`` counters
(plus ``incremental.<name>_spill_hits``); a memo key or value that cannot
be canonicalized/pickled simply stays memory-only.

Escape hatches: ``Flow(incremental=False)``, ``--incremental off``, or
``REPRO_INCREMENTAL=off`` in the environment; ``REPRO_MEMO_SPILL=off``
keeps incremental on but memory-only.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Hashable, Optional

from repro import obs
from repro.cachedir import evict_lru
from repro.hashing import content_digest
from repro.pipeline.store import MemoryStageStore

#: Environment escape hatch: set to ``off`` to disable incremental
#: recompilation everywhere (mirrors ``$REPRO_STAGE_CACHE``).
INCREMENTAL_ENV = "REPRO_INCREMENTAL"

#: Environment escape hatch: set to ``off`` to keep the incremental memos
#: memory-only (no ``$REPRO_CACHE_DIR/memos`` spill).
MEMO_SPILL_ENV = "REPRO_MEMO_SPILL"

#: Values of :data:`INCREMENTAL_ENV` (or ``Flow(incremental=...)`` strings)
#: that mean "disabled".
_OFF_VALUES = ("off", "0", "no", "false")


def incremental_enabled_default() -> bool:
    """Whether incremental recompilation is on absent an explicit setting."""
    return os.environ.get(INCREMENTAL_ENV, "").strip().lower() not in _OFF_VALUES


def memo_spill_enabled_default() -> bool:
    """Whether the memos spill to disk absent an explicit setting."""
    return os.environ.get(MEMO_SPILL_ENV, "").strip().lower() not in _OFF_VALUES


def default_memo_dir() -> str:
    """``$REPRO_CACHE_DIR/memos`` (next to ``stages/`` and ``results/``)."""
    from repro.delay.cache import default_cache_dir

    return os.path.join(default_cache_dir(), "memos")


def coerce_incremental(setting: Any) -> bool:
    """Normalize a ``Flow(incremental=...)`` value to a boolean policy."""
    if setting is None:
        return incremental_enabled_default()
    if isinstance(setting, str):
        return setting.strip().lower() not in _OFF_VALUES
    return bool(setting)


#: On-disk payload format marker (checked on load; a mismatch is a miss).
SPILL_SCHEMA = "repro-memo-spill/1"


class MemoSpill:
    """The shared on-disk side of the incremental memos.

    One flat directory of pickle files, each holding a single memo entry
    named ``<memo>-<sha256(key)>.pkl``.  Keys are canonical-JSON content
    digests (the same recipe as the flow service), so every process —
    and every *future* process — derives identical file names for
    identical memo keys without coordination.

    Robustness over completeness: a key that cannot be canonicalized or a
    value that cannot be pickled is silently skipped (that entry stays
    memory-only), a torn/corrupt file is a miss, and all filesystem
    errors degrade to cache-off behavior.  Writes are atomic
    (temp + ``os.replace``) so concurrent workers never observe partial
    payloads.  The directory is bounded by an mtime LRU: loads refresh
    mtime, and every :data:`PRUNE_EVERY` saves the oldest entries beyond
    ``max_entries`` are deleted (:func:`repro.cachedir.evict_lru`).
    """

    PRUNE_EVERY = 64

    def __init__(
        self, root: Optional[str] = None, max_entries: int = 4096
    ) -> None:
        self.root = root if root is not None else default_memo_dir()
        self.max_entries = max_entries
        self.saves = 0
        self.loads = 0
        self.errors = 0

    def _path(self, name: str, key_digest: str) -> str:
        return os.path.join(self.root, f"{name}-{key_digest}.pkl")

    def _key_digest(self, name: str, key: Hashable) -> Optional[str]:
        try:
            return content_digest(
                {"schema": SPILL_SCHEMA, "memo": name, "key": key}
            )
        except (TypeError, ValueError):
            return None  # non-JSONable key: memory-only entry

    def load(self, name: str, key: Hashable) -> Optional[Any]:
        """The spilled value for ``(name, key)``, or ``None`` on a miss."""
        key_digest = self._key_digest(name, key)
        if key_digest is None:
            return None
        path = self._path(name, key_digest)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                TypeError, AttributeError, ImportError, IndexError):
            return None  # torn/corrupt/foreign file: a miss, not an error
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != SPILL_SCHEMA
            or payload.get("memo") != name
        ):
            return None
        try:
            os.utime(path, None)  # refresh the LRU clock
        except OSError:
            pass
        self.loads += 1
        return payload.get("value")

    def save(self, name: str, key: Hashable, value: Any) -> None:
        """Write-through ``(name, key) → value``; best-effort."""
        key_digest = self._key_digest(name, key)
        if key_digest is None:
            return
        try:
            blob = pickle.dumps(
                {"schema": SPILL_SCHEMA, "memo": name, "value": value},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except (TypeError, AttributeError, pickle.PicklingError):
            self.errors += 1
            return  # unpicklable value: memory-only entry
        path = self._path(name, key_digest)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            self.errors += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.saves += 1
        if self.saves % self.PRUNE_EVERY == 0:
            self.prune()

    def prune(self) -> int:
        """Delete the oldest entries beyond ``max_entries``; returns the
        number removed."""
        return evict_lru(self.root, self.max_entries, (".pkl",))


class _LruMemo:
    """A bounded insertion-refreshed memo with hit/miss counters.

    With a :class:`MemoSpill` attached, an in-memory miss consults disk
    before declaring a real miss, and every put write-throughs — so the
    memo's warm state outlives this process.
    """

    def __init__(
        self,
        name: str,
        max_entries: int,
        spill: Optional[MemoSpill] = None,
    ) -> None:
        self.name = name
        self.max_entries = max_entries
        self.spill = spill
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.spill_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        hit = self._entries.get(key)
        if hit is None and self.spill is not None:
            hit = self.spill.load(self.name, key)
            if hit is not None:
                self._entries[key] = hit
                self._trim()
                self.spill_hits += 1
                obs.add(f"incremental.{self.name}_spill_hits")
        if hit is None:
            self.misses += 1
            obs.add(f"incremental.{self.name}_misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        obs.add(f"incremental.{self.name}_hits")
        return hit

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._trim()
        if self.spill is not None:
            self.spill.save(self.name, key, value)

    def _trim(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


class IncrementalState:
    """Per-:class:`~repro.flow.Flow` workspace of incremental memos.

    Bounded so week-long sweep processes cannot grow without limit; the
    bounds are generous relative to real sweeps (a 9-design × 2-config ×
    10-point campaign touches well under 1k loops).
    """

    MAX_SCHED_ENTRIES = 1024
    MAX_RTL_ENTRIES = 1024
    MAX_PLACE_ENTRIES = 64
    #: ~12 warm sweep points (a full run writes ~11 stage bundles).
    MAX_OVERLAY_ENTRIES = 128

    def __init__(self, spill: Optional[MemoSpill] = None) -> None:
        self.spill = spill
        self.sched = _LruMemo("sched", self.MAX_SCHED_ENTRIES, spill=spill)
        self.rtl = _LruMemo("rtl", self.MAX_RTL_ENTRIES, spill=spill)
        self.place = _LruMemo("place", self.MAX_PLACE_ENTRIES, spill=spill)
        #: Stage outputs shared across this flow's runs (hits unpickle
        #: fresh copies, so cross-run mutation cannot alias).  Not spilled:
        #: the stage-artifact store (``$REPRO_CACHE_DIR/stages``) already
        #: persists the same bundles content-addressed on disk.
        self.overlay = MemoryStageStore(max_entries=self.MAX_OVERLAY_ENTRIES)

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            memo.name: {
                "entries": len(memo),
                "hits": memo.hits,
                "misses": memo.misses,
                "spill_hits": memo.spill_hits,
            }
            for memo in (self.sched, self.rtl, self.place)
        }


@contextmanager
def ensure_traced():
    """Guarantee a real :class:`~repro.obs.Tracer` is active.

    Memo entries bundle a span snapshot (replayed on hits so warm runs
    report the producer's counters — ``scheduling.registers_inserted``
    and friends).  An untraced producer run would snapshot nothing and
    starve every later traced replay, so mirror the
    :class:`~repro.pipeline.manager.PassManager` trick: activate a private
    shadow tracer for the duration when none is active.
    """
    tracer = obs.current_tracer()
    if isinstance(tracer, obs.Tracer):
        yield
    else:
        with obs.activate(obs.Tracer()):
            yield
