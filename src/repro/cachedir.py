"""Atomic writes, mtime-LRU eviction and the file lock of the on-disk caches.

Every file the caches write (stage and result entries, calibration
tables, trace documents and spools, quarantine records) goes through
:func:`atomic_write`: a temp file in the target's directory, then
``os.replace``, so a concurrent reader sees the old file or the new one,
never a torn one.

The stage store and the result store each keep one flat directory of
entries named ``<key><suffix>``.  An entry's recency is the
mtime of its first present file in ``suffixes`` order (reads refresh it);
victims go oldest first, ties broken by key.  Eviction reads directory
metadata only: one ``os.listdir`` counts the entries, and only a directory
over its bound is stat'ed, so a write costs the same however full the store
is.  Entries count by file name alone, so a corrupt sidecar or a payload
left without one still counts and is evicted in its turn.

The calibration cache and the result store serialize their writers with
:func:`file_lock`.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

try:  # POSIX advisory locks; without fcntl, file_lock is a no-op
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Payload + sidecar entries (``<digest>.pkl`` + ``<digest>.json``).  The
#: sidecar is written last and touched on every hit, so it carries recency;
#: a payload left without one falls back to its own mtime.
SIDECAR_SUFFIXES = (".json", ".pkl")


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file and ``os.replace``.

    The temp file lives in ``path``'s directory (a rename never crosses a
    filesystem) and is removed if the write fails.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def file_lock(lock_path: str) -> Iterator[bool]:
    """Hold an exclusive ``flock`` on ``lock_path`` for the ``with`` body.

    Yields True while locked.  Without ``fcntl`` it yields False, creates
    no lock file and serializes nothing; callers decide whether to warn.
    ``flock`` is per open-file-description, so each acquisition opens its
    own handle: usable from any process or thread, but not re-entrant
    within one thread (a nested acquisition deadlocks).
    """
    if fcntl is None:
        yield False
        return
    os.makedirs(os.path.dirname(os.path.abspath(lock_path)), exist_ok=True)
    with open(lock_path, "ab") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield True
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _keys(names: Iterable[str], suffixes: Sequence[str]) -> Set[str]:
    return {n[: -len(x)] for n in names for x in suffixes if n.endswith(x)}


def _mtime(root: str, key: str, suffixes: Sequence[str]) -> Optional[float]:
    """Mtime of ``key``'s recency file, or ``None`` once it is gone."""
    for suffix in suffixes:
        try:
            return os.stat(os.path.join(root, key + suffix)).st_mtime
        except OSError:
            continue
    return None


def scan_lru(
    root: str, suffixes: Sequence[str], names: Optional[List[str]] = None
) -> List[Tuple[float, str]]:
    """``(mtime, key)`` of every entry under ``root``, LRU first."""
    records = []
    for key in _keys(os.listdir(root) if names is None else names, suffixes):
        mtime = _mtime(root, key, suffixes)
        if mtime is not None:  # else concurrently evicted
            records.append((mtime, key))
    records.sort()
    return records


def evict_lru(
    root: str, max_entries: int, suffixes: Sequence[str], keep: Optional[str] = None
) -> int:
    """Unlink the least-recently-used entries beyond ``max_entries``.

    Each victim's mtime is re-checked against the scan before it goes: an
    entry rewritten or read since the scan is no longer least-recently-used
    and is spared.  ``keep`` (the entry a put just wrote) is never a
    victim: readers refreshing every other entry during the put would
    otherwise make it the oldest.  Returns the number of entries evicted.
    """
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    if len(_keys(names, suffixes)) <= max_entries:
        return 0
    records = scan_lru(root, suffixes, names)
    excess = len(records) - max_entries
    evicted = 0
    for mtime, key in [r for r in records if r[1] != keep][:excess]:
        if _mtime(root, key, suffixes) != mtime:
            continue  # touched since the scan, or already gone
        for suffix in suffixes:
            try:
                os.unlink(os.path.join(root, key + suffix))
            except OSError:
                pass
        evicted += 1
    return evicted


def read_sidecars(root: str) -> List[Dict[str, Any]]:
    """Every parseable ``.json`` sidecar under ``root``, each with its
    ``_mtime``, least-recently-used first.  For listings, not eviction."""
    try:
        names = os.listdir(root)
    except OSError:
        return []
    records = []
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(root, name)
        try:
            with open(path) as handle:
                meta = json.load(handle)
            meta["_mtime"] = os.path.getmtime(path)
        except (OSError, json.JSONDecodeError):
            continue
        records.append(meta)
    records.sort(key=lambda rec: (rec["_mtime"], rec.get("digest", "")))
    return records
