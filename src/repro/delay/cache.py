"""Disk persistence for calibration tables.

The paper's calibration is a one-time per-device characterization whose
statistics are "reusable"; this module makes that literal: run the skeleton
sweeps once, save the table, and let later sessions (or CI, or the worker
processes of the parallel experiment engine) load it instead of
re-measuring.  Building the default table runs ~80 placements (~14 s);
loading it back costs well under a millisecond.

JSON format (from :meth:`CalibrationTable.to_dict`) wrapped with metadata::

    {"version": 1, "device": "aws-f1", "seed": 2020, "smooth_passes": 1,
     "curves": {"add_i32": [[1, 0.78], ...], ...}}

The metadata is *provenance*: a table measured on a different device, with
a different placement seed, or with different smoothing is a different
table, and silently substituting one would change every downstream
schedule.  :func:`load_calibration` therefore validates whatever subset of
the provenance the caller pins, and :func:`resolve_calibration` pins all
of it.

Concurrency: :func:`get_or_build_calibration` and
:func:`resolve_calibration` serialize the build-or-load decision through
an exclusive file lock next to the table, so N workers starting at once
produce exactly one characterization run — the first worker builds while
the rest block, then load the saved file.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro import hashing
from repro.cachedir import atomic_write, file_lock
from repro.delay.calibrated import CalibrationTable
from repro.delay.calibration import build_default_calibration
from repro.errors import ReproError
from repro.obs.journal import emit_event

FORMAT_VERSION = 1

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Whether the lockless-fallback warning has fired yet (once per process).
_LOCKLESS_WARNED = False


def _warn_lockless_once() -> None:
    """One warning, first time the lock degrades — not once per call site.

    The cache still works without ``fcntl`` (atomic renames keep readers
    consistent); what is lost is build-once economy: N cold processes may
    each pay for their own characterization.  Worth saying once, not worth
    crashing over, and not worth repeating on every flow run.
    """
    global _LOCKLESS_WARNED
    if _LOCKLESS_WARNED:
        return
    _LOCKLESS_WARNED = True
    warnings.warn(
        "fcntl is unavailable on this platform; calibration caching falls "
        "back to lockless best-effort mode (concurrent cold processes may "
        "each re-characterize instead of sharing one build)",
        RuntimeWarning,
        stacklevel=4,
    )


@dataclass(frozen=True)
class CalibrationProvenance:
    """What a stored table was measured with — its identity, not just tags."""

    device: str
    seed: int
    smooth_passes: int
    version: int = FORMAT_VERSION

    def mismatches(self, other: "CalibrationProvenance") -> Dict[str, Tuple]:
        """Fields where ``self`` (stored) differs from ``other`` (wanted)."""
        diffs: Dict[str, Tuple] = {}
        for name in ("version", "device", "seed", "smooth_passes"):
            stored, wanted = getattr(self, name), getattr(other, name)
            if stored != wanted:
                diffs[name] = (stored, wanted)
        return diffs

    def digest(self) -> str:
        """Canonical content digest of this provenance.

        The flow-compilation service folds this into its request digests
        (see :mod:`repro.service.request`), so a request compiled against
        one characterization identity can never alias a result compiled
        against another.  Uses the shared :mod:`repro.hashing` recipe.
        """
        return hashing.content_digest(
            {
                "kind": "calibration-provenance",
                "device": self.device,
                "seed": self.seed,
                "smooth_passes": self.smooth_passes,
                "version": self.version,
            }
        )


def save_calibration(
    table: CalibrationTable,
    path: str,
    device: str,
    seed: int = 2020,
    smooth_passes: int = 1,
) -> None:
    """Write a calibration table plus provenance metadata to ``path``.

    The write is atomic (temp file + rename) so a reader that does not hold
    the lock can never observe a half-written table.
    """
    payload = {
        "version": FORMAT_VERSION,
        "device": device,
        "seed": seed,
        "smooth_passes": smooth_passes,
        "curves": table.to_dict(),
    }
    atomic_write(
        os.path.abspath(path), json.dumps(payload, indent=2, sort_keys=True).encode()
    )


def read_provenance(path: str) -> CalibrationProvenance:
    """The provenance block of a saved table, without loading the curves."""
    with open(path) as handle:
        payload = json.load(handle)
    return _provenance_of(payload, path)


def _provenance_of(payload: dict, path: str) -> CalibrationProvenance:
    try:
        return CalibrationProvenance(
            device=str(payload["device"]),
            seed=int(payload["seed"]),
            smooth_passes=int(payload["smooth_passes"]),
            version=int(payload.get("version", -1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(
            f"calibration file {path!r} is missing provenance metadata: {exc}"
        ) from exc


def load_calibration(
    path: str,
    device: Optional[str] = None,
    seed: Optional[int] = None,
    smooth_passes: Optional[int] = None,
) -> CalibrationTable:
    """Load a saved table, validating its provenance.

    The format version is always checked; ``device``, ``seed`` and
    ``smooth_passes`` are checked when the caller pins them.  A stale table
    that silently changed downstream schedules would be far worse than the
    :class:`ReproError` raised here.
    """
    with open(path) as handle:
        payload = json.load(handle)
    stored = _provenance_of(payload, path)
    wanted = CalibrationProvenance(
        device=stored.device if device is None else device,
        seed=stored.seed if seed is None else seed,
        smooth_passes=stored.smooth_passes if smooth_passes is None else smooth_passes,
    )
    diffs = stored.mismatches(wanted)
    if diffs:
        detail = ", ".join(
            f"{name}: stored {got!r}, need {want!r}"
            for name, (got, want) in sorted(diffs.items())
        )
        raise ReproError(
            f"calibration file {path!r} does not match the requested "
            f"provenance ({detail}); re-characterize or point at the right file"
        )
    return CalibrationTable.from_dict(payload["curves"])


# ---------------------------------------------------------------------------
# Cache location and locking
# ---------------------------------------------------------------------------
def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def default_calibration_path(
    device: str, seed: int = 2020, smooth_passes: int = 1
) -> str:
    """Auto cache path; the full provenance is encoded in the file name, so
    distinct characterizations never collide."""
    name = f"calibration-v{FORMAT_VERSION}-{device}-seed{seed}-smooth{smooth_passes}.json"
    return os.path.join(default_cache_dir(), name)


@contextmanager
def calibration_lock(path: str) -> Iterator[None]:
    """Exclusive advisory lock guarding the build-or-load of ``path``.

    Concurrent engine workers serialize here: exactly one pays for the
    characterization, the rest block and then load the saved file.  On
    platforms without ``fcntl`` the lock degrades to a no-op (the atomic
    rename in :func:`save_calibration` still keeps readers consistent).
    """
    with file_lock(path + ".lock") as locked:
        if not locked:
            _warn_lockless_once()
        yield


def get_or_build_calibration(
    path: str,
    device: str = "aws-f1",
    seed: int = 2020,
    smooth_passes: int = 1,
) -> CalibrationTable:
    """Load ``path`` if present, otherwise characterize and save — under the
    file lock, so concurrent callers characterize exactly once.

    The workhorse for scripts and CI: the first run pays for the skeleton
    sweeps, every later run starts instantly.
    """
    with calibration_lock(path):
        if os.path.exists(path):
            return load_calibration(
                path, device=device, seed=seed, smooth_passes=smooth_passes
            )
        table = build_default_calibration(
            device, seed=seed, smooth_passes=smooth_passes
        )
        save_calibration(
            table, path, device=device, seed=seed, smooth_passes=smooth_passes
        )
        return table


#: In-process memo over :func:`resolve_calibration` (keyed by full identity),
#: so one process never re-reads the file it just loaded.
_MEMORY: Dict[Tuple[str, int, int, str], CalibrationTable] = {}

#: ``source`` values :func:`resolve_calibration` can report.
SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"
SOURCE_BUILT = "built"


def resolve_calibration(
    device: str,
    seed: int = 2020,
    smooth_passes: int = 1,
    path: Optional[str] = None,
) -> Tuple[CalibrationTable, str]:
    """The one-stop calibration lookup the flow and engine workers use.

    Resolution order: in-process memo → on-disk cache (``path`` or the auto
    path under :func:`default_cache_dir`) → build and save.  Returns the
    table plus where it came from (``"memory"``/``"disk"``/``"built"``) so
    callers can report cache effectiveness.
    """
    target = path or default_calibration_path(device, seed, smooth_passes)
    key = (device, seed, smooth_passes, os.path.abspath(target))
    if key in _MEMORY:
        return _MEMORY[key], SOURCE_MEMORY
    with calibration_lock(target):
        if os.path.exists(target):
            table = load_calibration(
                target, device=device, seed=seed, smooth_passes=smooth_passes
            )
            source = SOURCE_DISK
        else:
            table = build_default_calibration(
                device, seed=seed, smooth_passes=smooth_passes
            )
            save_calibration(
                table, target, device=device, seed=seed, smooth_passes=smooth_passes
            )
            emit_event(
                "calibration.build",
                device=device,
                seed=seed,
                smooth_passes=smooth_passes,
                path=target,
            )
            source = SOURCE_BUILT
    _MEMORY[key] = table
    return table, source
