"""In-process incremental-recompilation state (sweep damage cones).

A parameter sweep re-runs the flow with one knob changed — the clock
target, the calibration table, a single pragma.  Two mechanisms, both
driven by the stage-digest chain (:mod:`repro.pipeline.digest`), keep
such a re-run to the stages the change actually reaches:

* ``overlay`` — a persistent in-process
  :class:`~repro.pipeline.store.MemoryStageStore` shared by every run of
  the owning flow.  A re-run point whose stage inputs are byte-identical
  skips the stage outright (the overlay hands back a fresh unpickled copy
  of the previous outputs), so only the stages inside the dirty cone
  execute — even with the on-disk stage store disabled.
* **early cutoff** — stages chain each output key from the *content*
  digest of what they produced (:meth:`~repro.pipeline.stage.Stage.
  content_digests`), so a re-run stage that reproduced identical outputs
  (a clock bump that changes no scheduling decision) invalidates nothing
  downstream.

Both are exact: a skipped stage hands back outputs that are byte-identical
to a re-run (tests/test_incremental_flow.py proves fingerprint equality
against from-scratch runs, and the ``incremental`` fuzz check does the
same over random programs).

Escape hatches: ``Flow(incremental=False)``, ``--incremental off``, or
``REPRO_INCREMENTAL=off`` in the environment.
"""

from __future__ import annotations

import os
from typing import Any

from repro.pipeline.store import MemoryStageStore

#: Environment escape hatch: set to ``off`` to disable incremental
#: recompilation everywhere (mirrors ``$REPRO_STAGE_CACHE``).
INCREMENTAL_ENV = "REPRO_INCREMENTAL"

#: Values of :data:`INCREMENTAL_ENV` (or ``Flow(incremental=...)`` strings)
#: that mean "disabled".
_OFF_VALUES = ("off", "0", "no", "false")


def incremental_enabled_default() -> bool:
    """Whether incremental recompilation is on absent an explicit setting."""
    return os.environ.get(INCREMENTAL_ENV, "").strip().lower() not in _OFF_VALUES


def coerce_incremental(setting: Any) -> bool:
    """Normalize a ``Flow(incremental=...)`` value to a boolean policy."""
    if setting is None:
        return incremental_enabled_default()
    if isinstance(setting, str):
        return setting.strip().lower() not in _OFF_VALUES
    return bool(setting)


class IncrementalState:
    """Per-:class:`~repro.flow.Flow` incremental workspace.

    Bounded so week-long sweep processes cannot grow without limit.
    """

    #: ~12 warm sweep points (a full run writes ~11 stage bundles).
    MAX_OVERLAY_ENTRIES = 128

    def __init__(self) -> None:
        #: Stage outputs shared across this flow's runs (hits unpickle
        #: fresh copies, so cross-run mutation cannot alias).  Not spilled:
        #: the stage-artifact store (``$REPRO_CACHE_DIR/stages``) already
        #: persists the same bundles content-addressed on disk.
        self.overlay = MemoryStageStore(max_entries=self.MAX_OVERLAY_ENTRIES)
