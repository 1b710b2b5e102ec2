"""Reference refine engine: rebuild every summary, attempt every trial.

:meth:`repro.physical.placement.Placer._refine` caches each cell's
neighborhood summary and skips failed trials that provably cannot
succeed on a re-run.  This subclass drops both shortcuts.  Everything
upstream of refinement is inherited, so for a fixed seed a whole
``place()`` on either class isolates the refine engine: both must accept
the same moves and land every cell on the same tiles.
"""

from __future__ import annotations

from repro.physical.placement import REFINE_OUTLIER_MIN, Placer
from repro.rtl.netlist import CellKind


class ReferenceRefinePlacer(Placer):
    """A :class:`Placer` whose refine pass is the naive formulation."""

    def _refine(
        self,
        cells,
        neighbors,
        occupancy,
        placement,
        ctx=None,
        threshold=REFINE_OUTLIER_MIN,
    ) -> int:
        moved = 0
        for cell in cells:
            if cell.kind is CellKind.PORT:
                continue
            st = self._neighbor_state(cell.name, neighbors, placement)
            if st.count == 0:
                continue
            if self._refine_trial(cell, st, occupancy, placement, threshold):
                moved += 1
        return moved
